//! One sub-second path through each harness crate, so the root package's
//! `cargo test` (the tier-1 gate) notices when `ft-bench`, `ft-check` or
//! `ft-analyze` break. The full suites live in those crates.

use ft_analyze::report::analyze;
use ft_apps::scenarios;
use ft_bench::campaign::{CampaignConfig, Table2Stage};
use ft_bench::stage::assert_thread_invariant;
use ft_check::explore::explore;
use ft_check::scenario::{CheckConfig, Workload};
use ft_core::protocol::Protocol;
use ft_dc::harness::DcHarness;
use ft_dc::state::DcConfig;

#[test]
fn a_campaign_stage_is_thread_invariant() {
    let cfg = CampaignConfig {
        table2_trials: 2,
        ..CampaignConfig::quick()
    };
    let rows = assert_thread_invariant(&Table2Stage(&cfg));
    assert!(rows.iter().all(|(_, r)| r.iter().all(|r| r.crashes == 2)));
}

#[test]
fn the_model_checker_exhausts_a_size_one_sweep() {
    let w = Workload {
        name: "nvi",
        seed: 7,
        size: 1,
    };
    let ex = explore(&w, &CheckConfig::new(Protocol::Cpvs));
    assert!(ex.violations().is_empty(), "{:?}", ex.violations());
    // Structural state count: one schedule per crash point plus the
    // failure-free run, and how many distinct end states they reach.
    assert_eq!((ex.explored(), ex.unique_fingerprints), (8, 6));
}

#[test]
fn the_analyzer_passes_a_clean_cell_and_flags_the_seeded_race() {
    let run = |built: scenarios::Built| {
        let (sim, apps) = built.into_parts();
        let report = DcHarness::new(sim, DcConfig::discount_checking(Protocol::Cpvs), apps).run();
        analyze(&report.trace, &report.shm)
    };
    let clean = run(scenarios::taskfarm(7, 2));
    assert!(clean.is_clean() && clean.savework_agrees, "{clean:?}");
    let racy = run(scenarios::taskfarm_racy(7, 2));
    assert!(
        !racy.races.is_empty() && !racy.lockset.is_empty(),
        "the unlocked task-counter peek must trip both race passes"
    );
}
