//! The campaign's headline property, stated once for all seven stages:
//! the rows — and the exact bytes `campaign` writes to `BENCH_<stage>.json`
//! — produced at 2, 4 and 7 worker threads are **bitwise identical** to
//! the `threads = 1` serial reference. That covers Table 1's early-exit
//! trial count (the "stop after `target_crashes`" cutoff must be a
//! deterministic trial index, not a scheduling race), the arena counters
//! in every Figure 8 row, and the continuous-fault stages, which hold only
//! because every trial derives its arrival/victim streams by O(1) seed
//! splitting instead of consuming a shared sequential RNG.

use ft_bench::avail::AvailConfig;
use ft_bench::campaign::{
    CampaignConfig, Fig8Config, Fig8Stage, LossStage, Table1Stage, Table2Stage,
};
use ft_bench::durable::DurableStage;
use ft_bench::kv::KvConfig;
use ft_bench::stage::{assert_thread_invariant, Stage};
use ft_faults::FaultType;

/// Small but real sizes: crash-prone fault types reach `TARGET` before
/// `MAX` (exercising the early exit) and benign ones run to `MAX`.
const TARGET: u32 = 3;
const MAX: u32 = 20;

fn cfg() -> CampaignConfig {
    CampaignConfig {
        target_crashes: TARGET,
        max_trials: MAX,
        table2_trials: 5,
        loss_rates: vec![0.0, 0.02, 0.05],
        fig8: Fig8Config {
            seed: 7,
            nvi_keys: 30,
            treadmarks_iters: 6,
            taskfarm_workers: 3,
            xpilot_frames: 12,
        },
        ..CampaignConfig::default()
    }
}

#[test]
fn table1_is_thread_invariant_including_the_early_exit_count() {
    let rows = assert_thread_invariant(&Table1Stage(&cfg()));
    // The early exit itself must be exercised by these sizes — a
    // crash-prone type stops before MAX, so the *trial count* (not just
    // the tallies) is part of the equivalence.
    let (app, nvi) = &rows[0];
    let branch = nvi
        .iter()
        .find(|r| r.fault == FaultType::DeleteBranch)
        .unwrap();
    assert!(
        branch.crashes == TARGET && branch.trials < MAX,
        "{}: sizes must exercise the early exit (got {branch:?})",
        app.name()
    );
}

#[test]
fn table2_is_thread_invariant() {
    assert_thread_invariant(&Table2Stage(&cfg()));
}

#[test]
fn loss_sweep_is_thread_invariant() {
    assert_thread_invariant(&LossStage(&cfg()));
}

#[test]
fn fig8_is_thread_invariant() {
    assert_thread_invariant(&Fig8Stage(&cfg()));
}

#[test]
fn durable_is_thread_invariant() {
    assert_thread_invariant(&DurableStage { quick: true });
}

#[test]
fn avail_is_thread_invariant() {
    assert_thread_invariant(&AvailConfig::quick());
}

/// Quick size, trimmed further so the whole matrix runs in a few seconds
/// per thread count.
#[test]
fn kv_is_thread_invariant_and_violation_free() {
    let mut cfg = KvConfig::quick();
    cfg.requests_per_gateway = 60;
    cfg.sessions = 5_000;
    let rows = assert_thread_invariant(&cfg);
    assert_eq!(
        cfg.gate(&rows),
        Ok(()),
        "reference run must be violation-free"
    );
}
