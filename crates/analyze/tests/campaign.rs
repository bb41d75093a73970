//! The analyzer over real recorded runs: the clean workload matrix, the
//! seeded-race mutants, and audit agreement with the production Save-work
//! checker — at reduced sizes for debug-mode speed (`ft-bench`'s `analyze`
//! stage runs the golden sizes, and its thread-invariance is pinned in
//! `crates/bench/tests/stage_equivalence.rs`).

use ft_analyze::report::{analyze, AnalysisReport};
use ft_apps::scenarios::{self, Built};
use ft_core::protocol::Protocol;
use ft_core::savework::check_save_work;
use ft_dc::harness::{DcHarness, DcReport};
use ft_dc::state::DcConfig;

const SEED: u64 = 7;

/// Reduced-size builders for every workload in the matrix.
fn build(workload: &str, size: usize) -> Built {
    scenarios::family(workload, SEED, size).expect("a scenario family")
}

const MATRIX: &[(&str, usize)] = &[
    ("nvi", 10),
    ("magic", 4),
    ("xpilot", 6),
    ("treadmarks", 3),
    ("taskfarm", 2),
    ("postgres", 4),
];

fn run(workload: &str, size: usize, protocol: Protocol) -> DcReport {
    let (sim, apps) = build(workload, size).into_parts();
    DcHarness::new(sim, DcConfig::discount_checking(protocol), apps).run()
}

fn analyzed(workload: &str, size: usize, protocol: Protocol) -> AnalysisReport {
    let r = run(workload, size, protocol);
    analyze(&r.trace, &r.shm)
}

#[test]
fn clean_matrix_has_zero_findings_under_all_protocols() {
    for &(w, size) in MATRIX {
        for protocol in Protocol::FIGURE8 {
            let r = analyzed(w, size, protocol);
            assert!(
                r.is_clean(),
                "{w}@{}: {} races, {} lockset, {} obligations",
                protocol.name(),
                r.races.len(),
                r.lockset.len(),
                r.obligations.len()
            );
            assert!(
                r.savework_agrees,
                "{w}@{}: audit disagrees",
                protocol.name()
            );
        }
    }
}

#[test]
fn racy_taskfarm_is_flagged_by_both_passes_with_page_and_sites() {
    let r = analyzed("taskfarm-racy", 3, Protocol::Cpvs);
    assert!(!r.races.is_empty(), "hb pass must flag the unlocked peek");
    assert!(!r.lockset.is_empty(), "lockset pass must flag it too");
    // The racy access is the unlocked read of the task counter at DSM
    // offset 0 (page 0): the hb pass reports a race with a read side at
    // offset 0 held against a write of the counter, the lockset pass an
    // empty-lockset access of the same byte.
    let counter_race = r
        .races
        .iter()
        .find(|race| {
            let read = if race.a.is_write { &race.b } else { &race.a };
            let write = if race.a.is_write { &race.a } else { &race.b };
            race.page == 0 && !read.is_write && read.off == 0 && write.is_write && write.off == 0
        })
        .expect("a read/write race on the counter byte at page 0, offset 0");
    let read = if counter_race.a.is_write {
        &counter_race.b
    } else {
        &counter_race.a
    };
    let write = if counter_race.a.is_write {
        &counter_race.a
    } else {
        &counter_race.b
    };
    assert_ne!(
        read.pid, write.pid,
        "both sites reported, on distinct processes"
    );
    assert!(
        !read.clock.is_empty() && !write.clock.is_empty(),
        "clocks prove concurrency"
    );
    let v = r
        .lockset
        .iter()
        .find(|v| v.page == 0 && v.off == 0)
        .expect("a lockset violation on the counter page");
    assert!(v.other.is_some(), "the other participant is named");
    // Cross-tab: page 0 is flagged by both detectors.
    assert!(r.crosstab.both.contains(&0));
    // The audit is orthogonal: the mutation changes no commit behavior.
    assert!(r.obligations.is_empty() && r.savework_agrees);
}

#[test]
fn racy_taskfarm_shrinks_to_two_workers() {
    // Shrink loop: halve the worker count while both passes still flag
    // the race; the floor (two workers — one cannot race with itself)
    // must still be flagged.
    let mut workers = 8usize;
    let mut smallest = None;
    while workers >= 2 {
        let r = analyzed("taskfarm-racy", workers, Protocol::Cpvs);
        if r.races.is_empty() || r.lockset.is_empty() {
            break;
        }
        smallest = Some(workers);
        workers /= 2;
    }
    assert_eq!(
        smallest,
        Some(2),
        "the race survives shrinking to 2 workers"
    );
}

#[test]
fn fused_treadmarks_is_flagged_by_the_hb_pass() {
    let r = analyzed("treadmarks-fused", 3, Protocol::Cpvs);
    assert!(
        !r.races.is_empty(),
        "fusing the force/update barrier must produce hb races"
    );
    // The races are on the body pages (bodies span pages 0..4) and
    // involve two distinct processes with concurrency-proving clocks.
    for race in &r.races {
        assert!(race.page < 4, "race on a body page, got page {}", race.page);
        assert_ne!(race.a.pid, race.b.pid);
    }
    // Control: the two-barrier original is clean at the same size.
    let clean = analyzed("treadmarks", 3, Protocol::Cpvs);
    assert!(clean.is_clean());
}

#[test]
fn clean_taskfarm_control_at_mutation_size_is_clean() {
    let r = analyzed("taskfarm", 3, Protocol::Cpvs);
    assert!(
        r.is_clean(),
        "the non-racy farm at the mutation size is clean"
    );
}

#[test]
fn audit_agrees_with_savework_on_every_protocol() {
    // Satellite (f)'s shape pin: for each protocol, on a workload with
    // real commit traffic, the production checker and the audit reach
    // the same verdict — clean here, and the audit's finding set empty
    // exactly when `check_save_work` returns `Ok`.
    for protocol in Protocol::FIGURE8 {
        let r = run("taskfarm", 2, protocol);
        let audit = ft_analyze::audit::audit_save_work(&r.trace);
        match check_save_work(&r.trace) {
            Ok(()) => assert!(
                audit.is_empty(),
                "{}: audit found {} obligations where savework found none",
                protocol.name(),
                audit.len()
            ),
            Err(v) => assert!(
                audit.contains(&v),
                "{}: savework's violation missing from the audit set",
                protocol.name()
            ),
        }
    }
}

#[test]
fn seeded_savework_break_is_caught_by_checker_and_audit_alike() {
    // `skip_presend_commit` disables the commit-before-send obligation:
    // CPVS stops discharging Save-work and both the production checker
    // and the audit must catch it on the same witness.
    let (sim, apps) = build("taskfarm", 2).into_parts();
    let cfg = DcConfig {
        skip_presend_commit: true,
        ..DcConfig::discount_checking(Protocol::Cpvs)
    };
    let report = DcHarness::new(sim, cfg, apps).run();
    let checker = check_save_work(&report.trace);
    let audit = ft_analyze::audit::audit_save_work(&report.trace);
    let v = checker.expect_err("skip_presend_commit must break Save-work under CPVS");
    assert!(!audit.is_empty(), "the audit must catch the break too");
    assert!(
        audit.contains(&v),
        "the checker's witness {v} is in the audit's finding set"
    );
    // And the aggregate report reflects the break while still agreeing.
    let analysis = analyze(&report.trace, &report.shm);
    assert!(!analysis.obligations.is_empty());
    assert!(analysis.savework_agrees);
}
