//! End-to-end harness tests: the kill schedule's shape, then trials that
//! fork the real `crashtest` binary and deliver real `SIGKILL`s. Kept to
//! a bounded subset of the full sweep (the binary itself runs all 254
//! standard trials); the full matrix is exercised by `ci.sh`'s crashtest
//! stage.

use std::path::Path;

use ft_crashtest::workload::{EVENTS_PER_OP, TORN_EIGHTHS};
use ft_crashtest::{
    enumerate_schedule, mutant_matrix, run_reference, run_schedule, run_trial, standard_schedules,
    CrashSchedule, DurableWindow, KillSpec, LossModel, TrialSpec, WorkloadSpec,
};
use ft_mem::durable::{DurableMutation, FsyncPolicy};

fn exe() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_crashtest"))
}

#[test]
fn standard_schedules_meet_the_trial_floor() {
    let total: usize = standard_schedules().iter().map(CrashSchedule::len).sum();
    assert!(
        total >= 200,
        "ISSUE.md requires >= 200 kill-9 trials, schedules enumerate {total}"
    );
}

#[test]
fn enumeration_count_matches_the_formula() {
    let s = enumerate_schedule("nvi", 7, 12);
    let per_commit = 3 + TORN_EIGHTHS.len() as u64;
    assert_eq!(s.len() as u64, 1 + EVENTS_PER_OP * 12 + per_commit * 12);
    assert_eq!(s.kills[0], KillSpec::Start);
    assert!(s.kills.contains(&KillSpec::AtEvent { pos: 36 }));
    assert!(!s.kills.contains(&KillSpec::AtEvent { pos: 37 }));
}

#[test]
fn kill_specs_round_trip() {
    for s in standard_schedules() {
        for k in s.kills {
            assert_eq!(KillSpec::parse(&k.to_string()), Ok(k));
        }
    }
}

#[test]
fn every_commit_window_appears() {
    let s = enumerate_schedule("taskfarm", 7, 2);
    for want in [
        DurableWindow::PreAppend,
        DurableWindow::TornAppend { eighths: 4 },
        DurableWindow::PreFsync,
        DurableWindow::PostFsync,
    ] {
        assert!(
            s.kills
                .iter()
                .any(|k| matches!(k, KillSpec::InCommit { window, .. } if *window == want)),
            "missing window {want}"
        );
    }
}

#[test]
fn malformed_kill_specs_are_rejected() {
    let e = KillSpec::parse("sideways").unwrap_err();
    assert!(e.contains("unknown kill kind"), "{e}");
    let e = KillSpec::parse("commit 0 torn-append 9").unwrap_err();
    assert!(e.contains("eighths"), "{e}");
    assert!(KillSpec::parse("event 3 4").is_err());
}

#[test]
fn honest_backend_survives_a_small_real_kill_sweep() {
    // 1 start + 12 event kills + 6 windowed commit kills = 19 forks ×2.
    let schedule = enumerate_schedule("smoke", 13, 4);
    let report = run_schedule(exe(), &schedule, FsyncPolicy::Always, 2).expect("sweep runs");
    assert!(
        report.failures.is_empty(),
        "honest backend violated the oracle: {:?}",
        report.failures
    );
    assert!(report.trials >= 9);
}

#[test]
fn honest_backend_survives_group_commit_process_kills() {
    let schedule = enumerate_schedule("smoke-none", 5, 3);
    let report = run_schedule(exe(), &schedule, FsyncPolicy::Never, 3).expect("sweep runs");
    assert!(
        report.failures.is_empty(),
        "fsync-none backend violated the oracle under process loss: {:?}",
        report.failures
    );
}

#[test]
fn post_fsync_power_cut_preserves_the_acknowledged_commit() {
    let w = WorkloadSpec {
        name: "postfsync".into(),
        seed: 3,
        ops: 3,
    };
    let canonical = run_reference(exe(), &w, FsyncPolicy::Always).unwrap();
    let t = TrialSpec {
        workload: w,
        kill: KillSpec::InCommit {
            nth: 1,
            window: DurableWindow::PostFsync,
        },
        fsync: FsyncPolicy::Always,
        mutation: DurableMutation::None,
    };
    assert_eq!(t.loss(), LossModel::Powercut);
    let dups = run_trial(exe(), &canonical, &t).expect("acknowledged commit survives the cut");
    // The kill landed after the commit ack but before the visible, so
    // recovery re-emits exactly that op's token — never a duplicate.
    assert_eq!(dups, 0);
}

#[test]
fn torn_append_power_kill_rolls_back_only_the_unacknowledged_commit() {
    let w = WorkloadSpec {
        name: "torn".into(),
        seed: 9,
        ops: 4,
    };
    let canonical = run_reference(exe(), &w, FsyncPolicy::Always).unwrap();
    for eighths in [1u8, 4, 7] {
        let t = TrialSpec {
            workload: w.clone(),
            kill: KillSpec::InCommit {
                nth: 2,
                window: DurableWindow::TornAppend { eighths },
            },
            fsync: FsyncPolicy::Always,
            mutation: DurableMutation::None,
        };
        assert_eq!(t.loss(), LossModel::ProcessLoss);
        run_trial(exe(), &canonical, &t)
            .unwrap_or_else(|e| panic!("torn append at {eighths}/8: {e}"));
    }
}

#[test]
fn every_seeded_mutant_is_caught() {
    for outcome in mutant_matrix(exe()) {
        assert!(
            outcome.caught,
            "mutant {} escaped the harness: {}",
            outcome.mutation, outcome.detail
        );
    }
}

#[test]
fn the_parent_takes_three_flags_and_rejects_the_removed_ones() {
    // The sweep takes `standard_schedules()` in process: there is no
    // schedule file and no stride other than `--quick`'s.
    for removed in [&["--stride", "3"][..], &["--schedule", "s.txt"]] {
        let status = std::process::Command::new(exe())
            .args(removed)
            .stderr(std::process::Stdio::null())
            .status()
            .expect("crashtest runs");
        assert_eq!(status.code(), Some(2), "{removed:?}");
    }
}
