//! End-to-end harness tests: these fork the real `crashtest` binary and
//! deliver real `SIGKILL`s. Kept to a bounded subset of the full sweep
//! (the binary itself runs all 254 standard trials); the full matrix is
//! exercised by `ci.sh`'s crashtest stage.

use std::path::Path;

use ft_check::{enumerate_schedule, standard_schedules, DurableWindow, KillSpec};
use ft_crashtest::{
    mutant_matrix, run_reference, run_schedule, run_trial, LossModel, TrialSpec, WorkloadSpec,
};
use ft_mem::durable::{DurableMutation, FsyncPolicy};

fn exe() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_crashtest"))
}

#[test]
fn standard_schedules_meet_the_trial_floor() {
    let total: usize = standard_schedules()
        .iter()
        .map(ft_check::CrashSchedule::len)
        .sum();
    assert!(
        total >= 200,
        "ISSUE.md requires >= 200 kill-9 trials, schedules export {total}"
    );
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
