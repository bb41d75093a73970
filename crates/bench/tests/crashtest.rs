//! Real-process crash trials: each forks the `campaign` binary in
//! `--child` mode and delivers real `SIGKILL`s. A bounded subset of the
//! `crashtest` stage's 508 trials (`stage_equivalence.rs` drives the stage
//! itself), plus its gate on hand-built rows.

use std::path::Path;

use ft_bench::crashtest::{CrashtestRows, CrashtestStage, Sweep};
use ft_bench::stage::Stage;
use ft_crashtest::{
    enumerate_schedule, run_mutant, run_reference, run_trial, Check, CrashSchedule, DurableWindow,
    Failure, KillSpec, LossModel, TrialSpec, WorkloadSpec, MUTANTS,
};
use ft_mem::durable::DurableMutation;

fn exe() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_campaign"))
}

/// Every kill of `schedule` against the honest backend: the trial count
/// and the failures.
fn sweep(schedule: &CrashSchedule, fsync: bool) -> (usize, Vec<(KillSpec, Failure)>) {
    let workload = WorkloadSpec::from_schedule(schedule);
    let canonical = run_reference(exe(), &workload, fsync).expect("reference runs");
    let failures = (schedule.kills.iter())
        .filter_map(|&kill| {
            let t = TrialSpec {
                workload: workload.clone(),
                kill,
                fsync,
                mutation: DurableMutation::None,
            };
            Some((kill, run_trial(exe(), &canonical, &t).err()?))
        })
        .collect();
    (schedule.len(), failures)
}

#[test]
fn honest_backend_survives_a_small_real_kill_sweep() {
    // 1 start + 12 event kills + 24 windowed commit kills = 37 trials.
    let (trials, failures) = sweep(&enumerate_schedule("smoke", 13, 4), true);
    assert!(
        failures.is_empty(),
        "honest backend violated the oracle: {failures:?}"
    );
    assert_eq!(trials, 37);
}

#[test]
fn honest_backend_survives_group_commit_process_kills() {
    let (_, failures) = sweep(&enumerate_schedule("smoke-none", 5, 3), false);
    assert!(
        failures.is_empty(),
        "fsync-none backend violated the oracle under process loss: {failures:?}"
    );
}

#[test]
fn post_fsync_power_cut_preserves_the_acknowledged_commit() {
    let w = WorkloadSpec {
        name: "postfsync".into(),
        seed: 3,
        ops: 3,
    };
    let canonical = run_reference(exe(), &w, true).unwrap();
    let t = TrialSpec {
        workload: w,
        kill: KillSpec::InCommit {
            nth: 1,
            window: DurableWindow::PostFsync,
        },
        fsync: true,
        mutation: DurableMutation::None,
    };
    assert_eq!(LossModel::of(t.fsync, t.kill), LossModel::Powercut);
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
    let canonical = run_reference(exe(), &w, true).unwrap();
    for eighths in [1u8, 4, 7] {
        let t = TrialSpec {
            workload: w.clone(),
            kill: KillSpec::InCommit {
                nth: 2,
                window: DurableWindow::TornAppend { eighths },
            },
            fsync: true,
            mutation: DurableMutation::None,
        };
        assert_eq!(LossModel::of(t.fsync, t.kill), LossModel::ProcessLoss);
        run_trial(exe(), &canonical, &t)
            .unwrap_or_else(|e| panic!("torn append at {eighths}/8: {e}"));
    }
}

#[test]
fn every_seeded_mutant_is_caught() {
    for m in MUTANTS {
        if let Err(how) = run_mutant(exe(), m) {
            panic!("mutant {} escaped the harness: {how}", m.name());
        }
    }
}

#[test]
fn the_gate_names_honest_failures_and_escaped_mutants() {
    let stage = CrashtestStage {
        exe: exe().into(),
        schedules: Vec::new(),
    };
    let torn = KillSpec::InCommit {
        nth: 2,
        window: DurableWindow::TornAppend { eighths: 4 },
    };
    let clean = CrashtestRows {
        sweeps: vec![Sweep {
            workload: "nvi".into(),
            fsync: false,
            trials: vec![(KillSpec::Start, Ok(0)), (torn, Ok(1))],
        }],
        mutants: vec![(DurableMutation::SkipFsync, Ok(Check::Oracle.fail("lost")))],
    };
    assert_eq!(stage.gate(&clean), Ok(()));

    let mut failing = clean.clone();
    failing.sweeps[0].trials[1].1 = Err(Check::Digest.fail("final state digest differs"));
    let err = stage.gate(&failing).unwrap_err();
    assert!(err.contains("nvi × fsync none × torn-append"), "{err}");
    assert!(err.contains("digest: final state digest differs"), "{err}");
    // The report counts the failure by its check; the diagnostic stays out.
    let report = stage.json(&failing).render_pretty();
    assert!(report.contains("\"digest\": 1"), "{report}");
    assert!(!report.contains("differs"), "{report}");

    let mut escaped = clean;
    escaped.mutants[0].1 = Err("acknowledged commits survived".into());
    let err = stage.gate(&escaped).unwrap_err();
    assert!(
        err.contains("mutant skip-fsync escaped: acknowledged commits survived"),
        "{err}"
    );
    let report = stage.json(&escaped).render_pretty();
    assert!(report.contains("\"caught_by\": null"), "{report}");
}
