//! The kill schedule's shape and the child spec's text form. The trials
//! that fork real children and deliver real `SIGKILL`s live with the
//! binary that is the child, in `crates/bench/tests/crashtest.rs`; the
//! full matrix is the `campaign` binary's `crashtest` stage.

use std::path::PathBuf;

use ft_crashtest::workload::{EVENTS_PER_OP, TORN_EIGHTHS};
use ft_crashtest::{
    enumerate_schedule, standard_schedules, ChildConfig, CrashSchedule, DurableWindow, KillSpec,
    WorkloadSpec, KILL_CLASSES,
};
use ft_mem::durable::DurableMutation;

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
fn kill_classes_are_every_class_in_enumeration_order() {
    let mut seen: Vec<&str> = Vec::new();
    for k in enumerate_schedule("taskfarm", 7, 2).kills {
        if !seen.contains(&k.class()) {
            seen.push(k.class());
        }
    }
    assert_eq!(seen, KILL_CLASSES);
}

#[test]
fn malformed_kill_specs_are_rejected() {
    let e = KillSpec::parse("sideways").unwrap_err();
    assert!(e.contains("unknown kill kind"), "{e}");
    let e = KillSpec::parse("commit 0 torn-append 9").unwrap_err();
    assert!(e.contains("eighths"), "{e}");
    assert!(KillSpec::parse("event 3 4").is_err());
}

fn child_config(kill: Option<KillSpec>) -> ChildConfig {
    ChildConfig {
        dir: PathBuf::from("/scratch/ft-crashtest-1-trial-0"),
        spec: WorkloadSpec {
            name: "taskfarm".into(),
            seed: 7,
            ops: 16,
        },
        fsync: false,
        mutation: DurableMutation::SkipTailTruncate,
        kill,
    }
}

#[test]
fn child_specs_round_trip() {
    let kills = [
        None,
        Some(KillSpec::Start),
        Some(KillSpec::AtEvent { pos: 5 }),
        Some(KillSpec::InCommit {
            nth: 3,
            window: DurableWindow::TornAppend { eighths: 7 },
        }),
    ];
    for kill in kills {
        let cfg = child_config(kill);
        assert_eq!(ChildConfig::parse(&cfg.to_string()), Ok(cfg));
    }
    let cfg = ChildConfig {
        fsync: true,
        mutation: DurableMutation::None,
        ..child_config(Some(KillSpec::InCommit {
            nth: 0,
            window: DurableWindow::PostFsync,
        }))
    };
    let text = cfg.to_string();
    assert_eq!(
        text,
        "dir /scratch/ft-crashtest-1-trial-0 name taskfarm seed 7 ops 16 fsync always \
         mutation none kill commit 0 post-fsync"
    );
    assert_eq!(ChildConfig::parse(&text), Ok(cfg));
}

#[test]
fn malformed_child_specs_are_rejected() {
    let good = child_config(Some(KillSpec::AtEvent { pos: 5 })).to_string();
    for (bad, want) in [
        (good.replace("fsync none", "fsync sometimes"), "always|none"),
        (good.replace("fsync none", "fsync every-4"), "always|none"),
        (
            good.replace("dir /scratch/ft-crashtest-1-trial-0 ", ""),
            "`dir VALUE`",
        ),
        (format!("{good} 6"), "trailing tokens"),
        (good.replace(" kill event 5", " 6"), "trailing token"),
        (good.replace("seed 7", "seed x"), "\"x\": invalid digit"),
        (
            good.replace("mutation skip-tail-truncate", "mutation m"),
            "unknown mutation",
        ),
    ] {
        let err = ChildConfig::parse(&bad).unwrap_err();
        assert!(err.contains(want), "{bad:?}: {err}");
    }
}
