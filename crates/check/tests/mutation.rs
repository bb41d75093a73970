//! The checker's self-test: deliberately break Save-work and prove
//! `ft-check` (a) finds the violation, (b) shrinks it to a minimal
//! workload and fault set, and (c) emits a replay script that reproduces
//! it when parsed back.
//!
//! The mutation skips the commit *prior to a send*: under the
//! commit-prior-to-visible-and-send protocols (CPVS et al.) a process's
//! non-deterministic events are then still uncommitted when their results
//! escape through a message, so any visible output that causally depends
//! on them violates Save-work.

use ft_check::scenario::{CheckConfig, Workload};
use ft_check::{explore, parse_script, shrink};
use ft_core::fault::Fault;
use ft_core::oracle::InvariantViolation;
use ft_core::protocol::Protocol;
use ft_dc::Mutation;

fn mutated() -> (Workload, CheckConfig) {
    let w = Workload {
        name: "taskfarm",
        seed: 7,
        size: 3,
    };
    let mut cfg = CheckConfig::new(Protocol::Cpvs);
    cfg.mutation = Mutation::SkipPresendCommit;
    (w, cfg)
}

#[test]
fn broken_presend_commit_is_found() {
    let (w, cfg) = mutated();
    let ex = explore(&w, &cfg);
    assert!(
        !ex.violations().is_empty(),
        "mutation went undetected across {} explored states",
        ex.explored()
    );
}

#[test]
fn the_violation_shrinks_to_a_minimal_replayable_counterexample() {
    let (w, cfg) = mutated();
    let cx = shrink(&w, &cfg).expect("mutation produces a counterexample");
    // Shrunk all the way down: one worker is enough to lose work.
    assert_eq!(cx.workload.size, 1, "size did not shrink: {cx:?}");
    assert!(
        matches!(cx.violation, InvariantViolation::SaveWork(_)),
        "expected a Save-work violation, got {:?}",
        cx.violation
    );
    // The script names the violation as the oracle prints it…
    assert!(
        cx.script.contains(&format!("# {}\n", cx.violation)),
        "{}",
        cx.script
    );
    // …round-trips to the same schedule…
    let replay = parse_script(&cx.script).expect("script parses");
    assert_eq!(replay.workload, cx.workload);
    assert_eq!(replay.protocol, cx.protocol);
    assert_eq!(replay.faults, Vec::from_iter(cx.point.map(Fault::Kill)));
    assert_eq!(replay.mutation, Mutation::SkipPresendCommit);
    // …and re-running the parsed schedule reproduces the violation.
    let rcfg = replay.check_config();
    let canonical = ft_check::explore::canonical_run(&replay.workload, replay.workload.size, &rcfg);
    let r = ft_check::explore::run_faults(
        &replay.workload,
        replay.workload.size,
        &rcfg,
        &canonical,
        &replay.faults,
    );
    assert_eq!(
        r.violation.as_ref(),
        Some(&cx.violation),
        "replayed script did not reproduce the shrunk violation"
    );
}

#[test]
fn unmutated_control_stays_clean() {
    let (w, mut cfg) = mutated();
    cfg.mutation = Mutation::None;
    let ex = explore(&w, &cfg);
    assert!(
        ex.violations().is_empty(),
        "control run violated without the mutation: {:?}",
        ex.violations().first()
    );
}
