//! Exhaustive crash-schedule checking of the sharded KV workload: on the
//! tiny 2-shard × 2-replica shape, a kill at *every* crash point — before
//! each process's first event, after every event index, and inside every
//! commit sub-step — recovers with all invariants intact under CPVS and
//! the coordinated CBNDV-2PC. The seeded skip-replica-reinstall mutant
//! (`kvstore-skiprepl`) must be found by the same sweep, shrunk, and
//! reproduced from its replay script.

use ft_check::explore::{canonical_run, enumerate_points, explore_points, Exploration};
use ft_check::scenario::{CheckConfig, Workload};
use ft_check::{explore, parse_script, shrink};
use ft_core::fault::Fault;
use ft_core::protocol::Protocol;

fn kv(size: usize) -> Workload {
    Workload {
        name: "kvstore",
        seed: 7,
        size,
    }
}

/// Exhausts the schedule space and asserts the state count matches the
/// structural formula and that no crash point violates any invariant.
fn assert_exhaustive_and_clean(w: &Workload, protocol: Protocol) {
    let cfg = CheckConfig::new(protocol);
    let canonical = canonical_run(w, w.size, &cfg);
    let points = enumerate_points(&canonical);
    let expected: u64 = canonical
        .positions
        .iter()
        .zip(&canonical.commit_points)
        .map(|(&len, &cp)| 1 + len + 3 * cp)
        .sum();
    let ex: Exploration = explore_points(w, w.size, &cfg, &canonical, &points, 1);
    assert_eq!(
        ex.explored() as u64,
        1 + expected,
        "kvstore@{}: schedule space not exhausted",
        protocol.name()
    );
    let violations = ex.violations();
    assert!(
        violations.is_empty(),
        "kvstore@{}: {} violations, first: {:?}",
        protocol.name(),
        violations.len(),
        violations.first()
    );
}

#[test]
fn kvstore_survives_every_crash_point_under_cpvs() {
    assert_exhaustive_and_clean(&kv(3), Protocol::Cpvs);
}

#[test]
fn kvstore_survives_every_crash_point_under_coordinated_2pc() {
    assert_exhaustive_and_clean(&kv(3), Protocol::Cbndv2pc);
}

/// The case PR 24 decided, at its smallest: at size 6 and seed 11 a primary ships the
/// gateway an uncommitted receive, the gateway is killed and restored to a
/// state that never saw the message, and its next (correctly solo) commit
/// used to be called an orphan — `AtPosition { pid: 4, pos: 16 }` — because
/// the judge's causal clock kept what the rollback had undone.
#[test]
fn a_rolled_back_gateway_is_no_orphan_of_what_it_forgot() {
    let w = Workload {
        name: "kvstore",
        seed: 11,
        size: 6,
    };
    assert_exhaustive_and_clean(&w, Protocol::Cbndv2pc);
}

#[test]
fn kvstore_exploration_is_identical_across_thread_counts() {
    let w = kv(2);
    let cfg = CheckConfig::new(Protocol::Cpvs);
    let canonical = canonical_run(&w, w.size, &cfg);
    let points = enumerate_points(&canonical);
    let serial = explore_points(&w, w.size, &cfg, &canonical, &points, 1);
    for threads in [2, 4, 7] {
        let sharded = explore_points(&w, w.size, &cfg, &canonical, &points, threads);
        assert_eq!(
            serial.results, sharded.results,
            "threads={threads} diverged from the serial reference"
        );
        assert_eq!(serial.unique_fingerprints, sharded.unique_fingerprints);
    }
}

/// The seeded recovery bug: a replica "forgets" to reinstall its table on
/// recovery. Under a protocol that commits replicas mid-stream (CAND
/// commits after every logged event), some crash schedule recovers a
/// replica with puts already applied, wipes them, and produces a store
/// digest the oracle must flag.
#[test]
fn skip_replica_reinstall_mutant_is_found_and_shrunk() {
    let w = Workload {
        name: "kvstore-skiprepl",
        seed: 7,
        size: 4,
    };
    let cfg = CheckConfig::new(Protocol::Cand);
    let ex = explore(&w, &cfg);
    assert!(
        !ex.violations().is_empty(),
        "seeded skip-reinstall went undetected across {} explored states",
        ex.explored()
    );

    let cx = shrink(&w, &cfg).expect("mutant produces a counterexample");
    assert!(
        cx.workload.size <= w.size,
        "shrink did not reduce the workload: {cx:?}"
    );
    assert_eq!(cx.workload.name, "kvstore-skiprepl");

    // The replay script round-trips to the same schedule…
    let replay = parse_script(&cx.script).expect("script parses");
    assert_eq!(replay.workload, cx.workload);
    assert_eq!(replay.protocol, cx.protocol);
    assert_eq!(replay.faults, Vec::from_iter(cx.point.map(Fault::Kill)));
    // …and re-running the parsed schedule reproduces the violation.
    let rcfg = replay.check_config();
    let canonical = canonical_run(&replay.workload, replay.workload.size, &rcfg);
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

/// The unmutated control: the same shape under the same protocol stays
/// clean, so the mutant test is measuring the seeded bug and nothing
/// else.
#[test]
fn unmutated_kvstore_control_stays_clean_under_cand() {
    let ex = explore(&kv(4), &CheckConfig::new(Protocol::Cand));
    assert!(
        ex.violations().is_empty(),
        "control run violated without the mutation: {:?}",
        ex.violations().first()
    );
}
