//! The tentpole guarantee: for small nvi and taskfarm workloads, *every*
//! crash point — before each process's first event, after every event
//! index, and inside every commit at all three sub-steps — recovers with
//! all four invariants intact, under all seven Figure 8 protocols.
//!
//! Debug builds keep the workloads tiny; the release `check` binary runs
//! the same sweep at larger sizes for the campaign report.

use ft_check::explore::{canonical_run, enumerate_points, explore_points, Exploration};
use ft_check::scenario::{CheckConfig, Workload};
use ft_core::fault::{CommitCrashPoint, CrashPoint};
use ft_core::protocol::Protocol;

/// Exhausts `w` under `protocol` and asserts (a) the state count matches
/// the structural formula — one failure-free pseudo-point, plus per
/// process one start kill, one kill per event index, and three sub-step
/// kills per commit point — and (b) zero invariant violations. Returns
/// whether any mid-commit state was explored.
fn assert_exhaustive_and_clean(w: &Workload, protocol: Protocol) -> bool {
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
        "{}@{}: schedule space not exhausted",
        w.name,
        protocol.name()
    );
    let violations = ex.violations();
    assert!(
        violations.is_empty(),
        "{}@{}: {} violations, first: {:?}",
        w.name,
        protocol.name(),
        violations.len(),
        violations.first()
    );
    let has_commits = canonical.commit_points.iter().any(|&n| n > 0);
    let has_mid = ex.results.iter().any(|r| {
        matches!(
            r.point,
            Some(CrashPoint::InCommit {
                point: CommitCrashPoint::MidUndoWalk,
                ..
            })
        )
    });
    assert_eq!(
        has_commits,
        has_mid,
        "{}@{}: commit points and mid-commit states disagree",
        w.name,
        protocol.name()
    );
    has_mid
}

#[test]
fn nvi_survives_every_crash_point_under_all_seven_protocols() {
    let w = Workload {
        name: "nvi",
        seed: 7,
        size: 2,
    };
    let mut any_mid_commit = false;
    for protocol in Protocol::FIGURE8 {
        any_mid_commit |= assert_exhaustive_and_clean(&w, protocol);
    }
    // The log-everything protocols commit zero times on this workload;
    // the committing five must still reach the mid-commit sub-steps.
    assert!(any_mid_commit, "no protocol explored a mid-commit state");
}

#[test]
fn taskfarm_survives_every_crash_point_under_all_seven_protocols() {
    let w = Workload {
        name: "taskfarm",
        seed: 7,
        size: 1,
    };
    let mut any_mid_commit = false;
    for protocol in Protocol::FIGURE8 {
        any_mid_commit |= assert_exhaustive_and_clean(&w, protocol);
    }
    assert!(any_mid_commit, "no protocol explored a mid-commit state");
}

#[test]
fn kills_really_happen_and_recovery_really_runs() {
    // The exhaustiveness above would be vacuous if the injected kills
    // were silently ignored: check that crash points actually perturb
    // the run (distinct fingerprints) yet recovery converges back.
    let w = Workload {
        name: "taskfarm",
        seed: 7,
        size: 1,
    };
    let cfg = CheckConfig::new(Protocol::Cpvs);
    let ex = ft_check::explore(&w, &cfg);
    let ff = ex.results[0].fingerprint;
    let perturbed = ex
        .results
        .iter()
        .skip(1)
        .filter(|r| r.fingerprint != ff)
        .count();
    assert!(perturbed > 0, "no crash point changed the run");
    assert!(
        ex.unique_fingerprints < ex.explored(),
        "no two crash points deduplicated — fingerprint pruning is broken"
    );
    assert!(ex.dedup_ratio() > 1.0);
    // Recovery must actually have produced duplicate visible outputs or
    // at least re-executed work somewhere in the space: at minimum the
    // perturbed runs were judged clean by the oracles.
    assert!(ex.violations().is_empty());
}
