//! Trace-level Lose-work analysis and the Save-work/Lose-work conflict
//! arithmetic of §4.
//!
//! The graph-theoretic Lose-work checker lives in [`crate::graph`]; this
//! module implements the *measurable* criterion the paper uses in its fault
//! injection study (Table 1): a run violates Lose-work if the application
//! commits causally after the injected fault's activation — that commit
//! preserves (or guarantees regeneration of) the buggy state, so recovery
//! must re-crash. It also implements the §4.1 composition that combines the
//! fault-injection results with published Bohrbug/Heisenbug ratios into the
//! headline "transparent recovery impossible for >90% of application
//! faults" figure.

use crate::clock::{happens_before, replay};
use crate::event::{EventId, EventKind};
use crate::trace::Trace;

/// The outcome of the Table 1 criterion on one crashed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoseWorkOutcome {
    /// No commit executed causally after the fault activation: rollback
    /// escapes the dangerous-path suffix, so generic recovery is possible
    /// (provided the activation itself depends on uncommitted transient
    /// non-determinism).
    Upheld,
    /// A commit executed causally after the fault activation; the committed
    /// state regenerates the crash and recovery is doomed.
    Violated {
        /// The fault-activation event.
        activation: EventId,
        /// The offending commit.
        commit: EventId,
    },
}

impl LoseWorkOutcome {
    /// True if the invariant was violated.
    pub fn is_violated(&self) -> bool {
        matches!(self, LoseWorkOutcome::Violated { .. })
    }
}

/// Applies the Table 1 criterion to a crashed run's trace: did any process
/// commit causally at-or-after a fault activation?
///
/// The activation may propagate across processes (a message carrying buggy
/// state); any commit that causally depends on the activation preserves the
/// failure, so the check uses happens-before rather than program order.
pub fn check_commit_after_activation(trace: &Trace) -> LoseWorkOutcome {
    // Collect activations.
    let activations: Vec<EventId> = trace
        .indexed()
        .filter(|(_, e)| matches!(e.kind, EventKind::FaultActivation { .. }))
        .map(|(id, _)| id)
        .collect();
    if activations.is_empty() {
        return LoseWorkOutcome::Upheld;
    }
    // The replay visits commits in recording order; the reported one is
    // the first in process-major order.
    let mut first: Option<(EventId, EventId)> = None;
    replay(trace, &trace.processes(), |id, e, clocks| {
        if !e.kind.is_commit() || first.is_some_and(|(_, commit)| commit < id) {
            return;
        }
        // Cross-process, buggy state reaches the commit through
        // application messages: the causal clock.
        let reached = |a: &&EventId| happens_before(**a, id, clocks.causal);
        if let Some(&activation) = activations.iter().find(reached) {
            first = Some((activation, id));
        }
    });
    match first {
        Some((activation, commit)) => LoseWorkOutcome::Violated { activation, commit },
        None => LoseWorkOutcome::Upheld,
    }
}

/// Bohrbug/Heisenbug classification (§4.1, after Gray \[13\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BugNature {
    /// Deterministic: the dangerous path extends back to the initial state
    /// of the program, which is always committed — Lose-work is inherently
    /// violated.
    Bohrbug,
    /// Depends on a transient non-deterministic event: rollback past that
    /// event gives recovery a chance.
    Heisenbug,
}

/// The §4.1 composition: given the fraction of *Heisenbug* crashes that
/// nonetheless violate Lose-work (from fault injection, Table 1) and the
/// fraction of field bugs that are Heisenbugs at all (5–15% per Chandra &
/// Chen), returns the fraction of application crashes for which Lose-work
/// is upheld — i.e. for which transparent recovery remains possible.
///
/// With the paper's numbers (35% violation, 15% Heisenbugs) this yields at
/// most `0.65 × 0.15 ≈ 10%`; Save-work and Lose-work conflict for the
/// remaining ~90%.
///
/// # Panics
///
/// Panics if either fraction is outside [0, 1].
pub fn conflict_composition(
    heisenbug_violation_fraction: f64,
    heisenbug_fraction: f64,
) -> ConflictEstimate {
    assert!(
        (0.0..=1.0).contains(&heisenbug_violation_fraction),
        "violation fraction out of range"
    );
    assert!(
        (0.0..=1.0).contains(&heisenbug_fraction),
        "heisenbug fraction out of range"
    );
    let upheld = (1.0 - heisenbug_violation_fraction) * heisenbug_fraction;
    ConflictEstimate {
        recovery_possible: upheld,
        invariants_conflict: 1.0 - upheld,
    }
}

/// Result of [`conflict_composition`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConflictEstimate {
    /// Fraction of application crashes for which Lose-work is upheld and
    /// generic recovery can succeed.
    pub recovery_possible: f64,
    /// Fraction for which Save-work and Lose-work conflict.
    pub invariants_conflict: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{NdSource, ProcessId};
    use crate::trace::TraceBuilder;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    #[test]
    fn commit_after_activation_violates() {
        // The Figure 9 timeline: transient nd → fault activation → commit
        // (forced by Save-work before the visible) → visible → crash.
        let mut b = TraceBuilder::new(1);
        b.nd(p(0), NdSource::SchedDecision);
        let a = b.fault_activation(p(0), 1);
        let c = b.commit(p(0));
        b.visible(p(0), 7);
        b.crash(p(0));
        let out = check_commit_after_activation(&b.finish());
        assert_eq!(
            out,
            LoseWorkOutcome::Violated {
                activation: a,
                commit: c
            }
        );
    }

    #[test]
    fn commit_before_activation_upholds() {
        let mut b = TraceBuilder::new(1);
        b.commit(p(0));
        b.nd(p(0), NdSource::SchedDecision);
        b.fault_activation(p(0), 1);
        b.crash(p(0));
        assert_eq!(
            check_commit_after_activation(&b.finish()),
            LoseWorkOutcome::Upheld
        );
    }

    #[test]
    fn no_activation_trivially_upholds() {
        let mut b = TraceBuilder::new(1);
        b.commit(p(0));
        b.visible(p(0), 1);
        assert!(!check_commit_after_activation(&b.finish()).is_violated());
    }

    #[test]
    fn cross_process_commit_after_propagated_activation_violates() {
        // P0 activates a fault, sends buggy state to P1, P1 commits.
        let mut b = TraceBuilder::new(2);
        b.fault_activation(p(0), 3);
        let (_, m) = b.send(p(0), p(1));
        b.recv(p(1), p(0), m);
        b.commit(p(1));
        b.crash(p(0));
        let out = check_commit_after_activation(&b.finish());
        assert!(out.is_violated());
        if let LoseWorkOutcome::Violated { commit, .. } = out {
            assert_eq!(commit.pid, p(1));
        }
    }

    #[test]
    fn the_reported_commit_is_the_first_in_process_major_order() {
        // Both processes commit after the activation reaches them; P1's
        // commit is recorded first, P0's is reported.
        let mut b = TraceBuilder::new(2);
        let a = b.fault_activation(p(0), 3);
        let (_, m) = b.send(p(0), p(1));
        b.recv(p(1), p(0), m);
        b.commit(p(1));
        let c0 = b.commit(p(0));
        assert_eq!(
            check_commit_after_activation(&b.finish()),
            LoseWorkOutcome::Violated {
                activation: a,
                commit: c0
            }
        );
    }

    #[test]
    fn concurrent_commit_does_not_violate() {
        // P1 commits concurrently with (not after) P0's activation.
        let mut b = TraceBuilder::new(2);
        b.commit(p(1));
        b.fault_activation(p(0), 3);
        b.crash(p(0));
        assert!(!check_commit_after_activation(&b.finish()).is_violated());
    }

    #[test]
    fn composition_reproduces_the_90_percent_figure() {
        // 35% of Heisenbug crashes violate Lose-work; 15% of bugs are
        // Heisenbugs → recovery possible for at most ~10% of crashes.
        let e = conflict_composition(0.35, 0.15);
        assert!((e.recovery_possible - 0.0975).abs() < 1e-9);
        assert!(e.invariants_conflict > 0.90);
    }

    #[test]
    fn composition_bounds() {
        let e = conflict_composition(0.0, 1.0);
        assert!((e.recovery_possible - 1.0).abs() < 1e-12);
        let e = conflict_composition(1.0, 1.0);
        assert_eq!(e.recovery_possible, 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn composition_rejects_bad_fractions() {
        conflict_composition(1.5, 0.1);
    }
}
