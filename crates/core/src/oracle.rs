//! Composed invariant oracles for exhaustive crash-schedule checking.
//!
//! The checkers in [`crate::savework`] and [`crate::consistency`] each
//! verify one theorem in isolation. A model checker that re-executes a
//! computation under every possible crash schedule needs them *composed*:
//! after every recovered run it must hold that
//!
//! 1. **Save-work** was never violated in the recorded history
//!    ([`crate::savework::check_save_work`]);
//! 2. the run **completed** — every process reached its final state, i.e.
//!    no orphan forced the computation to be abandoned;
//! 3. the visible outputs are **consistent** under the paper's
//!    duplicate-tolerant equivalence, per process, against the
//!    failure-free reference
//!    ([`crate::consistency::check_consistent_recovery_multi`]);
//! 4. the surviving history is a **legal prefix-extension** of the
//!    canonical failure-free run: up to its first crash or rollback,
//!    every process performed exactly the non-deterministic work and
//!    emitted exactly the outputs the canonical run records, in order;
//! 5. **commit durability** held — no rollback undid a committed event
//!    ([`check_commit_durability`]): acknowledged-durable state that a
//!    recovery cannot restore means the persistence layer lied (the
//!    signature a real skipped-fsync bug leaves in a trace).
//!
//! Constraint 4 is the model checker's determinism fence. Constraints 1–3
//! compare *outcomes*; constraint 4 compares *histories*, so a bug that
//! corrupts intermediate state but accidentally converges to the right
//! outputs is still caught. Only application-semantic events — unlogged or
//! logged non-determinism and visible outputs — take part: commits,
//! sends/receives, and journal markers are runtime artifacts whose
//! placement legitimately shifts when a recovering peer re-executes (a
//! restarted two-phase-commit coordinator may push a fresh coordinated
//! round, with its control messages, into a process that never crashed).

use crate::consistency::{check_consistent_recovery_multi, ConsistencyError};
use crate::event::{Event, EventKind, NdClass, NdSource, ProcessId};
use crate::savework::{check_save_work, SaveWorkViolation};
use crate::trace::Trace;

/// The application-semantic shape of one event, as compared by the
/// prefix-extension oracle (constraint 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppEvent {
    /// A non-deterministic event (including an unlogged receive's
    /// non-determinism is *not* included — receives are transport).
    Nd {
        /// Where the non-determinism came from.
        source: NdSource,
        /// Transient or fixed.
        class: NdClass,
        /// Whether it was logged (the protocol's logging decisions are
        /// deterministic, so they must replay identically).
        logged: bool,
    },
    /// A user-visible output with its content token.
    Visible {
        /// Token identifying the output content.
        token: u64,
    },
}

/// Projects an event to its application-semantic shape, or `None` for
/// runtime artifacts (commits, messages, crash/rollback markers, …).
pub fn app_event(e: &Event) -> Option<AppEvent> {
    match e.kind {
        EventKind::NonDeterministic { source, class } => Some(AppEvent::Nd {
            source,
            class,
            logged: e.logged,
        }),
        EventKind::Visible { token } => Some(AppEvent::Visible { token }),
        _ => None,
    }
}

/// A violation of the composed recovery invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation {
    /// The recorded history violates the Save-work invariant.
    SaveWork(SaveWorkViolation),
    /// The computation did not run to completion (an orphan or repeated
    /// failure forced abandonment).
    Incomplete {
        /// Processes abandoned by the recovery runtime.
        abandoned: usize,
    },
    /// The visible outputs are not duplicate-equivalent to the
    /// failure-free reference.
    InconsistentOutput(ConsistencyError),
    /// A process's pre-crash history diverged from the canonical run.
    PrefixDivergence {
        /// The diverging process.
        pid: ProcessId,
        /// Index into the process's application-event sequence at which
        /// the divergence occurs.
        at: usize,
        /// The canonical event at that index (`None`: the recovered run
        /// performed *more* application work than the canonical run).
        expected: Option<AppEvent>,
        /// The recovered event at that index.
        got: AppEvent,
    },
    /// A rollback undid a *committed* event: the recovery point landed
    /// before state the process had durably committed, i.e. acknowledged
    /// durability was lost (a skipped fsync, a truncated-away committed
    /// record, …). Legal recoveries restore to the last commit, so the
    /// undone window `[to_seq, rollback)` never contains a commit.
    CommitRolledBack {
        /// The process whose committed state was lost.
        pid: ProcessId,
        /// The commit id of the lost commit.
        commit_id: u64,
        /// The lost commit's sequence number within the process.
        commit_seq: u64,
        /// Sequence number of the offending rollback event.
        rollback_seq: u64,
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::SaveWork(v) => write!(f, "{v}"),
            InvariantViolation::Incomplete { abandoned } => {
                write!(f, "run abandoned {abandoned} process(es) before completion")
            }
            InvariantViolation::InconsistentOutput(e) => write!(f, "{e}"),
            InvariantViolation::PrefixDivergence {
                pid,
                at,
                expected,
                got,
            } => write!(
                f,
                "{pid} diverged from the canonical run at app-event {at}: expected {expected:?}, got {got:?}"
            ),
            InvariantViolation::CommitRolledBack {
                pid,
                commit_id,
                commit_seq,
                rollback_seq,
            } => write!(
                f,
                "durability lost: {pid}'s rollback at event {rollback_seq} undid commit \
                 {commit_id} (event {commit_seq}) — committed state must survive failures"
            ),
        }
    }
}

/// Checks constraint 4: for every process, the recovered run's
/// application events up to its first crash or rollback marker (events
/// after that point belong to re-execution, which legally repeats
/// history) must be a prefix of the canonical run's full
/// application-event sequence.
pub fn check_prefix_extension(
    canonical: &Trace,
    recovered: &Trace,
) -> Result<(), InvariantViolation> {
    for pi in 0..recovered.num_processes() {
        let p = ProcessId::from_index(pi);
        let reference: &[Event] = if pi < canonical.num_processes() {
            canonical.process(p)
        } else {
            &[]
        };
        let mut reference = reference.iter().filter_map(app_event);
        let prefix = recovered
            .process(p)
            .iter()
            .take_while(|e| !matches!(e.kind, EventKind::Crash | EventKind::Rollback { .. }))
            .filter_map(app_event);
        for (at, got) in prefix.enumerate() {
            let expected = reference.next();
            if expected != Some(got) {
                return Err(InvariantViolation::PrefixDivergence {
                    pid: p,
                    at,
                    expected,
                    got,
                });
            }
        }
    }
    Ok(())
}

/// Checks commit durability: no rollback may undo a commit event.
///
/// A rollback event `Rollback { to_seq }` at sequence `r` of process `p`
/// declares that `p`'s events in `[to_seq, r)` were undone. A correct
/// recovery restores exactly to the last commit, so that window never
/// contains a commit; if it does, state the process had *acknowledged as
/// durable* was lost — the signature of a skipped fsync or a committed
/// log record that went missing. The simulator's recoveries uphold this
/// by construction (they restore to `last commit + 1`); the real-process
/// crashtest harness relies on this check to catch durability bugs that
/// deterministic re-execution would otherwise paper over.
pub fn check_commit_durability(trace: &Trace) -> Result<(), InvariantViolation> {
    for pi in 0..trace.num_processes() {
        let p = ProcessId::from_index(pi);
        let events = trace.process(p);
        for (r, e) in events.iter().enumerate() {
            if let EventKind::Rollback { to_seq } = e.kind {
                let start = usize::try_from(to_seq).map_or(r, |s| s.min(r));
                for (seq, undone) in (start as u64..).zip(&events[start..r]) {
                    if let EventKind::Commit { commit_id, .. } = undone.kind {
                        return Err(InvariantViolation::CommitRolledBack {
                            pid: p,
                            commit_id: u64::from(commit_id),
                            commit_seq: seq,
                            rollback_seq: r as u64,
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

/// Verdict of a full composed-oracle check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleVerdict {
    /// Duplicate visible outputs the user observed (allowed, counted).
    pub duplicates: usize,
}

/// Runs all five composed invariants over a recovered run.
///
/// `canonical`/`reference_visibles` describe the failure-free execution;
/// `recovered`/`recovered_visibles` the run under test (visibles are
/// `(pid, token)` pairs in emission order); `abandoned` is the number of
/// processes the recovery runtime gave up on (0 for a completed run).
///
/// Returns the first violation found, checking cheapest-first.
pub fn check_recovery(
    canonical: &Trace,
    reference_visibles: &[(u32, u64)],
    recovered: &Trace,
    recovered_visibles: &[(u32, u64)],
    abandoned: usize,
) -> Result<OracleVerdict, InvariantViolation> {
    if abandoned > 0 {
        return Err(InvariantViolation::Incomplete { abandoned });
    }
    check_save_work(recovered).map_err(InvariantViolation::SaveWork)?;
    check_commit_durability(recovered)?;
    check_prefix_extension(canonical, recovered)?;
    let verdict = check_consistent_recovery_multi(recovered_visibles, reference_visibles);
    if !verdict.consistent {
        return Err(InvariantViolation::InconsistentOutput(
            verdict
                .error
                .expect("inconsistent verdict carries an error"),
        ));
    }
    Ok(OracleVerdict {
        duplicates: verdict.duplicates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    /// A tiny canonical run: P0 draws a random, commits, sends to P1;
    /// P1 receives (logged), emits output 7.
    fn canonical() -> (Trace, Vec<(u32, u64)>) {
        let mut b = TraceBuilder::new(2);
        b.nd(p(0), NdSource::Random);
        b.commit(p(0));
        let (_, m) = b.send(p(0), p(1));
        b.recv_logged(p(1), p(0), m);
        b.visible(p(1), 7);
        (b.finish(), vec![(1, 7)])
    }

    #[test]
    fn identical_run_passes_all_oracles() {
        let (c, vis) = canonical();
        let v = check_recovery(&c, &vis, &c, &vis, 0).unwrap();
        assert_eq!(v.duplicates, 0);
    }

    #[test]
    fn abandoned_run_is_incomplete() {
        let (c, vis) = canonical();
        let err = check_recovery(&c, &vis, &c, &vis, 1).unwrap_err();
        assert_eq!(err, InvariantViolation::Incomplete { abandoned: 1 });
    }

    #[test]
    fn save_work_violation_is_reported() {
        let (c, vis) = canonical();
        // Recovered run lost the commit between the nd and the send.
        let mut b = TraceBuilder::new(2);
        b.nd(p(0), NdSource::Random);
        let (_, m) = b.send(p(0), p(1));
        b.recv(p(1), p(0), m);
        b.visible(p(1), 7);
        let err = check_recovery(&c, &vis, &b.finish(), &vis, 0).unwrap_err();
        assert!(matches!(err, InvariantViolation::SaveWork(_)));
        assert!(err.to_string().contains("Save-work"));
    }

    #[test]
    fn divergent_output_token_is_a_prefix_divergence() {
        let (c, vis) = canonical();
        let mut b = TraceBuilder::new(2);
        b.nd(p(0), NdSource::Random);
        b.commit(p(0));
        let (_, m) = b.send(p(0), p(1));
        b.recv_logged(p(1), p(0), m);
        b.visible(p(1), 8); // Different content.
        let err = check_recovery(&c, &vis, &b.finish(), &[(1, 8)], 0).unwrap_err();
        assert_eq!(
            err,
            InvariantViolation::PrefixDivergence {
                pid: p(1),
                at: 0,
                expected: Some(AppEvent::Visible { token: 7 }),
                got: AppEvent::Visible { token: 8 },
            }
        );
    }

    #[test]
    fn extra_app_work_before_a_crash_diverges() {
        let (c, vis) = canonical();
        let mut b = TraceBuilder::new(2);
        b.nd(p(0), NdSource::Random);
        b.commit(p(0));
        let (_, m) = b.send(p(0), p(1));
        b.nd(p(0), NdSource::TimeOfDay); // Not in the canonical run.
        b.recv_logged(p(1), p(0), m);
        b.visible(p(1), 7);
        let err = check_recovery(&c, &vis, &b.finish(), &vis, 0).unwrap_err();
        assert!(matches!(
            err,
            InvariantViolation::PrefixDivergence {
                at: 1,
                expected: None,
                ..
            }
        ));
    }

    #[test]
    fn re_execution_after_rollback_may_repeat_history() {
        let (c, vis) = canonical();
        // P1 crashes after its output, rolls back, replays, re-emits.
        let mut b = TraceBuilder::new(2);
        b.nd(p(0), NdSource::Random);
        b.commit(p(0));
        let (_, m) = b.send(p(0), p(1));
        b.recv_logged(p(1), p(0), m);
        b.visible(p(1), 7);
        b.crash(p(1));
        b.rollback(p(1), 0);
        let (_, m2) = b.send(p(0), p(1));
        b.recv_logged(p(1), p(0), m2);
        b.visible(p(1), 7);
        let recovered_vis = [(1, 7), (1, 7)];
        let v = check_recovery(&c, &vis, &b.finish(), &recovered_vis, 0).unwrap();
        assert_eq!(v.duplicates, 1);
    }

    #[test]
    fn runtime_artifacts_do_not_diverge_the_prefix() {
        let (c, vis) = canonical();
        // Same app events, but an extra commit and a control exchange —
        // what a recovering 2PC coordinator inserts into a live peer.
        let mut b = TraceBuilder::new(2);
        b.nd(p(0), NdSource::Random);
        b.commit(p(0));
        let (_, m) = b.send(p(0), p(1));
        b.recv_logged(p(1), p(0), m);
        let (_, cm) = b.send_control(p(0), p(1));
        b.recv_control(p(1), p(0), cm);
        b.commit(p(1));
        b.visible(p(1), 7);
        let v = check_recovery(&c, &vis, &b.finish(), &vis, 0).unwrap();
        assert_eq!(v.duplicates, 0);
    }

    #[test]
    fn inconsistent_output_is_reported_after_prefix_passes() {
        let (c, _) = canonical();
        // History fine, but the run never delivered the output (e.g. it
        // was lost by a broken recovery path that still recorded events).
        let err = check_recovery(&c, &[(1, 7)], &c, &[], 0).unwrap_err();
        assert!(matches!(err, InvariantViolation::InconsistentOutput(_)));
    }

    #[test]
    fn app_event_projects_only_semantic_kinds() {
        let (c, _) = canonical();
        let shapes: Vec<AppEvent> = c.iter().filter_map(app_event).collect();
        assert_eq!(
            shapes,
            vec![
                AppEvent::Nd {
                    source: NdSource::Random,
                    class: NdClass::Transient,
                    logged: false
                },
                AppEvent::Visible { token: 7 },
            ]
        );
    }

    #[test]
    fn rollback_past_a_commit_is_a_durability_violation() {
        let (c, vis) = canonical();
        // P0 commits, works, crashes — and the recovery rolls back to
        // BEFORE the commit (to_seq 0): the committed state was lost.
        let mut b = TraceBuilder::new(2);
        b.nd(p(0), NdSource::Random);
        b.commit(p(0)); // seq 1
        let (_, m) = b.send(p(0), p(1));
        b.crash(p(0));
        b.rollback(p(0), 0); // Undoes [0, 4): includes the commit.
        b.recv_logged(p(1), p(0), m);
        b.visible(p(1), 7);
        let err = check_recovery(&c, &vis, &b.finish(), &vis, 0).unwrap_err();
        assert_eq!(
            err,
            InvariantViolation::CommitRolledBack {
                pid: p(0),
                commit_id: 0,
                commit_seq: 1,
                rollback_seq: 4,
            }
        );
        assert!(err.to_string().contains("durability lost"));
    }

    #[test]
    fn rollback_to_the_last_commit_is_durable() {
        // The legal shape: the undone window starts just past the commit.
        let mut b = TraceBuilder::new(1);
        b.nd(p(0), NdSource::Random);
        b.commit(p(0)); // seq 1
        b.visible(p(0), 3); // seq 2 — uncommitted, legally undone
        b.crash(p(0)); // seq 3
        b.rollback(p(0), 2);
        assert!(check_commit_durability(&b.finish()).is_ok());
    }

    #[test]
    fn commit_durability_ignores_other_processes_commits() {
        // P1's rollback window must not be confused by P0's commits.
        let mut b = TraceBuilder::new(2);
        b.commit(p(0));
        b.nd(p(1), NdSource::Random);
        b.crash(p(1));
        b.rollback(p(1), 0);
        assert!(check_commit_durability(&b.finish()).is_ok());
    }

    #[test]
    fn violation_display_is_informative() {
        let v = InvariantViolation::Incomplete { abandoned: 2 };
        assert!(v.to_string().contains("2 process(es)"));
        let d = InvariantViolation::PrefixDivergence {
            pid: p(1),
            at: 4,
            expected: None,
            got: AppEvent::Visible { token: 9 },
        };
        assert!(d.to_string().contains("app-event 4"));
    }
}
