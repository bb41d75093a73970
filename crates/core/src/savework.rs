//! The Save-work invariant and theorem checker (§2.3), plus orphan detection.
//!
//! > **Save-work Theorem.** A computation is guaranteed consistent recovery
//! > from stop failures if and only if for each executed non-deterministic
//! > event `e_p^i` that causally precedes a visible or commit event `e`,
//! > process `p` executes a commit event `e_p^j` such that `e_p^j`
//! > happens-before (or atomic with) `e`, and `i < j`.
//!
//! The checker verifies the invariant over a recorded [`Trace`]. It splits
//! the invariant into its two constituent rules:
//!
//! * **Save-work-visible** — commit every non-deterministic event that
//!   causally precedes a *visible* event (upholds the visible constraint of
//!   consistent recovery).
//! * **Save-work-orphan** — commit every non-deterministic event that
//!   causally precedes a *commit* event (prevents orphan processes and so
//!   upholds the no-orphan constraint).
//!
//! The implementation exploits two structural facts for efficiency. First,
//! with the clocks [`replay`] derives at each target, event `n` of process
//! `p` causally precedes target `e` iff `n.seq < e.causal[p]` (for
//! `p != e.pid`). Second, if the *earliest* commit after `n` on `p` does
//! not happen-before `e`, no later commit can (program order composes with
//! happens-before), so only one candidate commit per (nd, target) pair
//! needs testing. The whole check is one replay plus
//! `O(targets × processes × log commits)`.

use crate::clock::{happens_before, replay};
use crate::event::{EventId, EventKind, ProcessId};
use crate::trace::Trace;

/// Which of the two Save-work sub-invariants a violation falls under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaveWorkRule {
    /// An uncommitted non-deterministic event causally precedes a visible
    /// event.
    Visible,
    /// An uncommitted non-deterministic event causally precedes another
    /// process's commit event (orphan hazard).
    Orphan,
}

/// A witness that the Save-work invariant is violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaveWorkViolation {
    /// The uncommitted non-deterministic event.
    pub nd: EventId,
    /// The visible or commit event it causally precedes.
    pub target: EventId,
    /// Which rule was violated.
    pub rule: SaveWorkRule,
}

impl std::fmt::Display for SaveWorkViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Save-work-{} violated: nd event {} causally precedes {} without an intervening commit",
            match self.rule {
                SaveWorkRule::Visible => "visible",
                SaveWorkRule::Orphan => "orphan",
            },
            self.nd,
            self.target
        )
    }
}

/// Per-process index of non-deterministic and commit event positions.
struct ProcessIndex {
    nd_seqs: Vec<u64>,
    commit_seqs: Vec<u64>,
    /// Commits that belong to a coordinated round: (seq, group).
    grouped_commits: Vec<(u64, u64)>,
    /// Recovery rollbacks: (rollback event seq, restore point). Events in
    /// `[restore, event_seq)` were undone and are causally dead for
    /// anything after `event_seq`.
    rollbacks: Vec<(u64, u64)>,
}

impl ProcessIndex {
    /// Did the event at `n` survive every rollback that intervenes before
    /// `upto` (i.e. is it a live causal predecessor of events at `upto`)?
    fn survives(&self, n: u64, upto: u64) -> bool {
        self.rollbacks
            .iter()
            .filter(|&&(at, _)| n < at && at <= upto)
            .all(|&(_, to)| n < to)
    }

    /// The last non-deterministic event below `limit` that is still a live
    /// predecessor of events at `upto`.
    fn last_live_nd_below(&self, limit: u64, upto: u64) -> Option<u64> {
        let pos = self.nd_seqs.partition_point(|&s| s < limit);
        self.nd_seqs[..pos]
            .iter()
            .rev()
            .copied()
            .find(|&n| self.survives(n, upto))
    }
}

fn build_index(
    trace: &Trace,
) -> (
    Vec<ProcessIndex>,
    std::collections::HashMap<u64, Vec<EventId>>,
) {
    // Determinism: the map is only read back by group-id key (`groups[&g]`),
    // never iterated, so hash order cannot reach any output.
    let mut groups: std::collections::HashMap<u64, Vec<EventId>> = std::collections::HashMap::new();
    let idx = (0..trace.num_processes())
        .map(|p| {
            let pid = ProcessId::from_index(p);
            let mut nd_seqs = Vec::new();
            let mut commit_seqs = Vec::new();
            let mut grouped_commits = Vec::new();
            let mut rollbacks = Vec::new();
            for e in trace.process(pid) {
                if e.is_effectively_nd() {
                    nd_seqs.push(e.id.seq);
                } else if e.kind.is_commit() {
                    commit_seqs.push(e.id.seq);
                    if let Some(g) = e.atomic_group {
                        grouped_commits.push((e.id.seq, g));
                        groups.entry(g).or_default().push(e.id);
                    }
                } else if let EventKind::Rollback { to_seq } = e.kind {
                    rollbacks.push((e.id.seq, to_seq));
                }
            }
            ProcessIndex {
                nd_seqs,
                commit_seqs,
                grouped_commits,
                rollbacks,
            }
        })
        .collect();
    (idx, groups)
}

/// True if a commit seq exists in the open-closed interval `(after, below)`.
fn commit_in(idx: &ProcessIndex, after: u64, below: u64) -> bool {
    let pos = idx.commit_seqs.partition_point(|&s| s <= after);
    pos < idx.commit_seqs.len() && idx.commit_seqs[pos] < below
}

/// Checks the full Save-work invariant over a trace.
///
/// Returns `Ok(())` if the invariant holds, or the first discovered
/// [`SaveWorkViolation`] otherwise. "Atomic with" is honored for commit
/// targets on the non-determinism's own process: a commit always covers the
/// non-deterministic events that precede it on its own process.
///
/// # Examples
///
/// ```
/// use ft_core::trace::TraceBuilder;
/// use ft_core::event::{NdSource, ProcessId};
/// use ft_core::savework::check_save_work;
///
/// let p = ProcessId(0);
/// let mut b = TraceBuilder::new(1);
/// b.nd(p, NdSource::TimeOfDay);
/// b.commit(p);
/// b.visible(p, 42);
/// assert!(check_save_work(&b.finish()).is_ok());
/// ```
pub fn check_save_work(trace: &Trace) -> Result<(), SaveWorkViolation> {
    check_rules(trace, true, true)
}

/// Checks only the Save-work-visible sub-invariant.
pub fn check_save_work_visible(trace: &Trace) -> Result<(), SaveWorkViolation> {
    check_rules(trace, true, false)
}

/// Checks only the Save-work-orphan sub-invariant.
pub fn check_save_work_orphan(trace: &Trace) -> Result<(), SaveWorkViolation> {
    check_rules(trace, false, true)
}

fn check_rules(
    trace: &Trace,
    visible_rule: bool,
    orphan_rule: bool,
) -> Result<(), SaveWorkViolation> {
    let (idx, groups) = build_index(trace);
    // The replay visits targets in recording order; the reported violation
    // is the first in process-major order: smallest target, then smallest
    // nd process (the inner loop stops at its first uncovered process).
    let mut first: Option<SaveWorkViolation> = None;
    replay(trace, |e, clocks| {
        let rule = match e.kind {
            EventKind::Visible { .. } if visible_rule => SaveWorkRule::Visible,
            EventKind::Commit { .. } if orphan_rule => SaveWorkRule::Orphan,
            _ => return,
        };
        // A violation at an earlier target already stands.
        if first.is_some_and(|f| f.target < e.id) {
            return;
        }
        let q = e.id.pid.index();
        for (p, pidx) in idx.iter().enumerate() {
            let pid = ProcessId::from_index(p);
            // How many of p's events *causally precede* e (application
            // causality generates the Save-work obligation): for p != q
            // the causal-clock component; for p == q, program order.
            let req_known = if p == q {
                // For a commit target on its own process, "atomic with"
                // lets the target itself serve as the covering commit.
                if rule == SaveWorkRule::Orphan {
                    continue;
                }
                e.id.seq
            } else {
                clocks.causal[p]
            };
            // How many of p's events *happen-before* e (coverage uses
            // plain happens-before, which control messages extend).
            let known = if p == q { e.id.seq } else { clocks.hb[p] };
            // Only *live* non-determinism generates obligations: an nd
            // event undone by a recovery rollback no longer precedes
            // anything after the rollback (same-process), and its
            // unwound effects are the recovery machinery's concern
            // cross-process (withdrawal, cascades, deterministic
            // regeneration).
            let upto = if p == q { e.id.seq } else { u64::MAX };
            let Some(nd_seq) = pidx.last_live_nd_below(req_known, upto) else {
                continue;
            };
            // Plain coverage: a commit on p strictly between the nd and
            // the target in the happens-before order. Atomic closure: a
            // coordinated commit on p after the nd covers the target if
            // *any member* of its round happens-before (or is) the
            // target — the round's commits are atomic with one another,
            // so the whole round is ordered by its best-ordered member.
            let covered = commit_in(pidx, nd_seq, known)
                || pidx
                    .grouped_commits
                    .iter()
                    .filter(|&&(s, _)| s > nd_seq)
                    .any(|&(_, g)| {
                        groups[&g]
                            .iter()
                            .any(|&m| m == e.id || happens_before(m, e.id, clocks.hb))
                    });
            if !covered {
                first = Some(SaveWorkViolation {
                    nd: EventId::new(pid, nd_seq),
                    target: e.id,
                    rule,
                });
                return;
            }
        }
    });
    first.map_or(Ok(()), Err)
}

/// A process rollback point after a failure: all events of `pid` with
/// `seq >= first_lost` were lost (rolled back and possibly not re-executed
/// with the same results).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rollback {
    /// The failed process.
    pub pid: ProcessId,
    /// Sequence number of the first lost event.
    pub first_lost: u64,
}

/// Report of an orphan process (§2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrphanReport {
    /// The orphan: it committed a dependence on a lost event.
    pub orphan: ProcessId,
    /// The orphan's commit event that captured the dependence.
    pub commit: EventId,
    /// The lost non-deterministic event depended upon.
    pub lost_nd: EventId,
}

/// Finds orphan processes: processes that committed a dependence on a
/// non-deterministic event another process lost in a failure.
///
/// A process is an orphan if one of its commits causally depends on a lost
/// non-deterministic event; that commit can never be reconciled with the
/// failed process's re-execution, so the computation may be unable to
/// complete (the no-orphan constraint, §2.3).
pub fn find_orphans(trace: &Trace, rollbacks: &[Rollback]) -> Vec<OrphanReport> {
    let mut reports = Vec::new();
    for rb in rollbacks {
        // Lost effectively-nd events of the failed process.
        let lost_nds: Vec<u64> = trace
            .process(rb.pid)
            .iter()
            .filter(|e| e.id.seq >= rb.first_lost && e.is_effectively_nd())
            .map(|e| e.id.seq)
            .collect();
        if lost_nds.is_empty() {
            continue;
        }
        // Per process, its first commit that depends on a lost event.
        let mut first: Vec<Option<OrphanReport>> = vec![None; trace.num_processes()];
        replay(trace, |e, clocks| {
            let slot = &mut first[e.id.pid.index()];
            if !e.kind.is_commit() || e.id.pid == rb.pid || slot.is_some() {
                return;
            }
            let known = clocks.causal[rb.pid.index()];
            // Any lost nd with seq < known is a committed dependence.
            if let Some(&nd_seq) = lost_nds.iter().find(|&&s| s < known) {
                *slot = Some(OrphanReport {
                    orphan: e.id.pid,
                    commit: e.id,
                    lost_nd: EventId::new(rb.pid, nd_seq),
                });
            }
        });
        reports.extend(first.into_iter().flatten());
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NdSource;
    use crate::trace::TraceBuilder;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    #[test]
    fn uncommitted_nd_before_visible_violates() {
        // The coin-flip application of Figure 1: nd then visible, no commit.
        let mut b = TraceBuilder::new(1);
        let nd = b.nd(p(0), NdSource::Random);
        let v = b.visible(p(0), 1);
        let err = check_save_work(&b.finish()).unwrap_err();
        assert_eq!(err.nd, nd);
        assert_eq!(err.target, v);
        assert_eq!(err.rule, SaveWorkRule::Visible);
    }

    #[test]
    fn commit_between_nd_and_visible_satisfies() {
        let mut b = TraceBuilder::new(1);
        b.nd(p(0), NdSource::Random);
        b.commit(p(0));
        b.visible(p(0), 1);
        assert!(check_save_work(&b.finish()).is_ok());
    }

    #[test]
    fn commit_before_nd_does_not_cover_it() {
        let mut b = TraceBuilder::new(1);
        b.commit(p(0));
        b.nd(p(0), NdSource::Random);
        b.visible(p(0), 1);
        assert!(check_save_work(&b.finish()).is_err());
    }

    #[test]
    fn logged_nd_needs_no_commit() {
        // Logging renders the event deterministic (§2.4).
        let mut b = TraceBuilder::new(1);
        b.nd_logged(p(0), NdSource::UserInput);
        b.visible(p(0), 1);
        assert!(check_save_work(&b.finish()).is_ok());
    }

    #[test]
    fn deterministic_events_need_no_commit() {
        let mut b = TraceBuilder::new(1);
        b.internal(p(0));
        b.internal(p(0));
        b.visible(p(0), 1);
        b.visible(p(0), 2);
        assert!(check_save_work(&b.finish()).is_ok());
    }

    #[test]
    fn figure_2_orphan_scenario_violates_orphan_rule() {
        // Process B executes a nd event, sends to A, A commits: A has
        // committed a dependence on B's uncommitted nd event.
        let a = p(0);
        let bb = p(1);
        let mut b = TraceBuilder::new(2);
        let nd = b.nd(bb, NdSource::TimeOfDay);
        let (_, m) = b.send(bb, a);
        b.recv_logged(a, bb, m); // Logged so the recv itself is not the culprit.
        let c = b.commit(a);
        let err = check_save_work_orphan(&b.finish()).unwrap_err();
        assert_eq!(err.rule, SaveWorkRule::Orphan);
        assert_eq!(err.nd, nd);
        assert_eq!(err.target, c);
    }

    #[test]
    fn sender_commit_before_send_prevents_orphan_violation() {
        let a = p(0);
        let bb = p(1);
        let mut b = TraceBuilder::new(2);
        b.nd(bb, NdSource::TimeOfDay);
        b.commit(bb);
        let (_, m) = b.send(bb, a);
        b.recv_logged(a, bb, m);
        b.commit(a);
        assert!(check_save_work(&b.finish()).is_ok());
    }

    #[test]
    fn unlogged_recv_is_nd_and_must_be_committed() {
        let a = p(0);
        let bb = p(1);
        let mut b = TraceBuilder::new(2);
        b.commit(bb);
        let (_, m) = b.send(bb, a);
        b.recv(a, bb, m); // Unlogged: transient nd on A.
        b.visible(a, 9);
        let err = check_save_work(&b.finish()).unwrap_err();
        assert_eq!(err.rule, SaveWorkRule::Visible);
        assert_eq!(err.nd.pid, a);
    }

    #[test]
    fn commit_target_on_own_process_is_atomic() {
        // A commit covers its own process's preceding nd events; only the
        // visible rule could complain, and there is no visible here.
        let mut b = TraceBuilder::new(1);
        b.nd(p(0), NdSource::Signal);
        b.commit(p(0));
        assert!(check_save_work(&b.finish()).is_ok());
    }

    #[test]
    fn cross_process_nd_covered_by_remote_visible_needs_sender_commit() {
        // B's nd flows to A which does a visible; B never commits.
        let a = p(0);
        let bb = p(1);
        let mut b = TraceBuilder::new(2);
        let nd = b.nd(bb, NdSource::Random);
        let (_, m) = b.send(bb, a);
        b.recv_logged(a, bb, m);
        b.commit(a); // A commits, covering its own events.
        let v = b.visible(a, 5);
        let t = b.finish();
        // The visible rule fires on B's nd (the orphan rule fires first on
        // A's commit when checking the full invariant).
        let err = check_save_work_visible(&t).unwrap_err();
        assert_eq!(err.nd, nd);
        assert_eq!(err.target, v);
    }

    #[test]
    fn visible_rule_checker_ignores_orphan_violations() {
        let a = p(0);
        let bb = p(1);
        let mut b = TraceBuilder::new(2);
        b.nd(bb, NdSource::Random);
        let (_, m) = b.send(bb, a);
        b.recv_logged(a, bb, m);
        b.commit(a); // Orphan-rule violation only; no visible events at all.
        let t = b.finish();
        assert!(check_save_work_visible(&t).is_ok());
        assert!(check_save_work_orphan(&t).is_err());
    }

    #[test]
    fn orphan_detection_matches_figure_2() {
        let a = p(0);
        let bb = p(1);
        let mut b = TraceBuilder::new(2);
        let nd = b.nd(bb, NdSource::TimeOfDay);
        let (_, m) = b.send(bb, a);
        b.recv_logged(a, bb, m);
        let c = b.commit(a);
        // B fails, losing everything (it never committed).
        let t = b.finish();
        let orphans = find_orphans(
            &t,
            &[Rollback {
                pid: bb,
                first_lost: 0,
            }],
        );
        assert_eq!(orphans.len(), 1);
        assert_eq!(orphans[0].orphan, a);
        assert_eq!(orphans[0].commit, c);
        assert_eq!(orphans[0].lost_nd, nd);
    }

    #[test]
    fn no_orphans_when_sender_committed_its_nd() {
        let a = p(0);
        let bb = p(1);
        let mut b = TraceBuilder::new(2);
        b.nd(bb, NdSource::TimeOfDay);
        b.commit(bb);
        let (_, m) = b.send(bb, a);
        b.recv_logged(a, bb, m);
        b.commit(a);
        let t = b.finish();
        // B fails but only loses events after its commit (seq >= 2).
        let orphans = find_orphans(
            &t,
            &[Rollback {
                pid: bb,
                first_lost: 2,
            }],
        );
        assert!(orphans.is_empty());
    }

    #[test]
    fn coordinated_commit_members_cover_each_other() {
        // P1 has uncommitted nd; a coordinated round commits both P0 and P1.
        // P0's commit would otherwise be an orphan-rule target for P1's nd
        // (it causally depends on it via the message), but the round is
        // atomic.
        let a = p(0);
        let bb = p(1);
        let mut b = TraceBuilder::new(2);
        b.nd(bb, NdSource::Signal);
        let (_, m) = b.send(bb, a);
        b.recv_logged(a, bb, m);
        b.coordinated_commit(&[a, bb]);
        let t = b.finish();
        assert!(check_save_work(&t).is_ok());
    }

    #[test]
    fn two_pc_round_covers_the_coordinator_visible() {
        // A visible after a coordinated commit is covered through the
        // atomic closure: B's commit is atomic with A's commit, and A's
        // commit happens-before A's visible in program order. (The runtime
        // still waits for acks before releasing output — that is a
        // real-time obligation 2PC discharges, which the atomicity of the
        // round encodes.)
        let a = p(0);
        let bb = p(1);
        let mut b = TraceBuilder::new(2);
        b.nd(bb, NdSource::Signal);
        let (_, m) = b.send(bb, a);
        b.recv_logged(a, bb, m);
        b.coordinated_commit(&[a, bb]);
        b.visible(a, 1);
        assert!(check_save_work(&b.finish()).is_ok());
    }

    #[test]
    fn uncoordinated_remote_commit_does_not_cover_the_visible() {
        // Same scenario but B's commit is *not* part of a coordinated
        // round and does not happen-before A's visible: violation.
        let a = p(0);
        let bb = p(1);
        let mut b = TraceBuilder::new(2);
        b.nd(bb, NdSource::Signal);
        let (_, m) = b.send(bb, a);
        b.recv_logged(a, bb, m);
        b.commit(a);
        b.commit(bb); // Local commit, concurrent with A's visible.
        b.visible(a, 1);
        assert!(check_save_work_visible(&b.finish()).is_err());
    }

    #[test]
    fn second_round_sees_first_round_through_atomic_closure() {
        // Round 1 commits {A, B}; a later round 2 commits {B} alone. B's
        // round-2 commit depends on A's nd, which A committed in round 1;
        // round 1's B-member happens-before B's round-2 commit, so the
        // closure covers it.
        let a = p(0);
        let bb = p(1);
        let mut b = TraceBuilder::new(2);
        b.nd(a, NdSource::UserInput);
        let (_, m) = b.send(a, bb);
        b.recv_logged(bb, a, m);
        b.coordinated_commit(&[a, bb]);
        b.coordinated_commit(&[bb]);
        b.visible(bb, 2);
        assert!(check_save_work(&b.finish()).is_ok());
    }

    #[test]
    fn separate_rounds_do_not_cover_each_other() {
        let a = p(0);
        let bb = p(1);
        let mut b = TraceBuilder::new(2);
        b.nd(bb, NdSource::Signal);
        let (_, m) = b.send(bb, a);
        b.recv_logged(a, bb, m);
        // Two different rounds: A's commit is in round 0, B's in round 1,
        // and B's commit comes causally after A's... A's commit depends on
        // B's nd which is only covered by a commit in a *different* group
        // that does not happen-before A's commit.
        b.coordinated_commit(&[a]);
        b.coordinated_commit(&[bb]);
        let t = b.finish();
        assert!(check_save_work_orphan(&t).is_err());
    }

    #[test]
    fn rolled_back_nd_generates_no_obligation() {
        // nd, crash, rollback to before the nd, then a visible: the nd was
        // undone and does not causally precede the replayed visible.
        let mut b = TraceBuilder::new(1);
        b.commit(p(0)); // seq 0: restore point is after this commit.
        b.nd(p(0), NdSource::TimeOfDay); // seq 1: will be rolled back.
        b.crash(p(0)); // seq 2.
        b.rollback(p(0), 1); // seq 3: undo seqs 1..3.
        b.visible(p(0), 9); // seq 4: replay.
        assert!(check_save_work(&b.finish()).is_ok());
    }

    #[test]
    fn nd_before_the_restore_point_still_obliges() {
        // The nd happened before the restore point: it survived the
        // rollback and the later visible still needs it committed.
        let mut b = TraceBuilder::new(1);
        b.nd(p(0), NdSource::TimeOfDay); // seq 0: survives.
        b.crash(p(0)); // seq 1.
        b.rollback(p(0), 1); // seq 2: undo seq 1 only.
        b.visible(p(0), 9); // seq 3.
        assert!(check_save_work(&b.finish()).is_err());
    }

    #[test]
    fn replayed_nd_after_rollback_obliges_again() {
        let mut b = TraceBuilder::new(1);
        b.commit(p(0));
        b.nd(p(0), NdSource::TimeOfDay);
        b.crash(p(0));
        b.rollback(p(0), 1);
        b.nd(p(0), NdSource::TimeOfDay); // The replayed (fresh) nd.
        b.visible(p(0), 9);
        let err = check_save_work(&b.finish()).unwrap_err();
        assert_eq!(err.nd.seq, 4, "the live replayed nd is the obligation");
    }

    #[test]
    fn pre_crash_visible_still_requires_commit() {
        // nd then visible then crash: the visible happened before the
        // failure, so the obligation stands even though a rollback follows.
        let mut b = TraceBuilder::new(1);
        b.nd(p(0), NdSource::TimeOfDay);
        b.visible(p(0), 1);
        b.crash(p(0));
        b.rollback(p(0), 0);
        let err = check_save_work(&b.finish()).unwrap_err();
        assert_eq!(err.target.seq, 1);
    }

    #[test]
    fn the_reported_violation_is_the_first_in_process_major_order() {
        // P1's uncovered visible is recorded before P0's; the checker
        // still reports P0's, as when it walked process by process.
        let mut b = TraceBuilder::new(2);
        b.nd(p(1), NdSource::Random);
        b.visible(p(1), 1);
        let nd0 = b.nd(p(0), NdSource::Random);
        let v0 = b.visible(p(0), 2);
        b.visible(p(1), 3);
        let err = check_save_work(&b.finish()).unwrap_err();
        assert_eq!((err.nd, err.target), (nd0, v0));
    }

    #[test]
    fn violation_display_is_informative() {
        let v = SaveWorkViolation {
            nd: EventId::new(p(1), 4),
            target: EventId::new(p(0), 9),
            rule: SaveWorkRule::Visible,
        };
        let s = v.to_string();
        assert!(s.contains("Save-work-visible"));
        assert!(s.contains("e_1^4"));
        assert!(s.contains("e_0^9"));
    }

    #[test]
    fn many_nds_one_commit_covers_all_prior() {
        let mut b = TraceBuilder::new(1);
        for _ in 0..10 {
            b.nd(p(0), NdSource::Random);
        }
        b.commit(p(0));
        b.visible(p(0), 3);
        assert!(check_save_work(&b.finish()).is_ok());
    }
}
