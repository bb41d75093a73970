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
//! needs testing, and only for the *last* live nd below the causal bound
//! (a commit that covers it covers every earlier one). Both candidates
//! are read from per-process position tables built before the replay, two
//! loads per (target, process).
//!
//! Third, most processes can never owe anything. Another process's causal
//! component for `p` is always `p`'s count at one of its application
//! sends, so `p` can be uncovered at a target only if some application
//! send of `p` leaves a live nd behind it with no commit in between: an
//! *exposed* send. Commit-before-send protocols have none. The replay
//! therefore derives only the columns of processes with an exposed send
//! and of members of coordinated rounds (whose happens-before columns
//! close a round), and the whole check is one replay over those columns
//! plus `O(events + targets × columns)`.
//!
//! Recovery is part of the trace, and a rollback undoes three things: the
//! process's non-deterministic events past the restore point (they oblige
//! no one any more), the obligations it was under (a target it executed
//! before the crash is still judged, but as of then), *and its knowledge*
//! — restored to a state that never saw a message, the process no longer
//! depends on what the message carried, so its next commit is no orphan of
//! it. The first two are this module's position tables and `live_nd`
//! stacks; the third is [`replay`]'s, which sets the causal clock back at
//! a rollback. What the process sent before the crash keeps the knowledge
//! it was sent with, and re-receiving the message brings it back.

use crate::clock::replay;
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

/// What one Save-work check reads besides the clocks: per-process position
/// tables and the processes whose clock columns it replays.
///
/// Process `p` owns entries `base[p] ..= base[p] + len_p` of the tables,
/// one per position `k` in its event sequence and one past the end.
pub struct Positions {
    base: Vec<usize>,
    /// At `k`: the position just past the last effectively
    /// non-deterministic event below `k` that no rollback of its process
    /// undoes, or 0 if there is none. An nd event undone by a recovery
    /// rollback generates no obligation across processes (its unwound
    /// effects are the recovery machinery's concern: withdrawal,
    /// cascades, deterministic regeneration), and which rollbacks follow
    /// it is a property of the whole trace, not of the target.
    last_nd: Vec<usize>,
    /// At `k`: the seq of the first commit at or after `k`, or `u64::MAX`.
    next_commit: Vec<u64>,
    /// Bit `k`: the last live nd below `k` has no commit of its process
    /// before `k`. A target that knows `p` up to a position without the
    /// bit owes `p` nothing: `p`'s first commit after that nd is below
    /// the target's knowledge, so it happens-before the target.
    exposed: Vec<u64>,
    /// Per process, its commits that belong to a coordinated round:
    /// (seq, where the round's run of `rounds` starts).
    grouped_commits: Vec<Vec<(u64, usize)>>,
    /// Every coordinated commit as (group, id), sorted: the members of a
    /// round are one run.
    rounds: Vec<(u32, EventId)>,
    /// The processes that can owe a target on another process, ascending.
    columns: Vec<ProcessId>,
    /// `column_of[p]`: where `p` is in `columns`, if it is.
    column_of: Vec<Option<usize>>,
}

impl Positions {
    /// The processes whose clock columns the Save-work check replays: those
    /// that make an application send at an exposed position, and those
    /// that commit in a coordinated round. Another process knows `p` only
    /// up to one of `p`'s application sends (a receive copies the count,
    /// a rollback restores an earlier copy), so the check can find `p`
    /// uncovered only through such a send; and it reads the
    /// happens-before column of every round member to close a round.
    pub fn columns(&self) -> &[ProcessId] {
        &self.columns
    }

    /// The member commits of the round whose run starts at `start`.
    fn round(&self, start: usize) -> impl Iterator<Item = EventId> + '_ {
        let group = self.rounds[start].0;
        self.rounds[start..]
            .iter()
            .take_while(move |&&(g, _)| g == group)
            .map(|&(_, id)| id)
    }
}

fn bit(bits: &[u64], at: usize) -> bool {
    bits[at / 64] >> (at % 64) & 1 == 1
}

/// Builds the position tables and the column set [`check_save_work`]
/// reads for `trace`, in `O(events)`.
pub fn build_positions(trace: &Trace) -> Positions {
    let n = trace.num_processes();
    let mut base = Vec::with_capacity(n);
    let mut entries = 0;
    for p in 0..n {
        base.push(entries);
        entries += trace.process(ProcessId::from_index(p)).len() + 1;
    }
    let mut last_nd = vec![0usize; entries];
    let mut next_commit = vec![u64::MAX; entries];
    let mut exposed = vec![0u64; entries.div_ceil(64)];
    // Per process, its coordinated commits as (seq, group).
    let mut grouped = vec![Vec::new(); n];
    let mut rounds = Vec::new();
    let mut columns = Vec::new();
    for (p, &base) in base.iter().enumerate() {
        let events = trace.process(ProcessId::from_index(p));
        // Backward: the nearest commit ahead, and each nd event that lies
        // below the restore point of every rollback after it.
        let mut restore = u64::MAX;
        for (k, e) in events.iter().enumerate().rev() {
            let seq = k as u64;
            next_commit[base + k] = next_commit[base + k + 1];
            if e.is_effectively_nd() {
                if seq < restore {
                    last_nd[base + k + 1] = k + 1;
                }
            } else if e.kind.is_commit() {
                next_commit[base + k] = seq;
                if let Some(g) = e.group() {
                    grouped[p].push((seq, g));
                    rounds.push((g, EventId::new(ProcessId::from_index(p), seq)));
                }
            } else if let EventKind::Rollback { to_seq } = e.kind {
                restore = restore.min(to_seq);
            }
        }
        // Forward: a position with no live nd event just below it
        // inherits the last one from its left; then whether a commit
        // follows that nd before the position.
        for k in 0..=events.len() {
            if k > 0 && last_nd[base + k] == 0 {
                last_nd[base + k] = last_nd[base + k - 1];
            }
            let after_nd = last_nd[base + k];
            if after_nd > 0 && next_commit[base + after_nd] >= k as u64 {
                exposed[(base + k) / 64] |= 1 << ((base + k) % 64);
            }
        }
        // An application send at seq `k` tells the receiver `p`'s count
        // `k + 1`.
        let exposed_send = events.iter().enumerate().any(|(k, e)| {
            matches!(e.kind, EventKind::Send { .. }) && !e.logged && bit(&exposed, base + k + 1)
        });
        if exposed_send || !grouped[p].is_empty() {
            columns.push(ProcessId::from_index(p));
        }
    }
    rounds.sort_unstable();
    let grouped_commits = grouped
        .into_iter()
        .map(|commits: Vec<(u64, u32)>| {
            let start = |group| rounds.partition_point(|&(g, _)| g < group);
            commits
                .into_iter()
                .map(|(seq, g)| (seq, start(g)))
                .collect()
        })
        .collect();
    let mut column_of = vec![None; n];
    for (j, c) in columns.iter().enumerate() {
        column_of[c.index()] = Some(j);
    }
    Positions {
        base,
        last_nd,
        next_commit,
        exposed,
        grouped_commits,
        rounds,
        columns,
        column_of,
    }
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
    let pos = build_positions(trace);
    let columns = pos.columns();
    // For a target's own process liveness is judged at the target: only
    // the rollbacks before it count. `live_nd[q]` is the running stack of
    // `q`'s effectively-nd seqs that are live and uncommitted at the
    // replay's position — a rollback pops what it undoes, and a commit
    // empties it, since a commit covers everything below it in program
    // order.
    let mut live_nd: Vec<Vec<u64>> = vec![Vec::new(); trace.num_processes()];
    // The replay visits targets in recording order; the reported violation
    // is the first in process-major order: smallest target, then smallest
    // nd process (the inner loop stops at its first uncovered process).
    let mut first: Option<SaveWorkViolation> = None;
    replay(trace, columns, |id, e, clocks| {
        let q = id.pid.index();
        if e.is_effectively_nd() {
            live_nd[q].push(id.seq);
        } else if e.kind.is_commit() {
            live_nd[q].clear();
        } else if let EventKind::Rollback { to_seq } = e.kind {
            while live_nd[q].last().is_some_and(|&s| s >= to_seq) {
                live_nd[q].pop();
            }
        }
        let rule = match e.kind {
            EventKind::Visible { .. } if visible_rule => SaveWorkRule::Visible,
            EventKind::Commit { .. } if orphan_rule => SaveWorkRule::Orphan,
            _ => return,
        };
        // A violation at an earlier target already stands.
        if first.is_some_and(|f| f.target < id) {
            return;
        }
        // Column `j`'s process, with the last live nd of it that
        // *causally precedes* e (application causality generates the
        // obligation), if no commit of it strictly between that nd and e
        // in the *happens-before* order covers it (coverage uses plain
        // happens-before, which control messages extend). What e does not
        // know up to an exposed position is covered: e's happens-before
        // component is at least its causal one.
        let cross = |j: usize| {
            let p = columns[j].index();
            let known = pos.base[p] + clocks.causal[j] as usize;
            if !bit(&pos.exposed, known) {
                return None;
            }
            let after_nd = pos.last_nd[known];
            (pos.next_commit[pos.base[p] + after_nd] >= u64::from(clocks.hb[j]))
                .then(|| (p, after_nd as u64 - 1))
        };
        // Processes in ascending order, the target's own among them by
        // program order. A commit target has just emptied its own stack:
        // "atomic with" lets the target itself serve as the covering
        // commit.
        let below = columns.partition_point(|c| c.index() < q);
        let above = columns.partition_point(|c| c.index() <= q);
        let uncovered = (0..below)
            .filter_map(cross)
            .chain(live_nd[q].last().map(|&nd_seq| (q, nd_seq)))
            .chain((above..columns.len()).filter_map(cross));
        // A round member is a column, or the target's own process.
        let precedes_target = |m: EventId| {
            if m.pid == id.pid {
                m.seq < id.seq
            } else {
                let j = pos.column_of[m.pid.index()].expect("round members are replayed");
                m.seq < u64::from(clocks.hb[j])
            }
        };
        for (p, nd_seq) in uncovered {
            // Atomic closure: a coordinated commit on p after the nd
            // covers the target if *any member* of its round
            // happens-before (or is) the target — the round's commits are
            // atomic with one another, so the whole round is ordered by
            // its best-ordered member.
            let covered = pos.grouped_commits[p]
                .iter()
                .filter(|&&(s, _)| s > nd_seq)
                .any(|&(_, round)| pos.round(round).any(|m| m == id || precedes_target(m)));
            if !covered {
                first = Some(SaveWorkViolation {
                    nd: EventId::new(ProcessId::from_index(p), nd_seq),
                    target: id,
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
    // Per rollback, the first lost effectively-nd event of the failed
    // process: a commit that depends on any lost nd event depends on it.
    let first_lost_nd: Vec<Option<u64>> = rollbacks
        .iter()
        .map(|rb| {
            (0..)
                .zip(trace.process(rb.pid))
                .find(|&(seq, e)| seq >= rb.first_lost && e.is_effectively_nd())
                .map(|(seq, _)| seq)
        })
        .collect();
    // Per (rollback, process), its first commit that depends on a lost
    // event.
    let n = trace.num_processes();
    let mut first: Vec<Option<OrphanReport>> = vec![None; rollbacks.len() * n];
    replay(trace, &trace.processes(), |id, e, clocks| {
        if !e.kind.is_commit() {
            return;
        }
        for (i, (rb, lost)) in rollbacks.iter().zip(&first_lost_nd).enumerate() {
            let slot = &mut first[i * n + id.pid.index()];
            let Some(nd_seq) = *lost else {
                continue;
            };
            if id.pid != rb.pid
                && slot.is_none()
                && nd_seq < u64::from(clocks.causal[rb.pid.index()])
            {
                *slot = Some(OrphanReport {
                    orphan: id.pid,
                    commit: id,
                    lost_nd: EventId::new(rb.pid, nd_seq),
                });
            }
        }
    });
    first.into_iter().flatten().collect()
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
        b.coordinated_commit(&[a, bb], &mut Vec::new());
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
        b.coordinated_commit(&[a, bb], &mut Vec::new());
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
        b.coordinated_commit(&[a, bb], &mut Vec::new());
        b.coordinated_commit(&[bb], &mut Vec::new());
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
        b.coordinated_commit(&[a], &mut Vec::new());
        b.coordinated_commit(&[bb], &mut Vec::new());
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

    /// P1's unlogged nd reaches P0 in `m`; P0 does `before_crash`, crashes
    /// and is rolled back to before the receive. Returns the nd, `m` and
    /// the builder to go on from.
    fn rolled_back_past_a_receive(
        before_crash: impl FnOnce(&mut TraceBuilder),
    ) -> (EventId, crate::event::MsgId, TraceBuilder) {
        let mut b = TraceBuilder::new(3);
        let nd = b.nd(p(1), NdSource::TimeOfDay);
        let (_, m) = b.send(p(1), p(0));
        b.recv_logged(p(0), p(1), m); // P0's seq 0: will be rolled back.
        before_crash(&mut b);
        b.crash(p(0));
        b.rollback(p(0), 0);
        (nd, m, b)
    }

    #[test]
    fn a_rollback_undoes_what_the_process_knew() {
        // Restored to a state that never saw `m`, P0 commits alone: it
        // depends on nothing of P1's, so it is no orphan.
        let (_, _, mut b) = rolled_back_past_a_receive(|_| {});
        b.commit(p(0));
        assert_eq!(check_save_work(&b.finish()), Ok(()));
    }

    #[test]
    fn knowledge_regained_after_a_rollback_obliges_again() {
        // The transport re-delivers `m` before P0 commits: the dependence
        // is back, and so is the orphan.
        let (nd, m, mut b) = rolled_back_past_a_receive(|_| {});
        b.recv_logged(p(0), p(1), m);
        let c = b.commit(p(0));
        let err = check_save_work(&b.finish()).unwrap_err();
        assert_eq!(
            (err.rule, err.nd, err.target),
            (SaveWorkRule::Orphan, nd, c)
        );
    }

    #[test]
    fn knowledge_passed_on_before_the_crash_survives_the_rollback() {
        // P0 told P2 before it crashed. `m2` carries what P0 knew when it
        // sent it, whatever P0 is rolled back to afterwards: P2's commit is
        // an orphan of P1's nd, while P0's own commit still is not.
        let mut m2 = None;
        let (nd, _, mut b) = rolled_back_past_a_receive(|b| m2 = Some(b.send(p(0), p(2)).1));
        b.commit(p(0));
        b.recv_logged(p(2), p(0), m2.expect("sent before the crash"));
        let c = b.commit(p(2));
        let err = check_save_work(&b.finish()).unwrap_err();
        assert_eq!(
            (err.rule, err.nd, err.target),
            (SaveWorkRule::Orphan, nd, c)
        );
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
