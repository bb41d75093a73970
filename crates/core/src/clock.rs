//! Vector clocks and Lamport's happens-before relation (§2.2), derived
//! from a recorded execution instead of carried on every event.
//!
//! The paper orders events in asynchronous computations with Lamport's
//! *happens-before* relation and uses it as an approximation of causality
//! ("causally precedes"). We realize the relation with vector clocks: a
//! process increments its own component on each event, and a receive
//! first joins the sender's clock at the send. With that discipline the
//! clock *after* event `a` has `clock[a.pid] == a.seq + 1`, and `a`
//! happens-before a distinct event `b` iff `a.seq < b.clock[a.pid]`.
//!
//! A [`Trace`] records no clocks. They are a function of the per-process
//! event sequences and the message ids, so [`replay`] recomputes them in
//! one pass over the recording order and hands each event's clocks to a
//! visitor; the checkers read them at the events they test (visible and
//! commit events, access positions) and nowhere else.
//!
//! The two clocks part ways at a recovery rollback. What happened before
//! a crash still happened before everything after it, so the
//! happens-before clock never goes back. The *causal* clock is what the
//! process knows, and a rollback undoes the process's knowledge along with
//! its events: restored to a state that never saw a message, it no longer
//! depends on what that message carried (it *is* its fault-free self at
//! the restore point), so its causal clock returns to the value it had
//! there. Messages it sent before the crash keep what it knew when it sent
//! them.

use crate::event::{Event, EventId, EventKind, MsgId, ProcessId};
use crate::trace::Trace;

/// The two vector clocks of an event's process *after* executing that
/// event, one component per replayed column: component `j` is what the
/// process knows of the `j`-th process of the column set handed to
/// [`replay`] (of process `j` itself when that set is every process).
#[derive(Debug, Clone, Copy)]
pub struct EventClocks<'a> {
    /// Happens-before clock. Joined on **every** message, including
    /// recovery-layer control messages (two-phase-commit prepares and
    /// acks). Decides whether a commit *happens-before* a target event
    /// (coverage).
    pub hb: &'a [u32],
    /// Application-causality clock. Joined only on **application**
    /// messages. The paper distinguishes happens-before's use as an
    /// ordering constraint from its use as an approximation of causality
    /// ("causally precedes", §2.2); recovery control messages order events
    /// but do not transmit application state, so they must not generate
    /// Save-work obligations.
    pub causal: &'a [u32],
}

/// Component-wise max of `src` into `dst`.
fn join(dst: &mut [u32], src: &[u32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d).max(*s);
    }
}

/// A message id as a table index.
fn index(msg: MsgId) -> usize {
    usize::try_from(msg.0).expect("message ids are dense")
}

/// Replays `trace` in recording order, deriving both vector clocks over
/// the processes in `columns`, and calls `visit` once per event with its
/// id and the clocks after that event.
///
/// `columns` lists distinct processes in ascending order; component `j`
/// of every clock is the count of `columns[j]`. A clock component only
/// ever takes values from the same component of other clocks, so a
/// projected replay derives exactly the columns a full one would: pass
/// every process for the full clocks, or only the processes a checker
/// reads. Each process's event count must fit a `u32`, which is checked
/// once per column.
///
/// The running state is two `n × columns` matrices (row `p` is process
/// `p`'s clock). A send snapshots its row so that a later receive — or
/// several: recovery re-delivers a message to a rolled-back receiver —
/// joins the sender's knowledge *at the send*. A receive joins the
/// happens-before row always and the causal row unless the matching send
/// was a control send (`send.logged`).
///
/// A snapshot lives only while its message is in flight. A pre-pass counts
/// the receives the trace records for each message; a send that is never
/// received snapshots nothing, and the last recorded receive of a message
/// hands its `2 × columns`-word slot to the next send. Transient memory
/// is the matrices, `O(peak in-flight × columns)` words of slots, and a
/// count and an offset per message; nothing once the replay returns.
/// With no columns there is nothing to derive, and the replay only visits.
///
/// A `Rollback { to_seq }` on `p` sets `p`'s causal row back to its value
/// just before `p`'s event `to_seq`, keeping `p`'s own component (the
/// module docs say why); the happens-before row and the slots already
/// snapshotted are untouched. The same pre-pass collects the restore
/// points, and the replay keeps the causal row at each:
/// `O(rollbacks × columns)` more words and one compare per event, nothing
/// for a trace without a rollback.
pub fn replay(
    trace: &Trace,
    columns: &[ProcessId],
    mut visit: impl FnMut(EventId, &Event, EventClocks<'_>),
) {
    debug_assert!(
        columns.windows(2).all(|w| w[0] < w[1]),
        "columns are distinct and ascending"
    );
    let width = columns.len();
    if width == 0 {
        for (id, e) in trace.recorded() {
            visit(
                id,
                e,
                EventClocks {
                    hb: &[],
                    causal: &[],
                },
            );
        }
        return;
    }
    let n = trace.num_processes();
    // `column_of[p]`: the column of `p`'s own component, if it has one.
    let mut column_of: Vec<Option<usize>> = vec![None; n];
    for (j, &p) in columns.iter().enumerate() {
        u32::try_from(trace.process(p).len()).expect("a process's event count fits a u32 clock");
        column_of[p.index()] = Some(j);
    }
    let mut hb = vec![0u32; n * width];
    let mut causal = vec![0u32; n * width];
    // `pending[msg]`: receives of `msg` still to come. Message ids are
    // handed out densely in recording order, so the table ends at the last
    // message that is ever received.
    let mut pending: Vec<u32> = Vec::new();
    // Every `(process, seq)` some rollback restores to, ascending: each
    // process's restore points are one run of the list, in the order the
    // process reaches them.
    let mut restore_points: Vec<(usize, u64)> = Vec::new();
    for (id, e) in trace.indexed() {
        match e.kind {
            EventKind::Recv { msg, .. } => {
                let m = index(msg);
                if m >= pending.len() {
                    pending.resize(m + 1, 0);
                }
                pending[m] += 1;
            }
            EventKind::Rollback { to_seq } => restore_points.push((id.pid.index(), to_seq)),
            _ => {}
        }
    }
    restore_points.sort_unstable();
    restore_points.dedup();
    // `next_point[p]`: the first of `p`'s restore points it has yet to
    // reach, as an index into the list (empty when the list is), and
    // `restored`: the causal row as it stood just before each restore
    // point reached so far, `width` words apiece in list order.
    let mut next_point: Vec<usize> = Vec::new();
    if !restore_points.is_empty() {
        next_point.extend((0..n).map(|p| restore_points.partition_point(|&(q, _)| q < p)));
    }
    let mut restored = vec![0u32; restore_points.len() * width];
    // `slot_of[msg]`: where in `slots` the `2 × width`-word snapshot of
    // an in-flight `msg` starts — the sender's happens-before row, then
    // its causal row, left all zero by a control send so that joining it
    // changes nothing.
    let mut slot_of = vec![0usize; pending.len()];
    let mut slots: Vec<u32> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut sends = 0u64;
    for (id, e) in trace.recorded() {
        let p = id.pid.index();
        let row = p * width..(p + 1) * width;
        let own = column_of[p].map(|j| row.start + j);
        if let Some(k) = next_point.get_mut(p) {
            if restore_points.get(*k) == Some(&(p, id.seq)) {
                restored[*k * width..(*k + 1) * width].copy_from_slice(&causal[row.clone()]);
                *k += 1;
            }
            if let EventKind::Rollback { to_seq } = e.kind {
                // A restore point the process has yet to reach undoes
                // nothing.
                if let Ok(at) = restore_points[..*k].binary_search(&(p, to_seq)) {
                    let kept = own.map(|i| (i, causal[i]));
                    causal[row.clone()].copy_from_slice(&restored[at * width..(at + 1) * width]);
                    if let Some((i, count)) = kept {
                        causal[i] = count;
                    }
                }
            }
        }
        if let EventKind::Recv { msg, .. } = e.kind {
            let m = index(msg);
            let (sent_hb, sent_causal) = slots[slot_of[m]..slot_of[m] + 2 * width].split_at(width);
            join(&mut hb[row.clone()], sent_hb);
            join(&mut causal[row.clone()], sent_causal);
            pending[m] -= 1;
            if pending[m] == 0 {
                free.push(slot_of[m]);
            }
        }
        if let Some(i) = own {
            hb[i] += 1;
            causal[i] += 1;
        }
        if let EventKind::Send { msg, .. } = e.kind {
            debug_assert_eq!(msg.0, sends, "sends record dense message ids");
            sends += 1;
            let m = index(msg);
            if pending.get(m).is_some_and(|&receives| receives > 0) {
                slot_of[m] = free.pop().unwrap_or_else(|| {
                    slots.resize(slots.len() + 2 * width, 0);
                    slots.len() - 2 * width
                });
                let (sent_hb, sent_causal) =
                    slots[slot_of[m]..slot_of[m] + 2 * width].split_at_mut(width);
                sent_hb.copy_from_slice(&hb[row.clone()]);
                if e.logged {
                    sent_causal.fill(0);
                } else {
                    sent_causal.copy_from_slice(&causal[row.clone()]);
                }
            }
        }
        visit(
            id,
            e,
            EventClocks {
                hb: &hb[row.clone()],
                causal: &causal[row],
            },
        );
    }
}

/// Does event `a` precede the distinct event `b`, whose clock after
/// executing is `b_clock`? With `b`'s happens-before clock this is
/// happens-before; with its causal clock, "causally precedes". Two events
/// on one process are ordered by program order; across processes, `a`'s
/// knowledge must have reached `b`. `b_clock` is a full-width clock,
/// indexed by process.
pub fn happens_before(a: EventId, b: EventId, b_clock: &[u32]) -> bool {
    if a.pid == b.pid {
        a.seq < b.seq
    } else {
        a.seq < u64::from(b_clock[a.pid.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NdSource;
    use crate::trace::TraceBuilder;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    /// (event id, hb clock, causal clock) of every event, in recording order.
    fn clocks_of(trace: &Trace) -> Vec<(EventId, Vec<u32>, Vec<u32>)> {
        let mut out = Vec::new();
        replay(trace, &trace.processes(), |id, _, c| {
            out.push((id, c.hb.to_vec(), c.causal.to_vec()));
        });
        out
    }

    fn hb(trace: &Trace, a: EventId, b: EventId) -> bool {
        let clocks = clocks_of(trace);
        let (_, b_hb, _) = clocks.iter().find(|(id, ..)| *id == b).expect("b recorded");
        happens_before(a, b, b_hb)
    }

    #[test]
    fn program_order_is_happens_before() {
        let mut b = TraceBuilder::new(1);
        let e0 = b.internal(p(0));
        let e1 = b.visible(p(0), 42);
        let t = b.finish();
        assert!(hb(&t, e0, e1));
        assert!(!hb(&t, e1, e0));
    }

    #[test]
    fn message_creates_cross_process_order() {
        let mut b = TraceBuilder::new(2);
        let nd = b.nd(p(0), NdSource::TimeOfDay);
        let (s, m) = b.send(p(0), p(1));
        let r = b.recv(p(1), p(0), m);
        let v = b.visible(p(1), 1);
        let t = b.finish();
        assert!(hb(&t, nd, s));
        assert!(hb(&t, s, r));
        assert!(hb(&t, nd, v));
        assert!(!hb(&t, r, s));
    }

    #[test]
    fn unrelated_events_concurrent() {
        let mut b = TraceBuilder::new(2);
        let a = b.internal(p(0));
        let c = b.internal(p(1));
        let t = b.finish();
        assert!(!hb(&t, a, c));
        assert!(!hb(&t, c, a));
    }

    #[test]
    fn a_receive_joins_the_senders_clock_at_the_send() {
        // P0: internal, send, internal. P1 receives: it knows P0's first
        // two events, not the third.
        let mut b = TraceBuilder::new(2);
        b.internal(p(0));
        let (_, m) = b.send(p(0), p(1));
        b.internal(p(0));
        b.recv(p(1), p(0), m);
        let clocks = clocks_of(&b.finish());
        assert_eq!(clocks[2].1, [3, 0], "the sender moved on");
        assert_eq!(clocks[3].1, [2, 1]);
        assert_eq!(clocks[3].2, [2, 1], "application sends carry causality");
    }

    #[test]
    fn control_messages_order_but_carry_no_causality() {
        let mut b = TraceBuilder::new(2);
        b.nd(p(0), NdSource::Random);
        let (_, m) = b.send_control(p(0), p(1));
        b.recv_control(p(1), p(0), m);
        let clocks = clocks_of(&b.finish());
        assert_eq!(clocks[2].1, [2, 1]);
        assert_eq!(clocks[2].2, [0, 1]);
    }

    #[test]
    fn a_redelivered_message_joins_the_same_snapshot() {
        // Recovery rolls P1 back and the transport re-delivers: both
        // receives see P0 as it was at the send.
        let mut b = TraceBuilder::new(2);
        let (_, m) = b.send(p(0), p(1));
        b.recv(p(1), p(0), m);
        b.internal(p(0));
        b.rollback(p(1), 0);
        b.recv(p(1), p(0), m);
        let clocks = clocks_of(&b.finish());
        assert_eq!(clocks[1].1, [1, 1]);
        assert_eq!(clocks[4].1, [1, 3]);
    }

    #[test]
    fn a_redelivery_joins_its_own_snapshot_after_other_messages_came_and_went() {
        // P1 has received `m`, and three later messages are sent and
        // received before recovery delivers `m` to P1 a second time. Had
        // the first receive given up `m`'s snapshot, theirs would have
        // overwritten it and P1 would now learn of P2.
        let mut b = TraceBuilder::new(3);
        let (_, m) = b.send(p(0), p(1));
        b.recv(p(1), p(0), m);
        for _ in 0..3 {
            let (_, later) = b.send(p(2), p(0));
            b.recv(p(0), p(2), later);
        }
        b.rollback(p(1), 0);
        b.recv(p(1), p(0), m);
        let clocks = clocks_of(&b.finish());
        assert_eq!(clocks[7].1, [4, 0, 3], "the sender moved on");
        assert_eq!(clocks[9].1, [1, 3, 0]);
        assert_eq!(clocks[9].2, [1, 3, 0]);
    }

    #[test]
    fn a_send_nobody_receives_disturbs_no_other_snapshot() {
        // Only the middle send is received; the receive joins that send's
        // clock, not a neighbour's. (That the other two take no snapshot
        // at all is gated in `tests/replay_memory.rs`.)
        let mut b = TraceBuilder::new(2);
        b.send(p(0), p(1));
        let (_, m) = b.send(p(0), p(1));
        b.send(p(0), p(1));
        b.recv(p(1), p(0), m);
        let clocks = clocks_of(&b.finish());
        assert_eq!(clocks[3].1, [2, 1]);
        assert_eq!(clocks[3].2, [2, 1]);
    }

    #[test]
    fn replay_of_an_empty_trace_visits_nothing() {
        let mut visited = 0;
        let mut visit = |_: EventId, _: &Event, _: EventClocks<'_>| visited += 1;
        replay(&TraceBuilder::new(0).finish(), &[], &mut visit);
        replay(&TraceBuilder::new(3).finish(), &[p(0), p(2)], &mut visit);
        assert_eq!(visited, 0);
    }
}
