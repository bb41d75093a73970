//! Traces: the recorded event history of a computation.
//!
//! A [`Trace`] holds the per-process event sequences of one (possibly failed
//! and recovered) execution plus the order they were recorded in. It stores
//! no vector clocks: the checkers in [`crate::savework`] and
//! [`crate::losework`] derive them with [`crate::clock::replay`] when they
//! ask causal questions after the fact. Nor does it store event ids: an
//! event's id is its position, which the iterators hand out beside it.
//! Traces are built through a [`TraceBuilder`], which hands out event,
//! message, commit and round ids and does a constant amount of work per
//! event whatever the process count.

use crate::event::{Event, EventId, EventKind, MsgId, NdClass, NdSource, ProcessId};

/// Chunk size for reserve-ahead appends on recording hot paths.
pub const RECORD_CHUNK: usize = 256;

/// Reserve-ahead chunked append for recording hot paths: reserves a whole
/// [`RECORD_CHUNK`] whenever the vector is at capacity, so a fresh log
/// skips the 1-2-4-8 doubling cascade of plain `push` (one allocation per
/// 256 records early on). Still amortized O(1): once the vector is large,
/// `Vec::reserve` grows at least geometrically regardless of the
/// requested additional capacity.
#[inline]
pub fn chunked_push<T>(v: &mut Vec<T>, x: T) {
    if v.len() == v.capacity() {
        v.reserve(RECORD_CHUNK);
    }
    v.push(x);
}

/// A recorded execution of a computation.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// `events[p]` is the event sequence of process `p`, in program order.
    events: Vec<Vec<Event>>,
    /// The executing process of every event, in recording order: the one
    /// linearization the run itself produced, in which a send precedes its
    /// receives.
    order: Vec<u32>,
}

impl Trace {
    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        self.events.len()
    }

    /// Every process, ascending: the columns of a full-width
    /// [`crate::clock::replay`].
    pub fn processes(&self) -> Vec<ProcessId> {
        (0..self.num_processes())
            .map(ProcessId::from_index)
            .collect()
    }

    /// The events of process `p`, in program order.
    pub fn process(&self, p: ProcessId) -> &[Event] {
        &self.events[p.index()]
    }

    /// Looks up an event by id.
    pub fn get(&self, id: EventId) -> Option<&Event> {
        self.events
            .get(id.pid.index())?
            .get(usize::try_from(id.seq).ok()?)
    }

    /// Iterates over all events of all processes, process by process.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.events.iter().flatten()
    }

    /// Iterates over all events of all processes, process by process, each
    /// with its id.
    pub fn indexed(&self) -> impl Iterator<Item = (EventId, &Event)> {
        self.events.iter().enumerate().flat_map(|(p, log)| {
            let p = ProcessId::from_index(p);
            (0..)
                .zip(log)
                .map(move |(seq, e)| (EventId::new(p, seq), e))
        })
    }

    /// Iterates over all events in the order they were recorded, each with
    /// its id.
    pub fn recorded(&self) -> impl Iterator<Item = (EventId, &Event)> {
        let mut next = vec![0usize; self.events.len()];
        self.order.iter().map(move |&p| {
            let seq = next[p as usize];
            next[p as usize] += 1;
            let id = EventId::new(ProcessId(p), seq as u64);
            (id, &self.events[p as usize][seq])
        })
    }

    /// Total number of recorded events.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of commit events across all processes.
    pub fn total_commits(&self) -> usize {
        self.iter().filter(|e| e.kind.is_commit()).count()
    }
}

/// Incremental builder for a [`Trace`].
///
/// Each record is one [`Event`] appended to its process's sequence and
/// one `u32` to the recording order; the id it returns is that position.
/// Commit and round numbers are `u32`, which is what lets a coordinated
/// commit's group ride inside its [`EventKind::Commit`] at no cost to
/// any other event.
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    trace: Trace,
    next_msg: u64,
    next_commit: u32,
    next_group: u32,
}

impl TraceBuilder {
    /// Creates a builder for a computation of `n` processes.
    pub fn new(n: usize) -> Self {
        Self {
            trace: Trace {
                events: vec![Vec::new(); n],
                order: Vec::new(),
            },
            next_msg: 0,
            next_commit: 0,
            next_group: 0,
        }
    }

    fn push(&mut self, p: ProcessId, kind: EventKind, logged: bool) -> EventId {
        assert!(
            p.index() < self.trace.events.len(),
            "process id out of range"
        );
        let log = &mut self.trace.events[p.index()];
        let id = EventId::new(p, log.len() as u64);
        chunked_push(log, Event { kind, logged });
        chunked_push(&mut self.trace.order, p.0);
        id
    }

    fn fresh_msg(&mut self) -> MsgId {
        self.next_msg += 1;
        MsgId(self.next_msg - 1)
    }

    fn push_commit(&mut self, p: ProcessId, group: Option<u32>) -> EventId {
        let commit_id = self.next_commit;
        self.next_commit = commit_id
            .checked_add(1)
            .expect("a trace numbers its commits in a u32");
        self.push(p, EventKind::Commit { commit_id, group }, false)
    }

    /// Records a deterministic internal event.
    pub fn internal(&mut self, p: ProcessId) -> EventId {
        self.push(p, EventKind::Internal, false)
    }

    /// Records a non-deterministic event from `source` with its default
    /// classification.
    pub fn nd(&mut self, p: ProcessId, source: NdSource) -> EventId {
        self.nd_with(p, source, source.default_class(), false)
    }

    /// Records a non-deterministic event that has been logged (rendered
    /// deterministic).
    pub fn nd_logged(&mut self, p: ProcessId, source: NdSource) -> EventId {
        self.nd_with(p, source, source.default_class(), true)
    }

    /// Records a non-deterministic event with explicit class and logging.
    pub fn nd_with(
        &mut self,
        p: ProcessId,
        source: NdSource,
        class: NdClass,
        logged: bool,
    ) -> EventId {
        self.push(p, EventKind::NonDeterministic { source, class }, logged)
    }

    /// Records a send from `from` to `to`, returning the event id and the
    /// fresh message id the matching receive must use.
    pub fn send(&mut self, from: ProcessId, to: ProcessId) -> (EventId, MsgId) {
        let msg = self.fresh_msg();
        (self.push(from, EventKind::Send { to, msg }, false), msg)
    }

    /// Records a *control* send from the recovery layer (e.g. a two-phase
    /// commit prepare or ack), marked by `logged` on the send event.
    /// Control messages order events (they join the happens-before clock
    /// at the receive) but transmit no application state, so they do not
    /// join the causal clock and generate no Save-work obligations. Receive
    /// them with [`TraceBuilder::recv_control`].
    pub fn send_control(&mut self, from: ProcessId, to: ProcessId) -> (EventId, MsgId) {
        let msg = self.fresh_msg();
        (self.push(from, EventKind::Send { to, msg }, true), msg)
    }

    /// Records the receive of a control message: deterministic from the
    /// application's point of view (logged).
    ///
    /// # Panics
    ///
    /// Panics if `msg` was never sent.
    pub fn recv_control(&mut self, to: ProcessId, from: ProcessId, msg: MsgId) -> EventId {
        self.recv_with(to, from, msg, true)
    }

    /// Records a receive of message `msg` (previously sent via
    /// [`TraceBuilder::send`]) by process `to`.
    ///
    /// # Panics
    ///
    /// Panics if `msg` was never sent.
    pub fn recv(&mut self, to: ProcessId, from: ProcessId, msg: MsgId) -> EventId {
        self.recv_with(to, from, msg, false)
    }

    /// Records a receive whose non-determinism has been logged.
    pub fn recv_logged(&mut self, to: ProcessId, from: ProcessId, msg: MsgId) -> EventId {
        self.recv_with(to, from, msg, true)
    }

    fn recv_with(&mut self, to: ProcessId, from: ProcessId, msg: MsgId, logged: bool) -> EventId {
        assert!(
            msg.0 < self.next_msg,
            "receive of a message that was never sent"
        );
        self.push(to, EventKind::Recv { from, msg }, logged)
    }

    /// Records a visible (user-observable) output event.
    pub fn visible(&mut self, p: ProcessId, token: u64) -> EventId {
        self.push(p, EventKind::Visible { token }, false)
    }

    /// Records a commit event, returning its id.
    pub fn commit(&mut self, p: ProcessId) -> EventId {
        self.push_commit(p, None)
    }

    /// Records a coordinated (two-phase) commit across `participants`: one
    /// commit event per participant, all sharing an atomic group so the
    /// Save-work checker treats them as atomic with one another.
    ///
    /// The caller is responsible for also recording the coordination
    /// messages if it wants the happens-before edges they induce; the atomic
    /// group alone is what makes the commits cover each other's
    /// dependencies.
    pub fn coordinated_commit(&mut self, participants: &[ProcessId]) -> Vec<EventId> {
        let group = self.next_group;
        self.next_group = group
            .checked_add(1)
            .expect("a trace numbers its rounds in a u32");
        participants
            .iter()
            .map(|&p| self.push_commit(p, Some(group)))
            .collect()
    }

    /// Records a crash event.
    pub fn crash(&mut self, p: ProcessId) -> EventId {
        self.push(p, EventKind::Crash, false)
    }

    /// Records a fault-activation journal marker.
    pub fn fault_activation(&mut self, p: ProcessId, fault: u32) -> EventId {
        self.push(p, EventKind::FaultActivation { fault }, false)
    }

    /// Records that recovery rolled `p` back to `to_seq` (its events with
    /// sequence numbers in `[to_seq, now)` were undone).
    pub fn rollback(&mut self, p: ProcessId, to_seq: u64) -> EventId {
        self.push(p, EventKind::Rollback { to_seq }, false)
    }

    /// Number of events recorded so far for `p` (the next event's seq).
    pub fn position(&self, p: ProcessId) -> u64 {
        self.trace.events[p.index()].len() as u64
    }

    /// Finishes the trace.
    pub fn finish(self) -> Trace {
        self.trace
    }

    /// Read access to the trace built so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    #[test]
    #[should_panic(expected = "never sent")]
    fn recv_of_unsent_message_panics() {
        let mut b = TraceBuilder::new(2);
        b.recv(p(1), p(0), MsgId(99));
    }

    #[test]
    fn commit_ids_are_unique_and_counted() {
        let mut b = TraceBuilder::new(2);
        b.commit(p(0));
        b.commit(p(1));
        b.commit(p(0));
        let t = b.finish();
        assert_eq!(t.total_commits(), 3);
        let ids: Vec<u32> = t
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Commit { commit_id, .. } => Some(commit_id),
                _ => None,
            })
            .collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
    }

    #[test]
    fn recorded_interleaves_the_processes_as_they_ran() {
        let mut b = TraceBuilder::new(2);
        let ids = [
            b.internal(p(1)),
            b.internal(p(0)),
            b.visible(p(1), 7),
            b.commit(p(0)),
        ];
        let t = b.finish();
        assert!(t.recorded().map(|(id, _)| id).eq(ids));
        assert!(t.recorded().all(|(id, e)| t.get(id) == Some(e)));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn get_and_len() {
        let mut b = TraceBuilder::new(2);
        let e = b.internal(p(1));
        let t = b.finish();
        assert_eq!(t.len(), 1);
        assert!(t.get(e).is_some());
        assert!(t.get(EventId::new(p(0), 0)).is_none());
        assert_eq!(t.num_processes(), 2);
    }

    #[test]
    fn ids_are_positions_and_only_round_commits_carry_a_group() {
        let mut b = TraceBuilder::new(3);
        b.internal(p(2));
        let local = b.commit(p(0));
        let round = b.coordinated_commit(&[p(0), p(2)]);
        let next = b.coordinated_commit(&[p(1)]);
        let t = b.finish();
        let ids: Vec<EventId> = t.indexed().map(|(id, _)| id).collect();
        let at = |pid, seq| EventId::new(p(pid), seq);
        assert_eq!(ids, [at(0, 0), at(0, 1), at(1, 0), at(2, 0), at(2, 1)]);
        assert!(t.indexed().all(|(id, e)| t.get(id) == Some(e)));
        let group = |id| t.get(id).and_then(Event::group);
        assert_eq!(group(local), None);
        assert_eq!(
            round.iter().map(|&id| group(id)).collect::<Vec<_>>(),
            [Some(0); 2]
        );
        assert_eq!(group(next[0]), Some(1));
    }
}
