//! Recovery protocols for upholding the Save-work invariant (§2.4).
//!
//! The paper implements seven protocols in Discount Checking:
//!
//! | Protocol     | Rule                                                            |
//! |--------------|-----------------------------------------------------------------|
//! | CAND         | Commit immediately **A**fter every **N**on-**D**eterministic event |
//! | CPVS         | **C**ommit **P**rior to every **V**isible or **S**end event      |
//! | CBNDVS       | Commit **B**etween **ND** and **V**isible-or-**S**end (only if dirty) |
//! | CAND-LOG     | CAND, with user input and receives logged (rendered deterministic) |
//! | CBNDVS-LOG   | CBNDVS with logging                                              |
//! | CPV-2PC      | Commit prior to visible only, coordinated across all processes   |
//! | CBNDV-2PC    | As CPV-2PC but only dirty processes commit                       |
//!
//! A [`CommitPlanner`] turns a protocol into a pure decision function the
//! checkpointing runtime consults at every intercepted event: whether to
//! log the event, and whether to commit before (locally or coordinated)
//! and/or after it. A [`DepTracker`] carries the cross-process half — whose
//! uncommitted non-determinism a process depends on — as a [`DepSet`], the
//! one set type that travels from the tracker through the simulator's
//! message metadata to the receiver and into
//! [`coordinated_participants`].
//!
//! [`drive`] is the one place a [`Step`] sequence becomes a
//! protocol-driven [`Trace`]; [`enumerate`] walks every step sequence up
//! to a length, so a claim about the planners can be checked over all.

use std::collections::VecDeque;

use crate::event::{MsgId, NdSource, ProcessId};
use crate::trace::{Trace, TraceBuilder};

/// A recovery protocol for upholding Save-work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Commit every event — the origin of the protocol space. Trivially
    /// correct: needs no knowledge of event types.
    CommitAll,
    /// Commit immediately after every non-deterministic event.
    Cand,
    /// CAND with user-input and receive logging.
    CandLog,
    /// Commit prior to every visible or send event.
    Cpvs,
    /// Commit between non-determinism and a visible or send event: commit
    /// before a visible/send only if a non-deterministic event executed
    /// since the last commit.
    Cbndvs,
    /// CBNDVS with user-input and receive logging.
    CbndvsLog,
    /// Two-phase commit before visible events only: all processes commit
    /// whenever any process executes a visible event; no commits before
    /// sends.
    Cpv2pc,
    /// As [`Protocol::Cpv2pc`], but only processes with uncommitted
    /// non-determinism commit in the coordinated round.
    Cbndv2pc,
}

impl Protocol {
    /// The seven protocols measured in Figure 8, in the paper's order.
    pub const FIGURE8: [Protocol; 7] = [
        Protocol::Cand,
        Protocol::CandLog,
        Protocol::Cpvs,
        Protocol::Cbndvs,
        Protocol::CbndvsLog,
        Protocol::Cpv2pc,
        Protocol::Cbndv2pc,
    ];

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::CommitAll => "COMMIT-ALL",
            Protocol::Cand => "CAND",
            Protocol::CandLog => "CAND-LOG",
            Protocol::Cpvs => "CPVS",
            Protocol::Cbndvs => "CBNDVS",
            Protocol::CbndvsLog => "CBNDVS-LOG",
            Protocol::Cpv2pc => "CPV-2PC",
            Protocol::Cbndv2pc => "CBNDV-2PC",
        }
    }

    /// Does this protocol log events from `source` to render them
    /// deterministic?
    ///
    /// Per §3, Discount Checking's logging covers non-deterministic *user
    /// input* and *message receive* events; other sources (signals,
    /// `gettimeofday`, scheduling) stay non-deterministic.
    pub fn logs(self, source: NdSource) -> bool {
        match self {
            Protocol::CandLog | Protocol::CbndvsLog => {
                matches!(source, NdSource::UserInput | NdSource::MessageRecv)
            }
            _ => false,
        }
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Classification of an intercepted application event, from the
/// checkpointing runtime's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterceptedEvent {
    /// A non-deterministic event from `source` (including receives, which
    /// carry [`NdSource::MessageRecv`]).
    Nd {
        /// Where the non-determinism came from.
        source: NdSource,
    },
    /// A user-visible output.
    Visible,
    /// A message send to another process.
    Send,
    /// Anything else (deterministic computation, writes to private state).
    Other,
}

/// Scope of a commit decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitScope {
    /// No commit.
    None,
    /// This process commits locally.
    Local,
    /// A coordinated two-phase commit among the
    /// [`coordinated_participants`]: every process under
    /// [`Protocol::Cpv2pc`], the coordinator's dependency closure (always
    /// including the coordinator) under [`Protocol::Cbndv2pc`].
    Coordinated,
}

/// The planner's decision for one intercepted event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Commit (and with what scope) immediately *before* the event.
    pub before: CommitScope,
    /// Commit locally immediately *after* the event.
    pub after: bool,
    /// Write the event's result to the non-determinism log (it is rendered
    /// deterministic and replayed on recovery).
    pub log: bool,
}

impl Decision {
    /// The no-op decision.
    pub const NONE: Decision = Decision {
        before: CommitScope::None,
        after: false,
        log: false,
    };
}

/// Per-process protocol state machine: consult [`CommitPlanner::decide`]
/// before executing each intercepted event, then apply the decision and call
/// [`CommitPlanner::note_committed`] whenever a commit actually executes
/// (including commits forced by a remote coordinator).
#[derive(Debug, Clone)]
pub struct CommitPlanner {
    protocol: Protocol,
    nd_since_commit: bool,
}

impl CommitPlanner {
    /// Creates a planner for `protocol`. A fresh process starts clean: its
    /// initial state is considered committed (§4).
    pub fn new(protocol: Protocol) -> Self {
        Self {
            protocol,
            nd_since_commit: false,
        }
    }

    /// Has this process executed unlogged non-determinism since its last
    /// commit?
    pub fn is_dirty(&self) -> bool {
        self.nd_since_commit
    }

    /// Decides what to do for `event`.
    ///
    /// An unlogged non-deterministic event sets the dirty bit; the planner
    /// does **not** assume the decision's commits execute — the runtime must
    /// call [`CommitPlanner::note_committed`] on every process that actually
    /// commits (this matters for coordinated rounds, where the runtime needs
    /// to read each participant's dirty bit before clearing it).
    ///
    /// # Examples
    ///
    /// ```
    /// use ft_core::protocol::{CommitPlanner, CommitScope, InterceptedEvent, Protocol};
    /// use ft_core::event::NdSource;
    ///
    /// let mut p = CommitPlanner::new(Protocol::Cbndvs);
    /// // No nd yet: a visible event needs no commit.
    /// let d = p.decide(InterceptedEvent::Visible);
    /// assert_eq!(d.before, CommitScope::None);
    /// // After an nd event, the next visible forces a commit before it.
    /// p.decide(InterceptedEvent::Nd { source: NdSource::TimeOfDay });
    /// let d = p.decide(InterceptedEvent::Visible);
    /// assert_eq!(d.before, CommitScope::Local);
    /// ```
    pub fn decide(&mut self, event: InterceptedEvent) -> Decision {
        let mut d = Decision::NONE;
        match event {
            InterceptedEvent::Nd { source } => {
                if self.protocol.logs(source) {
                    d.log = true;
                } else {
                    match self.protocol {
                        Protocol::CommitAll | Protocol::Cand | Protocol::CandLog => {
                            d.after = true;
                        }
                        _ => {}
                    }
                    self.nd_since_commit = true;
                }
            }
            InterceptedEvent::Visible => match self.protocol {
                Protocol::CommitAll => d.after = true,
                Protocol::Cpvs => d.before = CommitScope::Local,
                Protocol::Cbndvs | Protocol::CbndvsLog => {
                    if self.nd_since_commit {
                        d.before = CommitScope::Local;
                    }
                }
                Protocol::Cpv2pc | Protocol::Cbndv2pc => {
                    d.before = CommitScope::Coordinated;
                }
                Protocol::Cand | Protocol::CandLog => {}
            },
            InterceptedEvent::Send => match self.protocol {
                Protocol::CommitAll => d.after = true,
                Protocol::Cpvs => d.before = CommitScope::Local,
                Protocol::Cbndvs | Protocol::CbndvsLog => {
                    if self.nd_since_commit {
                        d.before = CommitScope::Local;
                    }
                }
                // 2PC protocols do not commit before sends: a dependence on
                // an uncommitted nd event may flow to the receiver; the
                // coordinated commit at the next visible event covers it.
                Protocol::Cpv2pc | Protocol::Cbndv2pc => {}
                Protocol::Cand | Protocol::CandLog => {}
            },
            InterceptedEvent::Other => {
                if self.protocol == Protocol::CommitAll {
                    d.after = true;
                }
            }
        }
        d
    }

    /// Records that a commit executed (e.g. forced by a remote 2PC
    /// coordinator), clearing the dirty bit.
    pub fn note_committed(&mut self) {
        self.nd_since_commit = false;
    }

    /// Records that this process received a dependence on another process's
    /// uncommitted non-determinism (an unlogged receive already sets the
    /// dirty bit via [`CommitPlanner::decide`]; a *logged* receive of a
    /// tainted message must still dirty the receiver for
    /// [`Protocol::Cbndv2pc`] to include it in the coordinated round).
    pub fn note_tainted(&mut self) {
        self.nd_since_commit = true;
    }
}

/// A set of process ids as one sorted, duplicate-free `Vec<u32>`: the
/// dependency set a sender piggybacks on every message and a receiver
/// unions in. Flat because of how it is used: the empty set — all that a
/// commit-before-send protocol ever sends — owns no heap block, so
/// snapshotting, storing and delivering it costs nothing; a non-empty
/// snapshot is one block and one copy; and [`DepSet::clear`] keeps the
/// capacity, so a tracker refilled after every commit stops allocating.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DepSet(Vec<u32>);

impl DepSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `pid`; true if it was not yet a member.
    pub fn insert(&mut self, pid: u32) -> bool {
        match self.0.binary_search(&pid) {
            Ok(_) => false,
            Err(i) => {
                self.0.insert(i, pid);
                true
            }
        }
    }

    /// Adds every member of `other`.
    pub fn union_with(&mut self, other: &DepSet) {
        if self.0.is_empty() {
            self.0.extend_from_slice(&other.0);
        } else {
            for &pid in &other.0 {
                self.insert(pid);
            }
        }
    }

    /// Empties the set, keeping its allocation.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

/// Reads as its ascending member slice.
impl std::ops::Deref for DepSet {
    type Target = [u32];
    fn deref(&self) -> &[u32] {
        &self.0
    }
}

impl From<std::collections::BTreeSet<u32>> for DepSet {
    fn from(set: std::collections::BTreeSet<u32>) -> Self {
        DepSet(set.into_iter().collect())
    }
}

/// Tracks which processes' *uncommitted non-determinism* this process
/// causally depends on, for coordinated-commit participant selection
/// (§2.4: "involving in the coordinated commit only those processes with
/// relevant non-deterministic events").
///
/// Senders piggyback their dependency snapshot on every application
/// message; receivers union it in. Whether the receive itself is logged is
/// irrelevant — logging renders the *receive* deterministic but the message
/// content still depends on the sender's non-determinism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepTracker {
    self_pid: u32,
    deps: DepSet,
}

impl DepTracker {
    /// Creates a tracker for process `self_pid`, initially clean.
    pub fn new(self_pid: u32) -> Self {
        Self {
            self_pid,
            deps: DepSet::new(),
        }
    }

    /// Records a local unlogged non-deterministic event.
    pub fn on_nd(&mut self) {
        self.deps.insert(self.self_pid);
    }

    /// Records the receipt of a message carrying the sender's dependency
    /// snapshot.
    pub fn on_recv(&mut self, sender_deps: &DepSet, recv_logged: bool) {
        self.deps.union_with(sender_deps);
        if !recv_logged {
            // The receive itself is non-deterministic.
            self.deps.insert(self.self_pid);
        }
    }

    /// The snapshot to piggyback on outgoing messages.
    pub fn snapshot(&self) -> DepSet {
        self.deps.clone()
    }

    /// The processes this process currently depends on (possibly including
    /// itself).
    pub fn deps(&self) -> &DepSet {
        &self.deps
    }

    /// Clears the tracker after this process's dependencies were committed
    /// (the set keeps its allocation for the next interval).
    pub fn clear(&mut self) {
        self.deps.clear();
    }
}

/// Computes the participant set of a coordinated commit round among `n`
/// processes: every process under [`Protocol::Cpv2pc`]; otherwise the
/// transitive closure of `coordinator`'s dependencies (a participant's own
/// commit is a Save-work target, so every process *it* depends on must
/// commit atomically too), always including the coordinator itself.
/// `deps_of(p)` is process `p`'s current dependency set; the result is
/// ascending and duplicate-free.
pub fn coordinated_participants<'a>(
    protocol: Protocol,
    n: usize,
    deps_of: impl Fn(u32) -> &'a DepSet,
    coordinator: u32,
) -> Vec<ProcessId> {
    if protocol == Protocol::Cpv2pc {
        return (0..n).map(ProcessId::from_index).collect();
    }
    let mut set = DepSet::new();
    set.insert(coordinator);
    let mut frontier = vec![coordinator];
    while let Some(p) = frontier.pop() {
        for &d in deps_of(p).iter() {
            if set.insert(d) {
                frontier.push(d);
            }
        }
    }
    set.0.into_iter().map(ProcessId).collect()
}

/// One application step of a computation [`drive`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A non-deterministic event from a source.
    Nd(ProcessId, NdSource),
    /// A send from the first process to the second.
    Send(ProcessId, ProcessId),
    /// The receive of the process's oldest pending message.
    Recv(ProcessId),
    /// A visible event.
    Visible(ProcessId),
    /// A deterministic internal event.
    Internal(ProcessId),
}

impl Step {
    /// The process that executes the step.
    fn pid(self) -> ProcessId {
        match self {
            Step::Nd(p, _) | Step::Send(p, _) | Step::Recv(p) | Step::Visible(p) => p,
            Step::Internal(p) => p,
        }
    }

    /// The step as the planner sees it: a receive is non-deterministic.
    pub fn event(self) -> InterceptedEvent {
        match self {
            Step::Nd(_, source) => InterceptedEvent::Nd { source },
            Step::Recv(_) => InterceptedEvent::Nd {
                source: NdSource::MessageRecv,
            },
            Step::Send(..) => InterceptedEvent::Send,
            Step::Visible(_) => InterceptedEvent::Visible,
            Step::Internal(_) => InterceptedEvent::Other,
        }
    }
}

/// Drives `steps` over `n` processes through `protocol` exactly as the
/// checkpointing runtime does, and returns the trace: each process's
/// [`CommitPlanner`] decides, its [`DepTracker`] follows its dependencies
/// (a logged receive of a message that carried any taints the receiver,
/// as the runtime's tainted flag does), and a coordinated round records
/// prepare and ack control edges around the participants' commits.
/// Control messages order events but carry no application state, so they
/// generate no Save-work obligations. A receive with nothing pending is
/// skipped. With `mask`, the protocol only chooses what to log, and each
/// process commits right after exactly those of its steps whose bit (by
/// index into `steps`, so at most 64 of them) is set.
pub fn drive(protocol: Protocol, n: usize, steps: &[Step], mask: Option<u64>) -> Trace {
    let mut b = TraceBuilder::new(n);
    let mut planners = vec![CommitPlanner::new(protocol); n];
    let mut trackers: Vec<DepTracker> = (0..n)
        .map(|q| DepTracker::new(ProcessId::from_index(q).0))
        .collect();
    let mut pending: Vec<VecDeque<(ProcessId, MsgId, DepSet)>> = vec![VecDeque::new(); n];
    for (i, &step) in steps.iter().enumerate() {
        let p = step.pid();
        if step == Step::Recv(p) && pending[p.index()].is_empty() {
            continue;
        }
        let mut d = planners[p.index()].decide(step.event());
        if let Some(mask) = mask {
            (d.before, d.after) = (CommitScope::None, mask >> i & 1 == 1);
        }
        let committed = match d.before {
            CommitScope::None => Vec::new(),
            CommitScope::Local => {
                b.commit(p);
                vec![p]
            }
            CommitScope::Coordinated => {
                let parts =
                    coordinated_participants(protocol, n, |q| trackers[q as usize].deps(), p.0);
                let control = |b: &mut TraceBuilder, from, to| {
                    let (_, m) = b.send_control(from, to);
                    b.recv_control(to, from, m);
                };
                let remotes = || parts.iter().copied().filter(|&q| q != p);
                remotes().for_each(|q| control(&mut b, p, q));
                b.coordinated_commit(&parts);
                remotes().for_each(|q| control(&mut b, q, p));
                parts
            }
        };
        for q in committed.into_iter().map(ProcessId::index) {
            planners[q].note_committed();
            trackers[q].clear();
        }
        let (planner, tracker) = (&mut planners[p.index()], &mut trackers[p.index()]);
        match step {
            Step::Nd(_, source) => {
                b.nd_with(p, source, source.default_class(), d.log);
                if !d.log {
                    tracker.on_nd();
                }
            }
            Step::Send(_, to) => {
                let (_, m) = b.send(p, to);
                pending[to.index()].push_back((p, m, tracker.snapshot()));
            }
            Step::Recv(_) => {
                let (from, m, carried) = pending[p.index()].pop_front().expect("checked above");
                if d.log {
                    b.recv_logged(p, from, m);
                    if !carried.is_empty() {
                        planner.note_tainted();
                    }
                } else {
                    b.recv(p, from, m);
                }
                tracker.on_recv(&carried, d.log);
            }
            Step::Visible(_) => _ = b.visible(p, i as u64),
            Step::Internal(_) => _ = b.internal(p),
        }
        if d.after {
            b.commit(p);
            planner.note_committed();
            tracker.clear();
        }
    }
    b.finish()
}

/// The steps that may follow `seq` over `n` processes, process by process:
/// an nd from user input, an nd from the time of day, a visible, a send to
/// each peer, and a receive if a message to the process is pending.
pub fn next_steps(n: usize, seq: &[Step]) -> Vec<Step> {
    let mut steps = Vec::new();
    for p in (0..n).map(ProcessId::from_index) {
        let (nd, visible) = (|s| Step::Nd(p, s), Step::Visible(p));
        steps.extend([nd(NdSource::UserInput), nd(NdSource::TimeOfDay), visible]);
        let peers = (0..n).map(ProcessId::from_index).filter(|&q| q != p);
        steps.extend(peers.map(|q| Step::Send(p, q)));
        let sent = seq
            .iter()
            .filter(|s| matches!(s, Step::Send(_, to) if *to == p));
        if sent.count() > seq.iter().filter(|&&s| s == Step::Recv(p)).count() {
            steps.push(Step::Recv(p));
        }
    }
    steps
}

/// Calls `visit` on `seq` (unless it is empty) and on every extension of
/// it by [`next_steps`] up to `max_len` steps, depth first.
pub fn enumerate(n: usize, max_len: usize, seq: &mut Vec<Step>, visit: &mut impl FnMut(&[Step])) {
    if !seq.is_empty() {
        visit(seq);
    }
    if seq.len() < max_len {
        for step in next_steps(n, seq) {
            seq.push(step);
            enumerate(n, max_len, seq, visit);
            seq.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nd(source: NdSource) -> InterceptedEvent {
        InterceptedEvent::Nd { source }
    }

    #[test]
    fn dep_tracker_unions_and_clears() {
        let mut a = DepTracker::new(0);
        let mut b = DepTracker::new(1);
        b.on_nd();
        a.on_recv(&b.snapshot(), true);
        assert!(a.deps().contains(&1));
        assert!(!a.deps().contains(&0)); // Logged recv: a itself stays clean.
        a.on_recv(&DepSet::new(), false);
        assert!(a.deps().contains(&0));
        a.clear();
        assert!(a.deps().is_empty());
    }

    #[test]
    fn dep_set_stays_sorted_and_deduplicated() {
        let mut s = DepSet::new();
        assert!(s.insert(7));
        assert!(s.insert(2));
        assert!(!s.insert(7));
        let mut t = DepSet::from(std::collections::BTreeSet::from([9, 2, 4]));
        assert_eq!(*t, [2, 4, 9]);
        t.union_with(&s);
        assert_eq!(*t, [2, 4, 7, 9]);
        let mut empty = DepSet::new();
        empty.union_with(&t);
        assert_eq!(empty, t);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn participants_take_transitive_closure() {
        // P0 depends on P1; P1 depends on P2.
        let mut t0 = DepTracker::new(0);
        let mut t1 = DepTracker::new(1);
        let mut t2 = DepTracker::new(2);
        t2.on_nd();
        t1.on_recv(&t2.snapshot(), false);
        t0.on_recv(&t1.snapshot(), true);
        // NOTE: t0 received t1's snapshot which already includes 2 and 1,
        // but closure also chases what t1/t2 currently hold.
        let trackers = [t0, t1, t2];
        let parts =
            coordinated_participants(Protocol::Cbndv2pc, 3, |p| trackers[p as usize].deps(), 0);
        assert_eq!(parts, [0, 1, 2].map(ProcessId));
    }

    #[test]
    fn participants_of_clean_coordinator_is_just_itself() {
        let trackers = [DepTracker::new(0), DepTracker::new(1)];
        let deps = |p: u32| trackers[p as usize].deps();
        assert_eq!(
            coordinated_participants(Protocol::Cbndv2pc, 2, deps, 1),
            [ProcessId(1)]
        );
    }

    #[test]
    fn cpv2pc_participants_are_everyone() {
        let trackers = [DepTracker::new(0), DepTracker::new(1), DepTracker::new(2)];
        assert_eq!(
            coordinated_participants(Protocol::Cpv2pc, 3, |p| trackers[p as usize].deps(), 1),
            [0, 1, 2].map(ProcessId)
        );
    }

    #[test]
    fn cand_commits_after_every_nd() {
        let mut p = CommitPlanner::new(Protocol::Cand);
        let d = p.decide(nd(NdSource::TimeOfDay));
        assert!(d.after);
        assert!(!d.log);
        let d = p.decide(nd(NdSource::UserInput));
        assert!(d.after);
        // But not after deterministic events or visibles.
        assert_eq!(p.decide(InterceptedEvent::Other), Decision::NONE);
        assert_eq!(p.decide(InterceptedEvent::Visible), Decision::NONE);
    }

    #[test]
    fn cand_log_logs_input_and_recv_but_commits_on_signals() {
        let mut p = CommitPlanner::new(Protocol::CandLog);
        let d = p.decide(nd(NdSource::UserInput));
        assert!(d.log);
        assert!(!d.after);
        let d = p.decide(nd(NdSource::MessageRecv));
        assert!(d.log);
        assert!(!d.after);
        let d = p.decide(nd(NdSource::Signal));
        assert!(!d.log);
        assert!(d.after);
    }

    #[test]
    fn cpvs_commits_before_visible_and_send() {
        let mut p = CommitPlanner::new(Protocol::Cpvs);
        assert_eq!(
            p.decide(InterceptedEvent::Visible).before,
            CommitScope::Local
        );
        assert_eq!(p.decide(InterceptedEvent::Send).before, CommitScope::Local);
        assert_eq!(p.decide(nd(NdSource::TimeOfDay)), Decision::NONE);
    }

    #[test]
    fn cbndvs_commits_only_when_dirty() {
        let mut p = CommitPlanner::new(Protocol::Cbndvs);
        assert_eq!(
            p.decide(InterceptedEvent::Visible).before,
            CommitScope::None
        );
        p.decide(nd(NdSource::Random));
        assert!(p.is_dirty());
        assert_eq!(p.decide(InterceptedEvent::Send).before, CommitScope::Local);
        p.note_committed();
        assert!(!p.is_dirty());
        // Clean again: next visible needs nothing.
        assert_eq!(
            p.decide(InterceptedEvent::Visible).before,
            CommitScope::None
        );
    }

    #[test]
    fn cbndvs_log_stays_clean_on_logged_sources() {
        let mut p = CommitPlanner::new(Protocol::CbndvsLog);
        p.decide(nd(NdSource::UserInput)); // Logged.
        assert!(!p.is_dirty());
        assert_eq!(
            p.decide(InterceptedEvent::Visible).before,
            CommitScope::None
        );
        p.decide(nd(NdSource::TimeOfDay)); // Unlogged.
        assert!(p.is_dirty());
        assert_eq!(
            p.decide(InterceptedEvent::Visible).before,
            CommitScope::Local
        );
    }

    #[test]
    fn two_phase_protocols_skip_send_commits() {
        for proto in [Protocol::Cpv2pc, Protocol::Cbndv2pc] {
            let mut p = CommitPlanner::new(proto);
            p.decide(nd(NdSource::MessageRecv));
            assert_eq!(p.decide(InterceptedEvent::Send).before, CommitScope::None);
            assert_eq!(
                p.decide(InterceptedEvent::Visible).before,
                CommitScope::Coordinated
            );
        }
    }

    #[test]
    fn note_committed_clears_dirty() {
        let mut p = CommitPlanner::new(Protocol::Cbndv2pc);
        p.decide(nd(NdSource::Signal));
        assert!(p.is_dirty());
        p.note_committed();
        assert!(!p.is_dirty());
        p.note_tainted();
        assert!(p.is_dirty());
    }

    #[test]
    fn commit_all_commits_everything() {
        let mut p = CommitPlanner::new(Protocol::CommitAll);
        assert!(p.decide(InterceptedEvent::Other).after);
        assert!(p.decide(nd(NdSource::Random)).after);
        assert!(p.decide(InterceptedEvent::Visible).after);
        assert!(p.decide(InterceptedEvent::Send).after);
    }

    #[test]
    fn names_match_the_paper() {
        assert_eq!(Protocol::Cand.name(), "CAND");
        assert_eq!(Protocol::CandLog.name(), "CAND-LOG");
        assert_eq!(Protocol::Cpvs.name(), "CPVS");
        assert_eq!(Protocol::Cbndvs.name(), "CBNDVS");
        assert_eq!(Protocol::CbndvsLog.name(), "CBNDVS-LOG");
        assert_eq!(Protocol::Cpv2pc.name(), "CPV-2PC");
        assert_eq!(Protocol::Cbndv2pc.name(), "CBNDV-2PC");
        assert_eq!(Protocol::FIGURE8.len(), 7);
    }

    #[test]
    fn dirty_until_runtime_confirms_the_commit() {
        // CAND's decision is commit-after; the planner stays dirty until the
        // runtime confirms the commit executed.
        let mut p = CommitPlanner::new(Protocol::Cand);
        let d = p.decide(nd(NdSource::TimeOfDay));
        assert!(d.after);
        assert!(p.is_dirty());
        p.note_committed();
        assert!(!p.is_dirty());
    }
}
