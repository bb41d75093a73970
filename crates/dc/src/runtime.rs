//! The recovery runtime core: commits, snapshots, rollback, and cascades.

use ft_core::event::{EventId, ProcessId};
use ft_core::fault::{CommitCrashPoint, CrashPoint, Fault};
use ft_core::protocol::{coordinated_participants, CommitPlanner, Protocol};
use ft_sim::cost::SimTime;
use ft_sim::net::Network;
use ft_sim::sim::{Simulator, SysCtx};
use ft_sim::syscalls::Syscalls;

use crate::state::{
    bump_count, count_of, decode_alloc, encode_alloc_into, DcConfig, DcStats, Mutation, PendingNd,
    ProcState,
};

/// The Discount Checking runtime for one computation: per-process state
/// plus the configured protocol and medium.
#[derive(Debug)]
pub struct DcRuntime {
    cfg: DcConfig,
    states: Vec<ProcState>,
    /// Commit points each process has reached as the committing (or
    /// coordinating) process, across the whole run including
    /// re-execution. Monotonic — never rolled back — so an `InCommit` entry
    /// of the fault schedule fires at most once, and the model
    /// checker can enumerate a canonical run's kill points from the final
    /// counts.
    commit_points: Vec<u64>,
    /// A coordinated round's participants, their commit costs and their
    /// commit events: lists kept with their capacity between rounds, so a
    /// round past warm-up allocates none.
    round: (Vec<ProcessId>, Vec<SimTime>, Vec<EventId>),
}

impl DcRuntime {
    /// Builds the runtime, taking each process's initial snapshot.
    pub fn new(cfg: DcConfig, sim: &Simulator, mems: Vec<ft_mem::mem::Mem>) -> Self {
        let states: Vec<ProcState> = mems
            .into_iter()
            .enumerate()
            .map(|(p, mem)| {
                let kernel = sim.kernel_of(ProcessId::from_index(p)).snapshot();
                ProcState::new(ProcessId::from_index(p).0, cfg.protocol, mem, kernel)
            })
            .collect();
        let commit_points = vec![0; states.len()];
        DcRuntime {
            cfg,
            states,
            commit_points,
            round: Default::default(),
        }
    }

    /// Commit points `pid` has reached so far as the committing process
    /// (the enumeration domain for mid-commit kills).
    pub fn commit_points(&self, pid: ProcessId) -> u64 {
        self.commit_points[pid.index()]
    }

    /// Counts a commit point for `pid` and reports where the kill
    /// schedule's first `InCommit` kill naming it tears it, if any.
    fn check_commit_kill(&mut self, pid: ProcessId) -> Option<CommitCrashPoint> {
        let n = self.commit_points[pid.index()];
        self.commit_points[pid.index()] += 1;
        self.cfg.faults.iter().find_map(|fault| match *fault {
            Fault::Kill(CrashPoint::InCommit { pid: p, nth, point }) if p == pid.0 && nth == n => {
                Some(point)
            }
            _ => None,
        })
    }

    /// The configuration.
    pub fn cfg(&self) -> &DcConfig {
        &self.cfg
    }

    /// The configured protocol.
    pub fn protocol(&self) -> Protocol {
        self.cfg.protocol
    }

    /// A process's state.
    pub fn state(&self, pid: ProcessId) -> &ProcState {
        &self.states[pid.index()]
    }

    /// Mutable access to a process's state.
    pub fn state_mut(&mut self, pid: ProcessId) -> &mut ProcState {
        &mut self.states[pid.index()]
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True if the runtime covers no processes.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Aggregate statistics.
    pub(crate) fn total_stats(&self) -> DcStats {
        let mut t = DcStats::default();
        for s in &self.states {
            // Exhaustive: a new counter must be summed here to compile.
            let DcStats {
                commits,
                logged_events,
                recoveries,
                cascade_rollbacks,
                commit_time_ns,
                twopc_timeouts,
                twopc_aborts,
                microreboots,
                escalations,
            } = s.stats;
            t.commits += commits;
            t.logged_events += logged_events;
            t.recoveries += recoveries;
            t.cascade_rollbacks += cascade_rollbacks;
            t.commit_time_ns += commit_time_ns;
            t.twopc_timeouts += twopc_timeouts;
            t.twopc_aborts += twopc_aborts;
            t.microreboots += microreboots;
            t.escalations += escalations;
        }
        t
    }

    /// Commits `pid`'s arena and snapshots its recoverable context, without
    /// recording the trace event: the caller does, right after, and stores
    /// the position the recorder returns as the snapshot's `trace_pos`.
    /// Returns the commit's time cost. The arena commit is torn at `crash`
    /// when given; callers pass only the crash points at which the commit
    /// still completes ([`CommitCrashPoint::MidUndoWalk`] / [`CommitCrashPoint::PostBump`]
    /// — a pre-log crash means no commit happens at all, so this function
    /// is never reached). Once the snapshot is taken the fabric releases
    /// what the commit put behind both ends of a channel
    /// ([`DcRuntime::release_moved`]).
    fn commit_arena(
        &mut self,
        pid: ProcessId,
        sim: &mut Simulator,
        pending: Option<PendingNd>,
        crash: Option<CommitCrashPoint>,
    ) -> SimTime {
        let st = &mut self.states[pid.index()];
        // The outgoing snapshot is updated in place, so its buffers are
        // reused: commits happen once per interposition point under the
        // chatty protocols, and this keeps the checkpoint path
        // allocation-free after warm-up.
        let committed = &mut st.committed;
        encode_alloc_into(&st.mem.alloc, &mut committed.alloc_blob);
        let mut rec = match crash {
            None => st.mem.arena.commit(),
            Some(point) => st
                .mem
                .arena
                .commit_crashed(point)
                .expect("a committing crash point completes the commit"),
        };
        // Register file + runtime control block alongside the pages.
        rec.register_bytes = committed.alloc_blob.len() + 128;
        let cost = self.cfg.medium.commit_cost(&rec);
        // The channel tables move by what was sent and received since the
        // last snapshot — not re-read from the simulator, which would walk
        // every channel the process has.
        for &dest in &st.sent_to {
            bump_count(&mut committed.send_seqs, dest);
        }
        if std::mem::take(&mut st.consumed_stale) {
            committed.consumed.clear();
            committed
                .consumed
                .extend(sim.network().consumed_counts(pid));
        } else {
            for &from in &st.recv_from {
                bump_count(&mut committed.consumed, from);
            }
        }
        debug_assert_eq!(committed.send_seqs, sim.send_seqs(pid));
        debug_assert!(sim
            .network()
            .consumed_counts(pid)
            .eq(committed.consumed.iter().copied()));
        committed.input_cursor = sim.input_cursor(pid);
        committed.signal_cursor = sim.signal_cursor(pid);
        sim.kernel_of(pid).snapshot_into(&mut committed.kernel);
        committed.pending_nd = pending;
        st.replay = None;
        st.planner.note_committed();
        st.tracker.clear();
        st.stats.commits += 1;
        st.stats.commit_time_ns += cost;
        self.release_moved(pid, sim.network_mut());
        cost
    }

    /// Releases on every channel `pid`'s commit just moved — the ones in
    /// its `sent_to` and `recv_from` lists, which it then empties — the
    /// messages both ends have now committed past ([`Network::release`]),
    /// reading the other end's count from its snapshot. A message becomes
    /// releasable at the later of the two commits covering it, and that
    /// commit moved its channel, so nothing is missed without walking every
    /// peer.
    fn release_moved(&mut self, pid: ProcessId, net: &mut Network) {
        let st = &self.states[pid.index()];
        let mut last = None;
        for &dest in &st.sent_to {
            if last.replace(dest) == Some(dest) {
                continue;
            }
            let upto = count_of(&self.states[dest as usize].committed.consumed, pid.0);
            let below_seq = count_of(&st.committed.send_seqs, dest);
            net.release(pid, ProcessId(dest), upto, below_seq);
        }
        let mut last = None;
        for &from in &st.recv_from {
            if last.replace(from) == Some(from) {
                continue;
            }
            let upto = count_of(&st.committed.consumed, from);
            let below_seq = count_of(&self.states[from as usize].committed.send_seqs, pid.0);
            net.release(ProcessId(from), pid, upto, below_seq);
        }
        let st = &mut self.states[pid.index()];
        st.sent_to.clear();
        st.recv_from.clear();
    }

    /// A local commit at an interposition point: commits the arena,
    /// records the commit event, and charges its cost to the running
    /// process.
    pub fn local_commit(&mut self, ctx: &mut SysCtx<'_>, pending: Option<PendingNd>) {
        let pid = ctx.pid();
        let kill = self.check_commit_kill(pid);
        if kill != Some(CommitCrashPoint::PreLog) {
            let cost = self.commit_arena(pid, ctx.sim_mut(), pending, kill);
            self.states[pid.index()].committed.trace_pos = ctx.record_commit(cost);
        }
        // A pre-log kill: the process dies before the commit record
        // reaches reliable memory, so the commit never happened — no
        // snapshot, no commit event. A later kill: the commit record was
        // durable first, so the commit fully happens (the torn undo-log
        // truncation completes idempotently during recovery), then the
        // process dies. Either way the rest of this step is suppressed
        // and the scheduler delivers the kill.
        if kill.is_some() {
            ctx.mark_killed();
        }
    }

    /// A coordinated (two-phase) commit round triggered by the running
    /// process: commits each of the protocol's
    /// [`coordinated_participants`] and records the round with its
    /// control edges and time costs.
    ///
    /// The prepare/ack control traffic rides the same fabric as data: with
    /// a network fault plan installed, a participant partitioned from the
    /// coordinator times out the round. The coordinator retries with the
    /// transport's backoff up to its retry cap, then aborts the round,
    /// waits out the partition, and re-runs it — a degraded round with
    /// bounded, counted retries, never a hang.
    pub fn coordinated_commit(&mut self, ctx: &mut SysCtx<'_>) {
        let me = ctx.pid();
        // A mid-commit kill targets the *coordinator's* commit point. A
        // pre-log crash lands before the round's prepares go out: nothing
        // is committed anywhere and no round is recorded. A mid/post crash
        // lands after the round's atomicity point: every participant's
        // commit (the coordinator's torn at the configured sub-step)
        // completes and the round is recorded; only then does the
        // coordinator die. Killing a *participant* mid-round is not a
        // modeled sub-step — the round is atomic by construction, so those
        // schedules are covered by the position-based kills on either side
        // of it.
        let kill = self.check_commit_kill(me);
        if kill == Some(CommitCrashPoint::PreLog) {
            ctx.mark_killed();
            return;
        }
        let (mut parts, mut costs, mut committed) = std::mem::take(&mut self.round);
        let deps = |q: u32| self.states[q as usize].tracker.deps();
        coordinated_participants(self.cfg.protocol, self.states.len(), deps, me.0, &mut parts);
        self.await_participants(ctx, me, &parts);
        costs.clear();
        costs.extend(parts.iter().map(|&q| {
            let crash = kill.filter(|_| q == me);
            self.commit_arena(q, ctx.sim_mut(), None, crash)
        }));
        // Only the recorder knows how many control edges it journals before
        // each commit event; a position that stopped short of them would
        // make a later rollback swallow the round's own commit.
        ctx.record_coordinated_commit(&parts, &costs, &mut committed);
        for (&q, id) in parts.iter().zip(&committed) {
            self.states[q.index()].committed.trace_pos = id.seq + 1;
        }
        self.round = (parts, costs, committed);
        if kill.is_some() {
            ctx.mark_killed();
        }
    }

    /// Charges the coordinator's prepare timeouts until every remote
    /// participant is reachable in both directions. The fault plan's
    /// partitions are finite intervals, so this always terminates: each
    /// backoff advances time, and each abort jumps past the healing of
    /// every partition blocking the round at that instant. The plan is
    /// read in place on each attempt, never copied.
    fn await_participants(
        &mut self,
        ctx: &mut SysCtx<'_>,
        me: ProcessId,
        participants: &[ProcessId],
    ) {
        let mut attempts: u32 = 0;
        while let Some(plan) = ctx.sim().network().fault_plan() {
            let now = ctx.now();
            let heal = participants
                .iter()
                .filter(|&&q| q != me)
                .filter_map(|&q| {
                    plan.partitioned_until(me, q, now)
                        .into_iter()
                        .chain(plan.partitioned_until(q, me, now))
                        .max()
                })
                .max();
            let Some(heal) = heal else { break };
            attempts += 1;
            let backoff = (attempts <= plan.max_retries).then(|| plan.backoff_ns(attempts));
            let st = &mut self.states[me.index()];
            st.stats.twopc_timeouts += 1;
            if let Some(backoff) = backoff {
                ctx.charge(backoff.max(1));
            } else {
                // Degraded round: abort, sleep until the blocking
                // partitions heal, then start a fresh round of retries.
                st.stats.twopc_aborts += 1;
                ctx.charge(heal.saturating_sub(now).max(1));
                attempts = 0;
            }
        }
    }

    /// Restores `q` to its last committed snapshot — the one restore
    /// sequence both recovery paths run, in this order: journal the
    /// rollback (events after the committed trace position are causally
    /// dead for everything that follows), reinstall the undo-logged pages
    /// (all but the first `skip_pages`), then the allocator, the input and
    /// signal cursors, the send counters, the kernel snapshot and the
    /// receive-side consumption pointers; finally a fresh planner and
    /// tracker, and the commit's pending nd result armed for constrained
    /// re-execution.
    fn restore(&mut self, q: ProcessId, sim: &mut Simulator, skip_pages: usize) {
        let protocol = self.cfg.protocol;
        let st = &mut self.states[q.index()];
        sim.tracer_mut().rollback(q, st.committed.trace_pos);
        st.mem.arena.rollback_skipping(skip_pages);
        st.mem.alloc = decode_alloc(&st.committed.alloc_blob);
        sim.set_input_cursor(q, st.committed.input_cursor);
        sim.set_signal_cursor(q, st.committed.signal_cursor);
        sim.set_send_seqs(q, &st.committed.send_seqs);
        sim.restore_kernel(q, &st.committed.kernel);
        sim.network_mut().rewind_receiver(q, &st.committed.consumed);
        st.sent_to.clear();
        st.recv_from.clear();
        st.consumed_stale = true;
        st.planner = CommitPlanner::new(protocol);
        st.tracker.clear();
        st.replay = st.committed.pending_nd.clone();
    }

    /// Recovers `pid` after a failure: restores it to its last commit
    /// (see `DcRuntime::restore`) and cascades rollback to any process
    /// that consumed a withdrawn tainted message. Returns the set of
    /// processes rolled back (always including `pid`).
    pub fn recover(&mut self, pid: ProcessId, sim: &mut Simulator) -> Vec<ProcessId> {
        let mut rolled = Vec::new();
        let mut work = vec![pid];
        while let Some(q) = work.pop() {
            if rolled.contains(&q) {
                continue;
            }
            rolled.push(q);
            self.restore(q, sim, 0);
            let st = &mut self.states[q.index()];
            // The failed process lost events after its last commit; any
            // tainted message it sent in that window is withdrawn, and
            // receivers that already consumed one must roll back too.
            work.extend(
                sim.network_mut()
                    .withdraw_tainted(q, &st.committed.send_seqs),
            );
            if q == pid {
                st.stats.recoveries += 1;
            } else {
                st.stats.cascade_rollbacks += 1;
            }
        }
        rolled
    }

    /// Partially recovers `pid` in place — the microreboot path.
    ///
    /// The `pid` leg of [`DcRuntime::recover`], except that the failure is
    /// treated as confined to the restarted component: its uncommitted
    /// sends are *not* withdrawn and no peer is cascaded. Sound exactly
    /// when every event the component lost is deterministically
    /// regenerable from its last commit (which the Save-work protocols
    /// arrange for the events peers could have seen); the campaign's
    /// oracle adjudicates every incident either way. The
    /// [`Mutation::SkipPageReinstall`] switch makes the
    /// restore itself unsound by leaving every page at its crashed
    /// contents while the cursors rewind.
    pub(crate) fn microreboot(&mut self, pid: ProcessId, sim: &mut Simulator) {
        let skip_pages = match self.cfg.mutation {
            Mutation::SkipPageReinstall => usize::MAX,
            _ => 0,
        };
        self.restore(pid, sim, skip_pages);
        let stats = &mut self.states[pid.index()].stats;
        stats.recoveries += 1;
        stats.microreboots += 1;
    }

    /// Takes the armed replay value for `pid` if `unwrap` accepts it (any
    /// other pending result stays armed).
    pub(crate) fn take_replay<T>(
        &mut self,
        pid: ProcessId,
        unwrap: impl FnOnce(PendingNd) -> Result<T, PendingNd>,
    ) -> Option<T> {
        let st = &mut self.states[pid.index()];
        match unwrap(st.replay.take()?) {
            Ok(v) => Some(v),
            Err(other) => {
                st.replay = Some(other);
                None
            }
        }
    }
}
