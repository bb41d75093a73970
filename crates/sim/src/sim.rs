//! The discrete-event simulator: scheduler, syscall context, failures.
//!
//! A [`Simulator`] owns the substrate — simulated clock, per-node kernels,
//! network, input scripts, signal schedules, and the trace recorder — while
//! the *harness* (plain in tests, or `ft-dc`'s checkpointing runtime) owns
//! the application objects and their arenas. The run loop is external:
//!
//! ```text
//! while let Some(wake) = sim.next_wake() {
//!     match wake {
//!         Wake::Step(pid)   => { let mut ctx = sim.ctx(pid);
//!                                let st = app.step(&mut arena, &mut ctx);
//!                                let el = ctx.elapsed();
//!                                sim.finish_step(pid, st, el); }
//!         Wake::Killed(pid) => { /* stop failure: run recovery */ }
//!     }
//! }
//! ```

use crate::cost::{CostModel, SimTime};
use crate::kernel::{Kernel, KernelSnapshot};
use crate::net::{NetFaultPlan, NetStats, Network, SendOutcome, UNDELIVERED};
use crate::rng::SplitMix64;
use crate::script::{InputScript, SignalSchedule};
use crate::syscalls::{AppStatus, Message, Payload, SysError, SysResult, Syscalls, WaitCond};
use crate::wheel::TimerWheel;
use ft_core::access::{ShmLog, ShmOp, ShmRecord};
use ft_core::event::{EventId, MsgId, NdSource, ProcessId};
use ft_core::protocol::DepSet;
use ft_core::trace::{Trace, TraceBuilder};
use ft_mem::error::MemResult;

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of processes.
    pub n_procs: usize,
    /// RNG seed (full determinism given the seed).
    pub seed: u64,
    /// Cost constants.
    pub cost: CostModel,
    /// Node hosting each process.
    pub node_of: Vec<usize>,
}

/// Open-file-table slots per node.
const FILE_TABLE_SIZE: usize = 64;
/// Free disk bytes per node.
const DISK_FREE: u64 = 1 << 30;

impl SimConfig {
    /// All processes on a single node.
    pub fn single_node(n_procs: usize, seed: u64) -> Self {
        SimConfig {
            n_procs,
            seed,
            cost: CostModel::default(),
            node_of: vec![0; n_procs],
        }
    }

    /// One node per process (the distributed workloads).
    pub fn one_node_each(n_procs: usize, seed: u64) -> Self {
        SimConfig {
            n_procs,
            seed,
            cost: CostModel::default(),
            node_of: (0..n_procs).collect(),
        }
    }

    fn n_nodes(&self) -> usize {
        self.node_of.iter().copied().max().unwrap_or(0) + 1
    }
}

/// Why the scheduler woke the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// Run one step of this process (then call
    /// [`Simulator::finish_step`]).
    Step(ProcessId),
    /// The process was hit by a stop failure (killed, or its node's kernel
    /// panicked). The harness may run recovery and
    /// [`Simulator::respawn`].
    Killed(ProcessId),
}

/// Outcome reported by [`Simulator::finish_step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The process was rescheduled (running or blocked).
    Scheduled,
    /// The process completed.
    Done,
    /// The process crashed (a crash event was recorded); the harness may
    /// run recovery and [`Simulator::respawn`].
    Crashed(ft_mem::error::MemFault),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    Blocked(WaitCond),
    Done,
    Crashed,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QEv {
    Ready {
        pid: u32,
        gen: u64,
    },
    Deliver {
        pid: u32,
    },
    Signal {
        pid: u32,
    },
    Kill {
        pid: u32,
    },
    /// A transport retransmission timer for `(from, to, seq)`. Internal
    /// to the fabric: handled in the pop loop without waking any process.
    Retransmit {
        from: u32,
        to: u32,
        seq: u64,
    },
}

/// The discrete-event simulator.
pub struct Simulator {
    cfg: SimConfig,
    now: SimTime,
    queue: TimerWheel<QEv>,
    qseq: u64,
    status: Vec<Status>,
    gen: Vec<u64>,
    pending_delay: Vec<SimTime>,
    kernels: Vec<Kernel>,
    net: Network,
    scripts: Vec<InputScript>,
    signals: Vec<SignalSchedule>,
    tracer: TraceBuilder,
    visible_log: Vec<(SimTime, ProcessId, u64)>,
    shm_log: ShmLog,
    /// Per-process per-destination send counters, dense rows indexed by
    /// `ProcessId::index()`, each row a sparse `(dest, count)` list sorted
    /// by destination. Dense `n × n` rows cost O(n²) memory (≈800 MB of
    /// counters alone at 10⁴ processes); real topologies are sparse — a
    /// kvstore gateway talks to S primaries, a primary to R−1 replicas —
    /// so memory is O(communication edges) instead.
    send_seqs: Vec<Vec<(u32, u64)>>,
    rng: SplitMix64,
    nodes_killed: Vec<bool>,
    /// Nodes whose kernel was handed out mutably since `finish_step` last
    /// polled for panics. A kernel halts only through `&mut self`, and
    /// [`Simulator::kernel_of_mut`] is the only door to one, so these are
    /// the only nodes that can have newly panicked.
    touched_nodes: Vec<usize>,
    kernel_polls: u64,
    /// What [`Syscalls::scratch`] lends every step.
    scratch: Vec<u8>,
}

impl Simulator {
    /// Creates a simulator; all processes start runnable at time 0.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.node_of` does not cover every process.
    pub fn new(cfg: SimConfig) -> Self {
        assert_eq!(
            cfg.node_of.len(),
            cfg.n_procs,
            "node_of must cover all processes"
        );
        let n = cfg.n_procs;
        let n_nodes = cfg.n_nodes();
        let mut sim = Simulator {
            now: 0,
            queue: TimerWheel::new(),
            qseq: 0,
            status: vec![Status::Runnable; n],
            gen: vec![0; n],
            pending_delay: vec![0; n],
            kernels: (0..n_nodes)
                .map(|i| Kernel::new(FILE_TABLE_SIZE, DISK_FREE, cfg.seed ^ (i as u64) << 32))
                .collect(),
            net: Network::new(),
            scripts: vec![InputScript::default(); n],
            signals: vec![SignalSchedule::default(); n],
            tracer: TraceBuilder::new(n),
            visible_log: Vec::new(),
            shm_log: ShmLog::default(),
            send_seqs: vec![Vec::new(); n],
            rng: SplitMix64::new(cfg.seed),
            nodes_killed: vec![false; n_nodes],
            touched_nodes: Vec::new(),
            kernel_polls: 0,
            scratch: Vec::new(),
            cfg,
        };
        for p in 0..n {
            let gen = sim.gen[p];
            sim.push(
                0,
                QEv::Ready {
                    pid: ProcessId::from_index(p).0,
                    gen,
                },
            );
        }
        sim
    }

    fn push(&mut self, t: SimTime, ev: QEv) {
        self.qseq += 1;
        self.queue.push(t, self.qseq, ev);
    }

    /// The seed the simulator was configured with: the scenario seed that
    /// every scripted input and armed fault of a run derives from.
    pub fn seed(&self) -> u64 {
        self.cfg.seed
    }

    /// Queue operations performed by the event queue so far (see
    /// [`TimerWheel::ops`]; drives the O(1)-idle-span test).
    pub fn queue_ops(&self) -> u64 {
        self.queue.ops()
    }

    /// Kernels polled for a panic by [`Simulator::finish_step`] so far: at
    /// most one per step plus one per outside call of
    /// [`Simulator::kernel_of_mut`], whatever the cluster's width.
    pub fn kernel_polls(&self) -> u64 {
        self.kernel_polls
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Installs a process's input script.
    pub fn set_input_script(&mut self, pid: ProcessId, script: InputScript) {
        self.scripts[pid.index()] = script;
    }

    /// Installs a process's signal schedule (also schedules wakeups so
    /// blocked processes see their signals).
    pub fn set_signal_schedule(&mut self, pid: ProcessId, sched: SignalSchedule) {
        // Schedule straight off the incoming value — `sched` is owned by
        // this call, so no temporary time buffer is needed.
        for t in sched.pending_times() {
            self.push(t, QEv::Signal { pid: pid.0 });
        }
        self.signals[pid.index()] = sched;
    }

    /// Schedules a stop failure: the process is killed at `t`.
    pub fn kill_at(&mut self, pid: ProcessId, t: SimTime) {
        self.push(t, QEv::Kill { pid: pid.0 });
    }

    /// Pops the next wake event, advancing simulated time.
    pub fn next_wake(&mut self) -> Option<Wake> {
        while let Some((t, _, ev)) = self.queue.pop() {
            self.now = self.now.max(t);
            match ev {
                QEv::Ready { pid, gen } => {
                    let p = pid as usize;
                    if self.gen[p] == gen
                        && matches!(self.status[p], Status::Runnable | Status::Blocked(_))
                    {
                        // A Ready event wakes both runnable processes and
                        // blocked processes whose definite wake (input due,
                        // timeout) has arrived.
                        self.status[p] = Status::Runnable;
                        return Some(Wake::Step(ProcessId(pid)));
                    }
                }
                QEv::Deliver { pid } => {
                    let p = pid as usize;
                    if let Status::Blocked(cond) = self.status[p] {
                        if cond.message
                            && self
                                .net
                                .earliest_pending(ProcessId(pid))
                                .is_some_and(|d| d <= self.now)
                        {
                            self.status[p] = Status::Runnable;
                            self.gen[p] += 1;
                            return Some(Wake::Step(ProcessId(pid)));
                        }
                    }
                }
                QEv::Signal { pid } => {
                    let p = pid as usize;
                    if matches!(self.status[p], Status::Blocked(_)) {
                        // Signals interrupt blocking syscalls.
                        self.status[p] = Status::Runnable;
                        self.gen[p] += 1;
                        return Some(Wake::Step(ProcessId(pid)));
                    }
                }
                QEv::Kill { pid } => {
                    let p = pid as usize;
                    if !matches!(self.status[p], Status::Done | Status::Crashed) {
                        self.status[p] = Status::Crashed;
                        self.gen[p] += 1;
                        // A stop failure is a crash event in the §2.2 model.
                        self.tracer.crash(ProcessId(pid));
                        return Some(Wake::Killed(ProcessId(pid)));
                    }
                }
                QEv::Retransmit { from, to, seq } => {
                    // Fabric-internal: run the transport attempt and keep
                    // popping. (The queue is time-ordered, so `t` is this
                    // attempt's instant.)
                    let (arrival, retry) =
                        self.net
                            .handle_retransmit(ProcessId(from), ProcessId(to), seq, t);
                    if let Some(at) = arrival {
                        self.push(at, QEv::Deliver { pid: to });
                    }
                    if let Some(rt) = retry {
                        self.push(rt, QEv::Retransmit { from, to, seq });
                    }
                }
            }
        }
        None
    }

    /// Begins a step for `pid`, returning the syscall context the
    /// application runs against.
    pub fn ctx(&mut self, pid: ProcessId) -> SysCtx<'_> {
        SysCtx {
            sim: self,
            pid,
            elapsed: 0,
            log_next: false,
            send_meta: None,
            killed: false,
        }
    }

    /// Completes a step: reschedules (or finalizes) the process and records
    /// crash events.
    pub fn finish_step(
        &mut self,
        pid: ProcessId,
        status: MemResult<AppStatus>,
        elapsed: SimTime,
    ) -> StepOutcome {
        let p = pid.index();
        let end = self.now + elapsed + std::mem::take(&mut self.pending_delay[p]);
        let outcome = match status {
            Ok(AppStatus::Running) => {
                self.status[p] = Status::Runnable;
                self.gen[p] += 1;
                let gen = self.gen[p];
                self.push(end, QEv::Ready { pid: pid.0, gen });
                StepOutcome::Scheduled
            }
            Ok(AppStatus::Blocked(cond)) => {
                self.status[p] = Status::Blocked(cond);
                self.gen[p] += 1;
                let gen = self.gen[p];
                let mut wake: Option<SimTime> = None;
                if cond.input {
                    if let Some(t) = self.scripts[p].next_time() {
                        wake = Some(wake.map_or(t, |w| w.min(t)));
                    }
                }
                if let Some(t) = cond.until {
                    wake = Some(wake.map_or(t, |w| w.min(t)));
                }
                if cond.message {
                    if let Some(d) = self.net.earliest_pending(pid) {
                        wake = Some(wake.map_or(d, |w| w.min(d)));
                    }
                }
                if let Some(t) = wake {
                    // The definite wake: a Ready event that next_wake will
                    // honor for blocked processes (gen-gated, so an earlier
                    // Deliver or Signal wake makes it stale).
                    self.push(t.max(end), QEv::Ready { pid: pid.0, gen });
                }
                StepOutcome::Scheduled
            }
            Ok(AppStatus::Done) => {
                self.status[p] = Status::Done;
                self.gen[p] += 1;
                StepOutcome::Done
            }
            Err(fault) => {
                self.tracer.crash(pid);
                self.status[p] = Status::Crashed;
                self.gen[p] += 1;
                StepOutcome::Crashed(fault)
            }
        };
        self.kill_panicked_nodes(end);
        outcome
    }

    /// Polls the kernels handed out since the last poll; a newly panicked
    /// one stops every process on its node at `at`. Ascending node order,
    /// then ascending pid, fixes the kills' queue sequence numbers.
    fn kill_panicked_nodes(&mut self, at: SimTime) {
        let mut touched = std::mem::take(&mut self.touched_nodes);
        touched.sort_unstable();
        touched.dedup();
        for &node in &touched {
            self.kernel_polls += 1;
            if self.kernels[node].panicked() && !self.nodes_killed[node] {
                self.nodes_killed[node] = true;
                for q in 0..self.cfg.n_procs {
                    if self.cfg.node_of[q] == node {
                        let pid = ProcessId::from_index(q).0;
                        self.push(at, QEv::Kill { pid });
                    }
                }
            }
        }
        touched.clear();
        self.touched_nodes = touched;
    }

    /// Brings a crashed (or killed) process back after recovery, runnable
    /// `delay` from now.
    ///
    /// # Panics
    ///
    /// Panics if the process is not crashed.
    pub fn respawn(&mut self, pid: ProcessId, delay: SimTime) {
        let p = pid.index();
        assert_eq!(
            self.status[p],
            Status::Crashed,
            "respawn requires a crashed process"
        );
        self.status[p] = Status::Runnable;
        self.gen[p] += 1;
        let gen = self.gen[p];
        let t = self.now + delay;
        self.push(t, QEv::Ready { pid: pid.0, gen });
    }

    /// Reactivates a process whose state was rolled back as a cascade
    /// victim of another process's failure: blocked processes are woken
    /// (their wait condition may no longer reflect the rolled-back state)
    /// and finished processes are resumed. Crashed processes must use
    /// [`Simulator::respawn`] instead. Runnable processes are untouched.
    pub fn reactivate(&mut self, pid: ProcessId) {
        let p = pid.index();
        if matches!(self.status[p], Status::Blocked(_) | Status::Done) {
            self.status[p] = Status::Runnable;
            self.gen[p] += 1;
            let gen = self.gen[p];
            let t = self.now;
            self.push(t, QEv::Ready { pid: pid.0, gen });
        }
    }

    /// Is the process finished?
    pub fn is_done(&self, pid: ProcessId) -> bool {
        self.status[pid.index()] == Status::Done
    }

    /// Is the process crashed (and not yet respawned)?
    pub fn is_crashed(&self, pid: ProcessId) -> bool {
        self.status[pid.index()] == Status::Crashed
    }

    /// Installs an unreliable-fabric description on the network,
    /// activating the transport layer (acks, retransmission, backoff).
    /// Install before the run starts; a plan with all probabilities zero
    /// reproduces the reliable network bit-for-bit.
    pub fn install_net_fault_plan(&mut self, plan: NetFaultPlan) {
        self.net.install_fault_plan(plan);
    }

    /// Transport-layer counters (zero unless a fault plan is installed).
    pub fn net_stats(&self) -> NetStats {
        self.net.stats()
    }

    /// The network fabric (recovery managers rewind cursors through this).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Read access to the network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The kernel hosting `pid` (fault injection targets this, and every
    /// syscall reaches its kernel through here). Notes the node for the
    /// next panic poll.
    pub fn kernel_of_mut(&mut self, pid: ProcessId) -> &mut Kernel {
        let node = self.cfg.node_of[pid.index()];
        if self.touched_nodes.last() != Some(&node) {
            self.touched_nodes.push(node);
        }
        &mut self.kernels[node]
    }

    /// Read access to `pid`'s kernel.
    pub fn kernel_of(&self, pid: ProcessId) -> &Kernel {
        &self.kernels[self.cfg.node_of[pid.index()]]
    }

    /// Input-script cursor (checkpointed by the recovery runtime).
    pub fn input_cursor(&self, pid: ProcessId) -> usize {
        self.scripts[pid.index()].cursor()
    }

    /// Rolls the input-script cursor back (the user retypes).
    pub fn set_input_cursor(&mut self, pid: ProcessId, cursor: usize) {
        self.scripts[pid.index()].set_cursor(cursor);
    }

    /// Signal-schedule cursor (checkpointed by the recovery runtime).
    pub fn signal_cursor(&self, pid: ProcessId) -> usize {
        self.signals[pid.index()].cursor()
    }

    /// Rolls the signal-schedule cursor back.
    pub fn set_signal_cursor(&mut self, pid: ProcessId, cursor: usize) {
        self.signals[pid.index()].set_cursor(cursor);
    }

    /// Rolls `pid`'s node kernel back to a snapshot taken from it
    /// (recovery reconstructs kernel state, §3) and marks the node
    /// rebooted so its processes can run again. Only meaningful when the
    /// node hosts a single process.
    pub fn restore_kernel(&mut self, pid: ProcessId, snap: &KernelSnapshot) {
        let node = self.cfg.node_of[pid.index()];
        self.kernels[node].restore(snap);
        // A reboot clears in-memory kernel bugs: a snapshot taken while a
        // fault was armed must not resurrect the fault.
        self.kernels[node].reboot();
        self.nodes_killed[node] = false;
    }

    /// Per-destination send counters as a sparse `(dest, count)` list
    /// sorted by destination (checkpointed by the recovery runtime).
    /// Destinations absent from the list have count 0.
    pub fn send_seqs(&self, pid: ProcessId) -> &[(u32, u64)] {
        &self.send_seqs[pid.index()]
    }

    /// Restores per-destination send counters after rollback. Destinations
    /// absent from the snapshot (e.g. the whole empty initial snapshot)
    /// were still at zero.
    pub fn set_send_seqs(&mut self, pid: ProcessId, seqs: &[(u32, u64)]) {
        let row = &mut self.send_seqs[pid.index()];
        row.clear();
        row.extend_from_slice(seqs);
    }

    /// Adds a one-off scheduling delay to another process (used to charge
    /// remote participants their coordinated-commit time).
    fn delay_process(&mut self, pid: ProcessId, ns: SimTime) {
        self.pending_delay[pid.index()] += ns;
    }

    /// Direct access to the trace recorder (the recovery runtime journals
    /// rollbacks and replayed logged events through this; commits go
    /// through [`SysCtx::record_commit`], which knows where they land).
    pub fn tracer_mut(&mut self) -> &mut TraceBuilder {
        &mut self.tracer
    }

    /// Number of trace events recorded so far for `pid`.
    pub fn trace_position(&self, pid: ProcessId) -> u64 {
        self.tracer.position(pid)
    }

    /// Appends a DSM-layer operation to the shared-memory access stream,
    /// stamping it with `pid`'s current trace position (see
    /// [`ft_core::access`] for how the analyzer recovers happens-before
    /// knowledge from that stamp).
    fn record_shm(&mut self, pid: ProcessId, op: ShmOp) {
        let pos = self.tracer.position(pid);
        self.shm_log.push(ShmRecord { pid, pos, op });
    }

    /// Takes the recorded shared-memory access stream (leaving an empty
    /// one). Harnesses call this right before [`Simulator::finish`].
    pub fn take_shm_log(&mut self) -> ShmLog {
        std::mem::take(&mut self.shm_log)
    }

    /// Finishes the run, yielding the trace, the visible log, and final
    /// time.
    pub fn finish(self) -> (Trace, Vec<(SimTime, ProcessId, u64)>, SimTime) {
        (self.tracer.finish(), self.visible_log, self.now)
    }
}

/// The syscall context for one step of one process. Implements
/// [`Syscalls`]; the recovery runtime wraps it to interpose.
pub struct SysCtx<'a> {
    sim: &'a mut Simulator,
    pid: ProcessId,
    elapsed: SimTime,
    log_next: bool,
    send_meta: Option<(DepSet, bool)>,
    /// Set when a sub-step crash hook fires mid-step (e.g. a kill injected
    /// inside a commit): the process is dead for the remainder of this
    /// step, so every later syscall is suppressed — no events recorded, no
    /// messages sent, no outputs emitted. The flag lives on the per-step
    /// context, so it resets naturally at the next step.
    killed: bool,
}

impl<'a> SysCtx<'a> {
    /// Time charged so far in this step.
    pub fn elapsed(&self) -> SimTime {
        self.elapsed
    }

    /// Marks the process as killed mid-step (sub-step crash hook): the
    /// rest of this step's syscalls become unobservable no-ops. The caller
    /// is responsible for scheduling the actual [`Simulator::kill_at`] so
    /// the scheduler delivers [`Wake::Killed`].
    pub fn mark_killed(&mut self) {
        self.killed = true;
    }

    /// True if a sub-step crash hook fired during this step.
    pub fn step_killed(&self) -> bool {
        self.killed
    }

    /// Marks the next recorded non-deterministic event as logged (rendered
    /// deterministic by the recovery runtime).
    pub fn set_log_next(&mut self, log: bool) {
        self.log_next = log;
    }

    /// Attaches recovery metadata (dependency snapshot, taint) to the next
    /// send.
    pub fn set_send_meta(&mut self, deps: DepSet, tainted: bool) {
        self.send_meta = Some((deps, tainted));
    }

    /// Records a local commit event (recovery runtime only) and charges its
    /// cost. Returns the trace position just past the commit event: where a
    /// rollback to this commit restores the process to.
    pub fn record_commit(&mut self, cost_ns: SimTime) -> u64 {
        self.elapsed += cost_ns;
        self.sim.tracer.commit(self.pid).seq + 1
    }

    /// Records a coordinated commit round across `participants` (which must
    /// include this process if it commits), charging this process
    /// `local_cost_ns` and each remote participant its own cost via
    /// scheduling delays. Control-message edges (prepare/ack) are recorded
    /// for the happens-before order — prepares before the commit events,
    /// acks after — and the coordinator is charged two network round trips.
    /// Fills `committed` with, per participant and in their order, its
    /// commit event: the trace position just past it is where a rollback
    /// to this round restores the participant to (see
    /// [`SysCtx::record_commit`]).
    pub fn record_coordinated_commit(
        &mut self,
        participants: &[ProcessId],
        costs_ns: &[SimTime],
        committed: &mut Vec<EventId>,
    ) {
        assert_eq!(participants.len(), costs_ns.len());
        let me = self.pid;
        // Prepare edges.
        for &q in participants.iter().filter(|&&q| q != me) {
            let (_, m) = self.sim.tracer.send_control(me, q);
            self.sim.tracer.recv_control(q, me, m);
        }
        self.sim.tracer.coordinated_commit(participants, committed);
        for (&q, &c) in participants.iter().zip(costs_ns) {
            if q == me {
                self.elapsed += c;
            } else {
                self.sim.delay_process(q, c);
            }
        }
        // Ack edges.
        for &q in participants.iter().filter(|&&q| q != me) {
            let (_, m) = self.sim.tracer.send_control(q, me);
            self.sim.tracer.recv_control(me, q, m);
        }
        if participants.iter().any(|&q| q != me) {
            // Two network round trips (prepare+ack), paid by the
            // coordinator, overlapped across participants; plus the slowest
            // remote commit is on the critical path.
            let rtt = 2 * self.sim.cfg.cost.net_latency_ns;
            let slowest_remote = participants
                .iter()
                .zip(costs_ns)
                .filter(|(q, _)| **q != me)
                .map(|(_, &c)| c)
                .max()
                .unwrap_or(0);
            self.elapsed += 2 * rtt + slowest_remote;
        }
    }

    /// Charges extra time (recovery-runtime overheads: COW traps, log
    /// writes).
    pub fn charge(&mut self, ns: SimTime) {
        self.elapsed += ns;
    }

    /// Read-only reach into the simulator (recovery runtime).
    pub fn sim(&self) -> &Simulator {
        self.sim
    }

    /// Mutable reach into the simulator (recovery runtime).
    pub fn sim_mut(&mut self) -> &mut Simulator {
        self.sim
    }

    fn node_kernel(&mut self) -> &mut Kernel {
        self.sim.kernel_of_mut(self.pid)
    }

    fn charge_syscall(&mut self) {
        self.elapsed += self.sim.cfg.cost.syscall_ns;
    }

    /// Records and counts an executed non-deterministic event — a receive
    /// of `msg` when given, else a plain event from `source` — as logged
    /// iff the recovery runtime armed [`SysCtx::set_log_next`] for it.
    fn record_nd(&mut self, source: NdSource, msg: Option<(ProcessId, MsgId)>) {
        let tracer = &mut self.sim.tracer;
        match (std::mem::take(&mut self.log_next), msg) {
            (false, None) => tracer.nd(self.pid, source),
            (true, None) => tracer.nd_logged(self.pid, source),
            (false, Some((from, m))) => tracer.recv(self.pid, from, m),
            (true, Some((from, m))) => tracer.recv_logged(self.pid, from, m),
        };
    }
}

impl<'a> Syscalls for SysCtx<'a> {
    fn pid(&self) -> ProcessId {
        self.pid
    }

    fn now(&self) -> SimTime {
        self.sim.now + self.elapsed
    }

    fn compute(&mut self, ns: SimTime) {
        self.elapsed += ns;
    }

    fn gettimeofday(&mut self) -> SimTime {
        if self.killed {
            return self.sim.now + self.elapsed;
        }
        self.charge_syscall();
        self.elapsed += self.sim.cfg.cost.gettimeofday_ns;
        let mut v = self.sim.now + self.elapsed;
        let poll = self.now();
        if self.node_kernel().tick_corruption(poll) {
            v = self.node_kernel().corrupt_u64(v);
        }
        self.record_nd(NdSource::TimeOfDay, None);
        v
    }

    fn random(&mut self) -> u64 {
        if self.killed {
            return 0;
        }
        self.charge_syscall();
        let mut v: u64 = self.sim.rng.next_u64();
        let poll = self.now();
        if self.node_kernel().tick_corruption(poll) {
            v = self.node_kernel().corrupt_u64(v);
        }
        self.record_nd(NdSource::Random, None);
        v
    }

    fn read_input(&mut self) -> Option<Payload> {
        if self.killed {
            return None;
        }
        let now = self.now();
        let p = self.pid.index();
        let mut bytes = self.sim.scripts[p].take_due(now)?;
        self.charge_syscall();
        self.elapsed += self.sim.cfg.cost.read_input_ns;
        let poll = self.now();
        if self.node_kernel().tick_corruption(poll) {
            self.node_kernel().corrupt_bytes(bytes.make_mut());
        }
        self.record_nd(NdSource::UserInput, None);
        Some(bytes)
    }

    fn input_exhausted(&self) -> bool {
        self.sim.scripts[self.pid.index()].exhausted()
    }

    fn send(&mut self, to: ProcessId, payload: &[u8]) -> SysResult<()> {
        if self.killed {
            return Ok(());
        }
        if to.index() >= self.sim.cfg.n_procs {
            return Err(SysError::BadFd);
        }
        self.charge_syscall();
        self.elapsed += self.sim.cfg.cost.send_ns;
        let row = &mut self.sim.send_seqs[self.pid.index()];
        let seq = match row.binary_search_by_key(&to.0, |e| e.0) {
            Ok(i) => {
                let s = row[i].1;
                row[i].1 += 1;
                s
            }
            Err(i) => {
                row.insert(i, (to.0, 1));
                0
            }
        };
        let (deps, tainted) = self.send_meta.take().unwrap_or_default();
        let sent_at = self.now();
        let latency = self.sim.cfg.cost.net_delivery_ns(payload.len());
        let deliver_at = sent_at + latency;
        let (_, trace_msg) = self.sim.tracer.send(self.pid, to);
        let outcome = self.sim.net.send(
            self.pid, to, seq, payload, deps, tainted, deliver_at, trace_msg,
        );
        if self.sim.net.fault_plan().is_some() {
            match outcome {
                SendOutcome::Enqueued(_) => {
                    // Fresh enqueue: run the first transmission attempt
                    // through the transport.
                    let (arrival, retry) =
                        self.sim.net.dispatch(self.pid, to, seq, sent_at, latency);
                    if let Some(at) = arrival {
                        self.sim.push(at, QEv::Deliver { pid: to.0 });
                    }
                    if let Some(rt) = retry {
                        let (from, to) = (self.pid.0, to.0);
                        self.sim.push(rt, QEv::Retransmit { from, to, seq });
                    }
                }
                SendOutcome::Duplicate(at) if at != UNDELIVERED => {
                    // Replay dedup of an already-arrived message: wake the
                    // receiver at the original arrival, as the plain
                    // network would.
                    self.sim.push(at, QEv::Deliver { pid: to.0 });
                }
                SendOutcome::Duplicate(_) => {
                    // Replay dedup of a message the transport still owes:
                    // its retransmission timer owns the next wake.
                }
            }
        } else {
            self.sim.push(deliver_at, QEv::Deliver { pid: to.0 });
        }
        Ok(())
    }

    fn try_recv(&mut self) -> Option<Message> {
        if self.killed {
            return None;
        }
        let now = self.now();
        let (mut msg, trace_msg) = self.sim.net.try_recv(self.pid, now)?;
        self.charge_syscall();
        self.elapsed += self.sim.cfg.cost.recv_ns;
        let poll = self.now();
        if self.node_kernel().tick_corruption(poll) {
            self.node_kernel().corrupt_bytes(msg.payload.make_mut());
        }
        self.record_nd(NdSource::MessageRecv, Some((msg.from, trace_msg)));
        Some(msg)
    }

    fn visible(&mut self, token: u64) {
        if self.killed {
            return;
        }
        self.charge_syscall();
        self.elapsed += self.sim.cfg.cost.visible_ns;
        let t = self.now();
        self.sim.tracer.visible(self.pid, token);
        self.sim.visible_log.push((t, self.pid, token));
    }

    fn take_signal(&mut self) -> Option<u32> {
        if self.killed {
            return None;
        }
        let now = self.now();
        let p = self.pid.index();
        let signo = self.sim.signals[p].take_due(now)?;
        self.record_nd(NdSource::Signal, None);
        Some(signo)
    }

    fn open(&mut self, name: &str) -> SysResult<u32> {
        if self.killed {
            return Ok(0);
        }
        self.charge_syscall();
        self.elapsed += self.sim.cfg.cost.open_ns;
        let corrupted = {
            let now = self.now();
            self.node_kernel().tick_corruption(now)
        };
        self.record_nd(NdSource::ResourceProbe, None);
        let fd = self.node_kernel().open(name)?;
        // A corrupted open returns a garbage descriptor.
        if corrupted {
            return Ok(fd ^ 0x40);
        }
        Ok(fd)
    }

    fn write_file(&mut self, fd: u32, bytes: &[u8]) -> SysResult<()> {
        if self.killed {
            return Ok(());
        }
        self.charge_syscall();
        self.elapsed += self.sim.cfg.cost.file_ns_per_byte * bytes.len() as SimTime;
        let _ = {
            let now = self.now();
            self.node_kernel().tick_corruption(now)
        };
        self.record_nd(NdSource::ResourceProbe, None);
        self.node_kernel().write(fd, bytes)
    }

    fn read_file(&mut self, fd: u32, len: usize) -> SysResult<Vec<u8>> {
        if self.killed {
            return Ok(vec![0; len]);
        }
        self.charge_syscall();
        self.elapsed += self.sim.cfg.cost.file_ns_per_byte * len as SimTime;
        let corrupted = {
            let now = self.now();
            self.node_kernel().tick_corruption(now)
        };
        let mut data = self.node_kernel().read(fd, len)?;
        if corrupted {
            self.node_kernel().corrupt_bytes(&mut data);
        }
        self.sim.tracer.internal(self.pid);
        Ok(data)
    }

    fn close(&mut self, fd: u32) -> SysResult<()> {
        if self.killed {
            return Ok(());
        }
        self.charge_syscall();
        let _ = {
            let now = self.now();
            self.node_kernel().tick_corruption(now)
        };
        self.sim.tracer.internal(self.pid);
        self.node_kernel().close(fd)
    }

    fn note_fault_activation(&mut self, fault: u32) {
        if self.killed {
            return;
        }
        self.sim.tracer.fault_activation(self.pid, fault);
    }

    fn shm_op(&mut self, op: ShmOp) {
        if self.killed {
            return;
        }
        self.sim.record_shm(self.pid, op);
    }

    fn scratch(&mut self) -> &mut Vec<u8> {
        &mut self.sim.scratch
    }
}
