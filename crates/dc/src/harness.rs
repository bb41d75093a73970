//! The Discount Checking harness: runs applications under a recovery
//! protocol, handles stop failures and crashes with rollback + constrained
//! re-execution, and reports the metrics Figure 8 and Tables 1–2 need.

use ft_core::avail::Incident;
use ft_core::event::ProcessId;
use ft_core::fault::{CrashPoint, Fault, PANIC_DELAY_NS};
use ft_core::oracle::{check_recovery, InvariantViolation, OracleVerdict};
use ft_core::trace::Trace;
use ft_mem::arena::ArenaStats;
use ft_mem::cost::COW_TRAP_NS;
use ft_mem::mem::Mem;
use ft_sim::cost::SimTime;
use ft_sim::net::NetStats;
use ft_sim::sim::{Simulator, StepOutcome, Wake};
use ft_sim::syscalls::App;

use crate::dcsys::DcSys;
use crate::recovery::{plan_recovery, RecoveryAction, Strategy};
use crate::runtime::DcRuntime;
use crate::state::{DcConfig, DcStats};

/// Result of a run under the recovery runtime.
#[derive(Debug)]
pub struct DcReport {
    /// Recorded event trace (including commits, crashes, recoveries'
    /// re-executed events).
    pub trace: Trace,
    /// Visible outputs in real-time order (duplicates from re-execution
    /// included): (time, process, token).
    pub visibles: Vec<(SimTime, ProcessId, u64)>,
    /// Final simulated time.
    pub runtime: SimTime,
    /// True if every process ran to completion.
    pub all_done: bool,
    /// Per-process commit counts.
    pub commits_per_proc: Vec<u64>,
    /// Per-process commit-*point* counts: how many kill-eligible commit
    /// points (local commits plus coordinated rounds the process itself
    /// coordinated) the run passed through. This is the enumeration domain
    /// for the model checker's mid-commit crash schedule; unlike
    /// `commits_per_proc` it is monotonic and never rolled back.
    pub commit_points_per_proc: Vec<u64>,
    /// Aggregate runtime statistics.
    pub totals: DcStats,
    /// Transport-layer counters (all zero unless a network fault plan was
    /// installed on the simulator).
    pub net: NetStats,
    /// Write-barrier statistics summed over every process's arena: traps,
    /// writes, commits/rollbacks, and cumulative committed pages/bytes —
    /// the raw material of the Figure 8 cost story.
    pub arena: ArenaStats,
    /// Number of failures that exhausted the recovery budget (the run
    /// could not be completed — a Lose-work casualty).
    pub abandoned: u32,
    /// DSM shared-memory access stream (empty for non-DSM workloads).
    /// Failure-free runs yield a replay-free stream suitable for the
    /// `ft-analyze` race passes.
    pub shm: ft_core::access::ShmLog,
    /// Crash-to-recovery incidents, in close order: one per crash that
    /// landed on a process, folding repeated failures before catch-up
    /// (e.g. a microreboot that does not stick) into the same incident.
    /// The availability campaign's MTTR/availability/goodput columns are
    /// derived from these.
    pub incidents: Vec<Incident>,
}

impl DcReport {
    /// Total commits across all processes.
    pub fn total_commits(&self) -> u64 {
        self.commits_per_proc.iter().sum()
    }

    /// Visible token sequence (in output order).
    pub fn visible_tokens(&self) -> Vec<u64> {
        self.visibles.iter().map(|&(_, _, t)| t).collect()
    }

    /// The visible log as `(pid, token)` pairs in output order — the form
    /// the consistent-recovery checkers and the oracle compare.
    pub fn visible_pairs(&self) -> Vec<(u32, u64)> {
        self.visibles.iter().map(|&(_, p, t)| (p.0, t)).collect()
    }

    /// Judges this run with the composed oracle against a failure-free
    /// execution of the same workload: its trace and its
    /// [`visible_pairs`](DcReport::visible_pairs). A run that deadlocks
    /// without abandoning anyone is still `Incomplete`.
    pub fn judge_against(
        &self,
        canonical: &Trace,
        reference_visibles: &[(u32, u64)],
    ) -> Result<OracleVerdict, InvariantViolation> {
        if self.abandoned == 0 && !self.all_done {
            return Err(InvariantViolation::Incomplete { abandoned: 0 });
        }
        check_recovery(
            canonical,
            reference_visibles,
            &self.trace,
            &self.visible_pairs(),
            self.abandoned as usize,
        )
    }
}

/// A crash-to-recovery episode still in progress: opened when a crash
/// lands, extended by repeated failures before catch-up, closed (into a
/// [`Incident`]) when the process re-executes past where it was.
struct OpenIncident {
    crash_at: SimTime,
    /// The trace position at which the process counts as caught up.
    target_pos: u64,
    lost_events: u64,
    attempts: u32,
    attempt_delays: Vec<u64>,
    escalated: bool,
}

/// The harness: simulator + runtime + applications.
pub struct DcHarness {
    /// The simulated testbed (configure scripts/signals/kills before
    /// running).
    pub sim: Simulator,
    /// The recovery runtime.
    pub rt: DcRuntime,
    apps: Vec<Box<dyn App>>,
    recovery_attempts: Vec<u32>,
    last_traps: Vec<u64>,
    abandoned: u32,
    open_incidents: Vec<Option<OpenIncident>>,
    incidents: Vec<Incident>,
}

impl DcHarness {
    /// Builds a harness over a pre-configured simulator, arming the fault
    /// schedule's activations, kernel faults and exact-time kills before
    /// the runtime takes the initial snapshots (which therefore hold an
    /// armed corruption).
    /// Panics if an activation names an application with no fault sites.
    pub fn new(mut sim: Simulator, cfg: DcConfig, mut apps: Vec<Box<dyn App>>) -> Self {
        for fault in &cfg.faults {
            match *fault {
                Fault::Kill(CrashPoint::AtExactTime { pid, t: at })
                | Fault::Kernel {
                    pid,
                    at,
                    propagate: false,
                    ..
                } => sim.kill_at(ProcessId(pid), at),
                Fault::Kill(_) => {}
                Fault::Activate { pid, plan } => {
                    let seed = sim.seed();
                    assert!(
                        apps[ProcessId(pid).index()].arm_fault(plan, seed),
                        "`{fault}`: process {pid}'s application has no fault sites"
                    );
                }
                Fault::Kernel {
                    pid,
                    at,
                    corrupt_calls,
                    propagate: true,
                    ..
                } => {
                    let pid = ProcessId(pid);
                    sim.kernel_of_mut(pid).arm_corruption(at, corrupt_calls);
                    sim.kill_at(pid, at + PANIC_DELAY_NS);
                }
            }
        }
        let mems: Vec<Mem> = apps.iter().map(|a| Mem::new(a.layout())).collect();
        let rt = DcRuntime::new(cfg, &sim, mems);
        let n = apps.len();
        DcHarness {
            sim,
            rt,
            apps,
            recovery_attempts: vec![0; n],
            last_traps: vec![0; n],
            abandoned: 0,
            open_incidents: (0..n).map(|_| None).collect(),
            incidents: Vec::new(),
        }
    }

    /// Runs one scheduler step for `pid`, charging copy-on-write traps.
    fn step_process(&mut self, pid: ProcessId) -> StepOutcome {
        let p = pid.index();
        let mut ctx = self.sim.ctx(pid);
        let mut sys = DcSys::new(&mut ctx, &mut self.rt);
        let st = self.apps[p].step(&mut sys);
        let mut el = ctx.elapsed();
        let killed = ctx.step_killed();
        drop(ctx);
        // Each first-touch of a clean page cost a protection trap.
        let traps = self.rt.state(pid).mem.arena.stats().traps;
        el += (traps - self.last_traps[p]) * COW_TRAP_NS;
        self.last_traps[p] = traps;
        // A sub-step crash hook fired mid-step (mid-commit kill): whatever
        // the app returned describes a future the process does not have.
        // Schedule the kill at the current instant — pushed before the
        // Ready event below, so the scheduler delivers `Wake::Killed`
        // first — and keep the process nominally runnable so the kill is
        // not ignored as targeting a finished process.
        let st = if killed {
            self.sim.kill_at(pid, self.sim.now());
            Ok(ft_sim::syscalls::AppStatus::Running)
        } else {
            st
        };
        self.sim.finish_step(pid, st, el)
    }

    /// Opens (or extends) `pid`'s incident at the instant a crash lands.
    ///
    /// The catch-up target is the trace position at which the process has
    /// re-executed everything the crash cost it: its position at the
    /// crash (which includes the crash marker), plus the rollback marker
    /// recovery is about to journal, plus the events after its last
    /// commit that re-execution owes.
    fn note_crash(&mut self, pid: ProcessId) {
        let p = pid.index();
        let pos = self.sim.trace_position(pid);
        let committed = self.rt.state(pid).committed.trace_pos;
        // Events after the last commit, excluding the crash marker itself.
        let lost = pos.saturating_sub(committed).saturating_sub(1);
        let target_pos = pos + 1 + lost;
        match self.open_incidents[p].as_mut() {
            Some(inc) => {
                // A repeat failure before catch-up: same incident, fresh
                // (and further) catch-up target.
                inc.target_pos = target_pos;
                inc.lost_events += lost;
            }
            None => {
                self.open_incidents[p] = Some(OpenIncident {
                    crash_at: self.sim.now(),
                    target_pos,
                    lost_events: lost,
                    attempts: 0,
                    attempt_delays: Vec::new(),
                    escalated: false,
                });
            }
        }
    }

    /// Closes `pid`'s open incident (if any) into the report's list.
    fn close_incident(&mut self, pid: ProcessId, recovered_at: Option<SimTime>) {
        if let Some(inc) = self.open_incidents[pid.index()].take() {
            self.incidents.push(Incident {
                pid: pid.0,
                crash_at: inc.crash_at,
                recovered_at,
                lost_events: inc.lost_events,
                microreboot_attempts: inc.attempts,
                attempt_delays: inc.attempt_delays,
                escalated: inc.escalated,
            });
        }
    }

    /// Closes `pid`'s incident once it has caught back up (or finished).
    fn check_recovered(&mut self, pid: ProcessId) {
        let p = pid.index();
        let Some(inc) = &self.open_incidents[p] else {
            return;
        };
        if self.sim.is_crashed(pid) {
            return;
        }
        if self.sim.is_done(pid) || self.sim.trace_position(pid) >= inc.target_pos {
            let now = self.sim.now();
            self.close_incident(pid, Some(now));
        }
    }

    fn handle_failure(&mut self, pid: ProcessId) {
        let p = pid.index();
        self.note_crash(pid);
        self.recovery_attempts[p] += 1;
        if self.recovery_attempts[p] > self.rt.cfg().max_recoveries {
            // Give up: the process stays dead (e.g. a Lose-work violation
            // re-crashing on every recovery).
            self.abandoned += 1;
            self.close_incident(pid, None);
            return;
        }
        let attempts = self.open_incidents[p].as_ref().map_or(0, |i| i.attempts);
        let cfg = self.rt.cfg();
        let strategy = cfg.strategy;
        if let RecoveryAction::PartialRestart { delay_ns } =
            plan_recovery(strategy, attempts, &cfg.escalation)
        {
            // One rung of the ladder: restart in place, noting the attempt
            // and the backoff it burns on the open incident.
            self.rt.microreboot(pid, &mut self.sim);
            self.apps[p].on_recovered();
            if let Some(inc) = self.open_incidents[p].as_mut() {
                inc.attempts += 1;
                inc.attempt_delays.push(delay_ns);
            }
            self.sim.respawn(pid, delay_ns);
            return;
        }
        if strategy == Strategy::Microreboot {
            // The ladder is exhausted: escalate.
            if let Some(inc) = self.open_incidents[p].as_mut() {
                inc.escalated = true;
            }
            self.rt.state_mut(pid).stats.escalations += 1;
        }
        let delay = self.rt.cfg().reboot_delay_ns;
        let rolled = self.rt.recover(pid, &mut self.sim);
        for q in rolled {
            self.apps[q.index()].on_recovered();
            if q == pid {
                self.sim.respawn(pid, delay);
            } else {
                // Cascade victims were not killed; wake them so they
                // re-evaluate from their rolled-back state.
                self.sim.reactivate(q);
            }
        }
    }

    /// Runs to completion (or deadlock / abandonment), recovering failed
    /// processes automatically and firing the kills of the fault schedule
    /// [`DcConfig::faults`].
    pub fn run(self) -> DcReport {
        self.run_with(|_| {})
    }

    /// Like [`DcHarness::run`], but calls `on_step` with the simulator
    /// after each wake-up has been handled, including any kill the
    /// schedule fired there. Meant as an observer (queue counters,
    /// positions): kills belong in [`DcConfig::faults`], and a `kill_at`
    /// the hook schedules itself is outside the schedule.
    pub fn run_with(mut self, on_step: impl FnMut(&mut Simulator)) -> DcReport {
        self.drive(on_step);
        self.into_report()
    }

    /// The loop of [`DcHarness::run_with`] without the report: runs to
    /// completion (or deadlock / abandonment) and leaves the simulator and
    /// the runtime in place for inspection. [`DcHarness::into_report`]
    /// then closes the run.
    pub fn drive(&mut self, mut on_step: impl FnMut(&mut Simulator)) {
        // Start kills go in before the first wake; position and time kills
        // wait, in schedule order, until they fall due.
        let mut watched = Vec::new();
        for fault in &self.rt.cfg().faults {
            match *fault {
                Fault::Kill(CrashPoint::AtStart { pid }) => self.sim.kill_at(ProcessId(pid), 0),
                Fault::Kill(kill @ (CrashPoint::AtPosition { .. } | CrashPoint::AtTime { .. })) => {
                    watched.push(kill);
                }
                _ => {}
            }
        }
        let mut guard = 0u64;
        while let Some(wake) = self.sim.next_wake() {
            guard += 1;
            assert!(guard < 200_000_000, "runaway simulation");
            match wake {
                Wake::Step(pid) => {
                    if let StepOutcome::Crashed(_) = self.step_process(pid) {
                        self.handle_failure(pid);
                    }
                    self.check_recovered(pid);
                }
                Wake::Killed(pid) => self.handle_failure(pid),
            }
            if !watched.is_empty() {
                fire_due(&mut self.sim, &mut watched);
            }
            on_step(&mut self.sim);
        }
    }

    /// Closes a run [`DcHarness::drive`] finished into its report.
    pub fn into_report(mut self) -> DcReport {
        let n = self.apps.len();
        // Incidents still open at the end of the run (abandoned processes,
        // deadlocks, horizon truncation) never recovered.
        for p in 0..n {
            self.close_incident(ProcessId::from_index(p), None);
        }
        let all_done = (0..n).all(|p| self.sim.is_done(ProcessId::from_index(p)));
        let commits_per_proc = (0..n)
            .map(|p| self.rt.state(ProcessId::from_index(p)).stats.commits)
            .collect();
        let commit_points_per_proc = (0..n)
            .map(|p| self.rt.commit_points(ProcessId::from_index(p)))
            .collect();
        let totals = self.rt.total_stats();
        let mut arena = ArenaStats::default();
        for p in 0..n {
            arena.absorb(&self.rt.state(ProcessId::from_index(p)).mem.arena.stats());
        }
        let net = self.sim.net_stats();
        let runtime = self.sim.now();
        let shm = self.sim.take_shm_log();
        let (trace, visibles, _) = self.sim.finish();
        DcReport {
            trace,
            visibles,
            runtime,
            all_done,
            commits_per_proc,
            commit_points_per_proc,
            totals,
            net,
            arena,
            abandoned: self.abandoned,
            shm,
            incidents: self.incidents,
        }
    }
}

/// Kills, at the current instant and in list order, every watched entry
/// that has fallen due — a position kill once its process has traced
/// `pos` events, a time kill once the clock has reached `t` — and drops
/// it from the list, so each fires once.
fn fire_due(sim: &mut Simulator, watched: &mut Vec<CrashPoint>) {
    let now = sim.now();
    watched.retain(|&kill| {
        let (pid, due) = match kill {
            CrashPoint::AtPosition { pid, pos } => (pid, sim.trace_position(ProcessId(pid)) >= pos),
            CrashPoint::AtTime { pid, t } => (pid, now >= t),
            CrashPoint::AtStart { .. }
            | CrashPoint::InCommit { .. }
            | CrashPoint::AtExactTime { .. } => return true,
        };
        if due {
            sim.kill_at(ProcessId(pid), now);
        }
        !due
    });
}
