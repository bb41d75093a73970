//! End-to-end scheduler tests: interactive sessions, message ping-pong,
//! blocking semantics, signals, stop failures, and trace recording.

#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test inputs are tiny by construction (seed counts, page numbers, probe offsets), so index-type narrowing cannot truncate"
)]

use ft_core::event::{EventKind, ProcessId};
use ft_core::savework::check_save_work;
use ft_mem::error::MemResult;
use ft_mem::mem::{ArenaCell, Mem};
use ft_sim::harness::PlainSys;
use ft_sim::script::{InputScript, SignalSchedule};
use ft_sim::sim::{SimConfig, Simulator, StepOutcome, Wake};
use ft_sim::syscalls::{App, AppStatus, SysMem, WaitCond};
use ft_sim::{MS, US};

/// Runs a set of apps with a minimal loop, invoking `on_kill` for stop
/// failures. Returns nothing; inspect the simulator afterwards.
fn drive(
    sim: &mut Simulator,
    apps: &mut [&mut dyn App],
    mems: &mut [Mem],
    mut on_kill: impl FnMut(&mut Simulator, ProcessId),
) -> Vec<StepOutcome> {
    let mut outcomes = Vec::new();
    let mut steps = 0u64;
    while let Some(wake) = sim.next_wake() {
        steps += 1;
        assert!(steps < 1_000_000, "runaway simulation");
        match wake {
            Wake::Step(pid) => {
                let p = pid.index();
                let mut ctx = sim.ctx(pid);
                let mut sys = PlainSys::new(&mut ctx, &mut mems[p]);
                let st = apps[p].step(&mut sys);
                let el = ctx.elapsed();
                outcomes.push(sim.finish_step(pid, st, el));
            }
            Wake::Killed(pid) => on_kill(sim, pid),
        }
    }
    outcomes
}

/// Echoes each scripted input as a visible event; count lives in the arena.
struct Echo;

impl App for Echo {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        if let Some(bytes) = sys.read_input() {
            sys.compute(10 * US);
            let m = sys.mem();
            let cell: ArenaCell<u64> = ArenaCell::at(0);
            let n = cell.get(&m.arena)? + 1;
            cell.set(&mut m.arena, n)?;
            sys.visible(bytes.iter().map(|&b| b as u64).sum::<u64>() + n);
            Ok(AppStatus::Running)
        } else if sys.input_exhausted() {
            Ok(AppStatus::Done)
        } else {
            Ok(AppStatus::Blocked(WaitCond::input()))
        }
    }
}

fn echoed(mem: &Mem) -> u64 {
    ArenaCell::<u64>::at(0).get(&mem.arena).unwrap()
}

#[test]
fn interactive_session_respects_think_time() {
    let mut sim = Simulator::new(SimConfig::single_node(1, 1));
    let keys: Vec<Vec<u8>> = (0..50).map(|i| vec![b'a' + (i % 26) as u8]).collect();
    sim.set_input_script(ProcessId(0), InputScript::evenly_spaced(0, 100 * MS, keys));
    let mut app = Echo;
    let mut mems = vec![Mem::new(app.layout())];
    drive(&mut sim, &mut [&mut app], &mut mems, |_, _| {});
    assert_eq!(echoed(&mems[0]), 50);
    // 50 keystrokes, 100 ms apart: the run takes at least 4.9 s and is
    // think-time dominated.
    assert!(sim.now() >= 4_900 * MS, "now = {}", sim.now());
    assert!(sim.now() < 5_200 * MS);
    let (trace, visibles, _) = sim.finish();
    assert_eq!(visibles.len(), 50);
    let nds = trace.iter().filter(|e| e.is_effectively_nd()).count();
    assert_eq!(nds, 50);
}

#[test]
fn visible_tokens_recorded_in_order() {
    let mut sim = Simulator::new(SimConfig::single_node(1, 1));
    sim.set_input_script(
        ProcessId(0),
        InputScript::evenly_spaced(0, MS, vec![vec![1], vec![2], vec![3]]),
    );
    let mut app = Echo;
    let mut mems = vec![Mem::new(app.layout())];
    drive(&mut sim, &mut [&mut app], &mut mems, |_, _| {});
    let (_, visibles, _) = sim.finish();
    let tokens: Vec<u64> = visibles.iter().map(|&(_, _, t)| t).collect();
    assert_eq!(tokens, vec![2, 4, 6]);
}

/// Ping-pong: initiator sends, both relay; state in arena cells.
struct Pinger {
    rounds: u64,
    peer: ProcessId,
}

impl App for Pinger {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        let sent: ArenaCell<u64> = ArenaCell::at(0);
        let m_sent = sent.get(&sys.mem().arena)?;
        if m_sent == 0 {
            sent.set(&mut sys.mem().arena, 1)?;
            sys.send(self.peer, &[0]).expect("send");
            return Ok(AppStatus::Running);
        }
        if let Some(msg) = sys.try_recv() {
            sys.visible(msg.payload[0] as u64);
            if m_sent < self.rounds {
                sent.set(&mut sys.mem().arena, m_sent + 1)?;
                sys.send(self.peer, &[msg.payload[0] + 1]).expect("send");
                Ok(AppStatus::Running)
            } else {
                Ok(AppStatus::Done)
            }
        } else {
            Ok(AppStatus::Blocked(WaitCond::message()))
        }
    }
}

struct Ponger {
    peer: ProcessId,
    done_after: u64,
}

impl App for Ponger {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        let seen: ArenaCell<u64> = ArenaCell::at(0);
        if let Some(msg) = sys.try_recv() {
            let n = seen.get(&sys.mem().arena)? + 1;
            seen.set(&mut sys.mem().arena, n)?;
            sys.send(self.peer, &msg.payload).expect("send");
            if n >= self.done_after {
                return Ok(AppStatus::Done);
            }
            Ok(AppStatus::Running)
        } else {
            Ok(AppStatus::Blocked(WaitCond::message()))
        }
    }
}

#[test]
fn ping_pong_round_trips_charge_network_latency() {
    let mut sim = Simulator::new(SimConfig::one_node_each(2, 7));
    let mut ping = Pinger {
        rounds: 10,
        peer: ProcessId(1),
    };
    let mut pong = Ponger {
        peer: ProcessId(0),
        done_after: 10,
    };
    let mut mems = vec![Mem::new(ping.layout()), Mem::new(pong.layout())];
    drive(&mut sim, &mut [&mut ping, &mut pong], &mut mems, |_, _| {});
    // 10 round trips at >= 240 µs each.
    assert!(sim.now() >= 2_400 * US, "now = {}", sim.now());
    let (trace, _, _) = sim.finish();
    let count = |is: fn(&EventKind) -> bool| {
        let events = trace.process(ProcessId(0)).iter();
        events.filter(|e| is(&e.kind)).count()
    };
    assert_eq!(count(|k| matches!(k, EventKind::Send { .. })), 10);
    assert_eq!(count(|k| matches!(k, EventKind::Recv { .. })), 10);
    assert_eq!(count(|k| matches!(k, EventKind::Visible { .. })), 10);
    // Receives are nd events; nothing commits, and there ARE visibles, so
    // the bare substrate (no recovery runtime) violates Save-work.
    assert!(check_save_work(&trace).is_err());
}

#[test]
fn kill_interrupts_and_respawn_resumes() {
    let mut sim = Simulator::new(SimConfig::single_node(1, 3));
    let keys: Vec<Vec<u8>> = (0..20).map(|_| vec![1]).collect();
    sim.set_input_script(ProcessId(0), InputScript::evenly_spaced(0, 10 * MS, keys));
    sim.kill_at(ProcessId(0), 55 * MS);
    let mut app = Echo;
    let mut mems = vec![Mem::new(app.layout())];
    let mut killed = false;
    drive(&mut sim, &mut [&mut app], &mut mems, |sim, pid| {
        killed = true;
        assert!(sim.is_crashed(pid));
        // "Reboot" after 100 ms and continue (no rollback here: this test
        // checks scheduling only; the memory survived).
        sim.respawn(pid, 100 * MS);
    });
    assert!(killed);
    assert!(sim.is_done(ProcessId(0)));
    assert_eq!(echoed(&mems[0]), 20);
}

#[test]
fn signals_wake_blocked_processes() {
    struct Waiter;
    impl App for Waiter {
        fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
            if sys.take_signal().is_some() {
                let done: ArenaCell<u64> = ArenaCell::at(0);
                done.set(&mut sys.mem().arena, 1)?;
                return Ok(AppStatus::Done);
            }
            // Block on a message that never comes; only the signal can end
            // this.
            Ok(AppStatus::Blocked(WaitCond::message()))
        }
    }
    let mut sim = Simulator::new(SimConfig::single_node(1, 5));
    sim.set_signal_schedule(ProcessId(0), SignalSchedule::new(vec![(30 * MS, 14)]));
    let mut app = Waiter;
    let mut mems = vec![Mem::new(app.layout())];
    drive(&mut sim, &mut [&mut app], &mut mems, |_, _| {});
    assert_eq!(ArenaCell::<u64>::at(0).get(&mems[0].arena).unwrap(), 1);
    assert!(sim.now() >= 30 * MS);
}

#[test]
fn kernel_panic_kills_whole_node() {
    struct Syscaller;
    impl App for Syscaller {
        fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
            sys.gettimeofday();
            sys.compute(MS);
            Ok(AppStatus::Running)
        }
    }
    let mut sim = Simulator::new(SimConfig::single_node(2, 9));
    // Propagation fault: corrupt 3 syscall results, then panic.
    sim.kernel_of_mut(ProcessId(0)).arm_corruption(0, 3);
    let mut a = Syscaller;
    let mut b = Syscaller;
    let mut mems = vec![Mem::new(a.layout()), Mem::new(b.layout())];
    let mut kills = 0;
    drive(&mut sim, &mut [&mut a, &mut b], &mut mems, |_, _| {
        kills += 1;
    });
    assert_eq!(kills, 2, "both processes on the panicked node die");
}

#[test]
fn done_processes_ignore_pending_kills() {
    let mut sim = Simulator::new(SimConfig::single_node(1, 11));
    sim.set_input_script(
        ProcessId(0),
        InputScript::evenly_spaced(0, MS, vec![vec![1]]),
    );
    sim.kill_at(ProcessId(0), 10_000 * MS); // Long after completion.
    let mut app = Echo;
    let mut mems = vec![Mem::new(app.layout())];
    drive(&mut sim, &mut [&mut app], &mut mems, |_, _| {
        panic!("kill after Done must not fire")
    });
    assert!(sim.is_done(ProcessId(0)));
    assert!(!sim.is_crashed(ProcessId(0)));
}

#[test]
fn crash_records_crash_event() {
    struct Crasher;
    impl App for Crasher {
        fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
            // Dereference far out of bounds: a segfault.
            sys.mem().arena.read(usize::MAX - 8, 4)?;
            Ok(AppStatus::Done)
        }
    }
    let mut sim = Simulator::new(SimConfig::single_node(1, 13));
    let mut app = Crasher;
    let mut mems = vec![Mem::new(app.layout())];
    let outcomes = drive(&mut sim, &mut [&mut app], &mut mems, |_, _| {});
    assert!(outcomes
        .iter()
        .any(|o| matches!(o, StepOutcome::Crashed(_))));
    let (trace, _, _) = sim.finish();
    assert!(trace.iter().any(|e| e.kind.is_crash()));
}

#[test]
fn deterministic_given_seed() {
    let run = |seed: u64| {
        let mut sim = Simulator::new(SimConfig::single_node(1, seed));
        sim.set_input_script(
            ProcessId(0),
            InputScript::evenly_spaced(0, MS, (0..10).map(|i| [i])),
        );
        let mut app = Echo;
        let mut mems = vec![Mem::new(app.layout())];
        drive(&mut sim, &mut [&mut app], &mut mems, |_, _| {});
        let (_, visibles, t) = sim.finish();
        (visibles, t)
    };
    assert_eq!(run(42), run(42));
}

#[test]
fn reactivate_revives_blocked_and_done_processes() {
    // A process that finishes can be reactivated (used when cascading
    // rollback rewinds a completed peer).
    let mut sim = Simulator::new(SimConfig::single_node(1, 77));
    sim.set_input_script(
        ProcessId(0),
        InputScript::evenly_spaced(0, MS, vec![vec![1]]),
    );
    let mut app = Echo;
    let mut mems = vec![Mem::new(app.layout())];
    drive(&mut sim, &mut [&mut app], &mut mems, |_, _| {});
    assert!(sim.is_done(ProcessId(0)));
    // Rewind its input and reactivate: it runs again.
    sim.set_input_cursor(ProcessId(0), 0);
    sim.reactivate(ProcessId(0));
    drive(&mut sim, &mut [&mut app], &mut mems, |_, _| {});
    assert!(sim.is_done(ProcessId(0)));
    assert_eq!(echoed(&mems[0]), 2, "the keystroke was re-echoed");
}

#[test]
fn coordinated_commit_recording_shapes_the_trace() {
    // Drive a raw coordinated round through the SysCtx hooks and verify
    // the trace shape: prepare/ack control edges and an atomic group.
    use ft_core::event::EventKind;
    let mut sim = Simulator::new(SimConfig::one_node_each(2, 5));
    // Take P0's first step manually.
    let wake = sim.next_wake();
    assert!(matches!(wake, Some(Wake::Step(_))));
    let pid = match wake.unwrap() {
        Wake::Step(p) => p,
        _ => unreachable!(),
    };
    let mut ctx = sim.ctx(pid);
    let round = [ProcessId(0), ProcessId(1)];
    let mut committed = Vec::new();
    ctx.record_coordinated_commit(&round, &[1000, 2000], &mut committed);
    let past: Vec<u64> = committed.iter().map(|id| id.seq + 1).collect();
    assert_eq!(past, [2, 2], "just past prepare edge and commit event");
    let el = ctx.elapsed();
    assert!(el >= 2000, "coordinator pays rtt + slowest remote");
    sim.finish_step(pid, Ok(ft_sim::AppStatus::Done), el);
    let (trace, _, _) =
        std::mem::replace(&mut sim, Simulator::new(SimConfig::single_node(0, 0))).finish();
    let commits: Vec<_> = trace
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Commit { .. }))
        .collect();
    assert_eq!(commits.len(), 2);
    let g0 = commits[0].group().expect("grouped");
    assert_eq!(commits[1].group(), Some(g0), "same atomic round");
    // Control edges recorded as logged send/recv pairs.
    let control_recvs = trace
        .iter()
        .filter(|e| e.logged && matches!(e.kind, EventKind::Recv { .. }))
        .count();
    assert_eq!(control_recvs, 2, "prepare + ack");
}

/// Sleeps `spans.len()` times, each for the given duration, then exits.
struct Napper {
    spans: Vec<u64>,
    i: usize,
}

impl App for Napper {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        if self.i < self.spans.len() {
            sys.compute(self.spans[self.i]);
            self.i += 1;
            Ok(AppStatus::Running)
        } else {
            Ok(AppStatus::Done)
        }
    }
}

/// Fast-forwarding over an idle span costs O(1) queue operations,
/// independent of the span's length: a run that sleeps ~39 hours per step
/// performs exactly as many queue ops as one sleeping 1 ms per step
/// (entries land on higher wheel levels, not on longer scan paths).
#[test]
fn idle_span_queue_cost_is_span_independent() {
    let ops_for = |span: u64| {
        let mut sim = Simulator::new(SimConfig::single_node(1, 1));
        let mut app = Napper {
            spans: vec![span; 32],
            i: 0,
        };
        let mut mems = vec![Mem::new(app.layout())];
        drive(&mut sim, &mut [&mut app], &mut mems, |_, _| {});
        assert!(sim.now() >= 32 * span, "slept through every span");
        sim.queue_ops()
    };
    let short = ops_for(MS);
    let long = ops_for(1 << 47); // ~39 hours of simulated time per nap
    assert_eq!(short, long, "queue ops must not scale with idle-span size");
}

// ---------------------------------------------------------------------
// Kernel-panic timing: when a node's processes learn that its kernel
// halted. Pinned here because `finish_step` polls only the kernels that
// were handed out mutably since its last poll, and these are the
// observable consequences it must keep.
// ---------------------------------------------------------------------

/// One syscall and a millisecond of compute per step, forever.
struct Ticker;

impl App for Ticker {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        sys.gettimeofday();
        sys.compute(MS);
        Ok(AppStatus::Running)
    }
}

/// Blocks on a message nobody sends: never scheduled again on its own.
struct Sleeper;

impl App for Sleeper {
    fn step(&mut self, _: &mut dyn SysMem) -> MemResult<AppStatus> {
        Ok(AppStatus::Blocked(WaitCond::message()))
    }
}

/// A `Ticker` on node 0 and a `Sleeper` on each of `sleepers` further
/// nodes, with every sleeper already parked.
struct PanicRig {
    sim: Simulator,
    mems: Vec<Mem>,
}

impl PanicRig {
    fn new(sleepers: usize) -> Self {
        let n = 1 + sleepers;
        let mut rig = PanicRig {
            sim: Simulator::new(SimConfig::one_node_each(n, 5)),
            mems: (0..n).map(|_| Mem::new(Ticker.layout())).collect(),
        };
        // Every process is runnable at t = 0; park the sleepers.
        for _ in 0..n {
            rig.next();
        }
        rig
    }

    /// Handles the next wake: runs the step it names and returns
    /// `(wake, instant the step ends)`, or `(wake, now)` for a kill.
    fn next(&mut self) -> (Wake, u64) {
        let wake = self.sim.next_wake().expect("the ticker never finishes");
        let Wake::Step(pid) = wake else {
            return (wake, self.sim.now());
        };
        let mut ctx = self.sim.ctx(pid);
        let mut sys = PlainSys::new(&mut ctx, &mut self.mems[pid.index()]);
        let st = if pid == ProcessId(0) {
            Ticker.step(&mut sys)
        } else {
            Sleeper.step(&mut sys)
        };
        let el = ctx.elapsed();
        let end = self.sim.now() + el;
        self.sim.finish_step(pid, st, el);
        (wake, end)
    }
}

#[test]
fn a_panic_from_outside_kills_the_node_at_the_end_of_the_next_step() {
    let mut rig = PanicRig::new(1);
    assert_eq!(rig.next().0, Wake::Step(ProcessId(0)));
    // Between steps, from outside any syscall context.
    rig.sim.kernel_of_mut(ProcessId(1)).panic_now();
    let (wake, end) = rig.next();
    assert_eq!(wake, Wake::Step(ProcessId(0)), "only node 0 is running");
    // The kill was queued behind the ticker's own reschedule, both at the
    // instant that step ended.
    assert_eq!(rig.next().0, Wake::Step(ProcessId(0)));
    assert_eq!(rig.sim.now(), end);
    assert_eq!(rig.next(), (Wake::Killed(ProcessId(1)), end));
    assert!(rig.sim.is_crashed(ProcessId(1)));
    // Once per panic: the halted node is not killed again.
    for _ in 0..8 {
        assert_eq!(rig.next().0, Wake::Step(ProcessId(0)));
    }
}

#[test]
fn a_corruption_budget_running_out_kills_the_node_at_that_steps_end() {
    let mut rig = PanicRig::new(0);
    rig.sim.kernel_of_mut(ProcessId(0)).arm_corruption(0, 2);
    // Two corrupted results, then the third syscall halts the kernel.
    let mut end = 0;
    for _ in 0..3 {
        assert!(!rig.sim.kernel_of(ProcessId(0)).panicked());
        let (wake, e) = rig.next();
        assert_eq!(wake, Wake::Step(ProcessId(0)));
        end = e;
    }
    assert!(rig.sim.kernel_of(ProcessId(0)).panicked());
    // The step's own reschedule is stale by the time the kill lands.
    assert_eq!(rig.next().0, Wake::Step(ProcessId(0)));
    assert_eq!(rig.next(), (Wake::Killed(ProcessId(0)), end));
}

#[test]
fn nodes_panicked_between_the_same_two_steps_die_in_ascending_node_order() {
    let mut rig = PanicRig::new(3);
    // Handed out in descending order.
    rig.sim.kernel_of_mut(ProcessId(3)).panic_now();
    rig.sim.kernel_of_mut(ProcessId(1)).panic_now();
    rig.sim.kernel_of_mut(ProcessId(2)).panic_now();
    let (_, end) = rig.next();
    assert_eq!(rig.next().0, Wake::Step(ProcessId(0)));
    for node in 1..=3 {
        assert_eq!(rig.next(), (Wake::Killed(ProcessId(node)), end));
    }
}

#[test]
fn restore_kernel_re_arms_the_panic_check() {
    let mut rig = PanicRig::new(1);
    let victim = ProcessId(1);
    let snap = rig.sim.kernel_of(victim).snapshot();
    for round in 0..3 {
        rig.sim.kernel_of_mut(victim).panic_now();
        let (_, end) = rig.next();
        assert_eq!(rig.next().0, Wake::Step(ProcessId(0)));
        assert_eq!(rig.next(), (Wake::Killed(victim), end), "round {round}");
        rig.sim.restore_kernel(victim, &snap);
        assert!(!rig.sim.kernel_of(victim).panicked());
        rig.sim.respawn(victim, 0);
        // The sleeper parks again (its wake may come before or after the
        // ticker's, which is a millisecond out).
        while rig.next().0 != Wake::Step(victim) {}
    }
}

/// The width gate: a step polls its own node's kernel and whichever
/// others were handed out from outside since the last step — never the
/// cluster. Failure-free kvstore, one node per process, at two widths.
#[test]
fn kernel_polls_per_step_do_not_grow_with_the_cluster() {
    use ft_apps::kvstore::{self, KvParams};

    for (shards, gateways) in [(3, 3), (334, 6)] {
        let params = KvParams {
            shards,
            replication: 3,
            gateways,
            requests_per_gateway: 40,
            ..KvParams::small(17)
        };
        let n = params.n_processes();
        assert!(n == 12 || n == 1008);
        let mut sim = Simulator::new(SimConfig::one_node_each(n, params.seed));
        let mut apps = kvstore::cluster(&params);
        let mut mems: Vec<Mem> = apps.iter().map(|a| Mem::new(a.layout())).collect();
        let mut steps = 0u64;
        let mut outside = 0u64;
        while let Some(wake) = sim.next_wake() {
            let Wake::Step(pid) = wake else {
                panic!("failure-free run killed {wake:?}");
            };
            // Every seventh step something outside the step reaches for
            // two kernels (a fault injector's view of the simulator).
            let handed_out = if steps % 7 == 3 { 2 } else { 0 };
            for k in 0..handed_out {
                let other = ProcessId::from_index((pid.index() + 1 + k) % n);
                let _ = sim.kernel_of_mut(other).corrupting();
            }
            let before = sim.kernel_polls();
            let mut ctx = sim.ctx(pid);
            let mut sys = PlainSys::new(&mut ctx, &mut mems[pid.index()]);
            let st = apps[pid.index()].step(&mut sys);
            let el = ctx.elapsed();
            sim.finish_step(pid, st, el);
            let polled = sim.kernel_polls() - before;
            assert!(
                polled <= 1 + handed_out as u64,
                "step {steps} of {n} processes polled {polled} kernels"
            );
            steps += 1;
            outside += handed_out as u64;
        }
        assert!((0..n).all(|p| sim.is_done(ProcessId::from_index(p))));
        assert!(steps > 4 * n as u64, "every process ran: {steps} steps");
        assert!(sim.kernel_polls() <= steps + outside);
    }
}
