//! Focused runtime tests: committed-snapshot contents, kernel
//! reconstruction, pending-nd capture, file-state recovery, how the
//! harness executes a kill schedule of several entries, where it arms
//! a kernel fault, and where a coordinated round leaves each participant.

#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test inputs are tiny by construction (seed counts, page numbers, probe offsets), so index-type narrowing cannot truncate"
)]

use ft_core::event::ProcessId;
use ft_core::protocol::{DepSet, Protocol};
use ft_dc::fingerprint::report_fingerprint;
use ft_dc::harness::{DcHarness, DcReport};
use ft_dc::runtime::DcRuntime;
use ft_dc::state::DcConfig;
use ft_faults::crash::{CrashPoint, Fault};
use ft_mem::arena::Layout;
use ft_mem::error::MemResult;
use ft_mem::mem::{ArenaCell, Mem};
use ft_sim::harness::run_plain_on;
use ft_sim::script::InputScript;
use ft_sim::sim::{SimConfig, Simulator};
use ft_sim::syscalls::{App, AppStatus, SysMem, WaitCond};
use ft_sim::MS;

/// Writes each input byte to a file, then echoes a running file checksum
/// read *back* from the kernel — so recovered kernel file state is
/// directly observable in the visible output.
struct FileEcho;

const PHASE: ArenaCell<u64> = ArenaCell::at(0);
const FD: ArenaCell<u64> = ArenaCell::at(8);
const STAGED: ArenaCell<u64> = ArenaCell::at(16);
const WRITTEN: ArenaCell<u64> = ArenaCell::at(24);

impl App for FileEcho {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        match PHASE.get(&sys.mem().arena)? {
            0 => {
                let fd = sys.open("journal").expect("open");
                let m = sys.mem();
                FD.set(&mut m.arena, fd as u64)?;
                PHASE.set(&mut m.arena, 1)?;
                Ok(AppStatus::Running)
            }
            1 => {
                if let Some(bytes) = sys.read_input() {
                    let m = sys.mem();
                    STAGED.set(&mut m.arena, bytes[0] as u64)?;
                    PHASE.set(&mut m.arena, 2)?;
                    Ok(AppStatus::Running)
                } else if sys.input_exhausted() {
                    Ok(AppStatus::Done)
                } else {
                    Ok(AppStatus::Blocked(WaitCond::input()))
                }
            }
            2 => {
                let fd = FD.get(&sys.mem().arena)? as u32;
                let k = STAGED.get(&sys.mem().arena)? as u8;
                sys.write_file(fd, &[k]).expect("write");
                let m = sys.mem();
                let w = WRITTEN.get(&m.arena)? + 1;
                WRITTEN.set(&mut m.arena, w)?;
                PHASE.set(&mut m.arena, 3)?;
                Ok(AppStatus::Running)
            }
            3 => {
                // Read the journal's new bytes back (read_file advances
                // the kernel file position — it is this step's one
                // state-mutating syscall) and stash a checksum.
                let fd = FD.get(&sys.mem().arena)? as u32;
                let w = WRITTEN.get(&sys.mem().arena)?;
                let data = sys.read_file(fd, 4096).expect("read");
                let mut h = ft_mem::FNV_OFFSET ^ w;
                for b in &data {
                    h ^= *b as u64;
                    h = h.wrapping_mul(ft_mem::FNV_PRIME);
                }
                h ^= data.len() as u64;
                let m = sys.mem();
                STAGED.set(&mut m.arena, h)?;
                PHASE.set(&mut m.arena, 4)?;
                Ok(AppStatus::Running)
            }
            _ => {
                // Echo the checksum: if recovery mangled kernel file state
                // (duplicate or missing appends, a wrong file position),
                // the token diverges from the reference run.
                let h = STAGED.get(&sys.mem().arena)?;
                sys.visible(h);
                PHASE.set(&mut sys.mem().arena, 1)?;
                Ok(AppStatus::Running)
            }
        }
    }
}

fn keys(n: usize) -> InputScript {
    InputScript::evenly_spaced(0, MS, (0..n).map(|i| vec![b'a' + (i % 26) as u8]).collect())
}

fn build(seed: u64, n: usize) -> (Simulator, Vec<Box<dyn App>>) {
    let mut sim = Simulator::new(SimConfig::single_node(1, seed));
    sim.set_input_script(ProcessId(0), keys(n));
    (sim, vec![Box::new(FileEcho)])
}

// A quirk of reading the file back: `read_file` advances the kernel file
// position, which is itself kernel state the snapshot covers — so this
// workload stresses position recovery too.

#[test]
fn kernel_file_state_recovers_exactly() {
    let (sim, mut apps) = build(3, 25);
    let reference = run_plain_on(sim, &mut apps);
    assert!(reference.all_done);
    let ref_tokens: Vec<u64> = reference.visibles.iter().map(|&(_, _, t)| t).collect();

    for kill_ms in [3u64, 7, 11, 16, 21] {
        let (mut sim, apps) = build(3, 25);
        sim.kill_at(ProcessId(0), kill_ms * MS + 137_000);
        let report = DcHarness::new(sim, DcConfig::discount_checking(Protocol::Cpvs), apps).run();
        assert!(report.all_done, "kill@{kill_ms}ms");
        let verdict =
            ft_core::consistency::check_consistent_recovery(&report.visible_tokens(), &ref_tokens);
        assert!(
            verdict.consistent,
            "kill@{kill_ms}ms: {:?} — kernel file state diverged",
            verdict.error
        );
    }
}

#[test]
fn pending_nd_capture_under_cand_covers_file_ops() {
    // CAND commits after open and write (fixed nd): killing right after
    // those commits must replay the stored results without re-executing
    // the kernel effect (no duplicate appends).
    let (sim, mut apps) = build(5, 15);
    let reference = run_plain_on(sim, &mut apps);
    let ref_tokens: Vec<u64> = reference.visibles.iter().map(|&(_, _, t)| t).collect();
    for k in 1..30u64 {
        let (mut sim, apps) = build(5, 15);
        sim.kill_at(ProcessId(0), k * 530_000);
        let report = DcHarness::new(sim, DcConfig::discount_checking(Protocol::Cand), apps).run();
        assert!(report.all_done, "kill #{k}");
        let verdict =
            ft_core::consistency::check_consistent_recovery(&report.visible_tokens(), &ref_tokens);
        assert!(verdict.consistent, "kill #{k}: {:?}", verdict.error);
    }
}

#[test]
fn committed_snapshot_contents_are_coherent() {
    let mut sim = Simulator::new(SimConfig::single_node(1, 1));
    sim.set_input_script(
        ProcessId(0),
        InputScript::evenly_spaced(0, MS, vec![vec![1], vec![2]]),
    );
    let mems = vec![Mem::new(Layout::small())];
    let mut rt = DcRuntime::new(DcConfig::discount_checking(Protocol::Cpvs), &sim, mems);
    let pid = ProcessId(0);

    // Mutate, commit, mutate again, recover: the arena must match the
    // committed image and the cursors the simulator's state.
    rt.state_mut(pid)
        .mem
        .arena
        .write(100, b"committed")
        .unwrap();
    let mut ctx = sim.ctx(pid);
    rt.local_commit(&mut ctx, None);
    assert!(ctx.elapsed() > 0);
    rt.state_mut(pid)
        .mem
        .arena
        .write(100, b"scratched")
        .unwrap();
    let rolled = rt.recover(pid, &mut sim);
    assert_eq!(rolled, vec![pid]);
    assert_eq!(rt.state(pid).mem.arena.read(100, 9).unwrap(), b"committed");
    // The snapshot holds the position just past its commit event; the
    // rollback event refers back to it.
    assert_eq!(rt.state(pid).committed.trace_pos, 1);
}

#[test]
fn a_mid_commit_kill_ends_the_steps_commits() {
    use ft_dc::dcsys::DcSys;
    use ft_mem::arena::CommitCrashPoint;
    use ft_sim::syscalls::Syscalls;

    // COMMIT-ALL commits at every interposition point, so a step of
    // several event syscalls reaches several commit points. The first is
    // torn; the rest belong to a dead process and must not happen — under
    // either interposition rule (`random`/`open` are nd, `visible`/`close`
    // go through `around`).
    for point in CommitCrashPoint::ALL {
        let mut sim = Simulator::new(SimConfig::single_node(1, 1));
        let mut cfg = DcConfig::discount_checking(Protocol::CommitAll);
        let pid = ProcessId(0);
        cfg.faults = vec![Fault::Kill(CrashPoint::InCommit {
            pid: pid.0,
            nth: 0,
            point,
        })];
        let mut rt = DcRuntime::new(cfg, &sim, vec![Mem::new(Layout::small())]);
        let mut ctx = sim.ctx(pid);

        DcSys::new(&mut ctx, &mut rt).gettimeofday();
        assert!(ctx.step_killed(), "{point}: the first commit is the kill");
        // A pre-log crash means the commit never happened.
        let committed = u64::from(point != CommitCrashPoint::PreLog);
        let after_kill = (
            rt.state(pid).stats.commits,
            rt.state(pid).committed.trace_pos,
            rt.commit_points(pid),
            ctx.sim().trace_position(pid),
        );
        assert_eq!((after_kill.0, after_kill.2), (committed, 1), "{point}");

        let mut sys = DcSys::new(&mut ctx, &mut rt);
        sys.random();
        sys.visible(7);
        let fd = sys.open("f").expect("suppressed");
        sys.close(fd).expect("suppressed");
        assert_eq!(
            (
                rt.state(pid).stats.commits,
                rt.state(pid).committed.trace_pos,
                rt.commit_points(pid),
                ctx.sim().trace_position(pid),
            ),
            after_kill,
            "{point}: a dead process committed again"
        );
        drop(ctx);
        let (trace, visibles, _) = sim.finish();
        let commits = trace.iter().filter(|e| e.kind.is_commit()).count() as u64;
        assert_eq!(commits, committed, "{point}");
        assert!(visibles.is_empty(), "{point}");
    }
}

/// Two `FileEcho`s on nodes of their own, typing `n0` and `n1` keys, run
/// under CPVS with the kill schedule `kills`.
fn run_pair(n0: usize, n1: usize, kills: &[CrashPoint]) -> DcReport {
    let mut sim = Simulator::new(SimConfig::one_node_each(2, 3));
    sim.set_input_script(ProcessId(0), keys(n0));
    sim.set_input_script(ProcessId(1), keys(n1));
    let mut cfg = DcConfig::discount_checking(Protocol::Cpvs);
    cfg.faults = kills.iter().copied().map(Fault::Kill).collect();
    DcHarness::new(sim, cfg, vec![Box::new(FileEcho), Box::new(FileEcho)]).run()
}

/// The pids of the run's crash markers, in recording order.
fn crashes(report: &DcReport) -> Vec<u32> {
    let crashed = report.trace.recorded().filter(|e| e.kind.is_crash());
    crashed.map(|e| e.id.pid.0).collect()
}

/// The recovered run completed and its visibles are those of the
/// failure-free run of the same shape, up to duplicates.
fn assert_recovered(report: &DcReport, reference: &DcReport) {
    assert!(report.all_done && report.abandoned == 0);
    let verdict = ft_core::consistency::check_consistent_recovery(
        &report.visible_tokens(),
        &reference.visible_tokens(),
    );
    assert!(verdict.consistent, "{:?}", verdict.error);
}

#[test]
fn two_position_kills_on_one_process_fire_once_each_the_second_in_re_execution() {
    let reference = run_pair(12, 0, &[]);
    // Kill p0 just before a commit that follows at least two uncommitted
    // events, so recovery owes re-execution.
    let events = reference.trace.process(ProcessId(0));
    let commits: Vec<usize> = (0..events.len())
        .filter(|&i| events[i].kind.is_commit())
        .collect();
    let first = commits
        .windows(2)
        .find(|w| w[1] - w[0] > 2)
        .expect("a commit after two uncommitted events")[1] as u64;
    // Crash marker, rollback marker, one re-executed event: the second
    // kill falls due inside re-execution, before the process catches up.
    let second = first + 3;
    let report = run_pair(
        12,
        0,
        &[
            CrashPoint::AtPosition { pid: 0, pos: first },
            CrashPoint::AtPosition {
                pid: 0,
                pos: second,
            },
        ],
    );
    assert_recovered(&report, &reference);
    let p0 = report.trace.process(ProcessId(0));
    let crash_seqs: Vec<u64> = p0
        .iter()
        .filter(|e| e.kind.is_crash())
        .map(|e| e.id.seq)
        .collect();
    assert_eq!(crash_seqs.len(), 2, "each entry fires once");
    assert_eq!(crash_seqs[0], first);
    assert!(crash_seqs[1] >= second, "{crash_seqs:?}");
    assert_eq!(report.totals.recoveries, 2);
    // One incident: a crash before catch-up folds into the open one, so
    // the second kill did land in re-execution.
    assert_eq!(report.incidents.len(), 1);
}

#[test]
fn time_kills_due_at_one_wake_fire_at_its_now_in_list_order() {
    let reference = run_pair(12, 12, &[]);
    let t = 5 * MS + 1;
    for order in [[1, 0], [0, 1]] {
        let kills = order.map(|pid| CrashPoint::AtTime { pid, t });
        let report = run_pair(12, 12, &kills);
        assert_recovered(&report, &reference);
        assert_eq!(crashes(&report), order);
        let at: Vec<u64> = report.incidents.iter().map(|i| i.crash_at).collect();
        assert_eq!(at.len(), 2);
        assert!(at[0] == at[1] && at[0] >= t, "{at:?}");
    }
}

#[test]
fn kills_on_a_finished_process_are_dropped() {
    // p0 types 3 keys and is done by 4 ms; p1 keeps waking until 12 ms.
    let reference = run_pair(3, 12, &[]);
    let report = run_pair(
        3,
        12,
        &[
            CrashPoint::AtTime { pid: 0, t: 8 * MS },
            CrashPoint::AtPosition { pid: 0, pos: 1_000 },
        ],
    );
    assert!(crashes(&report).is_empty());
    assert!(report.incidents.is_empty());
    assert_eq!(report_fingerprint(&report), report_fingerprint(&reference));
}

#[test]
fn a_mixed_commit_and_position_schedule_fires_both() {
    let reference = run_pair(12, 0, &[]);
    let report = run_pair(
        12,
        0,
        &[
            CrashPoint::InCommit {
                pid: 0,
                nth: 2,
                point: ft_mem::arena::CommitCrashPoint::MidUndoWalk,
            },
            CrashPoint::AtPosition { pid: 0, pos: 40 },
        ],
    );
    assert_recovered(&report, &reference);
    assert_eq!(crashes(&report), [0, 0]);
    assert_eq!(report.totals.recoveries, 2);
}

#[test]
fn a_kernel_fault_is_armed_inside_the_initial_snapshot() {
    // The harness arms a kernel entry before the runtime snapshots each
    // process, so the initial commit — what a rollback to it restores —
    // holds the armed corruption, as when the fault was armed on the
    // simulator before the harness existed. The rollback's reboot then
    // clears it on the live kernel.
    let mut sim = Simulator::new(SimConfig::single_node(1, 3));
    sim.set_input_script(ProcessId(0), keys(4));
    let mut cfg = DcConfig::discount_checking(Protocol::Cpvs);
    cfg.faults.push(Fault::Kernel {
        pid: 0,
        fault: ft_faults::FaultType::DeleteBranch,
        at: 2 * MS,
        corrupt_calls: 3,
        propagate: true,
    });
    let mut h = DcHarness::new(sim, cfg, vec![Box::new(FileEcho)]);
    let pid = ProcessId(0);
    assert!(h.sim.kernel_of(pid).corrupting());
    let mut restored = ft_sim::Kernel::new(8, 1000, 0);
    restored.restore(&h.rt.state(pid).committed.kernel);
    assert!(restored.corrupting(), "the initial snapshot lost the fault");
    assert_eq!(h.rt.recover(pid, &mut h.sim), [pid]);
    assert!(!h.sim.kernel_of(pid).corrupting());
}

#[test]
fn a_round_commits_each_participant_just_past_its_own_commit_event() {
    // P1 coordinates among four processes. It depends on P0, which
    // depends on P3: CBNDV-2PC commits that closure, CPV-2PC everyone.
    // The recorder journals one prepare per remote on the coordinator
    // and one on each remote before the commit events, so a position
    // that ignored them would stop short of the commit.
    let pid = ProcessId::from_index;
    let me = pid(1);
    for (protocol, round) in [
        (Protocol::Cbndv2pc, vec![0, 1, 3]),
        (Protocol::Cpv2pc, vec![0, 1, 2, 3]),
    ] {
        let mut sim = Simulator::new(SimConfig::one_node_each(4, 1));
        let mems = (0..4).map(|_| Mem::new(Layout::small())).collect();
        let mut rt = DcRuntime::new(DcConfig::discount_checking(protocol), &sim, mems);
        // A different prefix per process: no two positions coincide.
        for p in 0..4 {
            for _ in 0..p {
                sim.tracer_mut().internal(pid(p));
            }
        }
        for (on, dep) in [(1, 0), (0, 3)] {
            let mut deps = DepSet::new();
            deps.insert(dep);
            rt.state_mut(pid(on)).tracker.on_recv(&deps, true);
        }
        rt.coordinated_commit(&mut sim.ctx(me));
        let (trace, _, _) = sim.finish();
        for p in 0..4 {
            let commit = trace.process(pid(p)).iter().find(|e| e.kind.is_commit());
            assert_eq!(commit.is_some(), round.contains(&p), "{protocol}: P{p}");
            assert_eq!(
                rt.state(pid(p)).committed.trace_pos,
                commit.map_or(0, |e| e.id.seq + 1),
                "{protocol}: P{p} restores to just past its commit event"
            );
        }
    }
}
