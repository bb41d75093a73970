//! Focused runtime tests: committed-snapshot contents, kernel
//! reconstruction, pending-nd capture, and file-state recovery.

#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test inputs are tiny by construction (seed counts, page numbers, probe offsets), so index-type narrowing cannot truncate"
)]

use ft_core::event::ProcessId;
use ft_core::protocol::Protocol;
use ft_dc::harness::DcHarness;
use ft_dc::state::DcConfig;
use ft_mem::error::MemResult;
use ft_mem::mem::ArenaCell;
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

fn build(seed: u64, n: usize) -> (Simulator, Vec<Box<dyn App>>) {
    let mut sim = Simulator::new(SimConfig::single_node(1, seed));
    sim.set_input_script(
        ProcessId(0),
        InputScript::evenly_spaced(0, MS, (0..n).map(|i| vec![b'a' + (i % 26) as u8]).collect()),
    );
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
    use ft_dc::runtime::DcRuntime;
    use ft_mem::mem::Mem;

    let mut sim = Simulator::new(SimConfig::single_node(1, 1));
    sim.set_input_script(
        ProcessId(0),
        InputScript::evenly_spaced(0, MS, vec![vec![1], vec![2]]),
    );
    let mems = vec![Mem::new(ft_mem::arena::Layout::small())];
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
    use ft_dc::runtime::DcRuntime;
    use ft_dc::state::CommitKill;
    use ft_mem::arena::{CommitCrashPoint, Layout};
    use ft_mem::mem::Mem;
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
        cfg.commit_kill = Some(CommitKill {
            pid: pid.0,
            nth: 0,
            point,
        });
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
