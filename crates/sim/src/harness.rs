//! The plain harness: runs applications with **no** recovery runtime.
//!
//! This is the "unrecoverable version of the application" Figure 8 compares
//! against — same simulator, same costs, but no interposition, no commits,
//! no copy-on-write charges. It is also the reference-run generator for the
//! consistent-recovery checker: a failure-free plain run yields the visible
//! sequence a recovered run must be equivalent to.

use ft_core::event::ProcessId;
use ft_core::trace::Trace;
use ft_mem::mem::Mem;

use crate::cost::SimTime;
use crate::sim::{SimConfig, Simulator, SysCtx, Wake};
use crate::syscalls::{App, Message, Payload, SysMem, SysResult, Syscalls};

/// A raw syscall context paired with the process's memory.
pub struct PlainSys<'a, 'b> {
    ctx: &'a mut SysCtx<'b>,
    mem: &'a mut Mem,
}

impl<'a, 'b> PlainSys<'a, 'b> {
    /// Pairs a syscall context with a memory image.
    pub fn new(ctx: &'a mut SysCtx<'b>, mem: &'a mut Mem) -> Self {
        PlainSys { ctx, mem }
    }
}

impl Syscalls for PlainSys<'_, '_> {
    fn pid(&self) -> ProcessId {
        self.ctx.pid()
    }
    fn now(&self) -> SimTime {
        self.ctx.now()
    }
    fn compute(&mut self, ns: SimTime) {
        self.ctx.compute(ns);
    }
    fn gettimeofday(&mut self) -> SimTime {
        self.ctx.gettimeofday()
    }
    fn random(&mut self) -> u64 {
        self.ctx.random()
    }
    fn read_input(&mut self) -> Option<Payload> {
        self.ctx.read_input()
    }
    fn input_exhausted(&self) -> bool {
        self.ctx.input_exhausted()
    }
    fn send(&mut self, to: ProcessId, payload: &[u8]) -> SysResult<()> {
        self.ctx.send(to, payload)
    }
    fn try_recv(&mut self) -> Option<Message> {
        self.ctx.try_recv()
    }
    fn visible(&mut self, token: u64) {
        self.ctx.visible(token);
    }
    fn take_signal(&mut self) -> Option<u32> {
        self.ctx.take_signal()
    }
    fn open(&mut self, name: &str) -> SysResult<u32> {
        self.ctx.open(name)
    }
    fn write_file(&mut self, fd: u32, bytes: &[u8]) -> SysResult<()> {
        self.ctx.write_file(fd, bytes)
    }
    fn read_file(&mut self, fd: u32, len: usize) -> SysResult<Vec<u8>> {
        self.ctx.read_file(fd, len)
    }
    fn close(&mut self, fd: u32) -> SysResult<()> {
        self.ctx.close(fd)
    }
    fn note_fault_activation(&mut self, fault: u32) {
        self.ctx.note_fault_activation(fault);
    }
    fn shm_op(&mut self, op: ft_core::access::ShmOp) {
        self.ctx.shm_op(op);
    }

    fn scratch(&mut self) -> &mut Vec<u8> {
        self.ctx.scratch()
    }
}

impl SysMem for PlainSys<'_, '_> {
    fn mem(&mut self) -> &mut Mem {
        self.mem
    }
}

/// Result of a plain run.
#[derive(Debug)]
pub struct PlainReport {
    /// Recorded event trace.
    pub trace: Trace,
    /// Visible outputs in real-time order: (time, process, token).
    pub visibles: Vec<(SimTime, ProcessId, u64)>,
    /// Final simulated time.
    pub runtime: SimTime,
    /// True if every process ran to completion.
    pub all_done: bool,
    /// Final contents of node 0's files (inspection). Determinism: tests
    /// look files up by name and compare maps with the order-insensitive
    /// `PartialEq`; the map is never iterated into ordered output.
    pub files: std::collections::HashMap<String, Vec<u8>>,
    /// DSM shared-memory access stream (empty for non-DSM workloads).
    pub shm: ft_core::access::ShmLog,
}

/// Runs `apps` to completion (or deadlock) with no recovery, on a
/// pre-configured simulator (input scripts, signal schedules, kill times
/// already installed); killed or crashed processes simply stay dead.
pub fn run_plain_on(mut sim: Simulator, apps: &mut [Box<dyn App>]) -> PlainReport {
    let sim = &mut sim;
    let mut mems: Vec<Mem> = apps.iter().map(|a| Mem::new(a.layout())).collect();
    while let Some(wake) = sim.next_wake() {
        match wake {
            Wake::Step(pid) => {
                let p = pid.index();
                let mut ctx = sim.ctx(pid);
                let mut sys = PlainSys {
                    ctx: &mut ctx,
                    mem: &mut mems[p],
                };
                let st = apps[p].step(&mut sys);
                let el = ctx.elapsed();
                sim.finish_step(pid, st, el);
            }
            Wake::Killed(_) => {
                // No recovery: the process stays dead.
            }
        }
    }
    let all_done = (0..apps.len()).all(|p| sim.is_done(ProcessId::from_index(p)));
    let now = sim.now();
    let files = if apps.is_empty() {
        Default::default()
    } else {
        sim.kernel_of(ProcessId(0)).files_snapshot()
    };
    let shm = sim.take_shm_log();
    let (trace, visibles, _) =
        std::mem::replace(sim, Simulator::new(SimConfig::single_node(0, 0))).finish();
    PlainReport {
        trace,
        visibles,
        runtime: now,
        all_done,
        files,
        shm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::InputScript;
    use crate::syscalls::{AppStatus, WaitCond};
    use crate::MS;
    use ft_mem::error::MemResult;
    use ft_mem::mem::ArenaCell;

    /// Counts inputs in an arena cell and echoes them.
    struct CellEcho;

    impl App for CellEcho {
        fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
            let count: ArenaCell<u64> = ArenaCell::at(0);
            if let Some(bytes) = sys.read_input() {
                let m = sys.mem();
                let c = count.get(&m.arena)? + 1;
                count.set(&mut m.arena, c)?;
                sys.visible(bytes[0] as u64 + c);
                Ok(AppStatus::Running)
            } else if sys.input_exhausted() {
                Ok(AppStatus::Done)
            } else {
                Ok(AppStatus::Blocked(WaitCond::input()))
            }
        }
    }

    #[test]
    fn plain_run_completes_and_reports() {
        let mut sim = Simulator::new(SimConfig::single_node(1, 1));
        sim.set_input_script(
            ProcessId(0),
            InputScript::evenly_spaced(0, MS, vec![vec![1], vec![2]]),
        );
        let mut apps: Vec<Box<dyn App>> = vec![Box::new(CellEcho)];
        let report = run_plain_on(sim, &mut apps);
        assert!(report.all_done);
        assert_eq!(report.visibles.len(), 2);
        assert_eq!(report.visibles[0].2, 2); // 1 + count 1.
        assert_eq!(report.visibles[1].2, 4); // 2 + count 2.
        assert!(report.runtime >= MS);
    }

    #[test]
    fn killed_process_stays_dead_without_recovery() {
        let mut sim = Simulator::new(SimConfig::single_node(1, 2));
        sim.set_input_script(
            ProcessId(0),
            InputScript::evenly_spaced(0, MS, (0..10).map(|i| [i])),
        );
        sim.kill_at(ProcessId(0), 4 * MS + 1);
        let mut apps: Vec<Box<dyn App>> = vec![Box::new(CellEcho)];
        let report = run_plain_on(sim, &mut apps);
        assert!(!report.all_done);
        assert!(report.visibles.len() < 10);
    }
}
