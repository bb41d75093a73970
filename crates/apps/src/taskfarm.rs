//! A TreadMarks work-queue workload: TSP-style self-scheduling over a
//! lock-protected task counter.
//!
//! The paper's TreadMarks applications synchronize with locks as well as
//! barriers; this workload exercises the lock path the way TreadMarks'
//! TSP does — a shared `next_task` counter that every worker bumps inside
//! a critical section, with the actual work (and its result writes) done
//! outside the lock, merged later by the multiple-writer protocol.
//!
//! Execution profile, in the §3 taxonomy: copious sends and receives
//! (grant chains plus the closing barrier), compute-bound between
//! claims, and exactly one visible event per node — the checksum line.
//! Like Barnes-Hut, it is the kind of application where commit-per-message
//! protocols drown and two-phase commit wins.
//!
//! The flow honors entry consistency end to end: results written outside
//! the lock ride to the manager with the *next* release; a worker enters
//! the closing barrier only after that release, so barrier completion
//! implies every result has reached the manager's accumulated write
//! notices; the final checksum is read inside one last critical section,
//! whose grant therefore carries every result.

use ft_core::event::ProcessId;
use ft_dsm::lock::LockStatus;
use ft_dsm::{BarrierStatus, Dsm};
use ft_mem::arena::Layout;
use ft_mem::error::MemResult;
use ft_mem::mem::ArenaCell;
use ft_sim::cost::US;
use ft_sim::syscalls::{AppStatus, SysMem, WaitCond};
use ft_sim::App;

/// Tasks in the farm.
const N_TASKS: u64 = 24;
/// Work-queue lock id.
const LOCK: u32 = 0;

// Shared region layout: page 0 holds the queue state, page 1 the results.
const R_NEXT: usize = 0;
const R_RESULT: usize = 1024;

const LAYOUT: Layout = Layout {
    globals_pages: 1,
    stack_pages: 2,
    heap_pages: 16,
};

// Globals.
const G_PHASE: ArenaCell<u64> = ArenaCell::at(0);
const G_INIT: ArenaCell<u64> = ArenaCell::at(8);
const G_TASK: ArenaCell<u64> = ArenaCell::at(16);
const G_MODE: ArenaCell<u64> = ArenaCell::at(24);
const G_SUM: ArenaCell<u64> = ArenaCell::at(32);

// Phases.
const P_INIT: u64 = 0;
const P_ACQ: u64 = 1;
const P_CS: u64 = 2;
const P_REL: u64 = 3;
const P_WORK: u64 = 4;
const P_BARRIER: u64 = 5;
const P_FINAL_ACQ: u64 = 6;
const P_FINAL_CS: u64 = 7;
const P_FINAL_REL: u64 = 8;
const P_VIS: u64 = 9;
const P_DONE: u64 = 10;

// What to do after the release (stored in G_MODE).
const MODE_WORK: u64 = 0;
const MODE_BARRIER: u64 = 1;

/// One worker of the task farm. Process ids `0..n_workers` are workers;
/// `n_workers` must run a [`ft_dsm::lock::ManagerApp`] with
/// [`expected_releases`](TaskFarm::expected_releases) releases.
pub struct TaskFarm {
    /// This worker's DSM endpoint (which also names the worker and the
    /// worker count; the manager is process `n_workers`), attached when
    /// the worker is built.
    dsm: Dsm,
    /// Seeded mutation for the `ft-analyze` self-test: peek at the
    /// lock-protected task counter *outside* the critical section. The
    /// peeked value is discarded, so results and visibles are unchanged —
    /// but the access is a genuine entry-consistency violation that both
    /// the happens-before and the lockset passes must flag.
    pub racy_read: bool,
}

impl TaskFarm {
    /// The lock-manager process id for a farm of `n_workers`.
    pub fn manager(n_workers: u32) -> ProcessId {
        ProcessId(n_workers)
    }

    /// Releases the manager must service before exiting: one per task
    /// claim, one empty claim per worker, one final checksum read per
    /// worker.
    pub fn expected_releases(n_workers: u32) -> u64 {
        N_TASKS + 2 * n_workers as u64
    }

    /// Worker `my` of `n_workers`.
    ///
    /// # Panics
    ///
    /// Panics if `n_workers` stashes do not fit the worker's heap.
    pub fn new(my: u32, n_workers: u32, racy_read: bool) -> Self {
        TaskFarm {
            dsm: Dsm::attach(LAYOUT, my, n_workers, 2).expect("the worker's heap holds its DSM"),
            racy_read,
        }
    }

    /// The task body: a deterministic 64-bit digest chain. Never zero, so
    /// an unclaimed (hence zero) result slot is detectable.
    pub fn work(task: u64) -> u64 {
        let mut x = task.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for _ in 0..256 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        x.max(1)
    }

    /// The checksum every node must agree on: an order-sensitive fold of
    /// all task results.
    #[deny(clippy::float_arithmetic, clippy::cast_precision_loss)]
    pub fn reference_checksum() -> u64 {
        let mut cs = 0u64;
        for t in 0..N_TASKS {
            cs = cs.rotate_left(7) ^ Self::work(t);
        }
        cs
    }

    #[deny(clippy::float_arithmetic, clippy::cast_precision_loss)]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "task ids are < N_TASKS, a small compile-time constant"
    )]
    fn checksum(dsm: &Dsm, sys: &mut dyn SysMem) -> MemResult<u64> {
        let mut cs = 0u64;
        for t in 0..N_TASKS {
            let r: u64 = dsm.read_pod(sys, R_RESULT + t as usize * 8)?;
            cs = cs.rotate_left(7) ^ r;
        }
        Ok(cs)
    }
}

impl App for TaskFarm {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        let dsm = self.dsm;
        let mgr = Self::manager(dsm.nodes());
        if G_INIT.get(&sys.mem().arena)? == 0 {
            let m = sys.mem();
            dsm.init_attached(m)?;
            G_INIT.set(&mut m.arena, 1)?;
            G_PHASE.set(&mut m.arena, P_ACQ)?;
            return Ok(AppStatus::Running);
        }
        match G_PHASE.get(&sys.mem().arena)? {
            P_INIT => unreachable!("init handled above"),
            P_ACQ | P_FINAL_ACQ => {
                let p = G_PHASE.get(&sys.mem().arena)?;
                match dsm.lock_pump(sys, mgr, LOCK)? {
                    LockStatus::Granted => {
                        G_PHASE.set(&mut sys.mem().arena, p + 1)?;
                        Ok(AppStatus::Running)
                    }
                    LockStatus::Waiting => Ok(AppStatus::Blocked(WaitCond::message())),
                }
            }
            P_CS => {
                // The self-scheduling critical section: claim the next
                // task, or discover the queue is drained.
                let next: u64 = dsm.read_pod(sys, R_NEXT)?;
                if next < N_TASKS {
                    dsm.write_pod(sys, R_NEXT, next + 1)?;
                    let m = sys.mem();
                    G_TASK.set(&mut m.arena, next)?;
                    G_MODE.set(&mut m.arena, MODE_WORK)?;
                } else {
                    G_MODE.set(&mut sys.mem().arena, MODE_BARRIER)?;
                }
                G_PHASE.set(&mut sys.mem().arena, P_REL)?;
                Ok(AppStatus::Running)
            }
            P_REL => {
                // This release also publishes the previous task's result
                // (written outside the lock, hence still dirty).
                dsm.unlock(sys, mgr, LOCK)?;
                let m = sys.mem();
                let next = if G_MODE.get(&m.arena)? == MODE_WORK {
                    P_WORK
                } else {
                    P_BARRIER
                };
                G_PHASE.set(&mut m.arena, next)?;
                Ok(AppStatus::Running)
            }
            P_WORK => {
                let t = G_TASK.get(&sys.mem().arena)?;
                if self.racy_read {
                    // The seeded bug: read the task counter without the
                    // lock. The value is thrown away (outputs unchanged);
                    // the access itself is the finding.
                    let _peek: u64 = dsm.read_pod(sys, R_NEXT)?;
                }
                let digest = Self::work(t);
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "task ids are < N_TASKS, a small compile-time constant"
                )]
                dsm.write_pod(sys, R_RESULT + t as usize * 8, digest)?;
                // Compute-bound between claims.
                sys.compute(200 * US);
                G_PHASE.set(&mut sys.mem().arena, P_ACQ)?;
                Ok(AppStatus::Running)
            }
            P_BARRIER => match dsm.barrier_pump(sys)? {
                BarrierStatus::Done => {
                    G_PHASE.set(&mut sys.mem().arena, P_FINAL_ACQ)?;
                    Ok(AppStatus::Running)
                }
                BarrierStatus::Working => Ok(AppStatus::Running),
                BarrierStatus::Blocked => Ok(AppStatus::Blocked(WaitCond::message())),
            },
            P_FINAL_CS => {
                // Every worker published every result before entering the
                // barrier, so this grant carried the complete result set.
                let cs = Self::checksum(&dsm, sys)?;
                let m = sys.mem();
                G_SUM.set(&mut m.arena, cs)?;
                G_PHASE.set(&mut m.arena, P_FINAL_REL)?;
                Ok(AppStatus::Running)
            }
            P_FINAL_REL => {
                dsm.unlock(sys, mgr, LOCK)?;
                G_PHASE.set(&mut sys.mem().arena, P_VIS)?;
                Ok(AppStatus::Running)
            }
            P_VIS => {
                let cs = G_SUM.get(&sys.mem().arena)?;
                sys.visible(cs);
                G_PHASE.set(&mut sys.mem().arena, P_DONE)?;
                Ok(AppStatus::Running)
            }
            _ => Ok(AppStatus::Done),
        }
    }

    fn layout(&self) -> Layout {
        LAYOUT
    }
}

/// Builds a farm of `n_workers` workers plus its lock manager.
pub(crate) fn farm(n_workers: u32) -> Vec<Box<dyn App>> {
    farm_with(n_workers, false)
}

/// Builds the seeded-mutation farm: identical outputs, but every worker
/// peeks at the task counter outside the lock (see
/// [`TaskFarm::racy_read`]).
pub(crate) fn farm_racy(n_workers: u32) -> Vec<Box<dyn App>> {
    farm_with(n_workers, true)
}

fn farm_with(n_workers: u32, racy_read: bool) -> Vec<Box<dyn App>> {
    let mut v: Vec<Box<dyn App>> = (0..n_workers)
        .map(|i| Box::new(TaskFarm::new(i, n_workers, racy_read)) as Box<dyn App>)
        .collect();
    v.push(Box::new(ft_dsm::lock::ManagerApp::new(
        1,
        TaskFarm::expected_releases(n_workers),
    )));
    v
}

#[cfg(test)]
#[allow(
    clippy::cast_possible_truncation,
    reason = "test ranks and task ids are tiny; narrowing them for indexing is exact"
)]
mod tests {
    use super::*;
    use ft_sim::harness::run_plain_on;
    use ft_sim::sim::{SimConfig, Simulator};

    #[test]
    fn farm_completes_and_all_nodes_agree_on_the_checksum() {
        let sim = Simulator::new(SimConfig::one_node_each(4, 13));
        let mut apps = farm(3);
        let report = run_plain_on(sim, &mut apps);
        assert!(report.all_done);
        assert_eq!(report.visibles.len(), 3);
        for &(_, p, cs) in &report.visibles {
            assert_eq!(
                cs,
                TaskFarm::reference_checksum(),
                "node {} computed a wrong or incomplete checksum",
                p.0
            );
        }
    }

    #[test]
    fn every_task_runs_exactly_once_across_seeds() {
        // A lost update on the task counter would double-claim one task
        // and leave another unclaimed; the unclaimed slot stays zero and
        // breaks the checksum.
        for seed in [3u64, 77, 4242] {
            let sim = Simulator::new(SimConfig::one_node_each(4, seed));
            let mut apps = farm(3);
            let report = run_plain_on(sim, &mut apps);
            assert!(report.all_done, "seed {seed}");
            for &(_, _, cs) in &report.visibles {
                assert_eq!(cs, TaskFarm::reference_checksum(), "seed {seed}");
            }
        }
    }

    #[test]
    fn work_digests_are_nonzero_and_distinct() {
        let digests: std::collections::HashSet<u64> = (0..N_TASKS).map(TaskFarm::work).collect();
        assert_eq!(digests.len(), N_TASKS as usize);
        assert!(!digests.contains(&0));
    }

    #[test]
    fn two_workers_also_drain_the_queue() {
        let sim = Simulator::new(SimConfig::one_node_each(3, 5));
        let mut apps = farm(2);
        let report = run_plain_on(sim, &mut apps);
        assert!(report.all_done);
        for &(_, _, cs) in &report.visibles {
            assert_eq!(cs, TaskFarm::reference_checksum());
        }
    }
}
