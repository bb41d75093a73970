//! Distributed shared memory under failure transparency: three nodes
//! cooperate through a TreadMarks-style DSM — a lock-protected shared
//! ledger plus a rendezvous barrier — while the recovery runtime
//! checkpoints everything, and one node is killed mid-run.
//!
//! The locks give *entry consistency*: the ledger is coherent while the
//! lock is held (grants carry accumulated release diffs), so each node
//! reads the final total inside a last critical section, after a barrier
//! guarantees all deposits have finished.
//!
//! The DSM keeps its region, twins, and synchronization state in the
//! recoverable arena, so to the protocols its traffic is ordinary
//! messages and its state is ordinary memory: nothing DSM-specific exists
//! in the recovery path.
//!
//! ```sh
//! cargo run --example shared_memory
//! ```

use failure_transparency::dsm::lock::{LockStatus, ManagerApp};
use failure_transparency::dsm::{BarrierStatus, Dsm};
use failure_transparency::mem::arena::Layout;
use failure_transparency::mem::error::MemResult;
use failure_transparency::mem::mem::ArenaCell;
use failure_transparency::prelude::*;
use failure_transparency::sim::syscalls::{AppStatus, SysMem, WaitCond};
use failure_transparency::sim::SimTime;

const WORKERS: u32 = 3;
const MANAGER: ProcessId = ProcessId(WORKERS);
const DEPOSITS: u64 = 8;

// Region layout: one u64 ledger total at 0, per-worker deposit counts at
// 8, 16, 24.
const R_TOTAL: usize = 0;

fn layout() -> Layout {
    Layout {
        globals_pages: 1,
        stack_pages: 2,
        heap_pages: 16,
    }
}

/// A worker deposits `my + 1` units into the shared ledger `DEPOSITS`
/// times, each deposit inside a lock-protected critical section, then
/// joins a barrier and renders the total it sees.
struct Worker {
    /// The DSM endpoint, attached once when the worker is built: its arena
    /// offsets are a pure function of the layout and the deterministic
    /// allocation order, so they are configuration, not state to recover.
    dsm: Dsm,
}

impl App for Worker {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        let phase: ArenaCell<u64> = ArenaCell::at(0);
        let inited: ArenaCell<u64> = ArenaCell::at(8);
        let deposits: ArenaCell<u64> = ArenaCell::at(16);
        let dsm = self.dsm;
        let my = dsm.node();
        if inited.get(&sys.mem().arena)? == 0 {
            let m = sys.mem();
            dsm.init_attached(m)?;
            inited.set(&mut m.arena, 1)?;
            return Ok(AppStatus::Running);
        }
        match phase.get(&sys.mem().arena)? {
            // Acquire the ledger lock.
            0 => match dsm.lock_pump(sys, MANAGER, 0)? {
                LockStatus::Granted => {
                    let m = sys.mem();
                    phase.set(&mut m.arena, 1)?;
                    Ok(AppStatus::Running)
                }
                LockStatus::Waiting => Ok(AppStatus::Blocked(WaitCond::message())),
            },
            // Critical section: the deposit.
            1 => {
                let total = dsm.read_pod::<u64>(sys, R_TOTAL)?;
                dsm.write_pod(sys, R_TOTAL, total + my as u64 + 1)?;
                let mine = 8 + my as usize * 8;
                let n = dsm.read_pod::<u64>(sys, mine)?;
                dsm.write_pod(sys, mine, n + 1)?;
                sys.compute(100 * US);
                phase.set(&mut sys.mem().arena, 2)?;
                Ok(AppStatus::Running)
            }
            // Release; loop or move to the barrier.
            2 => {
                dsm.unlock(sys, MANAGER, 0)?;
                let m = sys.mem();
                let n = deposits.get(&m.arena)? + 1;
                deposits.set(&mut m.arena, n)?;
                let next = if n < DEPOSITS { 0 } else { 3 };
                phase.set(&mut m.arena, next)?;
                Ok(AppStatus::Running)
            }
            // Barrier: wait until *every* worker has finished depositing.
            // The lock gives entry consistency — the ledger is coherent
            // only while holding it — so the barrier is purely a rendezvous
            // here; the authoritative read happens under the lock after it.
            3 => match dsm.barrier_pump(sys)? {
                BarrierStatus::Done => {
                    phase.set(&mut sys.mem().arena, 4)?;
                    Ok(AppStatus::Running)
                }
                BarrierStatus::Working => Ok(AppStatus::Running),
                BarrierStatus::Blocked => Ok(AppStatus::Blocked(WaitCond::message())),
            },
            // Final acquire: the grant carries every deposit's write
            // notices, so the ledger total is complete and identical on
            // every node.
            4 => match dsm.lock_pump(sys, MANAGER, 0)? {
                LockStatus::Granted => {
                    let m = sys.mem();
                    phase.set(&mut m.arena, 5)?;
                    Ok(AppStatus::Running)
                }
                LockStatus::Waiting => Ok(AppStatus::Blocked(WaitCond::message())),
            },
            5 => {
                let total = dsm.read_pod::<u64>(sys, R_TOTAL)?;
                sys.visible(total);
                phase.set(&mut sys.mem().arena, 6)?;
                Ok(AppStatus::Running)
            }
            6 => {
                dsm.unlock(sys, MANAGER, 0)?;
                phase.set(&mut sys.mem().arena, 7)?;
                Ok(AppStatus::Running)
            }
            _ => Ok(AppStatus::Done),
        }
    }

    fn layout(&self) -> Layout {
        layout()
    }
}

const TOTAL_RELEASES: u64 = WORKERS as u64 * (DEPOSITS + 1);

fn apps() -> Vec<Box<dyn App>> {
    let mut v: Vec<Box<dyn App>> = (0..WORKERS)
        .map(|i| {
            let dsm = Dsm::attach(layout(), i, WORKERS, 2).expect("the heap holds the DSM");
            Box::new(Worker { dsm }) as Box<dyn App>
        })
        .collect();
    v.push(Box::new(ManagerApp::new(1, TOTAL_RELEASES)));
    v
}

fn main() {
    let expected: u64 = (0..WORKERS).map(|i| (i as u64 + 1) * DEPOSITS).sum();

    // First failure-free, as the reference.
    let sim = Simulator::new(SimConfig::one_node_each(WORKERS as usize + 1, 11));
    let mut a = apps();
    let plain = run_plain_on(sim, &mut a);
    assert!(plain.all_done);
    println!("Failure-free: every node's final ledger view:");
    for &(_, p, total) in &plain.visibles {
        println!("  node {} sees {total} (expected {expected})", p.0);
        assert_eq!(total, expected);
    }

    // Now under Discount Checking with worker 1 killed mid-deposits.
    let sim = Simulator::new(SimConfig::one_node_each(WORKERS as usize + 1, 11));
    let mut cfg = DcConfig::discount_checking(Protocol::Cpvs);
    cfg.faults
        .push(Fault::Kill(CrashPoint::AtExactTime { pid: 1, t: 2 * MS }));
    let report = DcHarness::new(sim, cfg, apps()).run();
    assert!(report.all_done);
    println!("\nWith worker 1 killed at t=2ms under CPVS:");
    for &(_, p, total) in &report.visibles {
        println!("  node {} sees {total}", p.0);
        assert_eq!(total, expected, "recovery must not lose deposits");
    }
    println!(
        "  {} commits, {} recoveries, Save-work {}",
        report.total_commits(),
        report.totals.recoveries,
        if check_save_work(&report.trace).is_ok() {
            "upheld"
        } else {
            "VIOLATED"
        }
    );
    let _: SimTime = report.runtime;
}
