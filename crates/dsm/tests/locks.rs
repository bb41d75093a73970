//! DSM lock integration: mutual exclusion and release-consistency diff
//! propagation along the grant chain.
//!
//! Three workers each increment a lock-protected shared counter 20 times
//! (acquire → read-modify-write → release). Lost updates — the classic
//! mutual-exclusion failure — or stale reads — a release-consistency
//! failure — would leave the counter below 60. The globally last critical
//! section (some worker's final acquire) must observe every done flag and
//! the full count, because grant-carried diffs accumulate along the chain.
//!
//! Failure recovery for lock workloads is exercised separately by the
//! task-farm kill sweep in `ft-bench/tests/taskfarm_recovery.rs`.

use ft_core::event::ProcessId;
use ft_core::protocol::Protocol;
use ft_core::savework::check_save_work;
use ft_dc::harness::DcHarness;
use ft_dc::state::DcConfig;
use ft_dsm::lock::{LockStatus, ManagerApp};
use ft_dsm::Dsm;
use ft_mem::arena::Layout;
use ft_mem::error::MemResult;
use ft_mem::mem::ArenaCell;
use ft_sim::harness::run_plain_on;
use ft_sim::sim::{SimConfig, Simulator};
use ft_sim::syscalls::{App, AppStatus, SysMem, WaitCond};
use ft_sim::US;

const WORKERS: u32 = 3;
const MANAGER: ProcessId = ProcessId(WORKERS);
const INCS: u64 = 20;
const LOCK: u32 = 0;

// Shared region layout: counter u64 at 0, done flags (one byte per
// worker) at 8..8+WORKERS.
const R_COUNTER: usize = 0;
const R_DONE: usize = 8;

fn layout() -> Layout {
    Layout {
        globals_pages: 1,
        stack_pages: 2,
        heap_pages: 16,
    }
}

/// The DSM handle is a pure function of the layout and the deterministic
/// allocation order, so each worker attaches it once, at construction.
fn attach(my: u32) -> Dsm {
    Dsm::attach(layout(), my, WORKERS, 2).expect("the heap holds the DSM")
}

// Worker globals: 0 = phase, 8 = inited, 16 = increments done.
const P_ACQ: u64 = 0;
const P_CS: u64 = 1;
const P_REL: u64 = 2;
const P_FINAL: u64 = 3;
const P_REL_FINAL: u64 = 4;
const P_DONE: u64 = 5;

struct Worker {
    dsm: Dsm,
}

impl App for Worker {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        let phase: ArenaCell<u64> = ArenaCell::at(0);
        let inited: ArenaCell<u64> = ArenaCell::at(8);
        let incs: ArenaCell<u64> = ArenaCell::at(16);
        let dsm = self.dsm;
        if inited.get(&sys.mem().arena)? == 0 {
            let m = sys.mem();
            dsm.init_attached(m)?;
            inited.set(&mut m.arena, 1)?;
            return Ok(AppStatus::Running);
        }
        match phase.get(&sys.mem().arena)? {
            P_ACQ => match dsm.lock_pump(sys, MANAGER, LOCK)? {
                LockStatus::Granted => {
                    let m = sys.mem();
                    let next = if incs.get(&m.arena)? < INCS {
                        P_CS
                    } else {
                        P_FINAL
                    };
                    phase.set(&mut m.arena, next)?;
                    Ok(AppStatus::Running)
                }
                LockStatus::Waiting => Ok(AppStatus::Blocked(WaitCond::message())),
            },
            P_CS => {
                // The protected read-modify-write: lost updates here are
                // exactly what mutual exclusion must prevent.
                let v = dsm.read_pod::<u64>(sys, R_COUNTER)?;
                dsm.write_pod(sys, R_COUNTER, v + 1)?;
                let m = sys.mem();
                let n = incs.get(&m.arena)? + 1;
                incs.set(&mut m.arena, n)?;
                sys.compute(50 * US);
                phase.set(&mut sys.mem().arena, P_REL)?;
                Ok(AppStatus::Running)
            }
            P_REL => {
                dsm.unlock(sys, MANAGER, LOCK)?;
                phase.set(&mut sys.mem().arena, P_ACQ)?;
                Ok(AppStatus::Running)
            }
            P_FINAL => {
                // Final critical section: set my done flag, observe the
                // counter and how many workers have finished.
                dsm.write(sys, R_DONE + dsm.node() as usize, &[1])?;
                let counter = dsm.read_pod::<u64>(sys, R_COUNTER)?;
                let mut done = 0u64;
                for i in 0..WORKERS {
                    done += dsm.read(sys, R_DONE + i as usize, 1)?[0] as u64;
                }
                sys.visible(done * 1000 + counter);
                phase.set(&mut sys.mem().arena, P_REL_FINAL)?;
                Ok(AppStatus::Running)
            }
            P_REL_FINAL => {
                dsm.unlock(sys, MANAGER, LOCK)?;
                phase.set(&mut sys.mem().arena, P_DONE)?;
                Ok(AppStatus::Running)
            }
            _ => Ok(AppStatus::Done),
        }
    }

    fn layout(&self) -> Layout {
        layout()
    }
}

fn apps() -> Vec<Box<dyn App>> {
    let mut v: Vec<Box<dyn App>> = (0..WORKERS)
        .map(|i| Box::new(Worker { dsm: attach(i) }) as Box<dyn App>)
        .collect();
    v.push(Box::new(ManagerApp::new(1, TOTAL_RELEASES)));
    v
}

const TOTAL_RELEASES: u64 = WORKERS as u64 * (INCS + 1);

fn assert_mutual_exclusion(visibles: &[(ft_sim::SimTime, ProcessId, u64)]) {
    assert_eq!(
        visibles.len(),
        WORKERS as usize,
        "one final read per worker"
    );
    let total = WORKERS as u64 * INCS;
    let mut saw_last = false;
    for &(_, _, t) in visibles {
        let done = t / 1000;
        let counter = t % 1000;
        // Every final read happens after this worker's own 20 increments
        // were published to it via the grant chain; none may exceed the
        // total (an over-count would mean a duplicated diff application).
        assert!(counter >= INCS && counter <= total, "counter {counter}");
        if done == WORKERS as u64 {
            // The globally last critical section: every increment from
            // every worker must be visible — no lost updates, no stale
            // grant diffs.
            assert_eq!(counter, total, "last critical section saw {counter}");
            saw_last = true;
        }
    }
    assert!(saw_last, "some final acquire must observe all done flags");
}

#[test]
fn lock_protected_counter_has_no_lost_updates() {
    let sim = Simulator::new(SimConfig::one_node_each(WORKERS as usize + 1, 7));
    let mut a = apps();
    let report = run_plain_on(sim, &mut a);
    assert!(report.all_done);
    assert_mutual_exclusion(&report.visibles);
}

#[test]
fn locks_work_identically_across_seeds() {
    // Different seeds shuffle network latencies, hence grant order; the
    // serializability of the counter must hold regardless.
    for seed in [1u64, 99, 1234, 98765] {
        let sim = Simulator::new(SimConfig::one_node_each(WORKERS as usize + 1, seed));
        let mut a = apps();
        let report = run_plain_on(sim, &mut a);
        assert!(report.all_done, "seed {seed}");
        assert_mutual_exclusion(&report.visibles);
    }
}

#[test]
fn lock_traffic_upholds_save_work_under_checkpointing() {
    // Failure-free run under Discount Checking: lock messages are ordinary
    // sends/receives to the protocols, so CPVS must commit before each and
    // the resulting trace must uphold the Save-work invariant.
    let sim = Simulator::new(SimConfig::one_node_each(WORKERS as usize + 1, 7));
    let report = DcHarness::new(sim, DcConfig::discount_checking(Protocol::Cpvs), apps()).run();
    assert!(report.all_done);
    assert_mutual_exclusion(&report.visibles);
    assert!(
        check_save_work(&report.trace).is_ok(),
        "{:?}",
        check_save_work(&report.trace)
    );
    assert!(report.total_commits() > TOTAL_RELEASES);
}

// ---------------------------------------------------------------------
// Two independent locks: each protects its own counter; write-notice
// chains must stay per-lock (an update leaking across chains would
// over-count, a missing one would under-count).
// ---------------------------------------------------------------------

const R_A: usize = 0; // counter under lock 0, page 0
const R_B: usize = 1024; // counter under lock 1, page 1
const R_DONE_A: usize = 8;
const R_DONE_B: usize = 1024 + 8;

struct TwoLockWorker {
    dsm: Dsm,
}

impl App for TwoLockWorker {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        let phase: ArenaCell<u64> = ArenaCell::at(0);
        let inited: ArenaCell<u64> = ArenaCell::at(8);
        let incs: ArenaCell<u64> = ArenaCell::at(16);
        let dsm = self.dsm;
        if inited.get(&sys.mem().arena)? == 0 {
            let m = sys.mem();
            dsm.init_attached(m)?;
            inited.set(&mut m.arena, 1)?;
            return Ok(AppStatus::Running);
        }
        let p = phase.get(&sys.mem().arena)?;
        // Phases 0-5: the increment loop (A under lock 0, B under lock
        // 1); 6-11: the final observes; 12: done.
        match p {
            0 | 3 | 6 | 9 => {
                let lock = if p == 0 || p == 6 { 0 } else { 1 };
                match dsm.lock_pump(sys, MANAGER, lock)? {
                    LockStatus::Granted => {
                        phase.set(&mut sys.mem().arena, p + 1)?;
                        Ok(AppStatus::Running)
                    }
                    LockStatus::Waiting => Ok(AppStatus::Blocked(WaitCond::message())),
                }
            }
            1 | 4 => {
                let off = if p == 1 { R_A } else { R_B };
                let v = dsm.read_pod::<u64>(sys, off)?;
                dsm.write_pod(sys, off, v + 1)?;
                sys.compute(30 * US);
                phase.set(&mut sys.mem().arena, p + 1)?;
                Ok(AppStatus::Running)
            }
            2 => {
                dsm.unlock(sys, MANAGER, 0)?;
                phase.set(&mut sys.mem().arena, 3)?;
                Ok(AppStatus::Running)
            }
            5 => {
                dsm.unlock(sys, MANAGER, 1)?;
                let m = sys.mem();
                let n = incs.get(&m.arena)? + 1;
                incs.set(&mut m.arena, n)?;
                phase.set(&mut m.arena, if n < INCS { 0 } else { 6 })?;
                Ok(AppStatus::Running)
            }
            7 | 10 => {
                let (ctr, done_base) = if p == 7 {
                    (R_A, R_DONE_A)
                } else {
                    (R_B, R_DONE_B)
                };
                dsm.write(sys, done_base + dsm.node() as usize, &[1])?;
                let counter = dsm.read_pod::<u64>(sys, ctr)?;
                let mut done = 0u64;
                for i in 0..WORKERS {
                    done += dsm.read(sys, done_base + i as usize, 1)?[0] as u64;
                }
                // Tag which lock this observation is for in the high digit.
                let which = if p == 7 { 1_000_000 } else { 2_000_000 };
                sys.visible(which + done * 1000 + counter);
                phase.set(&mut sys.mem().arena, p + 1)?;
                Ok(AppStatus::Running)
            }
            8 => {
                dsm.unlock(sys, MANAGER, 0)?;
                phase.set(&mut sys.mem().arena, 9)?;
                Ok(AppStatus::Running)
            }
            11 => {
                dsm.unlock(sys, MANAGER, 1)?;
                phase.set(&mut sys.mem().arena, 12)?;
                Ok(AppStatus::Running)
            }
            _ => Ok(AppStatus::Done),
        }
    }

    fn layout(&self) -> Layout {
        layout()
    }
}

const TWO_LOCK_RELEASES: u64 = WORKERS as u64 * (2 * INCS + 2);

#[test]
fn two_locks_keep_independent_write_notice_chains() {
    let mut a: Vec<Box<dyn App>> = (0..WORKERS)
        .map(|i| Box::new(TwoLockWorker { dsm: attach(i) }) as Box<dyn App>)
        .collect();
    a.push(Box::new(ManagerApp::new(2, TWO_LOCK_RELEASES)));
    let sim = Simulator::new(SimConfig::one_node_each(WORKERS as usize + 1, 31));
    let report = run_plain_on(sim, &mut a);
    assert!(report.all_done);
    let total = WORKERS as u64 * INCS;
    // Per lock: same saw-last reasoning as the single-lock test.
    for which in [1u64, 2] {
        let mut saw_last = false;
        for &(_, _, t) in report.visibles.iter().filter(|v| v.2 / 1_000_000 == which) {
            let done = t % 1_000_000 / 1000;
            let counter = t % 1000;
            assert!(counter >= INCS && counter <= total, "counter {counter}");
            if done == WORKERS as u64 {
                assert_eq!(counter, total, "lock {which}: last CS saw {counter}");
                saw_last = true;
            }
        }
        assert!(saw_last, "lock {which}: no final observer saw all flags");
    }
}

#[test]
fn unlock_without_hold_is_rejected() {
    struct BadUnlock(Dsm);
    impl App for BadUnlock {
        fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
            let inited: ArenaCell<u64> = ArenaCell::at(8);
            let dsm = self.0;
            if inited.get(&sys.mem().arena)? == 0 {
                let m = sys.mem();
                dsm.init_attached(m)?;
                inited.set(&mut m.arena, 1)?;
                return Ok(AppStatus::Running);
            }
            // Releasing a lock we never acquired must be an invariant
            // violation, not silent corruption of the manager's queue.
            match dsm.unlock(sys, MANAGER, LOCK) {
                Err(_) => Ok(AppStatus::Done),
                Ok(()) => panic!("unlock without hold succeeded"),
            }
        }
        fn layout(&self) -> Layout {
            layout()
        }
    }
    let sim = Simulator::new(SimConfig::one_node_each(1, 7));
    let mut a: Vec<Box<dyn App>> = vec![Box::new(BadUnlock(attach(0)))];
    let report = run_plain_on(sim, &mut a);
    assert!(report.all_done);
}
