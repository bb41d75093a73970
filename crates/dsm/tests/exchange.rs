//! Multi-node DSM integration: convergence through barrier rounds, and
//! recovery under the checkpointing runtime with stop failures.

#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test inputs are tiny by construction (seed counts, page numbers, probe offsets), so index-type narrowing cannot truncate"
)]

use std::collections::{BTreeMap, BTreeSet};

use ft_core::consistency::check_consistent_recovery_multi;
use ft_core::event::ProcessId;
use ft_core::protocol::Protocol;
use ft_dc::harness::DcHarness;
use ft_dc::state::DcConfig;
use ft_dsm::{BarrierStatus, Dsm};
use ft_mem::arena::Layout;
use ft_mem::error::MemResult;
use ft_mem::mem::ArenaCell;
use ft_sim::harness::run_plain_on;
use ft_sim::sim::{SimConfig, Simulator};
use ft_sim::syscalls::{App, AppStatus, SysMem, WaitCond};
use ft_sim::{MS, US};

const ROUNDS: u64 = 6;
const NODES: u32 = 3;

/// Each node owns slot `my` (a u64 at offset my*8) and adds `my + 1` to it
/// every round; after the final barrier it renders the sum of all slots.
struct Worker {
    /// Attached at construction; the init step allocates it for real.
    dsm: Dsm,
}

// Globals: 0 = app phase (0 compute, 1 barrier, 2 render, 3 done),
// 8 = dsm-initialized marker.
impl App for Worker {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        let phase: ArenaCell<u64> = ArenaCell::at(0);
        let inited: ArenaCell<u64> = ArenaCell::at(8);
        let dsm = self.dsm;
        let my = dsm.node();
        // Deterministic init: same allocation order every (re)start, so
        // it lands on the attached offsets.
        if inited.get(&sys.mem().arena)? == 0 {
            let m = sys.mem();
            dsm.init_attached(m)?;
            inited.set(&mut m.arena, 1)?;
            return Ok(AppStatus::Running);
        }
        match phase.get(&sys.mem().arena)? {
            0 => {
                // Compute: bump my slot.
                let off = my as usize * 8;
                let v = dsm.read_pod::<u64>(sys, off)?;
                dsm.write_pod(sys, off, v + my as u64 + 1)?;
                sys.compute(200 * US);
                phase.set(&mut sys.mem().arena, 1)?;
                Ok(AppStatus::Running)
            }
            1 => match dsm.barrier_pump(sys)? {
                BarrierStatus::Done => {
                    let m = sys.mem();
                    let next = if dsm.round(m)? >= ROUNDS { 2 } else { 0 };
                    phase.set(&mut m.arena, next)?;
                    Ok(AppStatus::Running)
                }
                BarrierStatus::Working => Ok(AppStatus::Running),
                BarrierStatus::Blocked => Ok(AppStatus::Blocked(WaitCond::message())),
            },
            2 => {
                let mut sum = 0u64;
                for i in 0..NODES {
                    sum += dsm.read_pod::<u64>(sys, i as usize * 8).unwrap_or(0);
                }
                sys.visible(10_000 * (my as u64 + 1) + sum);
                phase.set(&mut sys.mem().arena, 3)?;
                Ok(AppStatus::Running)
            }
            _ => Ok(AppStatus::Done),
        }
    }

    fn layout(&self) -> Layout {
        LAYOUT
    }
}

const LAYOUT: Layout = Layout {
    globals_pages: 1,
    stack_pages: 2,
    heap_pages: 16,
};

/// The DSM handle is a pure function of the layout and the deterministic
/// allocation order, so it is attached once instead of persisted.
fn attach(my: u32) -> Dsm {
    Dsm::attach(LAYOUT, my, NODES, 2).expect("the heap holds the DSM")
}

fn apps() -> Vec<Box<dyn App>> {
    (0..NODES)
        .map(|i| Box::new(Worker { dsm: attach(i) }) as Box<dyn App>)
        .collect()
}

/// The expected final sum: every node adds (my+1) per round.
fn expected_sum() -> u64 {
    (0..NODES).map(|i| (i as u64 + 1) * ROUNDS).sum()
}

#[test]
fn all_nodes_converge_to_the_same_sum() {
    let sim = Simulator::new(SimConfig::one_node_each(NODES as usize, 21));
    let mut a = apps();
    let report = run_plain_on(sim, &mut a);
    assert!(report.all_done);
    let tokens: Vec<u64> = report.visibles.iter().map(|&(_, _, t)| t).collect();
    assert_eq!(tokens.len(), NODES as usize);
    for (i, t) in tokens.iter().enumerate() {
        let _ = i;
        assert_eq!(t % 10_000, expected_sum(), "token {t}");
    }
}

#[test]
fn dsm_under_2pc_with_failures_recovers_consistently() {
    let reference: Vec<(u32, u64)> = {
        let sim = Simulator::new(SimConfig::one_node_each(NODES as usize, 21));
        let mut a = apps();
        let r = run_plain_on(sim, &mut a);
        assert!(r.all_done);
        r.visibles.iter().map(|&(_, p, t)| (p.0, t)).collect()
    };
    for k in 1..20u64 {
        let mut sim = Simulator::new(SimConfig::one_node_each(NODES as usize, 21));
        sim.kill_at(ProcessId((k % NODES as u64) as u32), k * 530 * US);
        let report =
            DcHarness::new(sim, DcConfig::discount_checking(Protocol::Cpv2pc), apps()).run();
        assert!(report.all_done, "kill #{k} did not complete");
        let recovered = report.visible_pairs();
        let verdict = check_consistent_recovery_multi(&recovered, &reference);
        assert!(verdict.consistent, "kill #{k}: {:?}", verdict.error);
    }
}

#[test]
fn dsm_under_cpvs_with_failure_recovers() {
    let reference: Vec<(u32, u64)> = {
        let sim = Simulator::new(SimConfig::one_node_each(NODES as usize, 21));
        let mut a = apps();
        let r = run_plain_on(sim, &mut a);
        assert!(r.all_done);
        r.visibles.iter().map(|&(_, p, t)| (p.0, t)).collect()
    };
    let mut sim = Simulator::new(SimConfig::one_node_each(NODES as usize, 21));
    sim.kill_at(ProcessId(1), 3 * MS);
    let report = DcHarness::new(sim, DcConfig::discount_checking(Protocol::Cpvs), apps()).run();
    assert!(report.all_done);
    let recovered = report.visible_pairs();
    let verdict = check_consistent_recovery_multi(&recovered, &reference);
    assert!(verdict.consistent, "{:?}", verdict.error);
    // CPVS commits before every send: many commits, no cascades.
    assert!(report.total_commits() > ROUNDS * (NODES as u64 - 1));
    assert_eq!(report.totals.cascade_rollbacks, 0);
}

#[test]
fn uneven_node_speeds_exercise_the_early_diff_stash() {
    // Node 0 computes 10× faster than node 2, so it races a full barrier
    // round ahead and its diffs arrive early at slow peers — the stash
    // must hold them without leaking next-round state into this round's
    // reads (all nodes still agree on every render).
    struct Uneven {
        dsm: Dsm,
    }
    impl App for Uneven {
        fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
            let phase: ArenaCell<u64> = ArenaCell::at(0);
            let inited: ArenaCell<u64> = ArenaCell::at(8);
            let dsm = self.dsm;
            let my = dsm.node();
            if inited.get(&sys.mem().arena)? == 0 {
                let m = sys.mem();
                dsm.init_attached(m)?;
                inited.set(&mut m.arena, 1)?;
                return Ok(AppStatus::Running);
            }
            match phase.get(&sys.mem().arena)? {
                0 => {
                    let off = my as usize * 8;
                    let v = dsm.read_pod::<u64>(sys, off)?;
                    dsm.write_pod(sys, off, v + my as u64 + 1)?;
                    // Wildly uneven compute times.
                    sys.compute(50 * US + my as u64 * 500 * US);
                    phase.set(&mut sys.mem().arena, 1)?;
                    Ok(AppStatus::Running)
                }
                1 => match dsm.barrier_pump(sys)? {
                    BarrierStatus::Done => {
                        let r = dsm.round(sys.mem())?;
                        let mut sum = 0u64;
                        for i in 0..NODES {
                            sum += dsm.read_pod::<u64>(sys, i as usize * 8).unwrap_or(0);
                        }
                        sys.visible(r * 1_000_000 + sum * 10 + my as u64);
                        let next = if r >= ROUNDS { 2 } else { 0 };
                        phase.set(&mut sys.mem().arena, next)?;
                        Ok(AppStatus::Running)
                    }
                    BarrierStatus::Working => Ok(AppStatus::Running),
                    BarrierStatus::Blocked => Ok(AppStatus::Blocked(WaitCond::message())),
                },
                _ => Ok(AppStatus::Done),
            }
        }
        fn layout(&self) -> Layout {
            LAYOUT
        }
    }

    let sim = Simulator::new(SimConfig::one_node_each(NODES as usize, 123));
    let mut apps: Vec<Box<dyn App>> = (0..NODES)
        .map(|i| Box::new(Uneven { dsm: attach(i) }) as Box<dyn App>)
        .collect();
    let report = run_plain_on(sim, &mut apps);
    assert!(report.all_done);
    // Group renders by round: all nodes must report the same sum.
    let mut by_round: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for &(_, _, t) in &report.visibles {
        by_round
            .entry(t / 1_000_000)
            .or_default()
            .insert(t % 1_000_000 / 10);
    }
    assert_eq!(by_round.len(), ROUNDS as usize);
    for (round, sums) in by_round {
        assert_eq!(sums.len(), 1, "round {round}: nodes disagree {sums:?}");
    }
}
