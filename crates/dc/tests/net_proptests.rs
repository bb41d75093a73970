//! Randomized network-fault transparency tests: all seven protocols must
//! uphold Save-work and consistent recovery when the fabric drops,
//! duplicates and reorders messages — and processes are killed mid-round
//! on top. The workload is a three-process token ring whose visible values
//! are timing-independent, so a plain run over the reliable network is a
//! valid reference for every fault schedule.

#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test inputs are tiny by construction (seed counts, page numbers, probe offsets), so index-type narrowing cannot truncate"
)]

use ft_core::consistency::check_consistent_recovery;
use ft_core::event::ProcessId;
use ft_core::protocol::Protocol;
use ft_core::savework::check_save_work;
use ft_dc::harness::{DcHarness, DcReport};
use ft_dc::state::DcConfig;
use ft_mem::error::MemResult;
use ft_mem::mem::ArenaCell;
use ft_sim::harness::run_plain_on;
use ft_sim::net::{NetFaultPlan, Partition};
use ft_sim::rng::SplitMix64;
use ft_sim::sim::{SimConfig, Simulator};
use ft_sim::syscalls::{App, AppStatus, SysMem, WaitCond};
use ft_sim::{MS, US};

const RING: usize = 3;
const ROUNDS: u64 = 10;
const SIM_SEED: u64 = 23;

/// Ring head: injects the round number, awaits it back (incremented once
/// per relay hop), renders it visibly. Values depend only on the round
/// number — never on delivery timing — so any fault schedule must
/// reproduce the same tokens.
struct Head;

impl App for Head {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        let phase: ArenaCell<u64> = ArenaCell::at(0);
        let round: ArenaCell<u64> = ArenaCell::at(8);
        let staged: ArenaCell<u64> = ArenaCell::at(16);
        match phase.get(&sys.mem().arena)? {
            0 => {
                let r = round.get(&sys.mem().arena)?;
                sys.send(ProcessId(1), &[r as u8]).expect("send");
                phase.set(&mut sys.mem().arena, 1)?;
                Ok(AppStatus::Running)
            }
            1 => {
                if let Some(m) = sys.try_recv() {
                    staged.set(&mut sys.mem().arena, m.payload[0] as u64)?;
                    phase.set(&mut sys.mem().arena, 2)?;
                    Ok(AppStatus::Running)
                } else {
                    Ok(AppStatus::Blocked(WaitCond::message()))
                }
            }
            2 => {
                let s = staged.get(&sys.mem().arena)?;
                let r = round.get(&sys.mem().arena)?;
                sys.compute(300 * US);
                sys.visible(5000 + s * 100 + r);
                let m = sys.mem();
                round.set(&mut m.arena, r + 1)?;
                phase.set(&mut m.arena, if r + 1 < ROUNDS { 0 } else { 3 })?;
                Ok(AppStatus::Running)
            }
            _ => Ok(AppStatus::Done),
        }
    }
}

/// Ring relay: increments the token and forwards it; done after `ROUNDS`
/// tokens.
struct Relay {
    next: ProcessId,
}

impl App for Relay {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        let phase: ArenaCell<u64> = ArenaCell::at(0);
        let staged: ArenaCell<u64> = ArenaCell::at(8);
        let seen: ArenaCell<u64> = ArenaCell::at(16);
        match phase.get(&sys.mem().arena)? {
            0 => {
                if let Some(m) = sys.try_recv() {
                    staged.set(&mut sys.mem().arena, m.payload[0] as u64)?;
                    phase.set(&mut sys.mem().arena, 1)?;
                    Ok(AppStatus::Running)
                } else {
                    Ok(AppStatus::Blocked(WaitCond::message()))
                }
            }
            1 => {
                let s = staged.get(&sys.mem().arena)?;
                sys.send(self.next, &[s as u8 + 1]).expect("send");
                let m = sys.mem();
                let n = seen.get(&m.arena)? + 1;
                seen.set(&mut m.arena, n)?;
                phase.set(&mut m.arena, if n < ROUNDS { 0 } else { 2 })?;
                Ok(AppStatus::Running)
            }
            _ => Ok(AppStatus::Done),
        }
    }
}

fn apps() -> Vec<Box<dyn App>> {
    vec![
        Box::new(Head),
        Box::new(Relay { next: ProcessId(2) }),
        Box::new(Relay { next: ProcessId(0) }),
    ]
}

fn sim() -> Simulator {
    Simulator::new(SimConfig::one_node_each(RING, SIM_SEED))
}

/// Failure-free, fault-free reference output and runtime span.
fn reference() -> (Vec<u64>, u64) {
    let mut a = apps();
    let report = run_plain_on(sim(), &mut a);
    assert!(report.all_done, "reference run must complete");
    let tokens = report.visibles.iter().map(|&(_, _, t)| t).collect();
    (tokens, report.runtime)
}

fn assert_saves_work(report: &DcReport, what: &str) {
    assert!(report.all_done, "{what}: did not complete");
    assert_eq!(report.abandoned, 0, "{what}: abandoned a recovery");
    assert!(
        check_save_work(&report.trace).is_ok(),
        "{what}: Save-work violated: {:?}",
        check_save_work(&report.trace)
    );
}

/// The headline acceptance matrix: every protocol × loss rates
/// {1%, 5%, 10%} (each with light duplication and a reordering window,
/// via [`NetFaultPlan::lossy`]) × a randomized mid-run kill, each run
/// under a distinct fabric seed. 21 runs in all.
#[test]
fn all_protocols_mask_random_network_faults_with_mid_round_kills() {
    let (reference, span) = reference();
    let mut rng = SplitMix64::new(0x4E7F_A017);
    let mut fabric_seed = 0x5EED;
    let mut total_drops = 0;
    let mut total_recoveries = 0;
    for protocol in Protocol::FIGURE8 {
        for rate in [0.01, 0.05, 0.10] {
            fabric_seed += 1;
            let mut sim = sim();
            sim.install_net_fault_plan(NetFaultPlan::lossy(fabric_seed, rate));
            // Kill a random process somewhere inside the run. Loss only
            // lengthens the run, so a fraction of the plain span always
            // lands mid-flight.
            let victim = rng.index(RING) as u32;
            let kill_at = span * (10 + rng.below(80)) / 100;
            sim.kill_at(ProcessId(victim), kill_at.max(1));
            let what = format!("{protocol} loss={rate} kill=p{victim}@{kill_at}");
            let report = DcHarness::new(sim, DcConfig::discount_checking(protocol), apps()).run();
            assert_saves_work(&report, &what);
            let verdict = check_consistent_recovery(&report.visible_tokens(), &reference);
            assert!(
                verdict.consistent,
                "{what}: {:?} tokens={:?}",
                verdict.error,
                report.visible_tokens()
            );
            total_drops += report.net.drops;
            total_recoveries += report.totals.recoveries;
        }
    }
    assert!(total_drops > 0, "the fabric never dropped anything");
    assert!(total_recoveries > 0, "no kill triggered a recovery");
}

/// Without failures the transport must be fully transparent: every
/// protocol over a 5%-loss fabric emits exactly the reference tokens (no
/// re-execution, hence no duplicates allowed).
#[test]
fn failure_free_lossy_runs_emit_exactly_the_reference_output() {
    let (reference, _) = reference();
    let mut total_drops = 0;
    for (i, protocol) in Protocol::FIGURE8.into_iter().enumerate() {
        let mut sim = sim();
        sim.install_net_fault_plan(NetFaultPlan::lossy(0xFEED + i as u64, 0.05));
        let report = DcHarness::new(sim, DcConfig::discount_checking(protocol), apps()).run();
        assert_saves_work(&report, &protocol.to_string());
        assert_eq!(report.visible_tokens(), reference, "{protocol}");
        total_drops += report.net.drops;
    }
    assert!(total_drops > 0, "the fabric never dropped anything");
}

/// A transient one-way partition on the ack path (relay 1 → head) starves
/// the coordinator of prepare/ack responses while data still flows: 2PC
/// rounds must time out with bounded retries — degrade, not deadlock — and
/// the output must stay exact.
#[test]
fn one_way_partition_degrades_2pc_rounds_without_deadlock() {
    let (reference, _) = reference();
    for protocol in [Protocol::Cpv2pc, Protocol::Cbndv2pc] {
        let mut sim = sim();
        sim.install_net_fault_plan(NetFaultPlan {
            seed: 0x9A27,
            partitions: vec![Partition {
                from: 1,
                to: 0,
                start: MS,
                end: 6 * MS,
            }],
            rto_ns: 200 * US,
            max_backoff_ns: MS,
            max_retries: 3,
            ..NetFaultPlan::default()
        });
        let report = DcHarness::new(sim, DcConfig::discount_checking(protocol), apps()).run();
        assert_saves_work(&report, &protocol.to_string());
        assert_eq!(report.visible_tokens(), reference, "{protocol}");
        assert!(
            report.totals.twopc_timeouts > 0,
            "{protocol}: no commit round hit the partition"
        );
        // Bounded degradation: each blocked round retries at most
        // max_retries times before the coordinator gives the round up, so
        // the visible rounds cap the timeout count.
        assert!(
            report.totals.twopc_timeouts <= (3 + 1) * ROUNDS,
            "{protocol}: unbounded retries ({} timeouts)",
            report.totals.twopc_timeouts
        );
    }
}

/// Same sim seed + same fault plan (same fabric seed) must reproduce the
/// run bit-for-bit — trace, visibles, runtime and transport counters.
#[test]
fn identical_seed_and_plan_reproduce_the_exact_trace() {
    fn fingerprint(report: &DcReport) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        format!("{:?}", report.trace).hash(&mut h);
        format!("{:?}", report.visibles).hash(&mut h);
        report.runtime.hash(&mut h);
        h.finish()
    }
    let run = |fabric: u64| {
        let mut sim = sim();
        sim.install_net_fault_plan(NetFaultPlan::lossy(fabric, 0.08));
        sim.kill_at(ProcessId(1), 2 * MS);
        DcHarness::new(sim, DcConfig::discount_checking(Protocol::Cbndvs), apps()).run()
    };
    let a = run(0xABCD);
    let b = run(0xABCD);
    assert_eq!(
        fingerprint(&a),
        fingerprint(&b),
        "same fabric seed diverged"
    );
    assert_eq!(a.net, b.net, "transport counters diverged");
    let c = run(0xABCE);
    assert!(
        fingerprint(&c) != fingerprint(&a) || c.net != a.net,
        "a different fabric seed should perturb the run"
    );
}
