//! Randomized failure-transparency tests: for seeded random kill
//! schedules, protocols, and workloads, the recovered run's output is
//! consistent with the failure-free run and Save-work holds throughout.

#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test inputs are tiny by construction (seed counts, page numbers, probe offsets), so index-type narrowing cannot truncate"
)]

use ft_core::consistency::check_consistent_recovery;
use ft_core::event::ProcessId;
use ft_core::protocol::Protocol;
use ft_core::savework::check_save_work;
use ft_dc::harness::DcHarness;
use ft_dc::state::DcConfig;
use ft_mem::error::MemResult;
use ft_mem::mem::ArenaCell;
use ft_sim::harness::run_plain_on;
use ft_sim::script::InputScript;
use ft_sim::sim::{SimConfig, Simulator};
use ft_sim::syscalls::{App, AppStatus, SysMem, WaitCond};
use ft_sim::{MS, US};

/// A small deterministic workload mixing input, file I/O, clock reads, and
/// visible output — every interposition point gets exercised.
struct Mixed;

const PHASE: ArenaCell<u64> = ArenaCell::at(0);
const STAGED: ArenaCell<u64> = ArenaCell::at(8);
const ACC: ArenaCell<u64> = ArenaCell::at(16);
const COUNT: ArenaCell<u64> = ArenaCell::at(24);
const FD: ArenaCell<u64> = ArenaCell::at(32);

impl App for Mixed {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        match PHASE.get(&sys.mem().arena)? {
            // Await input.
            0 => {
                if let Some(bytes) = sys.read_input() {
                    let m = sys.mem();
                    STAGED.set(&mut m.arena, bytes[0] as u64)?;
                    let next = match bytes[0] {
                        b'c' => 2, // Clock.
                        b'w' => 3, // File write.
                        _ => 1,    // Echo.
                    };
                    PHASE.set(&mut m.arena, next)?;
                    Ok(AppStatus::Running)
                } else if sys.input_exhausted() {
                    Ok(AppStatus::Done)
                } else {
                    Ok(AppStatus::Blocked(WaitCond::input()))
                }
            }
            // Echo: visible derived from accumulated state.
            1 => {
                sys.compute(20 * US);
                let k = STAGED.get(&sys.mem().arena)?;
                let acc = ACC.get(&sys.mem().arena)?;
                let n = COUNT.get(&sys.mem().arena)?;
                sys.visible((k * 1_000_003) ^ acc.wrapping_mul(31) ^ n);
                let m = sys.mem();
                ACC.set(&mut m.arena, acc.wrapping_mul(131).wrapping_add(k))?;
                COUNT.set(&mut m.arena, n + 1)?;
                PHASE.set(&mut m.arena, 0)?;
                Ok(AppStatus::Running)
            }
            // Clock read: transient nd. Its value is stored in a cell
            // that never feeds a visible — a re-executed clock read may
            // legally return a different time (a different failure-free
            // execution), and a single reference run could not validate
            // output that depended on it. The event still exercises the
            // interposition, logging, and commit machinery.
            2 => {
                let t = sys.gettimeofday();
                let m = sys.mem();
                m.arena.write_pod(40, t)?;
                PHASE.set(&mut m.arena, 0)?;
                Ok(AppStatus::Running)
            }
            // File append (fixed nd): open lazily, then write.
            3 => {
                let fd = FD.get(&sys.mem().arena)?;
                if fd == 0 {
                    let f = sys.open("mixed.log").expect("open");
                    FD.set(&mut sys.mem().arena, f as u64 + 1)?;
                    return Ok(AppStatus::Running);
                }
                let acc = ACC.get(&sys.mem().arena)?;
                sys.write_file((fd - 1) as u32, &acc.to_le_bytes())
                    .expect("write");
                PHASE.set(&mut sys.mem().arena, 0)?;
                Ok(AppStatus::Running)
            }
            _ => Ok(AppStatus::Done),
        }
    }
}

fn script(seed: u64, n: usize) -> Vec<Vec<u8>> {
    let mut rng = ft_sim::rng::SplitMix64::new(seed);
    (0..n)
        .map(|_| match rng.below(10) {
            0 => vec![b'c'],
            1 => vec![b'w'],
            k => vec![b'a' + k as u8],
        })
        .collect()
}

fn build(seed: u64, n: usize) -> (Simulator, Vec<Box<dyn App>>) {
    let mut sim = Simulator::new(SimConfig::single_node(1, seed));
    sim.set_input_script(
        ProcessId(0),
        InputScript::evenly_spaced(0, MS, script(seed, n)),
    );
    (sim, vec![Box::new(Mixed)])
}

/// The central end-to-end property: any single stop failure, under any
/// protocol, recovers to consistent output with Save-work intact.
#[test]
fn single_failure_recovers_consistently() {
    let mut rng = ft_sim::rng::SplitMix64::new(0x51F1);
    for _ in 0..48 {
        let kill_frac = 0.05 + rng.unit_f64() * 0.9;
        let proto = Protocol::FIGURE8[rng.index(7)];
        let seed = 1 + rng.below(499);
        let n = 40;
        let (sim, mut apps) = build(seed, n);
        let reference = run_plain_on(sim, &mut apps);
        assert!(reference.all_done);
        let ref_tokens: Vec<u64> = reference.visibles.iter().map(|&(_, _, t)| t).collect();

        let (mut sim, apps) = build(seed, n);
        let kill_at = (reference.runtime as f64 * kill_frac) as u64;
        sim.kill_at(ProcessId(0), kill_at.max(1));
        let report = DcHarness::new(sim, DcConfig::discount_checking(proto), apps).run();
        assert!(report.all_done, "{proto} kill@{kill_at}");
        assert!(
            check_save_work(&report.trace).is_ok(),
            "{proto}: {:?}",
            check_save_work(&report.trace)
        );
        let verdict = check_consistent_recovery(&report.visible_tokens(), &ref_tokens);
        assert!(
            verdict.consistent,
            "{proto} kill@{kill_at}: {:?}",
            verdict.error
        );
    }
}

/// Two failures, both media.
#[test]
fn double_failure_on_both_media() {
    let mut rng = ft_sim::rng::SplitMix64::new(0xD0B1);
    for _ in 0..24 {
        let f1 = 0.1 + rng.unit_f64() * 0.35;
        let f2 = 0.55 + rng.unit_f64() * 0.35;
        let disk = rng.chance(0.5);
        let seed = 1 + rng.below(199);
        let n = 30;
        let (sim, mut apps) = build(seed, n);
        let reference = run_plain_on(sim, &mut apps);
        assert!(reference.all_done);
        let ref_tokens: Vec<u64> = reference.visibles.iter().map(|&(_, _, t)| t).collect();

        let (mut sim, apps) = build(seed, n);
        sim.kill_at(ProcessId(0), (reference.runtime as f64 * f1) as u64 + 1);
        sim.kill_at(ProcessId(0), (reference.runtime as f64 * f2) as u64 + 1);
        let cfg = if disk {
            DcConfig::dc_disk(Protocol::Cpvs)
        } else {
            DcConfig::discount_checking(Protocol::Cpvs)
        };
        let report = DcHarness::new(sim, cfg, apps).run();
        assert!(report.all_done);
        let verdict = check_consistent_recovery(&report.visible_tokens(), &ref_tokens);
        assert!(verdict.consistent, "{:?}", verdict.error);
    }
}
