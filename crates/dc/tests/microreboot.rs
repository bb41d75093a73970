//! Directed tests for component-level microreboot: the escalation
//! ladder's exact schedule, the MTTR advantage over full rollback, and
//! the oracle flagging a seeded unsound partial restart.

#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test inputs are tiny by construction (seed counts, page numbers, probe offsets), so index-type narrowing cannot truncate"
)]

use ft_core::event::ProcessId;
use ft_core::protocol::Protocol;
use ft_dc::harness::{DcHarness, DcReport};
use ft_dc::recovery::Strategy;
use ft_dc::state::DcConfig;
use ft_dc::Mutation;
use ft_faults::arrivals::EscalationPolicy;
use ft_faults::crash::{CrashPoint, Fault};
use ft_mem::error::MemResult;
use ft_mem::mem::ArenaCell;
use ft_sim::script::InputScript;
use ft_sim::sim::{SimConfig, Simulator};
use ft_sim::syscalls::{App, AppStatus, SysMem, WaitCond};
use ft_sim::MS;

/// A disciplined interactive echo whose output depends on a running
/// counter, so re-executing an echo over non-restored memory yields a
/// *different* visible token (the mutation detector relies on this).
struct CountEcho;

impl App for CountEcho {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        let phase: ArenaCell<u64> = ArenaCell::at(0);
        let staged: ArenaCell<u64> = ArenaCell::at(8);
        let count: ArenaCell<u64> = ArenaCell::at(16);
        match phase.get(&sys.mem().arena)? {
            0 => {
                if let Some(bytes) = sys.read_input() {
                    let m = sys.mem();
                    staged.set(&mut m.arena, bytes[0] as u64)?;
                    phase.set(&mut m.arena, 1)?;
                    Ok(AppStatus::Running)
                } else if sys.input_exhausted() {
                    Ok(AppStatus::Done)
                } else {
                    Ok(AppStatus::Blocked(WaitCond::input()))
                }
            }
            _ => {
                let s = staged.get(&sys.mem().arena)?;
                let c = count.get(&sys.mem().arena)?;
                sys.visible(s * 1000 + c + 1);
                let m = sys.mem();
                count.set(&mut m.arena, c + 1)?;
                phase.set(&mut m.arena, 0)?;
                Ok(AppStatus::Running)
            }
        }
    }
}

fn keystrokes(n: usize) -> InputScript {
    InputScript::evenly_spaced(0, 100 * MS, (0..n).map(|i| vec![(i % 200) as u8]).collect())
}

fn run(n: usize, seed: u64, cfg: DcConfig, kills: &[u64]) -> DcReport {
    let mut sim = Simulator::new(SimConfig::single_node(1, seed));
    sim.set_input_script(ProcessId(0), keystrokes(n));
    for &t in kills {
        sim.kill_at(ProcessId(0), t);
    }
    DcHarness::new(sim, cfg, vec![Box::new(CountEcho)]).run()
}

fn cfg_with(strategy: Strategy, mutation: Mutation) -> DcConfig {
    let mut cfg = DcConfig::discount_checking(Protocol::Cpvs);
    cfg.strategy = strategy;
    cfg.escalation = EscalationPolicy::default();
    cfg.mutation = mutation;
    // Room for a full ladder (3 attempts) plus the escalated rollback.
    cfg.max_recoveries = 16;
    cfg
}

#[test]
fn never_sticks_walks_the_exact_ladder_then_escalates() {
    // A component that never sticks: killed at trace position 10, then at
    // 12, 14 and 16, which each partial restart reaches before it has
    // caught up, so every kill folds into the one open incident.
    let mut cfg = cfg_with(Strategy::Microreboot, Mutation::None);
    cfg.faults = [10, 12, 14, 16]
        .map(|pos| Fault::Kill(CrashPoint::AtPosition { pid: 0, pos }))
        .to_vec();
    let report = run(10, 11, cfg, &[]);
    // The ladder is exhausted, the incident escalates to a full rollback,
    // and the full rollback (which the schedule does not kill) lands.
    assert!(report.all_done, "escalated full rollback must recover");
    assert_eq!(report.abandoned, 0);
    assert_eq!(
        report.incidents.len(),
        1,
        "one incident: {:?}",
        report.incidents
    );
    let inc = &report.incidents[0];
    assert_eq!(inc.microreboot_attempts, 3, "default ladder is 3 attempts");
    assert_eq!(
        inc.attempt_delays,
        vec![5 * MS, 10 * MS, 20 * MS],
        "doubling backoff from 5 ms"
    );
    assert!(inc.escalated, "ladder exhaustion must escalate");
    assert!(inc.recovered_at.is_some(), "incident must close");
    assert_eq!(report.totals.microreboots, 3);
    assert_eq!(report.totals.escalations, 1);
}

#[test]
fn microreboot_recovers_faster_than_full_rollback() {
    let mttr = |strategy| {
        let report = run(10, 11, cfg_with(strategy, Mutation::None), &[333 * MS]);
        assert!(report.all_done, "{strategy:?} did not recover");
        assert_eq!(report.incidents.len(), 1);
        report.incidents[0].mttr_ns().expect("incident must close")
    };
    let micro = mttr(Strategy::Microreboot);
    let full = mttr(Strategy::FullRollback);
    assert!(
        micro < full,
        "microreboot MTTR {micro} must beat full rollback {full}"
    );
}

/// Kill times sweeping both the 100 ms think-time gaps and the
/// sub-millisecond windows *inside* a keystroke's read→echo cycle, where
/// uncommitted dirty pages are live and a bad restore actually bites.
fn kill_grid() -> Vec<u64> {
    (0..50u64)
        .map(|k| 100 * MS * (k / 5) + (k % 5) * 7 * MS / 10 + 1)
        .chain((1..10u64).map(|k| k * 37 * MS))
        .collect()
}

#[test]
fn honest_microreboot_passes_the_oracle_at_every_kill_time() {
    let canon = run(
        10,
        11,
        cfg_with(Strategy::FullRollback, Mutation::None),
        &[],
    );
    assert!(canon.all_done);
    let reference = canon.visible_pairs();
    for kill_at in kill_grid() {
        let report = run(
            10,
            11,
            cfg_with(Strategy::Microreboot, Mutation::None),
            &[kill_at],
        );
        assert!(report.all_done, "kill@{kill_at} did not complete");
        let verdict = report.judge_against(&canon.trace, &reference);
        assert!(verdict.is_ok(), "kill@{kill_at}: {:?}", verdict.err());
    }
}

#[test]
fn skipped_page_reinstall_is_flagged_by_the_oracle() {
    // Sweep the same kill times with the seeded unsound restore: the
    // component resumes on its crashed memory under rewound cursors, so
    // re-executed echoes carry a diverged counter. The oracle must catch
    // it at (at least) every mid-cycle kill; it MUST catch it somewhere.
    let canon = run(
        10,
        11,
        cfg_with(Strategy::FullRollback, Mutation::None),
        &[],
    );
    let reference = canon.visible_pairs();
    let mut flagged = 0u32;
    for kill_at in kill_grid() {
        let report = run(
            10,
            11,
            cfg_with(Strategy::Microreboot, Mutation::SkipPageReinstall),
            &[kill_at],
        );
        if report.judge_against(&canon.trace, &reference).is_err() {
            flagged += 1;
        }
    }
    assert!(
        flagged > 0,
        "the seeded unsound partial restart was never flagged"
    );
}
