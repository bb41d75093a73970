//! Failure-transparency integration tests: protocols uphold Save-work on
//! real executions, and recovery from stop failures at arbitrary times
//! yields output consistent with a failure-free run (§2.3).

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
use ft_sim::MS;

/// A disciplined interactive echo: one event syscall per step, all arena
/// mutations after it. Phases: 0 = await input, 1 = echo staged byte.
struct DiscEcho;

impl App for DiscEcho {
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
    InputScript::evenly_spaced(0, 100 * MS, (0..n).map(|i| [(i % 200) as u8]))
}

fn reference_tokens(n: usize, seed: u64) -> Vec<u64> {
    let mut sim = Simulator::new(SimConfig::single_node(1, seed));
    sim.set_input_script(ProcessId(0), keystrokes(n));
    let mut apps: Vec<Box<dyn App>> = vec![Box::new(DiscEcho)];
    let report = run_plain_on(sim, &mut apps);
    assert!(report.all_done);
    report.visibles.iter().map(|&(_, _, t)| t).collect()
}

fn dc_run(
    n: usize,
    seed: u64,
    protocol: Protocol,
    kill_at: Option<u64>,
) -> ft_dc::harness::DcReport {
    let mut sim = Simulator::new(SimConfig::single_node(1, seed));
    sim.set_input_script(ProcessId(0), keystrokes(n));
    if let Some(t) = kill_at {
        sim.kill_at(ProcessId(0), t);
    }
    let harness = DcHarness::new(
        sim,
        DcConfig::discount_checking(protocol),
        vec![Box::new(DiscEcho)],
    );
    harness.run()
}

#[test]
fn all_protocols_uphold_save_work_failure_free() {
    for protocol in Protocol::FIGURE8 {
        let report = dc_run(30, 1, protocol, None);
        assert!(report.all_done, "{protocol} did not finish");
        assert!(
            check_save_work(&report.trace).is_ok(),
            "{protocol} violated Save-work: {:?}",
            check_save_work(&report.trace)
        );
        // The output matches the failure-free reference exactly.
        assert_eq!(report.visible_tokens(), reference_tokens(30, 1));
    }
}

#[test]
fn commit_counts_reflect_protocol_structure() {
    // 30 inputs, 30 visibles, no other nd sources.
    let cand = dc_run(30, 1, Protocol::Cand, None);
    assert_eq!(cand.total_commits(), 30, "CAND commits after every nd");
    let cand_log = dc_run(30, 1, Protocol::CandLog, None);
    assert_eq!(cand_log.total_commits(), 0, "all nd is logged user input");
    let cpvs = dc_run(30, 1, Protocol::Cpvs, None);
    assert_eq!(
        cpvs.total_commits(),
        30,
        "CPVS commits before every visible"
    );
    let cbndvs = dc_run(30, 1, Protocol::Cbndvs, None);
    assert_eq!(cbndvs.total_commits(), 30, "dirty before every visible");
    let cbndvs_log = dc_run(30, 1, Protocol::CbndvsLog, None);
    assert_eq!(
        cbndvs_log.total_commits(),
        0,
        "logged input leaves it clean"
    );
}

#[test]
fn recovery_after_kill_is_consistent_at_many_failure_points() {
    let reference = reference_tokens(25, 3);
    // Sweep kill times across the whole session, hitting different phases
    // of the state machine and different protocol states.
    for k in 1..40u64 {
        let kill_at = k * 61 * MS; // Deliberately not a multiple of 100 ms.
        for protocol in [Protocol::Cpvs, Protocol::Cand, Protocol::CbndvsLog] {
            let report = dc_run(25, 3, protocol, Some(kill_at));
            assert!(
                report.all_done,
                "{protocol} kill@{kill_at} did not complete"
            );
            let verdict = check_consistent_recovery(&report.visible_tokens(), &reference);
            assert!(
                verdict.consistent,
                "{protocol} kill@{kill_at}: {:?} (tokens {:?})",
                verdict.error,
                report.visible_tokens()
            );
            assert_eq!(report.totals.recoveries, 1);
        }
    }
}

#[test]
fn cand_pending_nd_replay_preserves_consumed_input() {
    // Under CAND, the commit right after read_input captures the input as
    // a pending nd. Killing between that commit and the echo must not lose
    // the keystroke.
    let reference = reference_tokens(10, 5);
    for k in 0..25u64 {
        let kill_at = 100 * MS * (k / 5) + (k % 5) * 7 * MS / 10 + 1;
        let report = dc_run(10, 5, Protocol::Cand, Some(kill_at));
        assert!(report.all_done);
        let verdict = check_consistent_recovery(&report.visible_tokens(), &reference);
        assert!(verdict.consistent, "kill@{kill_at}: {:?}", verdict.error);
        // CAND must never miss an echo: every reference token appears.
        let tokens = report.visible_tokens();
        for r in &reference {
            assert!(tokens.contains(r), "lost echo {r} (kill@{kill_at})");
        }
    }
}

#[test]
fn save_work_holds_across_failure_and_recovery() {
    // The trace spans the failure and the recovered re-execution; the
    // protocol must keep upholding the invariant throughout.
    let report = dc_run(20, 7, Protocol::Cpvs, Some(777 * MS));
    assert!(report.all_done);
    assert!(check_save_work(&report.trace).is_ok());
    assert!(report.trace.iter().any(|e| e.kind.is_crash()));
}

#[test]
fn disk_medium_is_slower_than_rio() {
    let run = |cfg: DcConfig| {
        let mut sim = Simulator::new(SimConfig::single_node(1, 1));
        sim.set_input_script(ProcessId(0), keystrokes(30));
        DcHarness::new(sim, cfg, vec![Box::new(DiscEcho)]).run()
    };
    let rio = run(DcConfig::discount_checking(Protocol::Cpvs));
    let disk = run(DcConfig::dc_disk(Protocol::Cpvs));
    assert!(rio.all_done && disk.all_done);
    assert!(
        disk.runtime > rio.runtime,
        "disk {} <= rio {}",
        disk.runtime,
        rio.runtime
    );
    assert_eq!(rio.total_commits(), disk.total_commits());
}

#[test]
fn abandoned_after_recovery_budget_exhausted() {
    // Kill the process more times than max_recoveries allows.
    let mut sim = Simulator::new(SimConfig::single_node(1, 1));
    sim.set_input_script(ProcessId(0), keystrokes(50));
    for k in 1..=10u64 {
        sim.kill_at(ProcessId(0), k * 200 * MS);
    }
    let mut cfg = DcConfig::discount_checking(Protocol::Cpvs);
    cfg.max_recoveries = 3;
    let report = DcHarness::new(sim, cfg, vec![Box::new(DiscEcho)]).run();
    assert!(!report.all_done);
    assert_eq!(report.abandoned, 1);
}
