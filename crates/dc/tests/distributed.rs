//! Distributed recovery tests: two-phase-commit protocols, tainted-message
//! withdrawal, and cascading rollback, exercised by a disciplined
//! ping-pong computation with stop failures.

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
use ft_sim::sim::{SimConfig, Simulator};
use ft_sim::syscalls::{App, AppStatus, SysMem, WaitCond};
use ft_sim::{MS, US};

const ROUNDS: u64 = 12;

/// Server: sends a token, awaits the (incremented) reply, renders it
/// visibly; `ROUNDS` rounds. One event syscall per step, mutations after.
struct Server {
    peer: ProcessId,
}

impl App for Server {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        let phase: ArenaCell<u64> = ArenaCell::at(0);
        let round: ArenaCell<u64> = ArenaCell::at(8);
        let staged: ArenaCell<u64> = ArenaCell::at(16);
        match phase.get(&sys.mem().arena)? {
            // Send the round number.
            0 => {
                let r = round.get(&sys.mem().arena)?;
                sys.send(self.peer, &[r as u8]).expect("send");
                phase.set(&mut sys.mem().arena, 1)?;
                Ok(AppStatus::Running)
            }
            // Await the reply.
            1 => {
                if let Some(m) = sys.try_recv() {
                    staged.set(&mut sys.mem().arena, m.payload[0] as u64)?;
                    phase.set(&mut sys.mem().arena, 2)?;
                    Ok(AppStatus::Running)
                } else {
                    Ok(AppStatus::Blocked(WaitCond::message()))
                }
            }
            // Render (after some frame computation — this widens the
            // window between consuming the reply and the commit at the
            // visible, which is where tainted-message cascades live).
            2 => {
                let s = staged.get(&sys.mem().arena)?;
                let r = round.get(&sys.mem().arena)?;
                sys.compute(400 * US);
                sys.visible(1000 + s * 10 + r);
                let m = sys.mem();
                round.set(&mut m.arena, r + 1)?;
                phase.set(&mut m.arena, if r + 1 < ROUNDS { 0 } else { 3 })?;
                Ok(AppStatus::Running)
            }
            _ => Ok(AppStatus::Done),
        }
    }
}

/// Echoer: replies with token + 1; finishes after `ROUNDS` replies.
struct Echoer {
    peer: ProcessId,
}

impl App for Echoer {
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
                sys.send(self.peer, &[s as u8 + 1]).expect("send");
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
        Box::new(Server { peer: ProcessId(1) }),
        Box::new(Echoer { peer: ProcessId(0) }),
    ]
}

fn reference() -> Vec<u64> {
    let sim = Simulator::new(SimConfig::one_node_each(2, 11));
    let mut a = apps();
    let report = run_plain_on(sim, &mut a);
    assert!(report.all_done);
    report.visibles.iter().map(|&(_, _, t)| t).collect()
}

fn dc_run(protocol: Protocol, kills: &[(u32, u64)]) -> DcReport {
    let mut sim = Simulator::new(SimConfig::one_node_each(2, 11));
    for &(p, t) in kills {
        sim.kill_at(ProcessId(p), t);
    }
    DcHarness::new(sim, DcConfig::discount_checking(protocol), apps()).run()
}

#[test]
fn two_phase_protocols_complete_and_uphold_save_work() {
    for protocol in [Protocol::Cpv2pc, Protocol::Cbndv2pc] {
        let report = dc_run(protocol, &[]);
        assert!(report.all_done, "{protocol}");
        assert!(
            check_save_work(&report.trace).is_ok(),
            "{protocol}: {:?}",
            check_save_work(&report.trace)
        );
        assert_eq!(report.visible_tokens(), reference(), "{protocol}");
    }
}

#[test]
fn cpv2pc_commits_everyone_per_visible() {
    let report = dc_run(Protocol::Cpv2pc, &[]);
    // Every visible (ROUNDS of them, all on the server) commits both
    // processes.
    assert_eq!(report.commits_per_proc, vec![ROUNDS, ROUNDS]);
}

#[test]
fn cbndv2pc_includes_only_the_dependency_closure() {
    let report = dc_run(Protocol::Cbndv2pc, &[]);
    // The server always depends on the echoer's receive nd, so both commit
    // each round here too — but never more than CPV-2PC.
    let total: u64 = report.commits_per_proc.iter().sum();
    assert!(total <= 2 * ROUNDS);
    assert!(report.commits_per_proc[0] == ROUNDS);
}

#[test]
fn server_failure_recovers_consistently_under_2pc() {
    let reference = reference();
    for k in 1..30u64 {
        let kill_at = k * 317 * US;
        for protocol in [Protocol::Cpv2pc, Protocol::Cbndv2pc] {
            let report = dc_run(protocol, &[(0, kill_at)]);
            assert!(report.all_done, "{protocol} kill@{kill_at}");
            let verdict = check_consistent_recovery(&report.visible_tokens(), &reference);
            assert!(
                verdict.consistent,
                "{protocol} kill@{kill_at}: {:?} tokens={:?}",
                verdict.error,
                report.visible_tokens()
            );
        }
    }
}

#[test]
fn echoer_failure_recovers_consistently_under_2pc() {
    let reference = reference();
    for k in 1..30u64 {
        let kill_at = k * 473 * US;
        let report = dc_run(Protocol::Cpv2pc, &[(1, kill_at)]);
        assert!(report.all_done, "kill@{kill_at}");
        let verdict = check_consistent_recovery(&report.visible_tokens(), &reference);
        assert!(
            verdict.consistent,
            "kill@{kill_at}: {:?} tokens={:?}",
            verdict.error,
            report.visible_tokens()
        );
    }
}

#[test]
fn tainted_messages_cascade_rollback() {
    // Under 2PC the echoer's replies are sent while dirty (its receive nd
    // is uncommitted): killing the echoer after the server consumed such a
    // reply must cascade-roll the server back. Sweep kill times until at
    // least one run exhibits a cascade; all runs must stay consistent.
    let reference = reference();
    let mut saw_cascade = false;
    for k in 1..40u64 {
        let report = dc_run(Protocol::Cpv2pc, &[(1, k * 157 * US)]);
        assert!(report.all_done);
        let verdict = check_consistent_recovery(&report.visible_tokens(), &reference);
        assert!(
            verdict.consistent,
            "kill@{}: {:?}",
            k * 157 * US,
            verdict.error
        );
        if report.totals.cascade_rollbacks > 0 {
            saw_cascade = true;
        }
    }
    assert!(saw_cascade, "no kill time produced a cascade");
}

#[test]
fn cpvs_avoids_cascades_by_committing_before_sends() {
    // CPVS commits before every send, so no message is ever tainted and no
    // failure cascades — "only failed processes are forced to roll back".
    let reference = reference();
    for k in 1..30u64 {
        let report = dc_run(Protocol::Cpvs, &[(1, k * 157 * US)]);
        assert!(report.all_done);
        assert_eq!(report.totals.cascade_rollbacks, 0, "kill #{k}");
        let verdict = check_consistent_recovery(&report.visible_tokens(), &reference);
        assert!(verdict.consistent, "kill #{k}: {:?}", verdict.error);
    }
}

#[test]
fn double_failure_still_recovers() {
    let reference = reference();
    let report = dc_run(Protocol::Cpv2pc, &[(0, 2 * MS), (1, 5 * MS)]);
    assert!(report.all_done);
    let verdict = check_consistent_recovery(&report.visible_tokens(), &reference);
    assert!(verdict.consistent, "{:?}", verdict.error);
    assert!(report.totals.recoveries >= 2);
}
