//! Failure transparency for the lock-based DSM workload: kill every
//! process of the task farm — workers mid-critical-section and the lock
//! manager itself — under multiple protocols, and require full recovery
//! with the exact reference checksum on every node.
//!
//! Manager kills are the interesting case: the manager's queues, holder
//! words, and accumulated write notices all live in its arena, and
//! `LockServer::service` is structured compute → send → mutate precisely
//! so that a commit interposed at the grant send replays correctly (the
//! resent grant deduplicates; the queue mutations re-apply from their
//! pre-send state).

use ft_apps::scenarios;
use ft_apps::taskfarm::TaskFarm;
use ft_core::event::ProcessId;
use ft_core::protocol::Protocol;
use ft_core::savework::check_save_work;
use ft_dc::harness::DcHarness;
use ft_dc::state::DcConfig;
use ft_sim::{MS, US};

fn sweep(proto: Protocol, kills: std::ops::Range<u64>) {
    let reference = TaskFarm::reference_checksum();
    for k in kills {
        let (mut sim, apps) = scenarios::taskfarm(9, 3).into_parts();
        // Round-robin the victim over the three workers AND the manager.
        let victim = ProcessId((k % 4) as u32);
        sim.kill_at(victim, k * 700 * US + MS);
        let report = DcHarness::new(sim, DcConfig::discount_checking(proto), apps).run();
        assert!(
            report.all_done,
            "{proto} kill #{k} (victim {}) did not complete",
            victim.0
        );
        assert!(
            check_save_work(&report.trace).is_ok(),
            "{proto} kill #{k}: {:?}",
            check_save_work(&report.trace)
        );
        assert!(
            report.visibles.len() >= 3,
            "{proto} kill #{k}: missing checksum lines"
        );
        for &(_, p, cs) in &report.visibles {
            assert_eq!(
                cs, reference,
                "{proto} kill #{k}: node {} recovered to a wrong checksum",
                p.0
            );
        }
    }
}

#[test]
fn taskfarm_survives_kills_under_cpvs() {
    sweep(Protocol::Cpvs, 1..20);
}

#[test]
fn taskfarm_survives_kills_under_cand() {
    sweep(Protocol::Cand, 1..20);
}

#[test]
fn taskfarm_survives_kills_under_coordinated_2pc() {
    sweep(Protocol::Cbndv2pc, 1..20);
}

#[test]
fn identical_runs_are_bit_identical() {
    // Determinism regression: the network once kept its channels in a
    // HashMap, so same-instant delivery ties broke on random iteration
    // order and a recovery's replay could diverge from the original run.
    // Two identically-seeded executions must now produce identical
    // visible streams, runtimes, and commit counts.
    let run = || {
        let (mut sim, apps) = scenarios::taskfarm(9, 3).into_parts();
        sim.kill_at(ProcessId(3), 3 * 700 * US + MS);
        let r = DcHarness::new(sim, DcConfig::discount_checking(Protocol::CbndvsLog), apps).run();
        (r.visibles.clone(), r.runtime, r.commits_per_proc.clone())
    };
    assert_eq!(run(), run());
}

#[test]
fn taskfarm_survives_a_worker_and_manager_double_kill() {
    let reference = TaskFarm::reference_checksum();
    let (mut sim, apps) = scenarios::taskfarm(9, 3).into_parts();
    sim.kill_at(ProcessId(1), 2 * MS);
    sim.kill_at(ProcessId(3), 9 * MS);
    let report = DcHarness::new(sim, DcConfig::discount_checking(Protocol::Cpvs), apps).run();
    assert!(report.all_done, "double kill not recovered");
    assert!(report.totals.recoveries >= 2);
    assert!(check_save_work(&report.trace).is_ok());
    for &(_, _, cs) in &report.visibles {
        assert_eq!(cs, reference);
    }
}

#[test]
fn taskfarm_survives_a_manager_kill_under_every_protocol() {
    // Kill timing #3 lands on the manager mid-grant-chain; every Figure 8
    // protocol must bring the whole farm back.
    let reference = TaskFarm::reference_checksum();
    for proto in Protocol::FIGURE8 {
        let (mut sim, apps) = scenarios::taskfarm(9, 3).into_parts();
        sim.kill_at(ProcessId(3), 3 * 700 * US + MS);
        let report = DcHarness::new(sim, DcConfig::discount_checking(proto), apps).run();
        assert!(report.all_done, "{proto}: manager kill not recovered");
        for &(_, _, cs) in &report.visibles {
            assert_eq!(cs, reference, "{proto}");
        }
    }
}
