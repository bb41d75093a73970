//! Which processes the Save-work check replays on a crashed kvstore trial.
//!
//! `check_save_work` derives clock columns only for processes that make an
//! application send with a live, uncommitted nd behind it, and for members
//! of coordinated rounds (`ft_core::savework::Positions::columns`). Every
//! commit-before-send protocol leaves no such send, even through crashes,
//! rollbacks and microreboots, so the check replays no column at all; the
//! two-phase-commit protocols put every process in a round and replay them
//! all. A change that widens the first set or narrows the second moves the
//! counts pinned here.

use ft_apps::kvstore::KvParams;
use ft_apps::scenarios;
use ft_core::event::{EventKind, ProcessId};
use ft_core::fault::{CrashPoint, Fault};
use ft_core::protocol::Protocol;
use ft_core::savework::{build_positions, check_save_work};
use ft_dc::{DcConfig, DcHarness, Strategy};
use ft_sim::rng::{PoissonArrivals, SplitMix64};

const SEED: u64 = 11;
const KILLS_PER_TRIAL: f64 = 4.0;

fn params() -> KvParams {
    KvParams {
        shards: 3,
        replication: 3,
        ..KvParams::small(SEED)
    }
}

/// One Poisson-crashed trial of the cluster under `protocol` and
/// `strategy`: the column count of its judge, and whether it crashed.
fn columns_of_a_crashed_trial(protocol: Protocol, strategy: Strategy) -> (usize, bool) {
    let params = params();
    let procs = params.n_processes();
    let reference = {
        let (sim, apps) = scenarios::kvstore_cluster(&params).into_parts();
        DcHarness::new(sim, DcConfig::discount_checking(protocol), apps).run()
    };
    assert!(reference.all_done);
    let mut dc = DcConfig::discount_checking(protocol);
    dc.strategy = strategy;
    dc.max_recoveries = 64;
    let mut arrivals = PoissonArrivals::new(
        SplitMix64::new(SEED).nth(0),
        KILLS_PER_TRIAL / (reference.runtime as f64 / 1e9),
    );
    let mut victims = SplitMix64::new(SplitMix64::new(SEED).nth(1));
    let mut next = arrivals.next_arrival_ns();
    while next <= reference.runtime {
        let pid = ProcessId::from_index(victims.index(procs)).0;
        dc.faults
            .push(Fault::Kill(CrashPoint::AtTime { pid, t: next }));
        next = arrivals.next_arrival_ns();
    }
    let (sim, apps) = scenarios::kvstore_cluster(&params).into_parts();
    let report = DcHarness::new(sim, dc, apps).run();
    assert_eq!(
        check_save_work(&report.trace),
        Ok(()),
        "{protocol:?} {strategy:?}"
    );
    let crashed = report
        .trace
        .iter()
        .any(|e| matches!(e.kind, EventKind::Rollback { .. }));
    (build_positions(&report.trace).columns().len(), crashed)
}

#[test]
fn commit_before_send_protocols_replay_no_column_and_2pc_every_one() {
    let n = params().n_processes();
    let expected = [
        (Protocol::Cpvs, 0),
        (Protocol::Cbndvs, 0),
        (Protocol::Cand, 0),
        (Protocol::CbndvsLog, 0),
        (Protocol::Cpv2pc, n),
        (Protocol::Cbndv2pc, n),
    ];
    for (protocol, columns) in expected {
        for strategy in [Strategy::FullRollback, Strategy::Microreboot] {
            let (got, crashed) = columns_of_a_crashed_trial(protocol, strategy);
            assert!(
                crashed,
                "{protocol:?} {strategy:?}: the trial never rolled back"
            );
            assert_eq!(got, columns, "{protocol:?} {strategy:?} over {n} processes");
        }
    }
}
