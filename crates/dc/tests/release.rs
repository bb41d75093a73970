//! The fabric keeps only what a rollback can still ask for, end to end:
//! after a kvstore and a Barnes-Hut run under every Figure 8 protocol,
//! with full rollback and with microreboot, and with two kills per run
//! (which cascade under the two-phase protocols), every channel has
//! released exactly the messages both of its ends have committed past,
//! and every run still passes the composed oracle.

use ft_apps::kvstore::KvParams;
use ft_apps::scenarios::{self, Built};
use ft_core::event::ProcessId;
use ft_core::fault::{CrashPoint, Fault};
use ft_core::protocol::Protocol;
use ft_dc::harness::{DcHarness, DcReport};
use ft_dc::recovery::Strategy;
use ft_dc::state::{count_of, DcConfig};

/// Asserts that every channel's released prefix is exactly what the two
/// ends' last commits cover, and returns how many messages the fabric
/// released. The runtime numbers a channel's messages densely in send
/// order (a withdrawal removes a tainted suffix, which the re-execution
/// sends again), so a retained message's sequence number is its absolute
/// index, and the releasable prefix is the shorter of the receiver's
/// committed consumption (capped by its cursor) and the sender's
/// committed send count, cut at the first message the transport still
/// owes an acknowledgement.
fn assert_releases_exactly(h: &DcHarness, what: &str) -> usize {
    let n = h.rt.len();
    let mut released = 0;
    for to in (0..n).map(ProcessId::from_index) {
        for from in (0..n).map(ProcessId::from_index) {
            let Some(ch) = h.sim.network().channel(from, to) else {
                continue;
            };
            let base = ch.released();
            for (i, m) in (base..).zip(ch.messages()) {
                assert_eq!(m.seq, i as u64, "{what}: {from:?}->{to:?} numbering");
            }
            let upto = count_of(&h.rt.state(to).committed.consumed, from.0).min(ch.consumed());
            let below_seq = count_of(&h.rt.state(from).committed.send_seqs, to.0);
            let releasable = upto.min(usize::try_from(below_seq).expect("a small run"));
            if ch.messages().front().is_some_and(|m| ch.unacked(m.seq)) {
                assert!(
                    base <= releasable,
                    "{what}: {from:?}->{to:?} released past {releasable}"
                );
            } else {
                assert_eq!(base, releasable, "{what}: {from:?}->{to:?} released");
            }
            released += base;
        }
    }
    released
}

/// Runs `build` under `cfg`, checks the fabric at the end, and reports.
fn run(build: fn() -> Built, cfg: DcConfig, what: &str) -> (DcReport, usize) {
    let (sim, apps) = build().into_parts();
    let mut h = DcHarness::new(sim, cfg, apps);
    h.drive(|_| {});
    let released = assert_releases_exactly(&h, what);
    (h.into_report(), released)
}

/// Every protocol, both strategies, two kills per run (each process in
/// turn a third of the way in, its successor two thirds), each run judged
/// against the protocol's failure-free run. Returns the messages released
/// and the cascade rollbacks over all runs.
fn judged_runs(build: fn() -> Built, name: &str) -> (usize, u64) {
    let (mut released, mut cascades) = (0, 0);
    for protocol in Protocol::FIGURE8 {
        let what = format!("{name} {}", protocol.name());
        let (canon, n) = run(build, DcConfig::discount_checking(protocol), &what);
        assert!(canon.all_done, "{what}");
        released += n;
        let procs = u32::try_from(canon.commits_per_proc.len()).expect("a small cluster");
        let t = canon.runtime / 3;
        for strategy in [Strategy::FullRollback, Strategy::Microreboot] {
            for victim in 0..procs {
                let what = format!("{what} {strategy:?} P{victim}");
                let mut cfg = DcConfig::discount_checking(protocol);
                cfg.strategy = strategy;
                cfg.faults = vec![
                    Fault::Kill(CrashPoint::AtTime { pid: victim, t }),
                    Fault::Kill(CrashPoint::AtTime {
                        pid: (victim + 1) % procs,
                        t: 2 * t,
                    }),
                ];
                let (report, n) = run(build, cfg, &what);
                let verdict = report.judge_against(&canon.trace, &canon.visible_pairs());
                assert!(verdict.is_ok(), "{what}: {:?}", verdict.err());
                assert!(report.totals.recoveries >= 2, "{what}: both kills land");
                released += n;
                cascades += report.totals.cascade_rollbacks;
            }
        }
    }
    (released, cascades)
}

#[test]
fn kvstore_releases_exactly_what_both_commits_cover() {
    let (released, _) = judged_runs(|| scenarios::kvstore_check(5, 10), "kvstore");
    assert!(released > 1_000, "the runs release: {released}");
}

#[test]
fn treadmarks_releases_exactly_what_both_commits_cover_through_cascades() {
    let (released, cascades) = judged_runs(|| scenarios::treadmarks(7, 2), "treadmarks");
    assert!(released > 1_000, "the runs release: {released}");
    assert!(cascades > 0, "the two-phase protocols cascade");
}

/// Pinned finding: under CAND-LOG and CBNDVS-LOG the kvstore servers never
/// commit — every receive is logged and they emit no visible — so their
/// committed counts stay 0 and no channel with a server at either end
/// releases a message: the fabric keeps the whole run there. Every other
/// Figure 8 protocol commits the servers and releases on their channels.
#[test]
fn found_log_protocols_never_release_on_kvstore_server_channels_is_pinned() {
    let servers = KvParams::check(6, 5).n_servers();
    for protocol in Protocol::FIGURE8 {
        let (sim, apps) = scenarios::kvstore_check(5, 6).into_parts();
        let mut h = DcHarness::new(sim, DcConfig::discount_checking(protocol), apps);
        h.drive(|_| {});
        let what = format!("kvstore {}", protocol.name());
        assert_releases_exactly(&h, &what);
        let n = u32::try_from(h.rt.len()).expect("a small cluster");
        let released: usize = (0..n)
            .flat_map(|from| (0..n).map(move |to| (from, to)))
            .filter(|&(from, to)| from < servers || to < servers)
            .filter_map(|(from, to)| h.sim.network().channel(ProcessId(from), ProcessId(to)))
            .map(ft_sim::net::Channel::released)
            .sum();
        assert!(h.into_report().all_done, "{what}");
        if matches!(protocol, Protocol::CandLog | Protocol::CbndvsLog) {
            assert_eq!(released, 0, "{what}: the servers never commit");
        } else {
            assert!(released > 0, "{what}: the servers' channels release");
        }
    }
}
