//! COMMIT-ALL is the origin of the protocol space (§2.4): a commit at
//! every interposition point, whatever the event's class. Pinned on the
//! Figure 8(a) nvi session (nd, visible and `close` events) and on a
//! two-process game session (sends and receives).

use ft_apps::scenarios::{self, Built};
use ft_core::event::{EventKind, ProcessId};
use ft_core::protocol::Protocol;
use ft_core::savework::check_save_work;
use ft_dc::harness::{DcHarness, DcReport};
use ft_dc::state::DcConfig;
use ft_sim::cost::SimTime;

fn run(built: Built, protocol: Protocol, kill: Option<(ProcessId, SimTime)>) -> DcReport {
    let (mut sim, apps) = built.into_parts();
    if let Some((pid, at)) = kill {
        sim.kill_at(pid, at);
    }
    DcHarness::new(sim, DcConfig::discount_checking(protocol), apps).run()
}

/// Executed events of a failure-free run by interposition class:
/// (nd including receives, visible, send, other).
fn intercepted(report: &DcReport) -> (u64, u64, u64, u64) {
    let (mut nd, mut visible, mut send, mut other) = (0, 0, 0, 0);
    for e in report.trace.iter() {
        match e.kind {
            EventKind::NonDeterministic { .. } | EventKind::Recv { .. } => nd += 1,
            EventKind::Visible { .. } => visible += 1,
            EventKind::Send { .. } => send += 1,
            EventKind::Internal => other += 1,
            EventKind::Commit { .. } => {}
            ref k => panic!("unexpected event in a failure-free run: {k:?}"),
        }
    }
    (nd, visible, send, other)
}

/// Failure-free: one commit per intercepted event, strictly more than
/// CAND, Save-work upheld. Then a mid-run kill of `victim` recovers.
/// Returns the failure-free run's (nd, visible, send, other) counts.
fn commits_at_every_interposition_point(
    build: fn() -> Built,
    victim: ProcessId,
) -> (u64, u64, u64, u64) {
    let canon = run(build(), Protocol::CommitAll, None);
    assert!(canon.all_done);
    let (nd, visible, send, other) = intercepted(&canon);
    assert_eq!(
        canon.total_commits(),
        nd + visible + send + other,
        "nd {nd} + visible {visible} + send {send} + other {other}"
    );
    let cand = run(build(), Protocol::Cand, None);
    assert!(canon.total_commits() > cand.total_commits());
    assert_eq!(check_save_work(&canon.trace), Ok(()));

    let recovered = run(
        build(),
        Protocol::CommitAll,
        Some((victim, canon.runtime / 2)),
    );
    assert!(recovered.all_done);
    assert_eq!(recovered.totals.recoveries, 1, "the kill must land mid-run");
    let verdict = recovered.judge_against(&canon.trace, &canon.visible_pairs());
    assert!(verdict.is_ok(), "{:?}", verdict.err());
    (nd, visible, send, other)
}

#[test]
fn nvi_commits_at_every_interposition_point() {
    // The fig8 panel's session: long enough to reach its two saves, the
    // only `Other`-class (`close`) events nvi executes.
    let (.., other) =
        commits_at_every_interposition_point(|| scenarios::nvi(11, 3000), ProcessId(0));
    assert!(other > 0, "the session must exercise an Other-class event");
}

#[test]
fn send_recv_pair_commits_at_every_interposition_point() {
    let (_, _, send, _) =
        commits_at_every_interposition_point(|| scenarios::xpilot_with(17, 1, 30), ProcessId(1));
    assert!(send > 0);
}
