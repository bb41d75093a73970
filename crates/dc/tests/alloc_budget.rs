//! The heap allocations of a failure-free kvstore run under CPVS, gated
//! as a budget: past warm-up, no event allocates.
//!
//! What one event may allocate follows from the structures on its path.
//! A send allocates nothing: the application packs the message on its
//! stack, and its payload (at most 38 bytes) and its dependency set (empty
//! under a commit-before-send protocol) travel inline, into the channel's
//! buffer and out to the receiver by copy. Nor does a receive, or a commit
//! once a process's snapshot buffers have grown to size. Everything else
//! is amortised growth of flat columns — the trace, the visible log, each
//! channel's message buffer and sequence column — which double, so it is
//! logarithmic in what the run retains.

mod counting;

use ft_apps::kvstore::KvParams;
use ft_apps::scenarios;
use ft_core::event::EventKind;
use ft_core::protocol::Protocol;
use ft_dc::harness::DcHarness;
use ft_dc::state::DcConfig;

/// What [`run`] measured.
struct Counts {
    blocks: u64,
    events: u64,
    sends: u64,
}

/// 8 shards × 3 replicas + 4 gateways under CPVS, failure-free: the
/// blocks `DcHarness::run` allocated, and what it executed.
fn run(requests_per_gateway: u64) -> Counts {
    let params = KvParams {
        shards: 8,
        replication: 3,
        gateways: 4,
        requests_per_gateway,
        sessions: 10_000,
        key_space: 1 << 10,
        ..KvParams::small(23)
    };
    assert_eq!(params.n_processes() as u64, PROCESSES);
    let (sim, apps) = scenarios::kvstore_cluster(&params).into_parts();
    let harness = DcHarness::new(sim, DcConfig::discount_checking(Protocol::Cpvs), apps);

    let (report, blocks) = counting::blocks_of(|| harness.run());

    assert!(report.all_done && report.abandoned == 0);
    let count = |is: fn(&EventKind) -> bool| report.trace.iter().filter(|e| is(&e.kind)).count();
    let sends = count(|k| matches!(k, EventKind::Send { .. }));
    let recvs = count(|k| matches!(k, EventKind::Recv { .. }));
    let commits = count(|k| matches!(k, EventKind::Commit { .. }));
    assert!(
        recvs == sends && commits > sends,
        "every event kind on the path"
    );
    Counts {
        blocks,
        events: report.trace.len() as u64,
        sends: sends as u64,
    }
}

const PROCESSES: u64 = 28;
/// Each gateway ⇄ each primary, each primary → its two replicas.
const CHANNELS: u64 = 2 * 4 * 8 + 8 * 2;

#[test]
fn past_warm_up_a_run_allocates_nothing_per_send() {
    // The same cluster at 2 000 and at 4 000 requests per gateway: the
    // difference is free of everything a run allocates once (each
    // process's snapshot buffers, undo pool and tables growing to size).
    let short = run(2_000);
    let long = run(4_000);
    let events = long.events - short.events;
    let sends = long.sends - short.sends;
    let blocks = long.blocks - short.blocks;
    assert!(sends > 20_000 && events > 3 * sends);

    // A doubling buffer whose length doubles reallocates once, twice if it
    // straddles a boundary. The buffers that grow with the run: a message
    // buffer and a sequence column per channel; per process its trace
    // column and a few retained tables; a handful of global logs.
    let growth = 2 * (2 * CHANNELS + 4 * PROCESSES + 8);
    assert!(
        blocks <= growth,
        "{events} more events ({sends} of them sends) allocated {blocks} more blocks; the budget \
         is {growth} for buffer growth, none per send, receive or commit"
    );
}
