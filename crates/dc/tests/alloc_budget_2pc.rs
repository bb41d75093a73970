//! The heap allocations of a failure-free kvstore run under CPV-2PC, gated
//! as a budget: past warm-up, neither a dependency snapshot nor a delivery
//! allocates.
//!
//! Under a two-phase protocol a process stays dirty between rounds, so
//! every send piggybacks a non-empty dependency snapshot and every receive
//! unions one in. A [`DepSet`] of at most [`DEP_INLINE`] members is held
//! in place, so the snapshot, the channel's retained copy and each
//! delivered copy are byte copies. What a round itself allocates (its
//! participant and cost lists) is budgeted per round; everything else is
//! amortised growth of flat columns, which double.
//!
//! [`DepSet`]: ft_core::protocol::DepSet

mod counting;

use std::collections::BTreeSet;

use ft_apps::kvstore::KvParams;
use ft_apps::scenarios;
use ft_core::event::{Event, EventKind};
use ft_core::protocol::Protocol;
use ft_dc::harness::DcHarness;
use ft_dc::state::DcConfig;

/// What [`run`] measured.
struct Counts {
    blocks: u64,
    sends: u64,
    rounds: u64,
}

/// The 8 shards × 3 replicas + 4 gateways of `alloc_budget.rs` under
/// CPV-2PC, failure-free: the blocks `DcHarness::run` allocated, the
/// sends (each a dependency snapshot and a delivery) and the rounds.
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
    let harness = DcHarness::new(sim, DcConfig::discount_checking(Protocol::Cpv2pc), apps);

    let (report, blocks) = counting::blocks_of(|| harness.run());

    assert!(report.all_done && report.abandoned == 0);
    let trace = &report.trace;
    let app_sends = trace
        .iter()
        .filter(|e| !e.logged && matches!(e.kind, EventKind::Send { .. }));
    let app_recvs = trace
        .iter()
        .filter(|e| !e.logged && matches!(e.kind, EventKind::Recv { .. }));
    let sends = app_sends.count() as u64;
    assert_eq!(
        app_recvs.count() as u64,
        sends,
        "every message delivered once"
    );
    let rounds: BTreeSet<u32> = trace.iter().filter_map(Event::group).collect();
    Counts {
        blocks,
        sends,
        rounds: rounds.len() as u64,
    }
}

const PROCESSES: u64 = 28;
/// Each gateway ⇄ each primary, each primary → its two replicas.
const CHANNELS: u64 = 2 * 4 * 8 + 8 * 2;

#[test]
fn past_warm_up_dependency_snapshots_and_deliveries_allocate_nothing() {
    let short = run(2_000);
    let long = run(4_000);
    let sends = long.sends - short.sends;
    let rounds = long.rounds - short.rounds;
    let blocks = long.blocks - short.blocks;
    assert!(sends > 20_000 && sends > 40 * rounds);
    // A round lists its participants, their commit costs, its remotes and
    // its commit events: four blocks. In the interval a round closes, a
    // participant's dependency set may outgrow DEP_INLINE members, and
    // each change to a set that large builds it anew: budgeted at one
    // block per participant per round. The columns that double are those
    // of `alloc_budget.rs`.
    let per_round = 4 + PROCESSES;
    let growth = 2 * (2 * CHANNELS + 4 * PROCESSES + 8);
    let budget = per_round * rounds + growth;
    assert!(
        blocks <= budget,
        "{sends} more sends and {rounds} more rounds allocated {blocks} more blocks; the budget \
         is {budget}: {per_round} per round and {growth} for buffer growth, none per dependency \
         snapshot or delivery"
    );
}
