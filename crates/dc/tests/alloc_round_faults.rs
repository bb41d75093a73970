//! A two-phase round under a network fault plan allocates no more than the
//! same round without one: the coordinator reads the installed plan's
//! partitions in place on every attempt, never copying the plan. Counted
//! with a counting global allocator, so this file holds exactly one test.

mod counting;

use ft_core::event::ProcessId;
use ft_core::protocol::Protocol;
use ft_dc::runtime::DcRuntime;
use ft_dc::state::DcConfig;
use ft_mem::arena::Layout;
use ft_mem::mem::Mem;
use ft_sim::cost::MS;
use ft_sim::net::{NetFaultPlan, Partition};
use ft_sim::sim::{SimConfig, Simulator};

const N: usize = 4;

/// Blocks allocated by the third of three CPV-2PC rounds that P1
/// coordinates among four processes, with `plan` installed if given, and
/// the prepare timeouts that round charged. Every round starts at time 0:
/// nothing finishes the coordinator's step between them.
fn third_round(plan: Option<NetFaultPlan>) -> (u64, u64) {
    let mut sim = Simulator::new(SimConfig::one_node_each(N, 1));
    if let Some(plan) = plan {
        sim.install_net_fault_plan(plan);
    }
    let mems = (0..N).map(|_| Mem::new(Layout::small())).collect();
    let mut rt = DcRuntime::new(DcConfig::discount_checking(Protocol::Cpv2pc), &sim, mems);
    let me = ProcessId(1);
    for _ in 0..2 {
        rt.coordinated_commit(&mut sim.ctx(me));
    }
    let before = rt.state(me).stats.twopc_timeouts;
    let ((), blocks) = counting::blocks_of(|| rt.coordinated_commit(&mut sim.ctx(me)));
    (blocks, rt.state(me).stats.twopc_timeouts - before)
}

#[test]
fn a_round_under_a_partition_plan_allocates_no_more_than_without_one() {
    let partition = |from, to, end| Partition {
        from,
        to,
        start: 0,
        end,
    };
    // Two one-way partitions between the coordinator and two participants,
    // long enough to cost every round retries and an abort.
    let plan = NetFaultPlan {
        partitions: vec![partition(1, 0, 40 * MS), partition(2, 1, 20 * MS)],
        ..NetFaultPlan::default()
    };
    let (plain, no_timeouts) = third_round(None);
    let (faulted, timeouts) = third_round(Some(plan));
    assert_eq!(no_timeouts, 0);
    assert!(timeouts > 0, "the partitions never reached the round");
    assert_eq!(plain, 0, "a warm round allocated");
    assert!(
        faulted <= plain,
        "a round under the plan allocated {faulted} blocks, {plain} without it"
    );
}
