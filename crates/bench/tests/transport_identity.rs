//! Transport transparency: installing a fault plan whose probabilities are
//! all zero (and with no partitions) must be invisible — the run produces
//! the exact trace, visibles and runtime of the seed network, for every
//! workload in the suite. This pins the decision-at-schedule-time design:
//! the transport's private rng and bookkeeping never perturb the
//! simulation unless a fault actually fires.

use ft_apps::scenarios::{self, Built};
use ft_core::protocol::Protocol;
use ft_dc::harness::DcHarness;
use ft_dc::state::DcConfig;
use ft_sim::harness::run_plain_on;
use ft_sim::net::{NetFaultPlan, NetStats};

fn zero_plan() -> NetFaultPlan {
    NetFaultPlan {
        seed: 0x2E80,
        ..NetFaultPlan::default()
    }
}

fn assert_identical(build: &dyn Fn() -> Built, name: &str) {
    let (sim, mut apps) = build().into_parts();
    let plain = run_plain_on(sim, &mut apps);
    let (mut sim, mut apps) = build().into_parts();
    sim.install_net_fault_plan(zero_plan());
    let wired = run_plain_on(sim, &mut apps);
    assert_eq!(
        plain.all_done, wired.all_done,
        "{name}: completion diverged"
    );
    assert_eq!(plain.runtime, wired.runtime, "{name}: runtime diverged");
    assert_eq!(plain.visibles, wired.visibles, "{name}: visibles diverged");
    assert_eq!(
        format!("{:?}", plain.trace),
        format!("{:?}", wired.trace),
        "{name}: trace diverged"
    );
}

#[test]
fn zero_probability_plan_is_trace_invisible_on_every_workload() {
    for (name, size) in scenarios::GOLDEN {
        let build = || scenarios::family(name, 7, size).expect("every golden workload is a family");
        assert_identical(&build, name);
    }
}

/// The same invisibility must hold under the recovery runtime: a zero
/// plan leaves a protocol run's visibles, runtime and commit counts
/// untouched, and the transport counters all read zero.
#[test]
fn zero_probability_plan_is_invisible_under_the_recovery_runtime() {
    let run = |plan: Option<NetFaultPlan>| {
        let (mut sim, apps) = scenarios::taskfarm(7, 3).into_parts();
        if let Some(p) = plan {
            sim.install_net_fault_plan(p);
        }
        DcHarness::new(sim, DcConfig::discount_checking(Protocol::Cbndv2pc), apps).run()
    };
    let plain = run(None);
    let wired = run(Some(zero_plan()));
    assert!(plain.all_done && wired.all_done);
    assert_eq!(plain.runtime, wired.runtime, "runtime diverged");
    assert_eq!(plain.visibles, wired.visibles, "visibles diverged");
    assert_eq!(plain.commits_per_proc, wired.commits_per_proc);
    assert_eq!(
        wired.net,
        NetStats::default(),
        "a zero plan must count nothing"
    );
}
