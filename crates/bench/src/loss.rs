//! The loss-rate degradation sweep: failure-free runtime overhead of a
//! recovery protocol as the network fabric gets lossier, with the
//! transport-layer counters that explain the curve.
//!
//! For each loss rate the workload runs to completion under the recovery
//! runtime over a fabric built by `NetFaultPlan::lossy` (the given drop
//! rate plus light duplication and a reordering window); the 0% row is the
//! baseline the overhead column is measured against. Every row also
//! validates Save-work — the transport must be transparent to the
//! protocol's guarantees, not just to completion.
//!
//! Each rate's run is independent (`run_rate` is pure in its inputs);
//! only the overhead column couples rows, and it is computed in a serial
//! fold after the runs, so `loss_sweep` shards the runs across workers
//! and produces the same rows for every thread count.

use ft_apps::scenarios::Built;
use ft_core::protocol::Protocol;
use ft_core::savework::check_save_work;
use ft_dc::harness::DcHarness;
use ft_dc::state::DcConfig;
use ft_sim::net::{NetFaultPlan, NetStats};
use ft_sim::runner::run_indexed;
use ft_sim::SimTime;

use crate::fig8::overhead_pct;

/// One point of the degradation curve.
#[derive(Debug, Clone, PartialEq)]
pub struct LossRow {
    /// Attempt drop probability, in percent.
    pub loss_pct: f64,
    /// Wall time of the run.
    pub runtime: SimTime,
    /// Runtime overhead vs. this sweep's lossless (0%) row, in percent.
    pub overhead_pct: f64,
    /// Transport counters for the run.
    pub net: NetStats,
    /// Coordinated-commit timeouts reported by the recovery runtime.
    pub twopc_timeouts: u64,
}

/// Runs one rate of the sweep: a full workload run over the lossy fabric,
/// with the Save-work validation. Pure in `(build, protocol, fabric_seed,
/// rate)` and self-contained, so any worker can run any rate.
fn run_rate(
    build: &(dyn Fn() -> Built + Sync),
    protocol: Protocol,
    fabric_seed: u64,
    rate: f64,
) -> (SimTime, NetStats, u64) {
    let (mut sim, apps) = build().into_parts();
    sim.install_net_fault_plan(NetFaultPlan::lossy(fabric_seed, rate));
    let report = DcHarness::new(sim, DcConfig::discount_checking(protocol), apps).run();
    assert!(
        report.all_done,
        "{protocol} at {:.0}% loss must complete",
        rate * 100.0
    );
    assert!(
        check_save_work(&report.trace).is_ok(),
        "{protocol} at {:.0}% loss violated Save-work: {:?}",
        rate * 100.0,
        check_save_work(&report.trace)
    );
    (report.runtime, report.net, report.totals.twopc_timeouts)
}

/// Folds per-rate run results into curve rows; the first row's runtime is
/// the overhead baseline.
fn fold_rows(rates: &[f64], runs: Vec<(SimTime, NetStats, u64)>) -> Vec<LossRow> {
    let mut base_runtime = None;
    rates
        .iter()
        .zip(runs)
        .map(|(&rate, (runtime, net, twopc_timeouts))| {
            let base = *base_runtime.get_or_insert(runtime);
            LossRow {
                loss_pct: rate * 100.0,
                runtime,
                overhead_pct: overhead_pct(base, runtime),
                net,
                twopc_timeouts,
            }
        })
        .collect()
}

/// Sweeps `rates` (fractions, e.g. `0.05` for 5%) over one workload under
/// one protocol, the per-rate runs sharded across `threads` workers. The
/// first rate should be `0.0` so the overhead column has its baseline; if
/// it is not, the first row still serves as the baseline.
pub(crate) fn loss_sweep(
    build: &(dyn Fn() -> Built + Sync),
    protocol: Protocol,
    fabric_seed: u64,
    rates: &[f64],
    threads: usize,
) -> Vec<LossRow> {
    let runs = run_indexed(rates.len(), threads, |i| {
        run_rate(build, protocol, fabric_seed, rates[i])
    });
    fold_rows(rates, runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_apps::scenarios;

    #[test]
    fn lossy_taskfarm_degrades_but_completes() {
        let build = || scenarios::taskfarm(11, 3);
        let rows = loss_sweep(&build, Protocol::Cbndv2pc, 0xFAB, &[0.0, 0.05], 1);
        assert_eq!(rows.len(), 2);
        let clean = &rows[0];
        let lossy = &rows[1];
        assert_eq!(clean.overhead_pct, 0.0);
        // 0% loss drops nothing (the lossy spec's light duplication and
        // reorder window may still fire).
        assert_eq!(clean.net.drops, 0);
        assert_eq!(clean.net.retransmissions, 0);
        assert!(lossy.net.drops > 0, "5% loss must drop something");
        assert_eq!(
            lossy.net.retransmissions, lossy.net.timeouts,
            "every timeout retransmits, and nothing else does"
        );
        assert!(
            lossy.runtime >= clean.runtime,
            "retransmission delay cannot speed the run up"
        );
    }
}
