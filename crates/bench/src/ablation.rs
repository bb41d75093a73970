//! The §2.6 mitigation ablation: how much does crashing early help?
//!
//! The paper's advice for improving the odds against Lose-work:
//! "applications should try to crash as soon as possible after their bugs
//! get triggered … performing consistency checks" and "commit as
//! infrequently as possible". The stage quantifies both with a
//! heap-bit-flip campaign on the editor (sized like Table 1: stop a cell
//! after `target_crashes` crashes or `max_trials` trials):
//!
//! 1. integrity checks only at save time (the default) vs. at every
//!    keystroke (`eager_checks`) under CPVS — the Lose-work violation rate
//!    and the processing-time cost of the checks;
//! 2. save-time checks under protocols of different commit frequency
//!    (CAND, CPVS, CBNDVS-LOG).
//!
//! The gate is DESIGN §4's shape: eager checks strictly lower the
//! violation rate, and CBNDVS-LOG's rate is no higher than CAND's.

use ft_apps::scenarios;
use ft_core::fault::FaultType;
use ft_core::protocol::Protocol;
use ft_sim::harness::run_plain_on;
use ft_sim::runner::run_cutoff;

use crate::campaign::{report, CampaignConfig};
use crate::fig8::overhead_pct;
use crate::json::Json;
use crate::stage::Stage;
use crate::table1::{share_pct, trial_fault, unrecovered, NVI_KEYS};

/// The campaign cells: (eager checks, protocol).
const CELLS: [(bool, Protocol); 4] = [
    (false, Protocol::Cand),
    (false, Protocol::Cpvs),
    (false, Protocol::CbndvsLog),
    (true, Protocol::Cpvs),
];

/// One cell's heap-bit-flip campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AblationRow {
    /// Integrity checks at every keystroke (else at save time only).
    pub eager: bool,
    /// The protocol.
    pub protocol: Protocol,
    /// Trials attempted.
    pub trials: u32,
    /// Runs that crashed.
    pub crashes: u32,
    /// Crashed runs that committed causally after the activation.
    pub violations: u32,
}

impl AblationRow {
    /// `self`'s violation rate is strictly below `other`'s (exact, by
    /// cross-multiplication).
    fn rate_below(&self, other: &AblationRow) -> bool {
        u64::from(self.violations) * u64::from(other.crashes)
            < u64::from(other.violations) * u64::from(self.crashes)
    }

    fn rate_pct(&self) -> f64 {
        share_pct(self.violations, self.crashes)
    }
}

/// What [`AblationStage`] produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AblationResult {
    /// One row per cell: save-time checks under CAND, CPVS, CBNDVS-LOG,
    /// then eager checks under CPVS.
    pub rows: Vec<AblationRow>,
    /// Failure-free processing time (zero think time, so the checks' cost
    /// is not hidden in idle time) with save-time checks…
    pub save_time_ns: u64,
    /// …and with eager checks.
    pub eager_ns: u64,
}

/// The §2.6 mitigation-ablation stage.
#[derive(Debug, Clone, Copy)]
pub struct AblationStage<'a>(pub &'a CampaignConfig);

/// Trial `t` of a cell: Table 1's unrecovered run under `protocol`, so
/// `None` unless it crashed with the fault activated, else whether it
/// violated Lose-work.
fn trial(eager: bool, protocol: Protocol, t: usize) -> Option<bool> {
    let fault = FaultType::HeapBitFlip;
    let t = u32::try_from(t).expect("trial indices fit u32");
    let entry = trial_fault(fault, ft_apps::editor::fault_site(fault), t);
    let seed = 0xAB1A + u64::from(t) * 1297;
    let built = scenarios::nvi_custom(seed, NVI_KEYS, ft_sim::MS, eager);
    unrecovered(built, protocol, entry).1
}

fn processing_time(eager: bool) -> u64 {
    let (sim, mut apps) = scenarios::nvi_custom(1, NVI_KEYS, 0, eager).into_parts();
    let r = run_plain_on(sim, &mut apps);
    assert!(r.all_done, "the failure-free session must complete");
    r.runtime
}

impl Stage for AblationStage<'_> {
    const NAME: &'static str = "ablation";
    type Rows = AblationResult;

    fn run(&self, threads: usize) -> AblationResult {
        let cfg = self.0;
        let rows = CELLS
            .iter()
            .map(|&(eager, protocol)| {
                let mut row = AblationRow {
                    eager,
                    protocol,
                    trials: 0,
                    crashes: 0,
                    violations: 0,
                };
                run_cutoff(
                    cfg.max_trials as usize,
                    threads,
                    &mut row,
                    |row| row.crashes >= cfg.target_crashes,
                    |t| trial(eager, protocol, t),
                    |row, _, outcome| {
                        row.trials += 1;
                        if let Some(violated) = outcome {
                            row.crashes += 1;
                            row.violations += u32::from(violated);
                        }
                    },
                );
                row
            })
            .collect();
        AblationResult {
            rows,
            save_time_ns: processing_time(false),
            eager_ns: processing_time(true),
        }
    }

    fn json(&self, result: &AblationResult) -> Json {
        let rows = result.rows.iter().map(|r| {
            Json::obj([
                ("eager_checks", Json::from(r.eager)),
                ("protocol", Json::from(r.protocol.name())),
                ("trials", Json::from(r.trials)),
                ("crashes", Json::from(r.crashes)),
                ("violations", Json::from(r.violations)),
                ("violation_pct", Json::from(r.rate_pct())),
            ])
        });
        let eager_overhead = overhead_pct(result.save_time_ns, result.eager_ns);
        report(
            "ablation",
            self.0,
            [
                ("rows", Json::arr(rows)),
                ("eager_overhead_pct", Json::from(eager_overhead)),
                ("save_time_processing_ns", Json::from(result.save_time_ns)),
                ("eager_processing_ns", Json::from(result.eager_ns)),
            ],
        )
    }

    /// Eager checks strictly lower the violation rate under CPVS, and
    /// CBNDVS-LOG's rate is no higher than CAND's.
    fn gate(&self, result: &AblationResult) -> Result<(), String> {
        let [cand, cpvs, cbndvs_log, eager] = result.rows.as_slice() else {
            return Err(format!("ablation: {} rows, not 4", result.rows.len()));
        };
        if !eager.rate_below(cpvs) {
            return Err(format!(
                "ablation: eager checks ({}/{}) do not beat save-time checks ({}/{})",
                eager.violations, eager.crashes, cpvs.violations, cpvs.crashes
            ));
        }
        if cand.rate_below(cbndvs_log) {
            return Err(format!(
                "ablation: committing less often raised the rate: CBNDVS-LOG {}/{} vs CAND {}/{}",
                cbndvs_log.violations, cbndvs_log.crashes, cand.violations, cand.crashes
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::tests::assert_round_trips;

    #[test]
    fn the_first_trials_fault_round_trips() {
        let fault = FaultType::HeapBitFlip;
        assert_round_trips(&[trial_fault(fault, ft_apps::editor::fault_site(fault), 0)]);
    }
}
