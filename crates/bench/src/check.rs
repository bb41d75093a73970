//! The model-checking stage: `ft-check`'s exhaustive crash-schedule sweep
//! as a campaign stage.
//!
//! Exhausts every crash point (mid-commit sub-steps included) of small
//! nvi, taskfarm and kvstore workloads under all seven Figure 8 protocols
//! — and, at full size, of kvstore at 128 requests under CBNDV-2PC at
//! three seeds — and reports states explored and the fingerprint-dedup
//! ratio per sweep.
//! The gate is zero invariant violations; on a violation the first one is
//! shrunk and its replay script travels inside `BENCH_check.json` and the
//! gate's error text — save it to a file and `campaign --replay FILE`
//! re-executes it.

use ft_check::explore::{canonical_run, run_faults};
use ft_check::{explore, parse_script, shrink, CheckConfig, Counterexample, Exploration, Workload};
use ft_core::event::ProcessId;
use ft_core::fault::Fault;
use ft_core::protocol::Protocol;

use crate::json::Json;
use crate::stage::Stage;

/// The model-checking stage: one exhaustive sweep per entry of `sweeps`.
#[derive(Debug, Clone)]
pub struct CheckStage {
    /// CI smoke sizing (recorded in the report header).
    pub quick: bool,
    /// The sweeps, in report order: a workload and the checker
    /// configuration to exhaust it under.
    pub sweeps: Vec<(Workload, CheckConfig)>,
}

impl CheckStage {
    /// nvi, taskfarm and kvstore at the full (4 / 2 / 3) or quick
    /// (2 / 1 / 2) sizes, each under every Figure 8 protocol; at full size
    /// also kvstore@128 under CBNDV-2PC at seeds 7, 11 and 12 — the shape
    /// on which a gateway restored past a primary's uncommitted receive was
    /// once judged an orphan (ROADMAP 1(i)), and the one protocol family
    /// that ships uncommitted non-determinism at all.
    pub fn new(quick: bool) -> Self {
        let sizes = if quick { [2, 1, 2] } else { [4, 2, 3] };
        let mut sweeps: Vec<_> = ["nvi", "taskfarm", "kvstore"]
            .into_iter()
            .zip(sizes)
            .flat_map(|(name, size)| {
                let w = Workload {
                    name,
                    seed: 7,
                    size,
                };
                Protocol::FIGURE8.map(|protocol| (w, CheckConfig::new(protocol)))
            })
            .collect();
        if !quick {
            sweeps.extend([7, 11, 12].map(|seed| {
                let w = Workload {
                    name: "kvstore",
                    seed,
                    size: 128,
                };
                (w, CheckConfig::new(Protocol::Cbndv2pc))
            }));
        }
        CheckStage { quick, sweeps }
    }

    /// The first violating sweep's shrunk counterexample, if any sweep
    /// violated an invariant.
    fn counterexample(&self, rows: &[Exploration]) -> Option<Counterexample> {
        let (w, cfg) = self
            .sweeps
            .iter()
            .zip(rows)
            .find(|(_, ex)| !ex.violations().is_empty())?
            .0;
        shrink(w, cfg)
    }
}

impl Stage for CheckStage {
    const NAME: &'static str = "check";
    type Rows = Vec<Exploration>;

    fn run(&self, threads: usize) -> Vec<Exploration> {
        self.sweeps
            .iter()
            .map(|(w, cfg)| explore(w, &CheckConfig { threads, ..*cfg }))
            .collect()
    }

    fn json(&self, rows: &Vec<Exploration>) -> Json {
        let states: usize = rows.iter().map(Exploration::explored).sum();
        let unique: usize = rows.iter().map(|ex| ex.unique_fingerprints).sum();
        let runs = self.sweeps.iter().zip(rows).map(|((w, cfg), ex)| {
            Json::obj([
                ("workload", Json::from(w.name)),
                ("protocol", Json::from(cfg.protocol.name())),
                ("size", Json::from(w.size)),
                ("states_explored", Json::from(ex.explored())),
                ("unique_states", Json::from(ex.unique_fingerprints)),
                ("dedup_ratio", Json::from(ex.dedup_ratio())),
                ("violations", Json::from(ex.violations().len())),
                ("seed", Json::from(w.seed)),
            ])
        });
        let counterexample = self.counterexample(rows).map_or(Json::Null, |cx| {
            Json::obj([
                ("workload", Json::from(cx.workload.name)),
                ("size", Json::from(cx.workload.size)),
                ("protocol", Json::from(cx.protocol.name())),
                ("violation", Json::from(cx.violation.to_string())),
                ("script", Json::from(cx.script)),
            ])
        });
        let dedup = if unique > 0 {
            states as f64 / unique as f64
        } else {
            1.0
        };
        Json::obj([
            ("report", Json::from("check")),
            ("quick", Json::from(self.quick)),
            ("states_explored", Json::from(states)),
            ("unique_states", Json::from(unique)),
            ("dedup_ratio", Json::from(dedup)),
            ("runs", Json::arr(runs)),
            ("counterexample", counterexample),
        ])
    }

    /// Zero invariant violations across every sweep.
    fn gate(&self, rows: &Vec<Exploration>) -> Result<(), String> {
        let violations: usize = rows.iter().map(|ex| ex.violations().len()).sum();
        if violations == 0 {
            return Ok(());
        }
        let shrunk = self.counterexample(rows).map_or_else(String::new, |cx| {
            format!(
                "; shrunk to {}@{} size {}: {}\nsave this script and run `campaign --replay FILE`:\n{}",
                cx.workload.name,
                cx.protocol.name(),
                cx.workload.size,
                cx.violation,
                cx.script
            )
        });
        Err(format!(
            "check: {violations} crash schedules violate an invariant{shrunk}"
        ))
    }
}

/// Re-executes a replay script (`campaign --replay FILE`): `Ok` with the
/// reproduced violation, `Err` if the script is malformed, has an entry
/// for a process the workload does not have or an activation for an
/// application with no fault sites, or no longer violates anything.
pub fn replay(script: &str) -> Result<String, String> {
    let r = parse_script(script).map_err(|e| format!("bad replay script: {e}"))?;
    let cfg = r.check_config();
    let size = r.workload.size;
    let label = format!("{}@{}", r.workload.name, r.protocol.name());
    let (_, mut apps) = r.workload.build(size).into_parts();
    let procs = apps.len();
    for &fault in &r.faults {
        let bad = |why: String| Err(format!("bad replay script: `{fault}` {why}"));
        let Some(app) = apps.get_mut(ProcessId(fault.pid()).index()) else {
            return bad(format!(
                "names a process {label} does not have (it has {procs})"
            ));
        };
        if let Fault::Activate { plan, .. } = fault {
            if !app.arm_fault(plan, r.workload.seed) {
                return bad(format!(
                    "names an application with no fault sites in {label}"
                ));
            }
        }
    }
    let canonical = canonical_run(&r.workload, size, &cfg);
    match run_faults(&r.workload, size, &cfg, &canonical, &r.faults).violation {
        Some(v) => Ok(format!("reproduced on {label}: {v}")),
        None => Err(format!("{label} did NOT reproduce a violation")),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ft_check::{render_script, run_faults};
    use ft_dc::Mutation;

    /// Every entry of `faults` renders and parses back to itself.
    pub(crate) fn assert_round_trips(faults: &[Fault]) {
        assert!(!faults.is_empty());
        for &fault in faults {
            assert_eq!(fault.to_string().parse(), Ok(fault), "{fault}");
        }
    }

    /// Renders `faults` on the `(family, size)` workload at `seed` under
    /// CPVS as a replay script, parses it back, replays it and returns the
    /// replayed report's fingerprint.
    pub(crate) fn replayed_fingerprint(
        (name, size): (&'static str, usize),
        seed: u64,
        faults: &[Fault],
    ) -> u64 {
        let w = Workload { name, seed, size };
        let script = render_script(&w, size, Protocol::Cpvs, faults, Mutation::None, "");
        let r = parse_script(&script).expect("a rendered script parses");
        assert_eq!((r.workload, r.protocol), (w, Protocol::Cpvs));
        assert_eq!(r.faults, faults, "{script}");
        let cfg = r.check_config();
        let canonical = canonical_run(&w, size, &cfg);
        run_faults(&w, size, &cfg, &canonical, &r.faults).fingerprint
    }

    #[test]
    fn the_first_sweeps_kills_round_trip() {
        let (w, cfg) = CheckStage::new(false).sweeps[0];
        let canonical = canonical_run(&w, w.size, &cfg);
        let faults: Vec<Fault> = ft_check::explore::enumerate_points(&canonical)
            .into_iter()
            .map(Fault::Kill)
            .collect();
        assert_round_trips(&faults);
    }
}
