//! The continuous-fault engine behind the availability and sharded-KV
//! stages.
//!
//! Both stages ask the same question of a cell matrix — *what do MTTR,
//! availability and goodput look like under a sustained Poisson crash
//! process, and did every recovery stay consistent?* — and differ only in
//! which cells they sweep, how each cell configures the recovery runtime,
//! and what they count as a served request. A stage states those three
//! things as a `FaultLoad`; everything else lives here, once:
//!
//! * **seeds**: trial `t` of cell `c` derives its arrival and victim
//!   streams in O(1) from the stage seed (`SplitMix64::nth`), so sharding
//!   cannot perturb any stream and every thread count yields the same
//!   rows;
//! * **the fault schedule**: arrivals are drawn up front over the
//!   *failure-free* horizon of the cell's reference run, one `AtTime`
//!   kill of `DcConfig::faults` each, so each trial sustains
//!   ~`crashes_per_trial` crashes no matter how far recovery stretches its
//!   own clock;
//! * **the verdict**: every trial is judged by `DcReport::judge_against`
//!   that reference run, and counted by kind;
//! * **the fold** into [`FaultStats`], which both stages' rows embed.

use ft_apps::scenarios::Built;
use ft_core::avail::{availability, nines, total_downtime_ns, Incident};
use ft_core::event::ProcessId;
use ft_core::fault::{CrashPoint, Fault};
use ft_core::oracle::InvariantViolation;
use ft_dc::{DcConfig, DcHarness, DcReport};
use ft_sim::rng::{PoissonArrivals, SplitMix64};
use ft_sim::runner::run_indexed;

use crate::json::Json;
use crate::stats::percentiles;

/// Oracle violation counts of one cell, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViolationCounts {
    /// Trials flagged by any oracle.
    pub total: u32,
    /// Structural Save-work violations in the recovered trace.
    pub save_work: u32,
    /// Abandoned or deadlocked (incomplete) runs.
    pub incomplete: u32,
    /// Visible outputs not duplicate-equivalent to the reference.
    pub inconsistent_output: u32,
    /// Pre-crash history diverging from the canonical run.
    pub prefix_divergence: u32,
    /// Rollbacks that undid a committed event.
    pub commit_rolled_back: u32,
}

impl ViolationCounts {
    fn count(&mut self, verdict: &InvariantViolation) {
        self.total += 1;
        match verdict {
            InvariantViolation::SaveWork(_) => self.save_work += 1,
            InvariantViolation::Incomplete { .. } => self.incomplete += 1,
            InvariantViolation::InconsistentOutput(_) => self.inconsistent_output += 1,
            InvariantViolation::PrefixDivergence { .. } => self.prefix_divergence += 1,
            InvariantViolation::CommitRolledBack { .. } => self.commit_rolled_back += 1,
        }
    }

    fn as_json(&self) -> Json {
        Json::obj([
            ("total", Json::from(self.total)),
            ("save_work", Json::from(self.save_work)),
            ("incomplete", Json::from(self.incomplete)),
            ("inconsistent_output", Json::from(self.inconsistent_output)),
            ("prefix_divergence", Json::from(self.prefix_divergence)),
            ("commit_rolled_back", Json::from(self.commit_rolled_back)),
        ])
    }
}

/// Aggregated continuous-fault metrics of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultStats {
    /// The derived Poisson arrival rate this cell ran at, per simulated
    /// second.
    pub rate_per_sec: f64,
    /// Trials run.
    pub trials: u32,
    /// Incidents across all trials (resolved + unresolved).
    pub incidents: u64,
    /// Incidents never resolved within their trial.
    pub unresolved: u64,
    /// MTTR percentiles over resolved incidents, ns.
    pub mttr_p50_ns: u64,
    /// 95th-percentile MTTR, ns.
    pub mttr_p95_ns: u64,
    /// 99th-percentile MTTR, ns.
    pub mttr_p99_ns: u64,
    /// Steady-state availability over all trials' process-time.
    pub availability: f64,
    /// `-log10(1 - availability)`, capped at 9.
    pub nines: f64,
    /// Requests served across all trials, as the stage counts them.
    pub served: u64,
    /// Requests served per simulated second under faults.
    pub goodput_rps: f64,
    /// The failure-free reference's requests per simulated second.
    pub baseline_rps: f64,
    /// `goodput_rps / baseline_rps`, percent.
    pub goodput_pct: f64,
    /// Trace events re-executed after rollbacks (recovery work).
    pub reexec_events: u64,
    /// Partial restarts performed.
    pub microreboots: u64,
    /// Ladder exhaustions escalated to full rollback.
    pub escalations: u64,
    /// Processes abandoned across all trials.
    pub abandoned: u32,
    /// Oracle verdicts, by kind.
    pub violations: ViolationCounts,
}

impl FaultStats {
    /// The fields both stages' report rows carry, in report order
    /// (`served` is left to the stage, which knows what it counted).
    pub(crate) fn json_fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("rate_per_sec", Json::from(self.rate_per_sec)),
            ("trials", Json::from(self.trials)),
            ("incidents", Json::from(self.incidents)),
            ("unresolved", Json::from(self.unresolved)),
            ("mttr_p50_ns", Json::from(self.mttr_p50_ns)),
            ("mttr_p95_ns", Json::from(self.mttr_p95_ns)),
            ("mttr_p99_ns", Json::from(self.mttr_p99_ns)),
            ("availability", Json::from(self.availability)),
            ("nines", Json::from(self.nines)),
            ("goodput_rps", Json::from(self.goodput_rps)),
            ("baseline_rps", Json::from(self.baseline_rps)),
            ("goodput_pct", Json::from(self.goodput_pct)),
            ("reexec_events", Json::from(self.reexec_events)),
            ("microreboots", Json::from(self.microreboots)),
            ("escalations", Json::from(self.escalations)),
            ("abandoned", Json::from(self.abandoned)),
            ("violations", self.violations.as_json()),
        ]
    }
}

/// What a stage tells the engine. `K` names a failure-free reference run:
/// cells with equal keys are judged against, and share the script of, the
/// same one.
pub(crate) struct FaultLoad<'a, K> {
    /// Stage seed: every arrival schedule and victim choice derives from
    /// it in O(1).
    pub seed: u64,
    /// Trials per cell.
    pub trials: u32,
    /// Expected Poisson arrivals per trial; the per-cell rate is this over
    /// the reference run's horizon, so every workload gets a comparable
    /// sustained fault load however long it runs.
    pub crashes_per_trial: f64,
    /// The cell matrix: each cell's reference key and its configuration
    /// under test.
    pub cells: Vec<(K, DcConfig)>,
    /// The failure-free configuration of a reference.
    pub reference: Box<dyn Fn(&K) -> DcConfig + Sync + 'a>,
    /// Builds the scenario every run of a reference and of its cells
    /// starts from.
    pub build: Box<dyn Fn(&K) -> Built + Sync + 'a>,
    /// How many requests a finished run served.
    pub served: Box<dyn Fn(&DcReport) -> u64 + Sync + 'a>,
}

/// A failure-free reference run.
pub(crate) struct Reference {
    rate_per_sec: f64,
    trace: ft_core::trace::Trace,
    /// Visible outputs as (process, token) pairs.
    pub visibles: Vec<(u32, u64)>,
    runtime: u64,
    /// Requests the reference served.
    pub served: u64,
}

/// What the engine hands back.
pub(crate) struct FaultRun {
    /// One reference per distinct key, in first-use order.
    pub references: Vec<Reference>,
    /// Each cell's index into `references`.
    pub reference_of: Vec<usize>,
    /// One stats block per cell, in matrix order.
    pub stats: Vec<FaultStats>,
    /// Simulated events executed across every reference and trial run.
    pub total_events: u64,
}

/// One trial's measured outcome.
struct TrialOutcome {
    incidents: Vec<Incident>,
    runtime: u64,
    served: u64,
    procs: u64,
    abandoned: u32,
    microreboots: u64,
    escalations: u64,
    events: u64,
    violation: Option<InvariantViolation>,
}

impl<K: PartialEq + Sync> FaultLoad<'_, K> {
    /// Runs every reference, then every trial of every cell, on `threads`
    /// workers (1 = serial); the result is the same for every count.
    pub(crate) fn run(&self, threads: usize) -> FaultRun {
        let mut keys: Vec<&K> = Vec::new();
        let reference_of: Vec<usize> = self
            .cells
            .iter()
            .map(|(key, _)| {
                keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                    keys.push(key);
                    keys.len() - 1
                })
            })
            .collect();
        let references = run_indexed(keys.len(), threads, |r| self.reference(keys[r]));
        let trials = self.trials as usize;
        let outcomes = run_indexed(self.cells.len() * trials, threads, |i| {
            let cell = i / trials;
            let reference = &references[reference_of[cell]];
            self.trial(cell, (i % trials) as u64, reference)
        });
        let total_events = references.iter().map(|r| r.trace.len() as u64).sum::<u64>()
            + outcomes.iter().map(|t| t.events).sum::<u64>();
        let stats = reference_of
            .iter()
            .enumerate()
            .map(|(cell, &r)| {
                let outcomes = &outcomes[cell * trials..(cell + 1) * trials];
                fold_cell(self.trials, &references[r], outcomes)
            })
            .collect();
        FaultRun {
            references,
            reference_of,
            stats,
            total_events,
        }
    }

    /// The failure-free run for one reference key.
    fn reference(&self, key: &K) -> Reference {
        let (sim, apps) = (self.build)(key).into_parts();
        let dc = (self.reference)(key);
        let protocol = dc.protocol;
        let report = DcHarness::new(sim, dc, apps).run();
        assert!(
            report.all_done && report.abandoned == 0 && report.runtime > 0,
            "failure-free reference run under {} did not complete",
            protocol.name()
        );
        Reference {
            rate_per_sec: self.crashes_per_trial / (report.runtime as f64 / 1e9),
            visibles: report.visible_pairs(),
            runtime: report.runtime,
            served: (self.served)(&report),
            trace: report.trace,
        }
    }

    /// Trial `trial` of `cell`'s fault schedule over `procs` processes:
    /// Poisson crash arrivals, each an `AtTime` kill of a uniformly drawn
    /// victim.
    fn schedule(&self, cell: usize, trial: u64, reference: &Reference, procs: usize) -> Vec<Fault> {
        // Stage seed → cell stream → per trial one arrival seed and one
        // victim seed. No sequential state is shared between trials.
        let cell_seed = SplitMix64::new(self.seed).nth(cell as u64);
        let mut arrivals = PoissonArrivals::new(
            SplitMix64::new(cell_seed).nth(2 * trial),
            reference.rate_per_sec,
        );
        let mut victims = SplitMix64::new(SplitMix64::new(cell_seed).nth(2 * trial + 1));
        // Every arrival up to the reference horizon is a kill delivered at
        // the first wake at or after it; kills landing on done or crashed
        // processes are dropped. Without the bound, downtime begets
        // arrivals begets downtime and short workloads thrash forever.
        let mut faults = Vec::new();
        let mut next = arrivals.next_arrival_ns();
        while next <= reference.runtime {
            let pid = ProcessId::from_index(victims.index(procs)).0;
            faults.push(Fault::Kill(CrashPoint::AtTime { pid, t: next }));
            next = arrivals.next_arrival_ns();
        }
        faults
    }

    /// One trial of one cell: a full run under the cell's configuration
    /// with Poisson crash arrivals as its fault schedule.
    fn trial(&self, cell: usize, trial: u64, reference: &Reference) -> TrialOutcome {
        let (key, dc) = &self.cells[cell];
        let built = (self.build)(key);
        let procs = built.meta.processes;
        let (sim, apps) = built.into_parts();
        let mut dc = dc.clone();
        dc.faults
            .extend(self.schedule(cell, trial, reference, procs));
        let report = DcHarness::new(sim, dc, apps).run();
        TrialOutcome {
            violation: report
                .judge_against(&reference.trace, &reference.visibles)
                .err(),
            served: (self.served)(&report),
            events: report.trace.len() as u64,
            incidents: report.incidents,
            runtime: report.runtime,
            procs: procs as u64,
            abandoned: report.abandoned,
            microreboots: report.totals.microreboots,
            escalations: report.totals.escalations,
        }
    }
}

fn per_second(count: u64, ns: u64) -> f64 {
    if ns > 0 {
        count as f64 / (ns as f64 / 1e9)
    } else {
        0.0
    }
}

/// Folds one cell's trial outcomes into its stats block.
fn fold_cell(trials: u32, reference: &Reference, outcomes: &[TrialOutcome]) -> FaultStats {
    let mut mttrs: Vec<u64> = Vec::new();
    let mut incidents = 0u64;
    let mut unresolved = 0u64;
    let mut downtime = 0u64;
    let mut proc_time = 0u64;
    let mut runtime = 0u64;
    let mut served = 0u64;
    let mut reexec_events = 0u64;
    let mut microreboots = 0u64;
    let mut escalations = 0u64;
    let mut abandoned = 0u32;
    let mut violations = ViolationCounts::default();
    for t in outcomes {
        incidents += t.incidents.len() as u64;
        for i in &t.incidents {
            match i.mttr_ns() {
                Some(m) => mttrs.push(m),
                None => unresolved += 1,
            }
            reexec_events += i.lost_events;
        }
        downtime += total_downtime_ns(&t.incidents, t.runtime);
        proc_time += t.procs * t.runtime;
        runtime += t.runtime;
        served += t.served;
        microreboots += t.microreboots;
        escalations += t.escalations;
        abandoned += t.abandoned;
        if let Some(verdict) = &t.violation {
            violations.count(verdict);
        }
    }
    let pcts = percentiles(&mttrs, &[50, 95, 99]);
    let avail = availability(downtime, 1, proc_time);
    let goodput_rps = per_second(served, runtime);
    let baseline_rps = per_second(reference.served, reference.runtime);
    let goodput_pct = if baseline_rps > 0.0 {
        goodput_rps / baseline_rps * 100.0
    } else {
        0.0
    };
    FaultStats {
        rate_per_sec: reference.rate_per_sec,
        trials,
        incidents,
        unresolved,
        mttr_p50_ns: pcts[0],
        mttr_p95_ns: pcts[1],
        mttr_p99_ns: pcts[2],
        availability: avail,
        nines: nines(avail),
        served,
        goodput_rps,
        baseline_rps,
        goodput_pct,
        reexec_events,
        microreboots,
        escalations,
        abandoned,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::consistency::ConsistencyError;
    use ft_core::event::EventId;
    use ft_core::oracle::AppEvent;
    use ft_core::savework::{SaveWorkRule, SaveWorkViolation};

    impl<K: PartialEq + Sync> FaultLoad<'_, K> {
        /// The fault schedule of cell 0's first trial.
        pub(crate) fn first_schedule(&self) -> Vec<Fault> {
            let key = &self.cells[0].0;
            let procs = (self.build)(key).meta.processes;
            self.schedule(0, 0, &self.reference(key), procs)
        }
    }

    /// One verdict of every oracle variant lands in its own counter —
    /// `CommitRolledBack` used to hit an `unreachable!` and take the
    /// worker down with it.
    #[test]
    fn every_invariant_violation_variant_is_counted() {
        let pid = ProcessId(0);
        let id = EventId { pid, seq: 0 };
        let verdicts = [
            InvariantViolation::SaveWork(SaveWorkViolation {
                nd: id,
                target: id,
                rule: SaveWorkRule::Visible,
            }),
            InvariantViolation::Incomplete { abandoned: 1 },
            InvariantViolation::InconsistentOutput(ConsistencyError::VisibleConstraint { at: 0 }),
            InvariantViolation::PrefixDivergence {
                pid,
                at: 0,
                expected: None,
                got: AppEvent::Visible { token: 0 },
            },
            InvariantViolation::CommitRolledBack {
                pid,
                commit_id: 1,
                commit_seq: 2,
                rollback_seq: 3,
            },
        ];
        let mut counts = ViolationCounts::default();
        for v in &verdicts {
            counts.count(v);
        }
        assert_eq!(
            counts,
            ViolationCounts {
                total: 5,
                save_work: 1,
                incomplete: 1,
                inconsistent_output: 1,
                prefix_divergence: 1,
                commit_rolled_back: 1,
            }
        );
    }
}
