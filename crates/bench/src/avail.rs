//! The continuous-availability campaign stage.
//!
//! Every other stage injects at most one fault per trial and asks *was
//! recovery consistent?* This stage drives a seeded Poisson crash process
//! (`ft_sim::rng::PoissonArrivals`) into long-running workloads and asks the
//! operational questions: MTTR percentiles, steady-state availability
//! (nines), and goodput relative to the failure-free baseline — per
//! workload, per protocol, per recovery strategy (the paper's full
//! rollback vs component-level microreboot with its escalation ladder).
//!
//! Consistency is never assumed: every trial's recovered run is judged by
//! `ft_core::oracle::check_recovery` against the failure-free canonical
//! run, and each row reports its violation counts by kind. Seeded mutant
//! cells (`Mutation::SkipPageReinstall` — a partial restart that
//! forgets the committed-page re-install pass) ride along exactly like
//! the analyzer binary's planted races, proving the oracle actually flags
//! an unsound partial restart rather than vacuously passing.
//!
//! The fault process, the verdicts and the MTTR/availability/goodput fold
//! are the shared engine's ([`crate::continuous`]); this module supplies
//! the cell matrix, each cell's `DcConfig`, and counts every visible
//! output as a served request. The stage is thread-count invariant and
//! `BENCH_avail.json` contains no wall-clock.

use ft_apps::scenarios;
use ft_core::protocol::Protocol;
use ft_dc::recovery::Strategy;
use ft_dc::{DcConfig, DcReport, EscalationPolicy, Mutation};
use ft_sim::rng::SplitMix64;

use crate::continuous::{FaultLoad, FaultStats};
use crate::json::Json;
use crate::stage::Stage;

/// The availability workloads: long-running cuts of the §3 suite.
pub const WORKLOADS: [&str; 4] = ["nvi", "taskfarm", "treadmarks", "xpilot"];

/// Sizing and seeding for the availability stage.
#[derive(Debug, Clone)]
pub struct AvailConfig {
    /// Stage seed: every arrival schedule and victim choice derives from
    /// it in O(1).
    pub seed: u64,
    /// Trials per (workload, protocol, strategy) cell.
    pub trials: u32,
    /// Expected Poisson crash arrivals per trial. The per-cell arrival
    /// rate is derived from this and the cell's failure-free horizon
    /// (`crashes_per_trial / canonical_runtime`), so every workload gets
    /// a comparable sustained fault load regardless of how long it runs.
    pub crashes_per_trial: f64,
    /// Protocols to sweep.
    pub protocols: Vec<Protocol>,
    /// nvi keystrokes (100 ms think time each).
    pub nvi_keys: usize,
    /// Task-farm worker count.
    pub taskfarm_workers: u32,
    /// TreadMarks outer iterations.
    pub treadmarks_iters: u64,
    /// XPilot frames.
    pub xpilot_frames: u64,
    /// The microreboot retry/backoff ladder.
    pub escalation: EscalationPolicy,
    /// Recovery-attempt budget per process (high: the campaign measures
    /// sustained operation, not single-crash give-up).
    pub max_recoveries: u32,
    /// Include the seeded unsound-microreboot mutant cells.
    pub mutants: bool,
}

impl Default for AvailConfig {
    fn default() -> Self {
        AvailConfig {
            seed: 0xA7A1,
            trials: 2,
            crashes_per_trial: 12.0,
            protocols: Protocol::FIGURE8.to_vec(),
            nvi_keys: 120,
            taskfarm_workers: 3,
            treadmarks_iters: 12,
            xpilot_frames: 30,
            escalation: EscalationPolicy::default(),
            max_recoveries: 64,
            mutants: true,
        }
    }
}

impl AvailConfig {
    /// CI smoke sizing: short horizon, 2 protocols × 2 strategies.
    pub fn quick() -> Self {
        AvailConfig {
            trials: 1,
            protocols: vec![Protocol::Cand, Protocol::Cpvs],
            nvi_keys: 40,
            treadmarks_iters: 6,
            xpilot_frames: 16,
            ..AvailConfig::default()
        }
    }

    /// The config block of `BENCH_avail.json`.
    fn as_json(&self) -> Json {
        Json::obj([
            ("seed", Json::from(self.seed)),
            ("trials", Json::from(self.trials)),
            ("crashes_per_trial", Json::from(self.crashes_per_trial)),
            (
                "protocols",
                Json::arr(self.protocols.iter().map(|p| Json::from(p.name()))),
            ),
            ("nvi_keys", Json::from(self.nvi_keys)),
            ("taskfarm_workers", Json::from(self.taskfarm_workers)),
            ("treadmarks_iters", Json::from(self.treadmarks_iters)),
            ("xpilot_frames", Json::from(self.xpilot_frames)),
            (
                "escalation",
                Json::obj([
                    ("max_attempts", Json::from(self.escalation.max_attempts)),
                    ("base_delay_ns", Json::from(self.escalation.base_delay_ns)),
                    ("backoff_factor", Json::from(self.escalation.backoff_factor)),
                ]),
            ),
            ("max_recoveries", Json::from(self.max_recoveries)),
            ("mutants", Json::from(self.mutants)),
        ])
    }
}

/// One cell of the stage matrix.
#[derive(Debug, Clone, Copy)]
struct Cell {
    widx: usize,
    protocol: Protocol,
    strategy: Strategy,
    mutation: Mutation,
}

/// Builds the configured long-running scenario for workload index `widx`.
fn build(cfg: &AvailConfig, widx: usize) -> scenarios::Built {
    // Per-workload scenario seed, fixed across every cell and trial so
    // all of a workload's runs (canonical and faulted) share one script.
    let seed = SplitMix64::new(cfg.seed ^ 0x5CE0).nth(widx as u64);
    // Each workload's size knob, in `WORKLOADS` order.
    let sizes = [
        cfg.nvi_keys as u64,
        u64::from(cfg.taskfarm_workers),
        cfg.treadmarks_iters,
        cfg.xpilot_frames,
    ];
    let size = usize::try_from(sizes[widx]).expect("scenario sizes are small");
    scenarios::family(WORKLOADS[widx], seed, size).expect("WORKLOADS names scenario families")
}

/// The full cell matrix: every (workload × protocol × strategy), plus —
/// when enabled — one seeded unsound-microreboot mutant per workload.
fn cells(cfg: &AvailConfig) -> Vec<Cell> {
    let mut out = Vec::new();
    for widx in 0..WORKLOADS.len() {
        for &protocol in &cfg.protocols {
            for strategy in [Strategy::FullRollback, Strategy::Microreboot] {
                out.push(Cell {
                    widx,
                    protocol,
                    strategy,
                    mutation: Mutation::None,
                });
            }
        }
        if cfg.mutants {
            out.push(Cell {
                widx,
                protocol: *cfg.protocols.last().expect("protocols is non-empty"),
                strategy: Strategy::Microreboot,
                mutation: Mutation::SkipPageReinstall,
            });
        }
    }
    out
}

fn dc_config(cfg: &AvailConfig, cell: &Cell) -> DcConfig {
    let mut dc = DcConfig::discount_checking(cell.protocol);
    dc.max_recoveries = cfg.max_recoveries;
    dc.strategy = cell.strategy;
    dc.escalation = cfg.escalation;
    dc.mutation = cell.mutation;
    dc
}

/// The stage's cell matrix as the shared engine's fault load.
fn load<'a>(cfg: &'a AvailConfig, cells: &[Cell]) -> FaultLoad<'a, (usize, Protocol)> {
    FaultLoad {
        seed: cfg.seed,
        trials: cfg.trials,
        crashes_per_trial: cfg.crashes_per_trial,
        // One failure-free reference per (workload, protocol).
        cells: cells
            .iter()
            .map(|c| ((c.widx, c.protocol), dc_config(cfg, c)))
            .collect(),
        reference: Box::new(|&(_, protocol)| DcConfig::discount_checking(protocol)),
        build: Box::new(|&(widx, _)| build(cfg, widx)),
        served: Box::new(|report: &DcReport| report.visibles.len() as u64),
    }
}

/// Aggregated availability metrics of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailRow {
    /// Workload name.
    pub workload: &'static str,
    /// Protocol under test.
    pub protocol: Protocol,
    /// Recovery strategy under test.
    pub strategy: Strategy,
    /// Seeded microreboot defect (`Mutation::None` for real cells).
    pub mutation: Mutation,
    /// MTTR, availability, goodput (visible outputs per simulated second)
    /// and oracle verdicts.
    pub stats: FaultStats,
}

/// The availability stage's full result.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailResult {
    /// One row per cell, in matrix order.
    pub rows: Vec<AvailRow>,
}

impl Stage for AvailConfig {
    const NAME: &'static str = "avail";
    type Rows = AvailResult;
    #[rustfmt::skip]
    const COLUMNS: &'static [&'static str] = &[
        "workload", "protocol", "strategy", "mutation", "incidents", "mttr_p50_ns",
        "mttr_p95_ns", "mttr_p99_ns", "availability", "nines", "goodput_pct", "escalations",
        "violations.total",
    ];

    fn run(&self, threads: usize) -> AvailResult {
        let cells = cells(self);
        let run = load(self, &cells).run(threads);
        let rows = cells
            .iter()
            .zip(run.stats)
            .map(|(cell, stats)| AvailRow {
                workload: WORKLOADS[cell.widx],
                protocol: cell.protocol,
                strategy: cell.strategy,
                mutation: cell.mutation,
                stats,
            })
            .collect();
        AvailResult { rows }
    }

    /// The `BENCH_avail.json` document.
    fn json(&self, result: &AvailResult) -> Json {
        let rows = result.rows.iter().map(|r| {
            let mut fields = vec![
                ("workload", Json::from(r.workload)),
                ("protocol", Json::from(r.protocol.name())),
                ("strategy", Json::from(r.strategy.name())),
                ("mutation", Json::from(r.mutation.name())),
            ];
            fields.extend(r.stats.json_fields());
            Json::obj(fields)
        });
        Json::obj([
            ("report", Json::from("avail")),
            ("config", self.as_json()),
            ("rows", Json::arr(rows)),
        ])
    }

    /// The oracle self-test: every seeded unsound-microreboot mutant cell
    /// must be flagged, or the consistency columns of the real cells mean
    /// nothing.
    fn gate(&self, result: &AvailResult) -> Result<(), String> {
        let unflagged: Vec<&str> = result
            .rows
            .iter()
            .filter(|r| r.mutation != Mutation::None && r.stats.violations.total == 0)
            .map(|r| r.workload)
            .collect();
        if unflagged.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "availability oracle self-test FAILED — seeded unsound microreboot went \
                 unflagged on: {unflagged:?}"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::tests::assert_round_trips;

    #[test]
    fn the_first_trials_kills_round_trip() {
        let cfg = AvailConfig::default();
        assert_round_trips(&load(&cfg, &cells(&cfg)).first_schedule());
    }
}
