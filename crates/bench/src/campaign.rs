//! The paper's artefacts as campaign stages: Table 1 (with the §4.1
//! conflict composition) and Table 2 on both applications, the loss-rate
//! degradation sweep, and the Figure 8 protocol-space grids — one
//! [`Stage`] each over a shared [`CampaignConfig`], with their
//! `BENCH_*.json` documents. [`crate::fig4`] and
//! [`crate::ablation`] hold the two stages with engines of their own.
//!
//! Every stage shards its independent trials across the worker pool and
//! produces the same rows for any thread count; the `campaign` binary
//! asserts that against `threads = 1` on every run, and
//! `tests/stage_equivalence.rs` pins it at 1, 2, 4 and 7 threads.

use ft_apps::scenarios;
use ft_core::losework::conflict_composition;
use ft_core::protocol::Protocol;
use ft_mem::arena::ArenaStats;
use ft_sim::SimTime;

use crate::fig8::{self, overhead_pct, per_sec, Fig8Row};
use crate::json::Json;
use crate::loss::{self, LossRow};
use crate::stage::{grouped_rows, Stage};
use crate::table1::{self, share_pct, Table1App, Table1Row};
use crate::table2::{self, Table2Row};

/// Campaign sizing and seeding.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Table 1: stop a fault type after this many crashes…
    pub target_crashes: u32,
    /// …or after this many trials, whichever first.
    pub max_trials: u32,
    /// Table 2: kernel faults per type per application.
    pub table2_trials: u32,
    /// Loss sweep: attempt-drop rates (fractions; first should be 0.0).
    pub loss_rates: Vec<f64>,
    /// Table 1 campaign seed.
    pub table1_seed: u64,
    /// Table 2 campaign seed.
    pub table2_seed: u64,
    /// Figure 8 grid sizing.
    pub fig8: Fig8Config,
}

/// What a Figure 8 panel measures per protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Checkpoints and runtime overhead vs. the unrecoverable baseline.
    Overhead,
    /// Checkpoint rate and sustained client frame rate (the game).
    Fps,
}

/// One panel of Figure 8: a [`scenarios::family`] at `(seed, size)`, the
/// protocols on its axes, and what is measured at each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Panel {
    /// The workload, a [`scenarios::FAMILIES`] name.
    pub family: &'static str,
    /// Scenario seed.
    pub seed: u64,
    /// The family's size knob (keystrokes, commands, frames, iterations,
    /// workers).
    pub size: usize,
    /// The protocols measured, in row order.
    pub protocols: &'static [Protocol],
    /// What each row reports.
    pub metric: Metric,
}

impl Panel {
    fn build(&self) -> scenarios::Built {
        scenarios::family(self.family, self.seed, self.size)
            .unwrap_or_else(|| panic!("{} is not a scenario family", self.family))
    }

    fn as_json(&self) -> Json {
        Json::obj([
            ("family", Json::from(self.family)),
            ("seed", Json::from(self.seed)),
            ("size", Json::from(self.size)),
            (
                "protocols",
                Json::arr(self.protocols.iter().map(|p| Json::from(p.name()))),
            ),
            (
                "metric",
                Json::from(match self.metric {
                    Metric::Overhead => "overhead",
                    Metric::Fps => "fps",
                }),
            ),
        ])
    }
}

/// nvi's axes: COMMIT-ALL, the origin of the protocol space (§2.4), which
/// commits at every interposition point, then the single-process protocols.
const NVI_PROTOCOLS: [Protocol; 6] = [
    Protocol::CommitAll,
    Protocol::Cand,
    Protocol::CandLog,
    Protocol::Cpvs,
    Protocol::Cbndvs,
    Protocol::CbndvsLog,
];

/// magic's axes: a single process has no use for the two-phase protocols.
const SINGLE_PROCESS: &[Protocol] = Protocol::FIGURE8.split_at(5).0;

/// Figure 8 stage sizing: the panel table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig8Config {
    /// The panels, in figure order.
    pub panels: Vec<Panel>,
}

impl Default for Fig8Config {
    /// The paper's panels (a)–(d) plus the lock-based task farm. nvi stays
    /// at 3 000 keystrokes until ROADMAP 1(ii) is settled.
    fn default() -> Self {
        let panel = |family, seed, size, protocols, metric| Panel {
            family,
            seed,
            size,
            protocols,
            metric,
        };
        Fig8Config {
            panels: vec![
                panel("nvi", 11, 3000, &NVI_PROTOCOLS, Metric::Overhead),
                panel("magic", 13, 190, SINGLE_PROCESS, Metric::Overhead),
                panel("xpilot", 17, 300, &Protocol::FIGURE8, Metric::Fps),
                panel("treadmarks", 19, 150, &Protocol::FIGURE8, Metric::Overhead),
                panel("taskfarm", 19, 3, &Protocol::FIGURE8, Metric::Overhead),
            ],
        }
    }
}

impl Fig8Config {
    /// The smoke sizing: the same panels at seed 7 and the sizes the
    /// golden-trace fixture pins, so CI's Figure 8 stage and the
    /// trace-identity suite measure the same runs.
    pub fn quick() -> Self {
        let mut cfg = Fig8Config::default();
        for p in &mut cfg.panels {
            let golden = scenarios::GOLDEN.iter().find(|(f, _)| *f == p.family);
            p.seed = 7;
            p.size = golden.expect("every panel family has a golden size").1;
        }
        cfg
    }

    /// The nvi panel, whose session the Figure 4 stage also kills.
    ///
    /// # Panics
    ///
    /// Panics if the table has no nvi panel.
    pub fn nvi(&self) -> &Panel {
        let nvi = self.panels.iter().find(|p| p.family == "nvi");
        nvi.expect("the panel table has an nvi panel")
    }

    fn as_json(&self) -> Json {
        Json::arr(self.panels.iter().map(Panel::as_json))
    }
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            target_crashes: 100,
            max_trials: 1200,
            table2_trials: 100,
            loss_rates: vec![0.0, 0.01, 0.02, 0.05, 0.10],
            table1_seed: 0xF417,
            table2_seed: 0x0542,
            fig8: Fig8Config::default(),
        }
    }
}

impl CampaignConfig {
    /// A small configuration for smoke runs (CI) and tests.
    pub fn quick() -> Self {
        CampaignConfig {
            target_crashes: 5,
            max_trials: 60,
            table2_trials: 8,
            loss_rates: vec![0.0, 0.02, 0.05],
            fig8: Fig8Config::quick(),
            ..CampaignConfig::default()
        }
    }

    fn as_json(&self) -> Json {
        Json::obj([
            ("target_crashes", Json::from(self.target_crashes)),
            ("max_trials", Json::from(self.max_trials)),
            ("table2_trials", Json::from(self.table2_trials)),
            (
                "loss_rates",
                Json::arr(self.loss_rates.iter().map(|&r| Json::from(r))),
            ),
            ("table1_seed", Json::from(self.table1_seed)),
            ("table2_seed", Json::from(self.table2_seed)),
            ("fig8", self.fig8.as_json()),
        ])
    }
}

/// One loss-sweep workload: label, protocol, fabric seed, builder.
type LossWorkload = (&'static str, Protocol, u64, fn() -> scenarios::Built);

/// The loss-sweep matrix.
fn loss_matrix() -> Vec<LossWorkload> {
    vec![
        // The real-time game: latency-sensitive, CPVS (the paper's pick
        // for interactive workloads).
        ("game (cpvs)", Protocol::Cpvs, 0xFAB1, || {
            scenarios::xpilot(19, 40)
        }),
        // Barrier-based Barnes-Hut over DSM: message-dense, CBNDV-2PC
        // (its protocol-space winner) — also exercises 2PC timeouts.
        ("barnes_hut (cbndv-2pc)", Protocol::Cbndv2pc, 0xFAB2, || {
            scenarios::treadmarks(19, 16)
        }),
        // The lock-based task farm: grant-chain traffic, CBNDV-2PC.
        ("taskfarm (cbndv-2pc)", Protocol::Cbndv2pc, 0xFAB3, || {
            scenarios::taskfarm(19, 3)
        }),
    ]
}

const APPS: [Table1App; 2] = [Table1App::Nvi, Table1App::Postgres];

/// A report document: its name, the campaign configuration, its sections.
pub(crate) fn report<const N: usize>(
    name: &str,
    cfg: &CampaignConfig,
    sections: [(&str, Json); N],
) -> Json {
    let head = [("report", Json::from(name)), ("config", cfg.as_json())];
    Json::obj(head.into_iter().chain(sections))
}

/// The Table 1 stage: application fault injection on both applications,
/// and §4.1's composition of its average with the field Heisenbug share.
#[derive(Debug, Clone, Copy)]
pub struct Table1Stage<'a>(pub &'a CampaignConfig);

/// The share of field bugs that are Heisenbugs (Chandra & Chen: 5–15 %,
/// i.e. 85–95 % Bohrbugs); the paper's headline uses the last.
const HEISENBUG_FRACTIONS: [f64; 3] = [0.05, 0.10, 0.15];

/// Where the headline — the share of application crashes for which
/// Save-work and Lose-work conflict, at 15 % Heisenbugs — must land: the
/// paper's "remaining 90 %", which a Table 1 average between 20 % and two
/// thirds produces.
const CONFLICT_BAND: std::ops::RangeInclusive<f64> = 0.88..=0.95;

/// The fraction of crashing injections, pooled over both applications,
/// that violate Lose-work: §4.1's input.
fn violation_fraction(result: &[(Table1App, Vec<Table1Row>)]) -> f64 {
    let rows = || result.iter().flat_map(|(_, rows)| rows);
    let crashes: u32 = rows().map(|r| r.crashes).sum();
    let violations: u32 = rows().map(|r| r.violations).sum();
    f64::from(violations) / f64::from(crashes.max(1))
}

/// One application's Table 1 totals: its average violation rate, how
/// often the end-to-end check agreed with the criterion, and the share of
/// trials that completed with silently wrong output (the paper saw 7–9 %).
fn table1_summary(rows: &[Table1Row]) -> Json {
    let sum = |f: fn(&Table1Row) -> u32| rows.iter().map(f).sum::<u32>();
    let (trials, crashes) = (sum(|r| r.trials), sum(|r| r.crashes));
    let (violations, wrong) = (sum(|r| r.violations), sum(|r| r.wrong_output));
    Json::obj([
        ("trials", Json::from(trials)),
        ("crashes", Json::from(crashes)),
        ("violations", Json::from(violations)),
        ("violation_pct", Json::from(share_pct(violations, crashes))),
        ("e2e_agree", Json::from(sum(|r| r.e2e_agree))),
        ("wrong_output", Json::from(wrong)),
        ("wrong_output_pct", Json::from(share_pct(wrong, trials))),
    ])
}

impl Stage for Table1Stage<'_> {
    const NAME: &'static str = "table1";
    type Rows = Vec<(Table1App, Vec<Table1Row>)>;

    fn run(&self, threads: usize) -> Self::Rows {
        let cfg = self.0;
        APPS.iter()
            .map(|&app| {
                let rows = table1::run_table1(
                    app,
                    cfg.target_crashes,
                    cfg.max_trials,
                    cfg.table1_seed,
                    threads,
                );
                (app, rows)
            })
            .collect()
    }

    fn json(&self, result: &Self::Rows) -> Json {
        let apps = result
            .iter()
            .map(|(app, rows)| (app.name(), Some(table1_summary(rows)), rows));
        let apps = grouped_rows("app", apps, |r| {
            Json::obj([
                ("fault", Json::from(r.fault.name())),
                ("trials", Json::from(r.trials)),
                ("crashes", Json::from(r.crashes)),
                ("violations", Json::from(r.violations)),
                ("violation_pct", Json::from(r.violation_pct())),
                ("wrong_output", Json::from(r.wrong_output)),
                ("e2e_agree", Json::from(r.e2e_agree)),
            ])
        });
        let violated = violation_fraction(result);
        let estimates = HEISENBUG_FRACTIONS.iter().map(|&h| {
            let e = conflict_composition(violated, h);
            Json::obj([
                ("heisenbug_fraction", Json::from(h)),
                ("recovery_possible", Json::from(e.recovery_possible)),
                ("invariants_conflict", Json::from(e.invariants_conflict)),
            ])
        });
        let composition = Json::obj([
            ("violation_fraction", Json::from(violated)),
            ("estimates", Json::arr(estimates)),
        ]);
        report(
            "table1",
            self.0,
            [("apps", apps), ("composition", composition)],
        )
    }

    /// The §4.1 headline lands in `CONFLICT_BAND`.
    fn gate(&self, result: &Self::Rows) -> Result<(), String> {
        let conflict = conflict_composition(violation_fraction(result), 0.15).invariants_conflict;
        if CONFLICT_BAND.contains(&conflict) {
            Ok(())
        } else {
            Err(format!(
                "table1: the invariants conflict for {:.1}% of crashes at 15% Heisenbugs, \
                 outside the paper's ≈90% ({:.0}–{:.0}%)",
                conflict * 100.0,
                CONFLICT_BAND.start() * 100.0,
                CONFLICT_BAND.end() * 100.0
            ))
        }
    }
}

/// The Table 2 stage: kernel fault injection on both applications.
#[derive(Debug, Clone, Copy)]
pub struct Table2Stage<'a>(pub &'a CampaignConfig);

/// One application's Table 2 totals: its average failed-recovery rate and
/// the share of failures that manifested as propagation.
fn table2_summary(rows: &[Table2Row]) -> Json {
    let sum = |f: fn(&Table2Row) -> u32| rows.iter().map(f).sum::<u32>();
    let (failures, failed) = (sum(|r| r.crashes), sum(|r| r.failed_recoveries));
    let propagations = sum(|r| r.propagations);
    Json::obj([
        ("failures", Json::from(failures)),
        ("failed_recoveries", Json::from(failed)),
        ("failed_pct", Json::from(share_pct(failed, failures))),
        ("propagations", Json::from(propagations)),
        (
            "propagation_pct",
            Json::from(share_pct(propagations, failures)),
        ),
    ])
}

impl Stage for Table2Stage<'_> {
    const NAME: &'static str = "table2";
    type Rows = Vec<(Table1App, Vec<Table2Row>)>;

    fn run(&self, threads: usize) -> Self::Rows {
        let cfg = self.0;
        APPS.iter()
            .map(|&app| {
                let rows = table2::run_table2(app, cfg.table2_trials, cfg.table2_seed, threads);
                (app, rows)
            })
            .collect()
    }

    fn json(&self, result: &Self::Rows) -> Json {
        let apps = result
            .iter()
            .map(|(app, rows)| (app.name(), Some(table2_summary(rows)), rows));
        let apps = grouped_rows("app", apps, |r| {
            Json::obj([
                ("fault", Json::from(r.fault.name())),
                ("failures", Json::from(r.crashes)),
                ("failed_recoveries", Json::from(r.failed_recoveries)),
                ("failed_pct", Json::from(r.failed_pct())),
                ("propagations", Json::from(r.propagations)),
            ])
        });
        report("table2", self.0, [("apps", apps)])
    }
}

/// The loss-sweep stage: every workload of `loss_matrix` over the
/// configured loss rates.
#[derive(Debug, Clone, Copy)]
pub struct LossStage<'a>(pub &'a CampaignConfig);

impl Stage for LossStage<'_> {
    const NAME: &'static str = "loss";
    type Rows = Vec<(&'static str, Vec<LossRow>)>;
    #[rustfmt::skip]
    const COLUMNS: &'static [&'static str] = &[
        "loss_pct", "runtime_ns", "overhead_pct", "net.drops", "net.retransmissions",
        "net.dup_drops", "net.timeouts", "twopc_timeouts",
    ];

    fn run(&self, threads: usize) -> Self::Rows {
        loss_matrix()
            .into_iter()
            .map(|(label, protocol, fabric, build)| {
                let rows = loss::loss_sweep(&build, protocol, fabric, &self.0.loss_rates, threads);
                (label, rows)
            })
            .collect()
    }

    fn json(&self, result: &Self::Rows) -> Json {
        let sweeps = result.iter().map(|(label, rows)| (*label, None, rows));
        let sweeps = grouped_rows("workload", sweeps, |r| {
            Json::obj([
                ("loss_pct", Json::from(r.loss_pct)),
                ("runtime_ns", Json::from(r.runtime)),
                ("overhead_pct", Json::from(r.overhead_pct)),
                (
                    "net",
                    Json::obj([
                        ("drops", Json::from(r.net.drops)),
                        ("partition_drops", Json::from(r.net.partition_drops)),
                        ("dup_deliveries", Json::from(r.net.dup_deliveries)),
                        ("dup_drops", Json::from(r.net.dup_drops)),
                        ("retransmissions", Json::from(r.net.retransmissions)),
                        ("timeouts", Json::from(r.net.timeouts)),
                        ("ack_drops", Json::from(r.net.ack_drops)),
                        ("exhausted", Json::from(r.net.exhausted)),
                    ]),
                ),
                ("twopc_timeouts", Json::from(r.twopc_timeouts)),
            ])
        });
        report("loss", self.0, [("sweeps", sweeps)])
    }
}

/// One panel's rows, with what its [`Metric`] derives them against.
#[derive(Debug, Clone, PartialEq)]
pub enum PanelRows {
    /// Checkpoints and overhead per protocol, against this baseline
    /// runtime.
    Overhead(SimTime, Vec<Fig8Row>),
    /// Checkpoint and frame rate per protocol, for this many clients.
    Fps(usize, Vec<Fig8Row>),
}

/// The Figure 8 stage: every panel of the table, one row per protocol.
#[derive(Debug, Clone, Copy)]
pub struct Fig8Stage<'a>(pub &'a CampaignConfig);

impl Stage for Fig8Stage<'_> {
    const NAME: &'static str = "fig8";
    /// (workload, rows) per panel, in table order.
    type Rows = Vec<(&'static str, PanelRows)>;
    #[rustfmt::skip]
    const COLUMNS: &'static [&'static str] = &[
        "protocol", "ckpts", "dc_overhead_pct", "disk_overhead_pct", "ckps_per_sec", "dc_fps",
        "disk_fps", "arena.traps", "arena.committed_pages",
    ];

    fn run(&self, threads: usize) -> Self::Rows {
        let panels = self.0.fig8.panels.iter();
        panels
            .map(|panel| {
                let build = || panel.build();
                let rows = fig8::grid(&build, panel.protocols, &fig8::figure8_media(), threads);
                let rows = match panel.metric {
                    Metric::Overhead => PanelRows::Overhead(fig8::baseline_runtime(&build), rows),
                    Metric::Fps => {
                        let clients = build().meta.clients;
                        assert!(clients > 0, "fps workloads must declare their client count");
                        PanelRows::Fps(clients, rows)
                    }
                };
                (panel.family, rows)
            })
            .collect()
    }

    /// The `BENCH_fig8.json` document: per-protocol checkpoints, overhead
    /// percentages (or frame rates), and the arena's write-barrier
    /// counters for every panel of the figure.
    fn json(&self, result: &Self::Rows) -> Json {
        let panels = result.iter().map(|(label, rows)| {
            let rows = match rows {
                PanelRows::Overhead(base, rows) => Json::arr(rows.iter().map(|r| {
                    let pct = |i: usize| Json::from(overhead_pct(*base, r.runtimes[i]));
                    Json::obj([
                        ("protocol", Json::from(r.protocol.to_string())),
                        ("ckpts", Json::from(r.ckpts)),
                        ("dc_overhead_pct", pct(0)),
                        ("disk_overhead_pct", pct(1)),
                        ("base_runtime_ns", Json::from(*base)),
                        ("dc_runtime_ns", Json::from(r.runtimes[0])),
                        ("disk_runtime_ns", Json::from(r.runtimes[1])),
                        ("visibles", Json::from(r.visibles[0])),
                        ("arena", arena_json(&r.arena)),
                    ])
                })),
                PanelRows::Fps(clients, rows) => Json::arr(rows.iter().map(|r| {
                    let ckps = per_sec(r.ckpts as f64, r.runtimes[0]);
                    // Each client renders one visible per frame.
                    let fps = |i: usize| {
                        Json::from(per_sec(
                            r.visibles[i] as f64 / *clients as f64,
                            r.runtimes[i],
                        ))
                    };
                    Json::obj([
                        ("protocol", Json::from(r.protocol.to_string())),
                        ("ckpts", Json::from(r.ckpts)),
                        ("ckps_per_sec", Json::from(ckps)),
                        ("dc_fps", fps(0)),
                        ("disk_fps", fps(1)),
                        ("arena", arena_json(&r.arena)),
                    ])
                })),
            };
            Json::obj([("workload", Json::from(*label)), ("rows", rows)])
        });
        report("fig8", self.0, [("panels", Json::arr(panels))])
    }
}

fn arena_json(a: &ArenaStats) -> Json {
    Json::obj([
        ("traps", Json::from(a.traps)),
        ("writes", Json::from(a.writes)),
        ("commits", Json::from(a.commits)),
        ("rollbacks", Json::from(a.rollbacks)),
        ("committed_pages", Json::from(a.committed_pages)),
        ("committed_bytes", Json::from(a.committed_bytes)),
        ("undo_bytes", Json::from(a.undo_bytes)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_reports_carry_all_sections() {
        let cfg = CampaignConfig {
            target_crashes: 1,
            max_trials: 2,
            table2_trials: 1,
            loss_rates: vec![0.0],
            ..CampaignConfig::default()
        };
        fn check(stage: &impl Stage, key: &str) {
            let text = stage.json(&stage.run(1)).render_pretty();
            assert!(text.contains("\"config\""), "{text}");
            assert!(!text.contains("\"wall"), "{text}");
            assert!(text.contains(&format!("\"{key}\"")), "{text}");
        }
        check(&Table1Stage(&cfg), "apps");
        check(&Table2Stage(&cfg), "apps");
        check(&LossStage(&cfg), "sweeps");
    }

    #[test]
    fn the_default_panel_table_is_the_paper_scale_figure_and_quick_is_the_golden_sizes() {
        use Protocol::{Cand, CandLog, Cbndv2pc, Cbndvs, CbndvsLog, CommitAll, Cpv2pc, Cpvs};
        let single = [Cand, CandLog, Cpvs, Cbndvs, CbndvsLog];
        let all = [Cand, CandLog, Cpvs, Cbndvs, CbndvsLog, Cpv2pc, Cbndv2pc];
        let nvi = [CommitAll, Cand, CandLog, Cpvs, Cbndvs, CbndvsLog];
        let want: [(&str, u64, usize, &[Protocol], Metric); 5] = [
            ("nvi", 11, 3000, &nvi, Metric::Overhead),
            ("magic", 13, 190, &single, Metric::Overhead),
            ("xpilot", 17, 300, &all, Metric::Fps),
            ("treadmarks", 19, 150, &all, Metric::Overhead),
            ("taskfarm", 19, 3, &all, Metric::Overhead),
        ];
        let table = Fig8Config::default().panels;
        let got: Vec<_> = table
            .iter()
            .map(|p| (p.family, p.seed, p.size, p.protocols, p.metric))
            .collect();
        assert_eq!(got, want);
        assert_eq!(CampaignConfig::default().fig8.nvi(), &table[0]);

        // Quick: the same panels at seed 7, sized exactly as the Figure 8
        // members of the golden-trace table (postgres is Table 2's).
        let quick = Fig8Config::quick().panels;
        let sizes: Vec<_> = quick.iter().map(|p| (p.family, p.size)).collect();
        let golden: Vec<_> = scenarios::GOLDEN
            .into_iter()
            .filter(|(family, _)| *family != "postgres")
            .collect();
        assert_eq!(sizes, golden);
        for (q, d) in quick.iter().zip(&table) {
            assert_eq!((q.seed, q.protocols, q.metric), (7, d.protocols, d.metric));
        }
    }
}
