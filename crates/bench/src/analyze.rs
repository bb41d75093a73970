//! The trace-analysis stage: `ft-analyze`'s three passes over every
//! evaluation workload as a campaign stage.
//!
//! Runs every workload of [`scenarios::GOLDEN`] under all seven Figure 8
//! protocols and analyzes each recorded run (happens-before races, Eraser
//! locksets, Save-work obligation audit). Two seeded-race mutant cells
//! ride along as self-tests: the unlocked task-counter peek
//! (`taskfarm-racy`) must be flagged by *both* race passes, and the
//! fused-barrier Barnes-Hut (`treadmarks-fused`) by the happens-before
//! pass. The gate is every cell meeting its [`Expect`]: clean cells come
//! back with zero races, zero lockset violations, zero uncovered
//! obligations and audit agreement with `ft_core::savework`. A failing
//! cell's findings travel inside its `BENCH_analyze.json` row and the
//! gate's error text.

use ft_analyze::hb::RaceSite;
use ft_analyze::report::{analyze, render_findings, AnalysisReport};
use ft_apps::scenarios;
use ft_core::protocol::Protocol;
use ft_dc::harness::DcHarness;
use ft_dc::state::DcConfig;
use ft_sim::runner::run_indexed;

use crate::json::Json;
use crate::stage::Stage;

/// What a cell's analysis must show for the stage to pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// All three passes empty, audit agreeing.
    Clean,
    /// Both race passes non-empty (the seeded lock-discipline mutant).
    FlaggedByBoth,
    /// The happens-before pass non-empty (the seeded barrier mutant;
    /// the lockset pass usually concurs but its discipline view is not
    /// guaranteed to).
    FlaggedByHb,
}

/// One (workload, protocol) cell of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Scenario family name.
    pub workload: &'static str,
    /// Family size knob.
    pub size: usize,
    /// Protocol the run is recorded under.
    pub protocol: Protocol,
    /// What the analysis must show.
    pub expect: Expect,
}

impl Cell {
    fn label(&self) -> String {
        format!("{}@{}", self.workload, self.protocol.name())
    }

    /// The cell's verdict against its expectation, with a short reason on
    /// failure.
    fn verdict(&self, r: &AnalysisReport) -> Result<(), String> {
        if !r.savework_agrees {
            return Err("obligation audit disagrees with ft_core::savework".into());
        }
        match self.expect {
            Expect::Clean if !r.is_clean() => Err(format!(
                "expected clean, found {} races / {} lockset / {} obligations",
                r.races.len(),
                r.lockset.len(),
                r.obligations.len()
            )),
            Expect::FlaggedByBoth if r.races.is_empty() || r.lockset.is_empty() => Err(format!(
                "seeded race missed: {} hb races, {} lockset violations (need both)",
                r.races.len(),
                r.lockset.len()
            )),
            Expect::FlaggedByHb if r.races.is_empty() => {
                Err("seeded race missed by the happens-before pass".into())
            }
            _ => Ok(()),
        }
    }
}

const SEED: u64 = 7;

/// The trace-analysis stage over an explicit cell list.
#[derive(Debug, Clone)]
pub struct AnalyzeStage {
    /// CI smoke sizing (recorded in the report header).
    pub quick: bool,
    /// The cells, in report order.
    pub cells: Vec<Cell>,
}

impl AnalyzeStage {
    /// The golden workload sizes (halved under `quick`) × every Figure 8
    /// protocol, plus the two seeded-race mutants — one protocol each is
    /// enough: the race is an application property, not a protocol one.
    pub fn new(quick: bool) -> Self {
        let mut cells = Vec::new();
        for (workload, size) in scenarios::GOLDEN {
            let size = if quick { (size / 2).max(2) } else { size };
            cells.extend(Protocol::FIGURE8.map(|protocol| Cell {
                workload,
                size,
                protocol,
                expect: Expect::Clean,
            }));
        }
        cells.push(Cell {
            workload: "taskfarm-racy",
            size: if quick { 2 } else { 3 },
            protocol: Protocol::Cpvs,
            expect: Expect::FlaggedByBoth,
        });
        cells.push(Cell {
            workload: "treadmarks-fused",
            size: if quick { 4 } else { 8 },
            protocol: Protocol::Cpvs,
            expect: Expect::FlaggedByHb,
        });
        AnalyzeStage { quick, cells }
    }

    /// One entry per cell that missed its expectation: the reason, then
    /// the rendered findings.
    fn failures(&self, rows: &[AnalysisReport]) -> Vec<String> {
        self.cells
            .iter()
            .zip(rows)
            .filter_map(|(cell, r)| {
                let why = cell.verdict(r).err()?;
                let label = cell.label();
                Some(format!("{label}: {why}\n{}", render_findings(&label, r)))
            })
            .collect()
    }
}

/// Builds and runs one cell, returning its analysis. A pure function of
/// the cell (fresh simulator every call).
fn run_cell(cell: &Cell) -> AnalysisReport {
    let built = scenarios::family(cell.workload, SEED, cell.size)
        .unwrap_or_else(|| panic!("unknown workload {}", cell.workload));
    let (sim, apps) = built.into_parts();
    let report = DcHarness::new(sim, DcConfig::discount_checking(cell.protocol), apps).run();
    analyze(&report.trace, &report.shm)
}

impl Stage for AnalyzeStage {
    const NAME: &'static str = "analyze";
    type Rows = Vec<AnalysisReport>;
    #[rustfmt::skip]
    const COLUMNS: &'static [&'static str] = &[
        "workload", "protocol", "size", "events", "accesses", "hb_races", "lockset_violations",
        "obligations_uncovered", "savework_agrees", "verdict",
    ];

    fn run(&self, threads: usize) -> Vec<AnalysisReport> {
        run_indexed(self.cells.len(), threads, |i| run_cell(&self.cells[i]))
    }

    fn json(&self, rows: &Vec<AnalysisReport>) -> Json {
        let results = self.cells.iter().zip(rows).map(|(c, r)| cell_json(c, r));
        Json::obj([
            ("report", Json::from("analyze")),
            ("seed", Json::from(SEED)),
            ("quick", Json::from(self.quick)),
            ("cells", Json::from(self.cells.len())),
            ("failures", Json::from(self.failures(rows).len())),
            ("results", Json::arr(results)),
        ])
    }

    /// Every cell meets its expectation, the seeded mutants included.
    fn gate(&self, rows: &Vec<AnalysisReport>) -> Result<(), String> {
        let failures = self.failures(rows);
        if failures.is_empty() {
            return Ok(());
        }
        Err(format!(
            "analyze: {} cells missed their expectation\n{}",
            failures.len(),
            failures.join("\n")
        ))
    }
}

fn cell_json(cell: &Cell, r: &AnalysisReport) -> Json {
    let mut fields = vec![
        ("workload", Json::from(cell.workload)),
        ("protocol", Json::from(cell.protocol.name())),
        ("size", Json::from(cell.size)),
        ("processes", Json::from(r.processes)),
        ("events", Json::from(r.events)),
        ("accesses", Json::from(r.accesses)),
        ("hb_races", Json::from(r.races.len())),
        ("lockset_violations", Json::from(r.lockset.len())),
        ("obligations_uncovered", Json::from(r.obligations.len())),
        ("savework_agrees", Json::from(r.savework_agrees)),
        (
            "crosstab",
            Json::obj([
                ("both", pages(&r.crosstab.both)),
                ("hb_only", pages(&r.crosstab.hb_only)),
                ("lockset_only", pages(&r.crosstab.lockset_only)),
            ]),
        ),
    ];
    // Mutant cells carry the shrunk evidence: the offending page plus
    // both access sites of the first (lowest-page) finding per pass.
    if cell.expect != Expect::Clean {
        if let Some(race) = r.races.first() {
            fields.push((
                "first_race",
                Json::obj([
                    ("page", Json::from(race.page)),
                    ("a", site_json(&race.a)),
                    ("b", site_json(&race.b)),
                ]),
            ));
        }
        if let Some(v) = r.lockset.first() {
            fields.push((
                "first_lockset",
                Json::obj([
                    ("page", Json::from(v.page)),
                    ("pid", Json::from(v.pid.0)),
                    ("is_write", Json::from(v.is_write)),
                    ("off", Json::from(v.off)),
                    ("len", Json::from(v.len)),
                    (
                        "other",
                        match v.other {
                            Some((p, pos, w, off, len)) => Json::obj([
                                ("pid", Json::from(p.0)),
                                ("pos", Json::from(pos)),
                                ("is_write", Json::from(w)),
                                ("off", Json::from(off)),
                                ("len", Json::from(len)),
                            ]),
                            None => Json::Null,
                        },
                    ),
                ]),
            ));
        }
    }
    // A failing cell carries why it failed and every finding.
    if let Err(why) = cell.verdict(r) {
        fields.push(("verdict", Json::from(why)));
        fields.push(("findings", Json::from(render_findings(&cell.label(), r))));
    }
    Json::obj(fields)
}

fn site_json(s: &RaceSite) -> Json {
    Json::obj([
        ("pid", Json::from(s.pid.0)),
        ("pos", Json::from(s.pos)),
        ("is_write", Json::from(s.is_write)),
        ("off", Json::from(s.off)),
        ("len", Json::from(s.len)),
        ("clock", Json::from(s.clock.clone())),
    ])
}

fn pages(v: &[u32]) -> Json {
    Json::arr(v.iter().map(|&p| Json::from(p)))
}
