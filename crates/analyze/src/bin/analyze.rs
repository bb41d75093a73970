//! `analyze` — the trace-analysis campaign.
//!
//! Runs every evaluation workload under all seven Figure 8 protocols,
//! analyzes each recorded run with the three `ft-analyze` passes
//! (happens-before races, Eraser locksets, Save-work obligation audit),
//! and writes a deterministic `BENCH_analyze.json`. The sweep runs twice
//! — serial and sharded over the campaign runner — and the two result
//! sets are asserted bitwise identical.
//!
//! Two seeded-race mutant cells ride along as self-tests: the unlocked
//! task-counter peek (`taskfarm-racy`) must be flagged by *both* race
//! passes, and the fused-barrier Barnes-Hut (`treadmarks-fused`) by the
//! happens-before pass. Every clean cell must come back with zero races,
//! zero lockset violations, zero uncovered obligations, and audit
//! agreement with `ft_core::savework` — any deviation exits nonzero
//! after writing the findings to a report file for CI to pick up.
//!
//! ```text
//! analyze [--out BENCH_analyze.json] [--findings-out analyze_findings.txt]
//!         [--threads N] [--smoke]
//! ```
//!
//! No wall-clock numbers appear in the report (unlike the other campaign
//! binaries): byte-identity of the output across runs is itself a CI
//! assertion.

use std::process::ExitCode;

use ft_analyze::report::{analyze, render_findings, AnalysisReport};
use ft_bench::json::Json;
use ft_bench::runner::{default_threads, run_indexed};
use ft_bench::scenarios;
use ft_core::protocol::Protocol;
use ft_dc::harness::DcHarness;
use ft_dc::state::DcConfig;

/// What a cell's analysis must show for the campaign to pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
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
struct Cell {
    workload: &'static str,
    size: usize,
    protocol: Protocol,
    expect: Expect,
}

/// The golden workload sizes, halved under `--smoke`.
fn workloads(smoke: bool) -> Vec<(&'static str, usize)> {
    scenarios::GOLDEN
        .iter()
        .map(|&(n, s)| (n, if smoke { (s / 2).max(2) } else { s }))
        .collect()
}

fn cells(smoke: bool) -> Vec<Cell> {
    let mut out = Vec::new();
    for (workload, size) in workloads(smoke) {
        for protocol in Protocol::FIGURE8 {
            out.push(Cell {
                workload,
                size,
                protocol,
                expect: Expect::Clean,
            });
        }
    }
    // The seeded-race mutants: one protocol each is enough — the race is
    // an application property, not a protocol one.
    out.push(Cell {
        workload: "taskfarm-racy",
        size: if smoke { 2 } else { 3 },
        protocol: Protocol::Cpvs,
        expect: Expect::FlaggedByBoth,
    });
    out.push(Cell {
        workload: "treadmarks-fused",
        size: if smoke { 4 } else { 8 },
        protocol: Protocol::Cpvs,
        expect: Expect::FlaggedByHb,
    });
    out
}

const SEED: u64 = 7;

/// Builds and runs one cell, returning its analysis. A pure function of
/// the cell (fresh simulator every call), so the serial and sharded
/// sweeps share it verbatim.
fn run_cell(cell: &Cell) -> AnalysisReport {
    let built = scenarios::family(cell.workload, SEED, cell.size)
        .unwrap_or_else(|| panic!("unknown workload {}", cell.workload));
    let (sim, apps) = built.into_parts();
    let report = DcHarness::new(sim, DcConfig::discount_checking(cell.protocol), apps).run();
    analyze(&report.trace, &report.shm)
}

/// A cell's verdict against its expectation, with a short reason on
/// failure.
fn verdict(cell: &Cell, r: &AnalysisReport) -> Result<(), String> {
    if !r.savework_agrees {
        return Err("obligation audit disagrees with ft_core::savework".into());
    }
    match cell.expect {
        Expect::Clean => {
            if r.is_clean() {
                Ok(())
            } else {
                Err(format!(
                    "expected clean, found {} races / {} lockset / {} obligations",
                    r.races.len(),
                    r.lockset.len(),
                    r.obligations.len()
                ))
            }
        }
        Expect::FlaggedByBoth => {
            if r.races.is_empty() || r.lockset.is_empty() {
                Err(format!(
                    "seeded race missed: {} hb races, {} lockset violations (need both)",
                    r.races.len(),
                    r.lockset.len()
                ))
            } else {
                Ok(())
            }
        }
        Expect::FlaggedByHb => {
            if r.races.is_empty() {
                Err("seeded race missed by the happens-before pass".into())
            } else {
                Ok(())
            }
        }
    }
}

fn cell_json(cell: &Cell, r: &AnalysisReport) -> Json {
    let mut fields = vec![
        ("workload", Json::Str(cell.workload.into())),
        ("protocol", Json::Str(cell.protocol.name().into())),
        ("size", Json::UInt(cell.size as u64)),
        ("processes", Json::UInt(r.processes as u64)),
        ("events", Json::UInt(r.events as u64)),
        ("accesses", Json::UInt(r.accesses as u64)),
        ("hb_races", Json::UInt(r.races.len() as u64)),
        ("lockset_violations", Json::UInt(r.lockset.len() as u64)),
        (
            "obligations_uncovered",
            Json::UInt(r.obligations.len() as u64),
        ),
        ("savework_agrees", Json::Bool(r.savework_agrees)),
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
                    ("page", Json::UInt(u64::from(race.page))),
                    ("a", site_json(&race.a)),
                    ("b", site_json(&race.b)),
                ]),
            ));
        }
        if let Some(v) = r.lockset.first() {
            fields.push((
                "first_lockset",
                Json::obj([
                    ("page", Json::UInt(u64::from(v.page))),
                    ("pid", Json::UInt(u64::from(v.pid.0))),
                    ("is_write", Json::Bool(v.is_write)),
                    ("off", Json::UInt(u64::from(v.off))),
                    ("len", Json::UInt(u64::from(v.len))),
                    (
                        "other",
                        match v.other {
                            Some((p, pos, w, off, len)) => Json::obj([
                                ("pid", Json::UInt(u64::from(p.0))),
                                ("pos", Json::UInt(pos)),
                                ("is_write", Json::Bool(w)),
                                ("off", Json::UInt(u64::from(off))),
                                ("len", Json::UInt(u64::from(len))),
                            ]),
                            None => Json::Null,
                        },
                    ),
                ]),
            ));
        }
    }
    Json::obj(fields)
}

fn site_json(s: &ft_analyze::hb::RaceSite) -> Json {
    Json::obj([
        ("pid", Json::UInt(u64::from(s.pid.0))),
        ("pos", Json::UInt(s.pos)),
        ("is_write", Json::Bool(s.is_write)),
        ("off", Json::UInt(u64::from(s.off))),
        ("len", Json::UInt(u64::from(s.len))),
        ("clock", Json::Str(s.clock.clone())),
    ])
}

fn pages(v: &[u32]) -> Json {
    Json::arr(v.iter().map(|&p| Json::UInt(u64::from(p))))
}

struct Args {
    out: String,
    findings_out: String,
    threads: usize,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: "BENCH_analyze.json".into(),
        findings_out: "analyze_findings.txt".into(),
        threads: default_threads(),
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => args.out = it.next().ok_or("--out needs a path")?,
            "--findings-out" => {
                args.findings_out = it.next().ok_or("--findings-out needs a path")?;
            }
            "--threads" => {
                args.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--threads needs a number")?;
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("analyze: {e}");
            return ExitCode::from(2);
        }
    };
    let cells = cells(args.smoke);
    eprintln!(
        "analyze: {} cells ({} threads{})",
        cells.len(),
        args.threads,
        if args.smoke { ", smoke" } else { "" }
    );
    let serial = run_indexed(cells.len(), 1, |i| run_cell(&cells[i]));
    let sharded = run_indexed(cells.len(), args.threads, |i| run_cell(&cells[i]));
    assert_eq!(
        serial, sharded,
        "sharded analysis diverged from the serial reference"
    );

    let mut failures = Vec::new();
    let mut rows = Vec::new();
    for (cell, r) in cells.iter().zip(&sharded) {
        let label = format!("{}@{}", cell.workload, cell.protocol.name());
        if let Err(why) = verdict(cell, r) {
            eprintln!("analyze: FAIL {label}: {why}");
            failures.push(format!("{label}: {why}\n{}", render_findings(&label, r)));
        } else {
            eprintln!(
                "analyze: ok   {label}: {} accesses, {} races, {} lockset, {} obligations",
                r.accesses,
                r.races.len(),
                r.lockset.len(),
                r.obligations.len()
            );
        }
        rows.push(cell_json(cell, r));
    }

    let doc = Json::obj([
        ("bench", Json::Str("analyze".into())),
        ("seed", Json::UInt(SEED)),
        ("smoke", Json::Bool(args.smoke)),
        ("cells", Json::UInt(cells.len() as u64)),
        ("failures", Json::UInt(failures.len() as u64)),
        ("results", Json::Arr(rows)),
    ]);
    if let Err(e) = std::fs::write(&args.out, doc.render_pretty()) {
        eprintln!("analyze: cannot write {}: {e}", args.out);
        return ExitCode::from(2);
    }
    eprintln!("analyze: wrote {}", args.out);

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        let text = failures.join("\n");
        if let Err(e) = std::fs::write(&args.findings_out, &text) {
            eprintln!("analyze: cannot write {}: {e}", args.findings_out);
        } else {
            eprintln!("analyze: findings written to {}", args.findings_out);
        }
        ExitCode::FAILURE
    }
}
