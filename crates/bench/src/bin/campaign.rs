//! The campaign binary: runs the campaign stages — the durable-medium
//! grid, Table 1 with the §4.1 composition, Table 2, the loss sweep, the
//! Figure 4 recovery-time trend, the Figure 8 grids, the §2.6 mitigation
//! ablation, the continuous-availability matrix, the sharded-KV service,
//! the exhaustive crash-schedule model checker and the trace analyzer —
//! each once on one thread (the serial reference) and once on `--threads`,
//! **fails if the two differ**, prints the stage's tables and both
//! timings, writes `BENCH_<stage>.json`, and applies the stage's gate
//! (the paper's shape criteria for its figures; avail: every seeded
//! unsound-microreboot cell flagged; kv and check: violation-free;
//! analyze: every cell as expected, the seeded races flagged).
//!
//! ```text
//! cargo run --release -p ft-bench --bin campaign -- --threads 4
//! ```
//!
//! Options:
//!
//! * `--threads N` — worker threads for the sharded run (default: the
//!   machine's available parallelism);
//! * `--quick` — the CI smoke sizing of every stage; without it the
//!   stages run at the sizing the committed `BENCH_*.json` record, which
//!   `ci.sh` compares byte for byte;
//! * `--only STAGE[,STAGE…]` — run only the named stages (`durable`,
//!   `table1`, `table2`, `loss`, `fig4`, `fig8`, `ablation`, `avail`,
//!   `kv`, `check`, `analyze`);
//! * `--out DIR` — where to write the `BENCH_*.json` files (default `.`);
//! * `--replay FILE` — instead of a campaign, re-execute the replay script
//!   a failing check stage printed (and put in `BENCH_check.json`);
//! * `--export-schedules DIR` — instead of a campaign, write the standard
//!   `crashtest` kill schedules, one file per child workload.
//!
//! The reports are a function of the flags alone: wall-clock goes to
//! stdout, never into a file.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use ft_bench::ablation::AblationStage;
use ft_bench::analyze::AnalyzeStage;
use ft_bench::avail::AvailConfig;
use ft_bench::campaign::{CampaignConfig, Fig8Stage, LossStage, Table1Stage, Table2Stage};
use ft_bench::check::{replay, CheckStage};
use ft_bench::durable::DurableStage;
use ft_bench::fig4::Fig4Stage;
use ft_bench::kv::KvConfig;
use ft_bench::stage::Stage;
use ft_sim::runner::default_threads;

/// Every stage, in run order.
const STAGES: [&str; 11] = [
    "durable", "table1", "table2", "loss", "fig4", "fig8", "ablation", "avail", "kv", "check",
    "analyze",
];

#[derive(Debug)]
struct Args {
    threads: usize,
    quick: bool,
    /// The stages to run, in [`STAGES`] order.
    only: Vec<&'static str>,
    cfg: CampaignConfig,
    avail: AvailConfig,
    kv: KvConfig,
    out: PathBuf,
    /// Replay this script instead of running a campaign.
    replay: Option<PathBuf>,
    /// Write the crashtest kill schedules here instead of running a
    /// campaign.
    export_schedules: Option<PathBuf>,
}

fn parse_args(argv: &[&str], default_threads: usize) -> Result<Args, String> {
    let mut threads = default_threads;
    let mut quick = false;
    let mut only = STAGES.to_vec();
    let mut out = PathBuf::from(".");
    let (mut replay, mut export_schedules) = (None, None);
    let mut it = argv.iter();
    while let Some(&flag) = it.next() {
        let mut value = || {
            it.next()
                .copied()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag {
            "--threads" => {
                threads = value()?.parse().map_err(|e| format!("{flag}: {e}"))?;
            }
            "--quick" => quick = true,
            "--only" => {
                let named: Vec<&str> = value()?.split(',').collect();
                if let Some(unknown) = named.iter().find(|n| !STAGES.contains(n)) {
                    return Err(format!(
                        "--only: unknown stage {unknown:?} (stages: {})",
                        STAGES.join(", ")
                    ));
                }
                only.retain(|s| named.contains(s));
            }
            "--out" => out = PathBuf::from(value()?),
            "--replay" => replay = Some(PathBuf::from(value()?)),
            "--export-schedules" => export_schedules = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if threads == 0 {
        return Err("--threads must be at least 1".to_string());
    }
    let (cfg, avail, kv) = if quick {
        (
            CampaignConfig::quick(),
            AvailConfig::quick(),
            KvConfig::quick(),
        )
    } else {
        (
            CampaignConfig::default(),
            AvailConfig::default(),
            KvConfig::default(),
        )
    };
    Ok(Args {
        threads,
        quick,
        only,
        cfg,
        avail,
        kv,
        out,
        replay,
        export_schedules,
    })
}

/// Runs one stage under the campaign contract: the serial reference, then
/// the sharded run, which must reproduce it bit for bit; then tables and
/// timings to stdout, the report to `out`, and the stage's gate (after the
/// report is on disk, so a failure is inspectable).
fn drive<S: Stage>(stage: &S, threads: usize, out: &Path) -> Result<(), String> {
    let name = S::NAME;
    let t0 = Instant::now();
    let serial = stage.run(1);
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let sharded = stage.run(threads);
    let sharded_ms = t1.elapsed().as_secs_f64() * 1e3;
    if serial != sharded {
        return Err(format!(
            "{name}: serial/sharded MISMATCH — the {threads}-thread run diverged from the \
             serial reference.\nserial:  {serial:?}\nsharded: {sharded:?}"
        ));
    }
    println!("{}", stage.render(&sharded));
    println!(
        "{name}: serial {serial_ms:.0} ms, sharded {sharded_ms:.0} ms on {threads} threads — \
         rows bitwise identical"
    );
    let path = out.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, stage.json(&sharded).render_pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}\n", path.display());
    stage.gate(&sharded)
}

/// Writes the standard crashtest kill schedules, one file per child
/// workload family, into `dir`.
fn export_schedules(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for s in ft_check::standard_schedules() {
        let path = dir.join(format!("schedule_{}.txt", s.workload));
        std::fs::write(&path, ft_check::render_schedule(&s))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("{} kill trials -> {}", s.len(), path.display());
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    if let Some(path) = &args.replay {
        let script = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        println!("{}", replay(&script)?);
        return Ok(());
    }
    if let Some(dir) = &args.export_schedules {
        return export_schedules(dir);
    }
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let (threads, out) = (args.threads, args.out.as_path());
    for &name in &args.only {
        match name {
            "durable" => drive(&DurableStage { quick: args.quick }, threads, out),
            "table1" => drive(&Table1Stage(&args.cfg), threads, out),
            "table2" => drive(&Table2Stage(&args.cfg), threads, out),
            "loss" => drive(&LossStage(&args.cfg), threads, out),
            "fig4" => drive(&Fig4Stage(&args.cfg), threads, out),
            "fig8" => drive(&Fig8Stage(&args.cfg), threads, out),
            "ablation" => drive(&AblationStage(&args.cfg), threads, out),
            "avail" => drive(&args.avail, threads, out),
            "kv" => drive(&args.kv, threads, out),
            "check" => drive(&CheckStage::new(args.quick), threads, out),
            "analyze" => drive(&AnalyzeStage::new(args.quick), threads, out),
            other => unreachable!("{other} is not in STAGES"),
        }?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
    match parse_args(&argv, default_threads()).and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("campaign: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_bench::json::Json;

    #[test]
    fn quick_alone_selects_every_quick_config_and_no_flag_the_recorded_sizing() {
        let args = parse_args(&["--quick"], 2).unwrap();
        assert!(args.quick);
        assert_eq!(args.threads, 2);
        assert_eq!(args.cfg, CampaignConfig::quick());
        assert_eq!(args.avail.trials, AvailConfig::quick().trials);
        assert_eq!(args.kv.shards, KvConfig::quick().shards);

        let full = parse_args(&[], 1).unwrap();
        assert!(!full.quick);
        assert_eq!(full.cfg, CampaignConfig::default());
        let sizing = (
            full.cfg.target_crashes,
            full.cfg.max_trials,
            full.cfg.table2_trials,
        );
        assert_eq!(sizing, (100, 1200, 100), "what the committed files record");
        assert_eq!(full.avail.trials, AvailConfig::default().trials);
        assert_eq!(full.kv.shards, KvConfig::default().shards);
    }

    #[test]
    fn only_selects_stages_in_run_order_and_rejects_unknown_names() {
        assert_eq!(parse_args(&[], 1).unwrap().only, STAGES);
        let args = parse_args(&["--only", "kv,durable"], 1).unwrap();
        assert_eq!(args.only, ["durable", "kv"]);
        // Two `--only` flags intersect; the old `--durable-only
        // --avail-only` silently ran nothing and exited 0.
        let args = parse_args(&["--only", "durable,avail", "--only", "avail"], 1).unwrap();
        assert_eq!(args.only, ["avail"]);
        for bad in ["nope", "avail,", ""] {
            let err = parse_args(&["--only", bad], 1).unwrap_err();
            assert!(err.contains("unknown stage"), "{err}");
            assert!(err.contains("fig4, fig8, ablation,"), "{err}");
            assert!(err.contains("kv, check, analyze)"), "{err}");
        }
    }

    #[test]
    fn replay_and_export_schedules_are_modes_of_the_same_parser() {
        let args = parse_args(&[], 1).unwrap();
        assert_eq!((args.replay, args.export_schedules), (None, None));
        let args = parse_args(&["--replay", "cx.txt", "--threads", "3"], 1).unwrap();
        assert_eq!(args.replay, Some(PathBuf::from("cx.txt")));
        let args = parse_args(&["--export-schedules", "dir"], 1).unwrap();
        assert_eq!(args.export_schedules, Some(PathBuf::from("dir")));
        for flag in ["--replay", "--export-schedules"] {
            let err = parse_args(&[flag], 1).unwrap_err();
            assert!(err.contains("requires a value"), "{err}");
        }
    }

    #[test]
    fn bad_flags_are_errors() {
        for (argv, want) in [
            (&["--threads", "0"][..], "at least 1"),
            (
                &["--only", "check,analyze", "--threads", "0"][..],
                "at least 1",
            ),
            (&["--smoke"][..], "unknown flag"),
            (&["--threads", "x"][..], "--threads:"),
            (&["--threads"][..], "requires a value"),
            (&["--avail-only"][..], "unknown flag"),
            (&["--target-crashes", "9"][..], "unknown flag"),
            (&["--max-trials", "70"][..], "unknown flag"),
            (&["--quick", "--table2-trials", "3"][..], "unknown flag"),
        ] {
            let err = parse_args(argv, 1).unwrap_err();
            assert!(err.contains(want), "{argv:?}: {err}");
        }
    }

    /// A stage whose rows can be made to depend on `threads` and whose
    /// gate can be made to fail.
    struct Probe {
        racy: bool,
        gate_ok: bool,
    }

    impl Stage for Probe {
        const NAME: &'static str = "probe";
        type Rows = usize;

        fn run(&self, threads: usize) -> usize {
            if self.racy {
                threads
            } else {
                7
            }
        }

        fn render(&self, rows: &usize) -> String {
            rows.to_string()
        }

        fn json(&self, rows: &usize) -> Json {
            Json::obj([("rows", Json::from(*rows))])
        }

        fn gate(&self, _: &usize) -> Result<(), String> {
            if self.gate_ok {
                Ok(())
            } else {
                Err("gate FAILED".to_string())
            }
        }
    }

    #[test]
    fn drive_fails_on_a_thread_dependent_stage_and_on_a_failing_gate() {
        let out = std::env::temp_dir().join(format!("ft-campaign-drive-{}", std::process::id()));
        std::fs::create_dir_all(&out).unwrap();
        let report = out.join("BENCH_probe.json");

        let racy = Probe {
            racy: true,
            gate_ok: true,
        };
        let err = drive(&racy, 3, &out).unwrap_err();
        assert!(err.contains("MISMATCH"), "{err}");
        assert!(!report.exists(), "a diverged stage must not be reported");
        assert_eq!(drive(&racy, 1, &out), Ok(()), "1 vs 1 cannot diverge");

        std::fs::remove_file(&report).unwrap();
        let gated = Probe {
            racy: false,
            gate_ok: false,
        };
        assert_eq!(drive(&gated, 3, &out), Err("gate FAILED".to_string()));
        assert!(report.exists(), "the report lands before the gate");

        let sound = Probe {
            racy: false,
            gate_ok: true,
        };
        assert_eq!(drive(&sound, 3, &out), Ok(()));
        std::fs::remove_dir_all(&out).unwrap();
    }
}
