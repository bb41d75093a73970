//! The campaign binary: runs the campaign stages — the durable-medium
//! grid, Table 1 with the §4.1 composition, Table 2, the loss sweep, the
//! Figure 4 recovery-time trend, the Figure 8 grids, the §2.6 mitigation
//! ablation, the continuous-availability matrix, the sharded-KV service,
//! the exhaustive crash-schedule model checker and the trace analyzer —
//! each once on one thread (the serial reference) and once on `--threads`,
//! **fails if the two differ**, prints the report as text (the one
//! printer, `ft_bench::report::render`) and both timings, writes
//! `BENCH_<stage>.json`, and applies the stage's gate
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
//! * `--out DIR` — where to write the `BENCH_*.json` files and, without
//!   `--quick`, `EXPERIMENTS.md`: the repo's own with the marked block of
//!   every stage that ran replaced by the text printed for it (default
//!   `.`, which from the repo root re-records all of them in place);
//! * `--replay FILE` — instead of a campaign, re-execute the replay script
//!   a failing check stage printed (and put in `BENCH_check.json`).
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
use ft_bench::report::{render, splice};
use ft_bench::stage::Stage;
use ft_sim::runner::default_threads;

/// Every stage, in run order.
const STAGES: [&str; 11] = [
    "durable", "table1", "table2", "loss", "fig4", "fig8", "ablation", "avail", "kv", "check",
    "analyze",
];

/// Every flag.
const FLAGS: [&str; 5] = ["--threads", "--quick", "--only", "--out", "--replay"];

/// The repo's EXPERIMENTS.md, whose marked blocks a full-size run
/// regenerates.
const EXPERIMENTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");

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
}

fn parse_args(argv: &[&str], default_threads: usize) -> Result<Args, String> {
    let mut threads = default_threads;
    let mut quick = false;
    let mut only = STAGES.to_vec();
    let mut selections = Vec::new();
    let mut out = PathBuf::from(".");
    let mut replay = None;
    let mut it = argv.iter();
    while let Some(&flag) = it.next() {
        if !FLAGS.contains(&flag) {
            return Err(format!("unknown flag {flag} (flags: {})", FLAGS.join(", ")));
        }
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
                let selection = value()?;
                let named: Vec<&str> = selection.split(',').collect();
                if let Some(unknown) = named.iter().find(|n| !STAGES.contains(n)) {
                    return Err(format!(
                        "--only: unknown stage {unknown:?} (stages: {})",
                        STAGES.join(", ")
                    ));
                }
                only.retain(|s| named.contains(s));
                selections.push(selection);
            }
            "--out" => out = PathBuf::from(value()?),
            "--replay" => replay = Some(PathBuf::from(value()?)),
            other => unreachable!("{other} is in FLAGS"),
        }
    }
    if only.is_empty() {
        return Err(format!(
            "--only {}: repeated --only flags intersect, and no stage is in all of them",
            selections.join(" --only ")
        ));
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
    })
}

/// Where a campaign's stages run and what they write.
struct Campaign<'a> {
    threads: usize,
    out: &'a Path,
    /// EXPERIMENTS.md so far, on a full-size run.
    experiments: Option<String>,
}

impl Campaign<'_> {
    /// Runs one stage under the campaign contract: the serial reference,
    /// then the sharded run, which must reproduce it bit for bit; then the
    /// report as text and the timings to stdout, the report (and
    /// EXPERIMENTS.md with the stage's block set to that text) to `out`,
    /// and the stage's gate — after the files are on disk, so a failure is
    /// inspectable.
    #[expect(
        clippy::disallowed_methods,
        reason = "the stage timings go to stdout only, never into a report"
    )]
    fn drive<S: Stage>(&mut self, stage: &S) -> Result<(), String> {
        let (name, threads) = (S::NAME, self.threads);
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
        let report = stage.json(&sharded);
        let text = render(&report, S::COLUMNS);
        println!("{text}");
        println!(
            "{name}: serial {serial_ms:.0} ms, sharded {sharded_ms:.0} ms on {threads} threads — \
             rows bitwise identical"
        );
        let write = |file: &str, bytes: &str| {
            let path = self.out.join(file);
            println!("wrote {}", path.display());
            std::fs::write(&path, bytes).map_err(|e| format!("writing {}: {e}", path.display()))
        };
        write(&format!("BENCH_{name}.json"), &report.render_pretty())?;
        if let Some(doc) = &mut self.experiments {
            *doc = splice(doc, name, &text)?;
            write("EXPERIMENTS.md", doc)?;
        }
        println!();
        stage.gate(&sharded)
    }
}

fn run(args: &Args) -> Result<(), String> {
    if let Some(path) = &args.replay {
        let script = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        println!("{}", replay(&script)?);
        return Ok(());
    }
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let read = || std::fs::read_to_string(EXPERIMENTS);
    let experiments = (!args.quick).then(read).transpose();
    let experiments = experiments.map_err(|e| format!("reading {EXPERIMENTS}: {e}"))?;
    let mut c = Campaign {
        threads: args.threads,
        out: &args.out,
        experiments,
    };
    for &name in &args.only {
        match name {
            "durable" => c.drive(&DurableStage { quick: args.quick }),
            "table1" => c.drive(&Table1Stage(&args.cfg)),
            "table2" => c.drive(&Table2Stage(&args.cfg)),
            "loss" => c.drive(&LossStage(&args.cfg)),
            "fig4" => c.drive(&Fig4Stage(&args.cfg)),
            "fig8" => c.drive(&Fig8Stage(&args.cfg)),
            "ablation" => c.drive(&AblationStage(&args.cfg)),
            "avail" => c.drive(&args.avail),
            "kv" => c.drive(&args.kv),
            "check" => c.drive(&CheckStage::new(args.quick)),
            "analyze" => c.drive(&AnalyzeStage::new(args.quick)),
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
        // Two `--only` flags intersect, and an empty intersection is an
        // error: the old `--durable-only --avail-only` silently ran
        // nothing and exited 0.
        let args = parse_args(&["--only", "durable,avail", "--only", "avail"], 1).unwrap();
        assert_eq!(args.only, ["avail"]);
        let err = parse_args(&["--only", "durable", "--only", "avail"], 1).unwrap_err();
        assert!(err.contains("--only durable --only avail"), "{err}");
        assert!(err.contains("no stage"), "{err}");
        for bad in ["nope", "avail,", ""] {
            let err = parse_args(&["--only", bad], 1).unwrap_err();
            assert!(err.contains("unknown stage"), "{err}");
            assert!(err.contains("fig4, fig8, ablation,"), "{err}");
            assert!(err.contains("kv, check, analyze)"), "{err}");
        }
    }

    #[test]
    fn replay_is_a_mode_of_the_same_parser() {
        assert_eq!(parse_args(&[], 1).unwrap().replay, None);
        let args = parse_args(&["--replay", "cx.txt", "--threads", "3"], 1).unwrap();
        assert_eq!(args.replay, Some(PathBuf::from("cx.txt")));
        let err = parse_args(&["--replay"], 1).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }

    #[test]
    fn the_flag_list_is_five() {
        assert_eq!(FLAGS.len(), 5);
        let all = [
            "--threads",
            "3",
            "--quick",
            "--only",
            "kv",
            "--out",
            "d",
            "--replay",
            "r",
        ];
        assert!(FLAGS.iter().all(|flag| all.contains(flag)), "{FLAGS:?}");
        let args = parse_args(&all, 1).unwrap();
        assert_eq!((args.threads, args.quick, args.only), (3, true, vec!["kv"]));
        assert_eq!(args.out, PathBuf::from("d"));
        // Whatever is not one of the five never reaches the parser's match.
        let err = parse_args(&["--experiments", "x"], 1).unwrap_err();
        assert!(err.contains("unknown flag --experiments"), "{err}");
        assert!(err.contains(&FLAGS.join(", ")), "{err}");
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
            (&["--export-schedules", "dir"][..], "unknown flag"),
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

        let on = |threads, experiments: Option<&str>| Campaign {
            threads,
            out: &out,
            experiments: experiments.map(str::to_string),
        };
        let racy = Probe {
            racy: true,
            gate_ok: true,
        };
        let err = on(3, None).drive(&racy).unwrap_err();
        assert!(err.contains("MISMATCH"), "{err}");
        assert!(!report.exists(), "a diverged stage must not be reported");
        assert_eq!(on(1, None).drive(&racy), Ok(()), "1 vs 1 cannot diverge");
        let written = out.join("EXPERIMENTS.md");
        assert!(
            !written.exists(),
            "a --quick run leaves EXPERIMENTS.md alone"
        );

        std::fs::remove_file(&report).unwrap();
        let gated = Probe {
            racy: false,
            gate_ok: false,
        };
        assert_eq!(on(3, None).drive(&gated), Err("gate FAILED".to_string()));
        assert!(report.exists(), "the report lands before the gate");

        let sound = Probe {
            racy: false,
            gate_ok: true,
        };
        assert_eq!(on(3, None).drive(&sound), Ok(()));

        // A full-size run also writes EXPERIMENTS.md: the stage's marked
        // block becomes the text it printed; a missing marker is an error.
        let doc = "# x\n<!-- BEGIN BENCH_probe -->\nold\n<!-- END BENCH_probe -->\n";
        assert_eq!(on(3, Some(doc)).drive(&sound), Ok(()));
        assert_eq!(
            std::fs::read_to_string(&written).unwrap(),
            "# x\n<!-- BEGIN BENCH_probe -->\n```text\nrows 7\n```\n<!-- END BENCH_probe -->\n"
        );
        let err = on(3, Some("# no markers\n")).drive(&sound).unwrap_err();
        assert!(err.contains("BEGIN BENCH_probe"), "{err}");
        std::fs::remove_dir_all(&out).unwrap();
    }
}
