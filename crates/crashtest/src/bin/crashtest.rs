//! `crashtest` — kill real processes at every enumerated kill point and
//! judge recovery with the ft-core oracle.
//!
//! Parent mode (default): sweeps the standard kill schedules
//! (`ft_crashtest::standard_schedules`) against the honest backend, then
//! runs the seeded-mutant self-test matrix. Exits nonzero if any honest
//! trial violates the oracle or any mutant escapes.
//!
//! ```text
//! crashtest [--quick] [--fsync always|none] [--skip-mutants]
//! ```
//!
//! Child mode (spawned by the parent; not for direct use):
//!
//! ```text
//! crashtest --child --dir D --name W --seed S --ops N
//!           --fsync always|none --mutation M --loss powercut|process
//!           [--kill "SPEC"]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use ft_crashtest::{
    mutant_matrix, run_child, run_schedule, standard_schedules, ChildConfig, KillSpec, LossModel,
    WorkloadSpec,
};
use ft_mem::durable::{DurableMutation, FsyncPolicy};

fn parse_fsync(s: &str) -> Result<FsyncPolicy, String> {
    match s {
        "always" => Ok(FsyncPolicy::Always),
        "none" => Ok(FsyncPolicy::Never),
        _ => Err(format!("--fsync must be always|none, got {s:?}")),
    }
}

struct ChildArgs {
    dir: PathBuf,
    name: String,
    seed: u64,
    ops: u64,
    fsync: FsyncPolicy,
    mutation: DurableMutation,
    loss: LossModel,
    kill: Option<KillSpec>,
}

fn parse_child_args(args: &[String]) -> Result<ChildArgs, String> {
    let mut dir = None;
    let mut name = String::from("adhoc");
    let mut seed = 7u64;
    let mut ops = 8u64;
    let mut fsync = FsyncPolicy::Always;
    let mut mutation = DurableMutation::None;
    let mut loss = LossModel::ProcessLoss;
    let mut kill = None;
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dir" => dir = Some(PathBuf::from(value(&mut it, "--dir")?)),
            "--name" => name = value(&mut it, "--name")?,
            "--seed" => {
                seed = value(&mut it, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--ops" => {
                ops = value(&mut it, "--ops")?
                    .parse()
                    .map_err(|e| format!("--ops: {e}"))?;
            }
            "--fsync" => fsync = parse_fsync(&value(&mut it, "--fsync")?)?,
            "--mutation" => {
                let v = value(&mut it, "--mutation")?;
                mutation = DurableMutation::parse(&v).ok_or(format!("unknown mutation {v:?}"))?;
            }
            "--loss" => {
                let v = value(&mut it, "--loss")?;
                loss = LossModel::parse(&v).ok_or(format!("unknown loss model {v:?}"))?;
            }
            "--kill" => kill = Some(KillSpec::parse(&value(&mut it, "--kill")?)?),
            other => return Err(format!("unknown child flag {other:?}")),
        }
    }
    Ok(ChildArgs {
        dir: dir.ok_or("--dir is required in child mode")?,
        name,
        seed,
        ops,
        fsync,
        mutation,
        loss,
        kill,
    })
}

fn child_main(args: &[String]) -> ExitCode {
    let a = match parse_child_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("crashtest child: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = ChildConfig {
        dir: a.dir,
        spec: WorkloadSpec {
            name: a.name,
            seed: a.seed,
            ops: a.ops,
        },
        fsync: a.fsync,
        mutation: a.mutation,
        loss: a.loss,
        kill: a.kill,
    };
    match run_child(&cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("crashtest child: {e}");
            ExitCode::from(3)
        }
    }
}

/// `--quick` runs every seventh kill of each standard schedule.
const QUICK_STRIDE: usize = 7;

fn parent_main(args: &[String]) -> ExitCode {
    let mut fsync = FsyncPolicy::Always;
    let mut stride = 1usize;
    let mut skip_mutants = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => stride = QUICK_STRIDE,
            "--fsync" => match it.next().map(|v| parse_fsync(v)) {
                Some(Ok(p)) => fsync = p,
                _ => {
                    eprintln!("--fsync needs always|none");
                    return ExitCode::from(2);
                }
            },
            "--skip-mutants" => skip_mutants = true,
            "--help" | "-h" => {
                println!("usage: crashtest [--quick] [--fsync always|none] [--skip-mutants]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag {other:?} (see --help)");
                return ExitCode::from(2);
            }
        }
    }

    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate own binary: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut bad = false;
    for schedule in &standard_schedules() {
        match run_schedule(&exe, schedule, fsync, stride) {
            Ok(report) => {
                println!(
                    "{}: {} kill trials (fsync {}, stride {stride}), {} violations, \
                     {} duplicate visibles (legal)",
                    report.workload,
                    report.trials,
                    match fsync {
                        FsyncPolicy::Never => "none",
                        _ => "always",
                    },
                    report.failures.len(),
                    report.duplicates
                );
                for (kill, why) in &report.failures {
                    bad = true;
                    println!("  VIOLATION at kill {kill}: {why}");
                }
            }
            Err(e) => {
                bad = true;
                println!("{}: sweep failed: {e}", schedule.workload);
            }
        }
    }

    if !skip_mutants {
        for m in mutant_matrix(&exe) {
            if m.caught {
                println!("mutant {}: caught — {}", m.mutation, m.detail);
            } else {
                bad = true;
                println!("mutant {}: ESCAPED — {}", m.mutation, m.detail);
            }
        }
    }

    if bad {
        println!("crashtest: FAIL");
        ExitCode::FAILURE
    } else {
        println!("crashtest: ok");
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--child") {
        child_main(&args[1..])
    } else {
        parent_main(&args)
    }
}
