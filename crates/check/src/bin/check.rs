//! `check` — the crash-schedule model-checking campaign.
//!
//! Exhausts every crash point of the nvi and taskfarm workloads under all
//! seven Figure 8 protocols and writes `BENCH_check.json` with the
//! states-explored and dedup-ratio numbers (a function of the flags alone;
//! timings go to stdout). Exits nonzero if any invariant is violated,
//! after shrinking the first violation and writing its replay script next
//! to the report.
//!
//! ```text
//! check [--out BENCH_check.json] [--threads N] [--smoke]
//! check --replay <script>            # re-run a shrunk counterexample
//! check --export-schedules <dir>     # write crashtest kill schedules
//! ```

use std::process::ExitCode;
use std::time::Instant;

use ft_bench::json::Json;
use ft_bench::runner::default_threads;
use ft_check::explore::{canonical_run, enumerate_points, explore_points, Exploration};
use ft_check::scenario::{CheckConfig, Workload};
use ft_check::{parse_script, shrink};
use ft_core::protocol::Protocol;

struct Args {
    out: String,
    cx_out: String,
    threads: usize,
    smoke: bool,
    replay: Option<String>,
    export_schedules: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: "BENCH_check.json".into(),
        cx_out: "check_counterexample.txt".into(),
        threads: default_threads(),
        smoke: false,
        replay: None,
        export_schedules: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => args.out = it.next().ok_or("--out needs a path")?,
            "--cx-out" => args.cx_out = it.next().ok_or("--cx-out needs a path")?,
            "--threads" => {
                args.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--threads needs a number")?;
            }
            "--smoke" => args.smoke = true,
            "--replay" => args.replay = Some(it.next().ok_or("--replay needs a path")?),
            "--export-schedules" => {
                args.export_schedules =
                    Some(it.next().ok_or("--export-schedules needs a directory")?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn replay(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("check: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let r = match parse_script(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("check: bad replay script: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = r.check_config();
    let canonical = canonical_run(&r.workload, r.workload.size, &cfg);
    let result =
        ft_check::explore::run_point(&r.workload, r.workload.size, &cfg, &canonical, r.point);
    match result.violation {
        Some(v) => {
            println!(
                "check: reproduced on {}@{}: {v:?}",
                r.workload.name,
                r.protocol.name()
            );
            ExitCode::SUCCESS
        }
        None => {
            println!(
                "check: {}@{} did NOT reproduce a violation",
                r.workload.name,
                r.protocol.name()
            );
            ExitCode::FAILURE
        }
    }
}

/// Writes the standard crashtest kill schedules (one file per child
/// workload family) into `dir`.
fn export_schedules(dir: &str) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("check: cannot create {dir}: {e}");
        return ExitCode::from(2);
    }
    for s in ft_check::standard_schedules() {
        let path = format!("{dir}/schedule_{}.txt", s.workload);
        if let Err(e) = std::fs::write(&path, ft_check::render_schedule(&s)) {
            eprintln!("check: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("check: {} kill trials -> {path}", s.len());
    }
    ExitCode::SUCCESS
}

fn sweep_one(w: &Workload, protocol: Protocol, threads: usize) -> (Exploration, f64, f64) {
    let cfg = CheckConfig {
        protocol,
        threads,
        skip_presend_commit: false,
    };
    let canonical = canonical_run(w, w.size, &cfg);
    let points = enumerate_points(&canonical);
    let t0 = Instant::now();
    let serial = explore_points(w, w.size, &cfg, &canonical, &points, 1);
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let sharded = explore_points(w, w.size, &cfg, &canonical, &points, threads);
    let parallel_ms = t1.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        serial.results,
        sharded.results,
        "{}@{}: sharded exploration diverged from the serial reference",
        w.name,
        protocol.name()
    );
    (sharded, serial_ms, parallel_ms)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("check: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.replay {
        return replay(path);
    }
    if let Some(dir) = &args.export_schedules {
        return export_schedules(dir);
    }

    let (nvi_size, farm_size, kv_size) = if args.smoke { (2, 1, 2) } else { (4, 2, 3) };
    let workloads = [
        Workload {
            name: "nvi",
            seed: 7,
            size: nvi_size,
        },
        Workload {
            name: "taskfarm",
            seed: 7,
            size: farm_size,
        },
        Workload {
            name: "kvstore",
            seed: 7,
            size: kv_size,
        },
    ];

    let t0 = Instant::now();
    let mut runs = Vec::new();
    let mut total_states = 0usize;
    let mut total_unique = 0usize;
    let mut first_violation: Option<(Workload, Protocol)> = None;
    for w in &workloads {
        for protocol in Protocol::FIGURE8 {
            let (ex, serial_ms, parallel_ms) = sweep_one(w, protocol, args.threads);
            let violations = ex.violations().len();
            println!(
                "check: {}@{}: {} states, {} unique (dedup {:.2}x), {} violations, {:.0} ms serial / {:.0} ms x{}",
                w.name,
                protocol.name(),
                ex.explored(),
                ex.unique_fingerprints,
                ex.dedup_ratio(),
                violations,
                serial_ms,
                parallel_ms,
                args.threads
            );
            total_states += ex.explored();
            total_unique += ex.unique_fingerprints;
            if violations > 0 && first_violation.is_none() {
                first_violation = Some((*w, protocol));
            }
            runs.push(Json::obj([
                ("workload", Json::from(w.name)),
                ("protocol", Json::from(protocol.name())),
                ("size", Json::from(w.size as u64)),
                ("states_explored", Json::from(ex.explored() as u64)),
                ("unique_states", Json::from(ex.unique_fingerprints as u64)),
                ("dedup_ratio", Json::from(ex.dedup_ratio())),
                ("violations", Json::from(violations as u64)),
            ]));
        }
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Shrink the first violation (if any) before writing the report, so
    // the counterexample path lands in the JSON.
    let mut counterexample = Json::Null;
    if let Some((w, protocol)) = first_violation {
        let cfg = CheckConfig {
            protocol,
            threads: 1,
            skip_presend_commit: false,
        };
        if let Some(cx) = shrink(&w, &cfg) {
            eprintln!(
                "check: shrunk counterexample ({}@{}, size {}): {:?}",
                w.name,
                protocol.name(),
                cx.workload.size,
                cx.violation
            );
            if let Err(e) = std::fs::write(&args.cx_out, &cx.script) {
                eprintln!("check: cannot write {}: {e}", args.cx_out);
            } else {
                eprintln!("check: replay script written to {}", args.cx_out);
            }
            counterexample = Json::obj([
                ("workload", Json::from(cx.workload.name)),
                ("size", Json::from(cx.workload.size as u64)),
                ("protocol", Json::from(cx.protocol.name())),
                ("violation", Json::from(format!("{:?}", cx.violation))),
                ("script", Json::from(args.cx_out.as_str())),
            ]);
        }
    }

    let report = Json::obj([
        ("report", Json::from("check")),
        ("smoke", Json::from(args.smoke)),
        ("states_explored", Json::from(total_states as u64)),
        ("unique_states", Json::from(total_unique as u64)),
        (
            "dedup_ratio",
            Json::from(if total_unique > 0 {
                total_states as f64 / total_unique as f64
            } else {
                1.0
            }),
        ),
        ("runs", Json::arr(runs)),
        ("counterexample", counterexample),
    ]);
    if let Err(e) = std::fs::write(&args.out, report.render_pretty()) {
        eprintln!("check: cannot write {}: {e}", args.out);
        return ExitCode::from(2);
    }
    println!(
        "check: {} states ({} unique) across {} sweeps in {:.1} s -> {}",
        total_states,
        total_unique,
        workloads.len() * Protocol::FIGURE8.len(),
        wall_ms / 1e3,
        args.out
    );
    if first_violation.is_some() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
