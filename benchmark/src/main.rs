//! The benchmark `BENCHMARK.json` names: six closed-loop, single-threaded
//! workloads over the layers' public functions. One invocation runs one
//! workload and prints every metric as `workload metric value unit n q1 q3`,
//! then the result line the contract prescribes. See `README.md`.

mod alloc;
mod check_kv;
mod compare;
mod durable_commit;
mod metrics;
mod probes;
mod sims;
mod span;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use metrics::{Kind, Metrics, SPECS};
use span::Tracer;
use workload::{Rep, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Where traces and the durable store's files go (ignored by git).
const OUT_DIR: &str = "benchmark/out";
/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: u64 = 10;
const DEFAULT_SEED: u64 = 11;

/// Name and one-line reason of every workload, in running order.
const WORKLOADS: [(&str, &str); 6] = [
    (
        "kv108_ff",
        "failure-free 108-process kvstore under CPVS: 108-wide clocks and 107-sender channel scans, so ft-core trace recording and the ft-sim fabric do most of the work",
    ),
    (
        "kv108_crash",
        "same shape under 120 Poisson kills per trial, oracle-judged: recovery rewinds the trace and check_recovery reads all of it, so a recording gain that makes consumers pay shows here",
    ),
    (
        "nvi_cand",
        "one process, clock width 1, no network, a commit every third event: ft-mem write barrier and ft-dc runtime dominate; clock and fabric optimisations must read no change",
    ),
    (
        "treadmarks_2pc",
        "Barnes-Hut on 4 DSM nodes under CBNDV-2PC: compute- and payload-bound (ft-dsm, ft-apps, payload copies); clocks, queue and commits do little",
    ),
    (
        "check_kv",
        "ft-check on kvstore at size 128: O(N^2) re-execution from t=0 plus a Debug-string fingerprint and an oracle pass per schedule; bypasses the 108-wide paths",
    ),
    (
        "durable_commit",
        "the only workload with real I/O and CRC framing: append/compact then open/replay of the on-disk engine, so a cheaper frame that costs recovery shows",
    ),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    spin: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: ft-benchmark --workload <name> [--seed S] [--seconds N] [--trace 0|1] [--mutate spin]\n\
         \x20      ft-benchmark --list | --contract | --compare <first> <second>"
    );
    std::process::exit(2);
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        spin: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--mutate" if value() == "spin" => args.spin = true,
            _ => usage(),
        }
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == args.workload) {
        eprintln!("ft-benchmark: unknown workload {:?}", args.workload);
        usage();
    }
    args
}

/// `--mutate spin` slows this workload and no other: after each of its
/// reps the timed loop busy-waits for as long again, which halves the rate
/// and breaches the 25 % bound clearly even on a noisy host. It is the
/// seeded regression `repeat.sh` must trip on (the `perf --mutate spin`
/// idiom).
const SPIN_WORKLOAD: &str = "nvi_cand";

fn make(args: &Args) -> Box<dyn Workload> {
    let sim = |spec| Box::new(sims::Sim::new(spec, args.seed));
    match args.workload.as_str() {
        "kv108_ff" => sim(&sims::KV108_FF),
        "kv108_crash" => sim(&sims::KV108_CRASH),
        "nvi_cand" => sim(&sims::NVI_CAND),
        "treadmarks_2pc" => sim(&sims::TREADMARKS_2PC),
        "check_kv" => Box::new(check_kv::CheckKv::new(args.seed)),
        "durable_commit" => Box::new(durable_commit::DurableCommit::new(
            args.seed,
            Path::new(OUT_DIR),
        )),
        other => unreachable!("{other} passed parse_args"),
    }
}

/// Set-up is timed at least this many times, and for small set-ups until
/// this much time has gone into it, so that its median is steady.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 41;
const SETUP_SECS: f64 = 0.5;

struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
}

fn run(args: &Args) -> Outcome {
    let name = args.workload.as_str();
    let mut w = make(args);
    let mut m = Metrics::default();
    let mut tracer = args.trace.then(Tracer::new);

    // Set-up, a warm-up rep, then the remaining set-ups: the last set-up
    // leaves the workload as fresh as it was before the warm-up, so rep 0
    // repeats the warm-up's rep exactly.
    let timed_setup = |w: &mut dyn Workload| {
        let t0 = Instant::now();
        w.setup();
        t0.elapsed().as_secs_f64()
    };
    let mut setup_s = vec![timed_setup(w.as_mut())];
    let warm = w.rep(0, None);
    let start = Instant::now();
    while setup_s.len() < MIN_SETUPS
        || (start.elapsed().as_secs_f64() < SETUP_SECS && setup_s.len() < MAX_SETUPS)
    {
        setup_s.push(timed_setup(w.as_mut()));
    }

    let mut total = Rep::default();
    let mut prefix = Rep::default();
    let mut peak = 0;
    // Per-rep rates, of the plain and of the traced reps.
    let mut rates: [Vec<f64>; 2] = Default::default();
    alloc::reset_peak();
    let start = Instant::now();
    let mut i = 0;
    while i < w.prefix_reps() || start.elapsed().as_secs() < args.seconds {
        // In a traced run every other rep takes the plain path, which
        // gives the tracing overhead from one process.
        let traced = args.trace && i % 2 == 0;
        let mut rep = w.rep(i, if traced { tracer.as_mut() } else { None });
        if args.spin && name == SPIN_WORKLOAD {
            let t0 = Instant::now();
            while t0.elapsed().as_secs_f64() < rep.secs {
                std::hint::spin_loop();
            }
            rep.secs += t0.elapsed().as_secs_f64();
        }
        if i == 0 {
            // The exact metrics' bounds assume a seed fixes every count.
            let same = (rep.ops, rep.digest) == (warm.ops, warm.digest)
                && (traced || (rep.allocs, rep.bytes) == (warm.allocs, warm.bytes));
            assert!(
                same,
                "{name}: two reps of one seed differ: {warm:?} then {rep:?}; \
                 the exact metrics are not exact"
            );
        }
        rates[usize::from(traced)].push(rep.ops as f64 / rep.secs);
        total.add(&rep);
        i += 1;
        if i == w.prefix_reps() {
            prefix = total;
            peak = alloc::peak();
        }
    }

    let (attempted, failed) = w.finish(&mut m, tracer.as_ref());
    let attempted = total.attempted + attempted;
    let failed = total.failed + failed;
    if let Some(tracer) = &tracer {
        let plain = stats::median(&rates[0]);
        let traced = stats::median(&rates[1]);
        m.exact("bench.trace_overhead_pct", (plain / traced - 1.0) * 100.0);
        let path = Path::new(OUT_DIR).join(format!("trace-{name}.json"));
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| tracer.write_json(&path))
            .unwrap_or_else(|e| panic!("{name}: cannot write {}: {e}", path.display()));
    } else {
        m.samples("setup_s", &setup_s);
        m.samples(w.rate_name(), &rates[0]);
        m.exact("allocs_per_op", prefix.allocs as f64 / prefix.ops as f64);
        m.exact(
            "alloc_bytes_per_op",
            prefix.bytes as f64 / prefix.ops as f64,
        );
        m.exact("peak_heap_mib", peak as f64 / (1 << 20) as f64);
        m.exact("fail_share", failed as f64 / attempted as f64);
    }
    Outcome {
        metrics: m,
        attempted,
        failed,
    }
}

/// The contract's result line: every end-to-end metric of the untraced
/// pass, or every per-layer metric of the traced one (0 where the workload
/// bypasses the layer).
fn result_line(args: &Args, out: &Outcome) -> String {
    let mut fields = Vec::new();
    for spec in SPECS {
        let emitted = out
            .metrics
            .0
            .iter()
            .find(|m| m.spec.name == spec.name)
            .map(|m| m.value);
        let (name, value) = match (spec.kind, args.trace) {
            (Kind::EndToEnd { json: Some(j), .. }, false) => match emitted {
                Some(v) => (j, v),
                None => continue,
            },
            (Kind::Layer, true) => (spec.name, emitted.unwrap_or(0.0)),
            _ => continue,
        };
        assert!(value.is_finite(), "{name} is {value}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            spec.unit
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        fields.join(", ")
    )
}

/// `BENCHMARK.json`, from the tables in this package.
fn contract() -> String {
    let mut doc = String::new();
    let _ = write!(
        doc,
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n"
    );
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(doc, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    let mut end_to_end: Vec<String> = Vec::new();
    let mut per_layer = Vec::new();
    for spec in SPECS {
        let better = match spec.better {
            metrics::Better::Higher => "higher",
            metrics::Better::Lower => "lower",
        };
        match spec.kind {
            Kind::EndToEnd {
                bound,
                json: Some(name),
            } => {
                let row = format!(
                    "    {{\"name\": \"{name}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {bound}}}",
                    spec.unit
                );
                // The three per-workload rates share one row.
                if !end_to_end.contains(&row) {
                    end_to_end.push(row);
                }
            }
            Kind::EndToEnd { json: None, .. } => {}
            Kind::Layer => per_layer.push(format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}",
                spec.name, spec.unit
            )),
        }
    }
    let _ = write!(
        doc,
        "  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    );
    doc
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    match argv.peek().map(String::as_str) {
        Some("--list") => {
            for (name, _) in WORKLOADS {
                println!("{name}");
            }
            return ExitCode::SUCCESS;
        }
        Some("--contract") => {
            print!("{}", contract());
            return ExitCode::SUCCESS;
        }
        Some("--compare") => {
            let files: Vec<String> = argv.skip(1).collect();
            let [first, second] = files.as_slice() else {
                usage()
            };
            return compare::compare(Path::new(first), Path::new(second));
        }
        _ => {}
    }
    let args = parse_args(argv);
    let out = run(&args);
    for m in &out.metrics.0 {
        println!(
            "{} {} {} {} {} {} {}",
            args.workload, m.spec.name, m.value, m.spec.unit, m.n, m.q1, m.q3
        );
    }
    println!("{}", result_line(&args, &out));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{}: {} of {} operations or output checks failed",
            args.workload, out.failed, out.attempted
        );
        ExitCode::FAILURE
    }
}
