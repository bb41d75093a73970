//! The hot-path micro-bench binary behind `BENCH_perf.json` and the CI
//! perf-regression gate.
//!
//! Measures the simulator primitives the PR 8 overhaul targets — event
//! queue, message fabric, commit snapshotting, and three end-to-end
//! slices (a plain run, a Discount-Checking run, and the sharded
//! kvstore cluster under Discount Checking) — in ops/sec, plain
//! wall-clock over batched iterations (best of a few samples, same idiom
//! as `benches/micro.rs`). Wall-clock readings never feed back into
//! simulated results; this file is on the CI determinism allowlist.
//!
//! Modes:
//!
//! * `perf [--out FILE]` — run the benches, print a table, write the
//!   JSON report (default `BENCH_perf.json`).
//! * `perf --check ci/perf_baseline.json` — also compare each bench
//!   against the committed baseline and exit nonzero if any is more than
//!   `SLOWDOWN_TOLERANCE`× slower (generous on purpose: the gate catches
//!   gross regressions, not host-to-host jitter).
//! * `perf --mutate spin` — seeded-regression self-test: cripples the
//!   event-queue bench with a busy-wait so CI can prove the gate trips
//!   (the same pattern as the check/analyze mutant self-tests).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ft_apps::scenarios;
use ft_bench::json::Json;
use ft_core::event::{MsgId, ProcessId};
use ft_core::protocol::Protocol;
use ft_dc::harness::DcHarness;
use ft_dc::state::DcConfig;
use ft_sim::harness::run_plain_on;
use ft_sim::wheel::TimerWheel;
use ft_sim::{Network, SplitMix64};

/// A measured bench: ns per operation (lower is better).
struct Measured {
    name: &'static str,
    ns_per_op: f64,
    ops_per_sec: f64,
}

/// Allocation counter (diagnostics): counts heap allocs and bytes so the
/// bench table can report allocations per operation alongside time.
mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
    pub static BYTES: AtomicU64 = AtomicU64::new(0);

    pub struct Counting;

    // SAFETY: delegates directly to `System`, only adding relaxed counter
    // increments.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }
}

#[global_allocator]
static ALLOC: alloc_count::Counting = alloc_count::Counting;

/// Gate tolerance: fail only when a bench is more than this factor slower
/// than its committed baseline.
const SLOWDOWN_TOLERANCE: f64 = 2.5;

/// Times `f` (which returns its own operation count) and reports the best
/// of `samples` runs — best, not median, because the gate wants the
/// machine's attainable speed, with scheduling noise filtered out.
fn bench(name: &'static str, samples: u32, mut f: impl FnMut() -> u64) -> Measured {
    f(); // Warm up caches and lazy allocations.
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = Instant::now();
        let ops = f().max(1);
        let ns = start.elapsed().as_nanos() as f64 / ops as f64;
        if ns < best {
            best = ns;
        }
    }
    let a0 = alloc_count::ALLOCS.load(std::sync::atomic::Ordering::Relaxed);
    let b0 = alloc_count::BYTES.load(std::sync::atomic::Ordering::Relaxed);
    let ops = f().max(1);
    let allocs = alloc_count::ALLOCS.load(std::sync::atomic::Ordering::Relaxed) - a0;
    let bytes = alloc_count::BYTES.load(std::sync::atomic::Ordering::Relaxed) - b0;
    let m = Measured {
        name,
        ns_per_op: best,
        ops_per_sec: 1e9 / best,
    };
    println!(
        "{:<28} {:>12.1} ns/op {:>16.0} ops/sec {:>8.2} allocs/op {:>8.1} B/op",
        m.name,
        m.ns_per_op,
        m.ops_per_sec,
        allocs as f64 / ops as f64,
        bytes as f64 / ops as f64
    );
    m
}

/// The event-queue hold model: a standing population of timers; each
/// round pops the earliest and schedules a replacement a pseudo-random
/// span ahead — the simulator's steady-state access pattern.
const QUEUE_HOLD: usize = 64;
const QUEUE_ROUNDS: usize = 400_000;

/// Pseudo-random inter-event spans, from sub-microsecond syscall costs to
/// multi-millisecond think times (the campaign's actual mix).
fn span(rng: &mut SplitMix64) -> u64 {
    match rng.below(10) {
        0..=5 => 200 + rng.below(30_000),
        6..=8 => 30_000 + rng.below(1_000_000),
        _ => 1_000_000 + rng.below(100_000_000),
    }
}

fn bench_queue_wheel(spin: bool) -> Measured {
    bench("event_queue_wheel", 5, move || {
        let mut rng = SplitMix64::new(0x5EED);
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let mut seq = 0u64;
        for _ in 0..QUEUE_HOLD {
            seq += 1;
            w.push(span(&mut rng), seq, 0);
        }
        let mut acc = 0u64;
        for _ in 0..QUEUE_ROUNDS {
            let (t, _, v) = w.pop().expect("hold model never empties");
            acc = acc.wrapping_add(t).wrapping_add(u64::from(v));
            if spin {
                // Seeded gross regression for the gate self-test.
                for _ in 0..2_000 {
                    acc = std::hint::black_box(acc.wrapping_mul(0x9E37_79B9));
                }
            }
            seq += 1;
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the payload deliberately folds the accumulator to 32 bits"
            )]
            w.push(t + span(&mut rng), seq, acc as u32);
        }
        std::hint::black_box(acc);
        2 * QUEUE_ROUNDS as u64
    })
}

fn bench_queue_heap() -> Measured {
    bench("event_queue_heap_ref", 5, || {
        let mut rng = SplitMix64::new(0x5EED);
        let mut h: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
        let mut seq = 0u64;
        for _ in 0..QUEUE_HOLD {
            seq += 1;
            h.push(Reverse((span(&mut rng), seq, 0)));
        }
        let mut acc = 0u64;
        for _ in 0..QUEUE_ROUNDS {
            let Reverse((t, _, v)) = h.pop().expect("hold model never empties");
            acc = acc.wrapping_add(t).wrapping_add(u64::from(v));
            seq += 1;
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the payload deliberately folds the accumulator to 32 bits"
            )]
            h.push(Reverse((t + span(&mut rng), seq, acc as u32)));
        }
        std::hint::black_box(acc);
        2 * QUEUE_ROUNDS as u64
    })
}

const NET_MSGS: u64 = 100_000;

fn bench_net() -> Measured {
    bench("net_send_recv", 5, || {
        let from = ProcessId(0);
        let to = ProcessId(1);
        let mut net = Network::new();
        let payload = vec![7u8; 64];
        let mut acc = 0usize;
        for seq in 0..NET_MSGS {
            net.send(
                from,
                to,
                seq,
                payload.clone(),
                Default::default(),
                false,
                seq,
                MsgId(seq),
            );
            let (m, _) = net.try_recv(to, seq).expect("deliverable");
            acc += m.payload.len();
        }
        std::hint::black_box(acc);
        NET_MSGS
    })
}

fn bench_e2e_plain() -> Measured {
    bench("e2e_plain_xpilot", 3, || {
        let (sim, mut apps) = scenarios::xpilot(11, 400).into_parts();
        let report = run_plain_on(sim, &mut apps);
        report.trace.len() as u64
    })
}

fn bench_e2e_dc() -> Measured {
    bench("e2e_dc_nvi_cpvs", 3, || {
        let (sim, apps) = scenarios::nvi(11, 400).into_parts();
        let h = DcHarness::new(sim, DcConfig::discount_checking(Protocol::Cpvs), apps);
        let report = h.run();
        report.trace.len() as u64
    })
}

fn bench_e2e_kv() -> Measured {
    bench("e2e_dc_kvstore_cpvs", 3, || {
        let params = ft_apps::kvstore::KvParams {
            shards: 4,
            replication: 3,
            gateways: 3,
            requests_per_gateway: 200,
            sessions: 20_000,
            rate_per_session: 5.0,
            key_space: 1_024,
            theta: 0.99,
            put_fraction: 0.5,
            visible_every: 32,
            seed: 11,
        };
        let (sim, apps) = scenarios::kvstore_cluster(&params).into_parts();
        let h = DcHarness::new(sim, DcConfig::discount_checking(Protocol::Cpvs), apps);
        let report = h.run();
        report.trace.len() as u64
    })
}

fn run_benches(mutate_spin: bool) -> Vec<Measured> {
    vec![
        bench_queue_wheel(mutate_spin),
        bench_queue_heap(),
        bench_net(),
        bench_e2e_plain(),
        bench_e2e_dc(),
        bench_e2e_kv(),
    ]
}

fn report(benches: &[Measured]) -> Json {
    Json::obj([
        ("report", Json::from("perf")),
        (
            "benches",
            Json::arr(benches.iter().map(|m| {
                Json::obj([
                    ("name", Json::from(m.name)),
                    ("ns_per_op", Json::Float(m.ns_per_op)),
                    ("ops_per_sec", Json::Float(m.ops_per_sec)),
                ])
            })),
        ),
    ])
}

/// Reads `name -> ns_per_op` rows back out of a perf report (ours or the
/// committed baseline). Minimal field-oriented parsing: the reports are
/// emitted by `ft_bench::json` with one bench object per `"name"` key.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(i) = rest.find("\"name\"") {
        rest = &rest[i..];
        let name = rest.split('"').nth(3).unwrap_or_default().to_string();
        let Some(j) = rest.find("\"ns_per_op\"") else {
            break;
        };
        rest = &rest[j + 11..];
        let num: String = rest
            .chars()
            .skip_while(|c| *c == ':' || c.is_whitespace())
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == 'e' || *c == '-' || *c == '+')
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            out.push((name, v));
        }
    }
    out
}

fn check_gate(benches: &[Measured], baseline_path: &PathBuf) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("perf: cannot read {}: {e}", baseline_path.display()))?;
    let baseline = parse_baseline(&text);
    if baseline.is_empty() {
        return Err(format!(
            "perf: no benches parsed from {}",
            baseline_path.display()
        ));
    }
    let mut failures = Vec::new();
    for (name, base_ns) in &baseline {
        let Some(m) = benches.iter().find(|m| m.name == name) else {
            failures.push(format!("baseline bench {name} no longer exists"));
            continue;
        };
        let ratio = m.ns_per_op / base_ns;
        println!(
            "gate {:<28} {:>8.1} ns vs baseline {:>8.1} ns  ({ratio:.2}x, limit {SLOWDOWN_TOLERANCE}x)",
            name, m.ns_per_op, base_ns
        );
        if ratio > SLOWDOWN_TOLERANCE {
            failures.push(format!(
                "{name}: {:.1} ns/op is {ratio:.2}x the baseline {:.1} ns/op (limit {SLOWDOWN_TOLERANCE}x)",
                m.ns_per_op, base_ns
            ));
        }
    }
    if failures.is_empty() {
        println!(
            "perf gate: OK ({} benches within tolerance)",
            baseline.len()
        );
        Ok(())
    } else {
        Err(format!(
            "perf gate: REGRESSION\n  {}",
            failures.join("\n  ")
        ))
    }
}

fn main() -> ExitCode {
    let mut out = PathBuf::from("BENCH_perf.json");
    let mut check: Option<PathBuf> = None;
    let mut mutate_spin = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => match it.next() {
                Some(v) => out = PathBuf::from(v),
                None => {
                    eprintln!("perf: --out requires a value");
                    return ExitCode::FAILURE;
                }
            },
            "--check" => match it.next() {
                Some(v) => check = Some(PathBuf::from(v)),
                None => {
                    eprintln!("perf: --check requires a value");
                    return ExitCode::FAILURE;
                }
            },
            "--mutate" => match it.next().as_deref() {
                Some("spin") => mutate_spin = true,
                _ => {
                    eprintln!("perf: --mutate takes `spin`");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("perf: unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    let benches = run_benches(mutate_spin);
    let doc = report(&benches);
    if let Err(e) = std::fs::write(&out, doc.render_pretty()) {
        eprintln!("perf: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", out.display());
    if let Some(baseline) = check {
        if let Err(e) = check_gate(&benches, &baseline) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
