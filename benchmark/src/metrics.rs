//! The metric table: every name the benchmark may print, with its unit,
//! direction and — for end-to-end metrics — regression bound. It is the one
//! place these are written down; `BENCHMARK.json` is printed from it
//! (`--contract`) and `--compare` reads its bounds.

use crate::stats::quartiles;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Clone, Copy)]
pub enum Kind {
    /// Measured with tracing off. `bound` is the share of the earlier
    /// median by which the later one may be worse. `json` is the name the
    /// metric carries in the result line: the contract wants every
    /// end-to-end metric from every workload, so only metrics that exist on
    /// all six have one, and the three per-workload rates share `ops_per_s`.
    EndToEnd {
        bound: f64,
        json: Option<&'static str>,
    },
    /// Measured by the traced pass; no bound. A workload that bypasses the
    /// layer does not print the metric and reports 0 in the result line.
    Layer,
}

pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    json: Option<&'static str>,
) -> Spec {
    Spec {
        name,
        unit,
        better,
        kind: Kind::EndToEnd { bound, json },
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec {
        name,
        unit,
        better,
        kind: Kind::Layer,
    }
}

use Better::{Higher, Lower};

/// Host-time rates and latencies: the widest bound the contract allows.
/// Ten runs on a quiet box spread by 2–4 % of their median, but a busy
/// neighbour on this 2-core sandbox slows whole runs by 15–40 % for minutes
/// at a time (README, "Spread"). The gate is therefore coarse, and a speed
/// claim rests on paired alternating runs, not on this bound.
const TIMING: f64 = 0.25;
/// Allocation counts and the heap's high-water mark repeat exactly for a
/// seed. The contract compares runs at *different* seeds, where they follow
/// the inputs: `check_kv`'s per-schedule counts track its canonical trace
/// length (spread up to 2.7 % over ten seeds) and `nvi_cand`'s small peak
/// steps by 2.8 % when one more session crosses a `Vec` doubling. The bound
/// is three times that. At equal seeds, expect equality.
const COUNTED: f64 = 0.09;
/// Simulated statistics: a host-side optimisation leaves them identical.
const SIMULATED: f64 = 0.0;

pub const SPECS: &[Spec] = &[
    // ---- end to end -------------------------------------------------
    e2e("setup_s", "s", Lower, TIMING, Some("setup_s")),
    e2e("events_per_s", "1/s", Higher, TIMING, Some("ops_per_s")),
    e2e("schedules_per_s", "1/s", Higher, TIMING, Some("ops_per_s")),
    e2e("commits_per_s", "1/s", Higher, TIMING, Some("ops_per_s")),
    e2e("commit_us_p50", "us", Lower, TIMING, None),
    e2e("commit_us_p99", "us", Lower, TIMING, None),
    e2e("recover_records_per_s", "1/s", Higher, TIMING, None),
    e2e("log_bytes_per_commit", "B", Lower, 0.0, None),
    e2e(
        "allocs_per_op",
        "count",
        Lower,
        COUNTED,
        Some("allocs_per_op"),
    ),
    e2e(
        "alloc_bytes_per_op",
        "B",
        Lower,
        COUNTED,
        Some("alloc_bytes_per_op"),
    ),
    e2e(
        "peak_heap_mib",
        "MiB",
        Lower,
        COUNTED,
        Some("peak_heap_mib"),
    ),
    e2e("fail_share", "ratio", Lower, 0.0, None),
    e2e("sim_overhead_pct", "%", Lower, SIMULATED, None),
    e2e("sim_mttr_p50_ms_full", "ms", Lower, SIMULATED, None),
    e2e("sim_mttr_p50_ms_micro", "ms", Lower, SIMULATED, None),
    e2e("sim_availability_pct", "%", Higher, SIMULATED, None),
    // ---- ft-sim -----------------------------------------------------
    layer("ft-sim.queue_ops_per_event", "count", Lower),
    layer("ft-sim.wheel_ns_per_op", "ns", Lower),
    layer("ft-sim.net_ns_per_msg.s1", "ns", Lower),
    layer("ft-sim.net_ns_per_msg.s107", "ns", Lower),
    layer("ft-sim.plain_ns_per_event", "ns", Lower),
    // ---- ft-core ----------------------------------------------------
    layer("ft-core.trace_ns_per_event.w1", "ns", Lower),
    layer("ft-core.trace_ns_per_event.w4", "ns", Lower),
    layer("ft-core.trace_ns_per_event.w108", "ns", Lower),
    layer("ft-core.trace_bytes_per_event.w1", "B", Lower),
    layer("ft-core.trace_bytes_per_event.w4", "B", Lower),
    layer("ft-core.trace_bytes_per_event.w108", "B", Lower),
    layer("ft-core.savework_ns_per_event", "ns", Lower),
    layer("ft-core.oracle_ns_per_event", "ns", Lower),
    layer("ft-core.oracle_share", "ratio", Lower),
    // ---- ft-mem -----------------------------------------------------
    layer("ft-mem.traps_per_event", "count", Lower),
    layer("ft-mem.pages_per_commit", "count", Lower),
    layer("ft-mem.bytes_per_commit", "B", Lower),
    layer("ft-mem.arena_trap_ns", "ns", Lower),
    layer("ft-mem.arena_rewrite_ns", "ns", Lower),
    layer("ft-mem.arena_commit_ns_per_page", "ns", Lower),
    layer("ft-mem.arena_rollback_ns_per_page", "ns", Lower),
    layer("ft-mem.durable.stage_us", "us", Lower),
    layer("ft-mem.durable.append_us", "us", Lower),
    layer("ft-mem.durable.sync_us", "us", Lower),
    layer("ft-mem.durable.finish_us", "us", Lower),
    layer("ft-mem.durable.compact_ms", "ms", Lower),
    layer("ft-mem.durable.open_ms", "ms", Lower),
    layer("ft-mem.durable.crc32_ns_per_kib", "ns", Lower),
    layer("ft-mem.durable.fsyncs_per_commit", "count", Lower),
    layer("ft-mem.durable.compactions", "count", Lower),
    layer("ft-mem.durable.write_amp", "ratio", Lower),
    layer("ft-mem.durable.commit_always_us_p50", "us", Lower),
    // ---- ft-dc ------------------------------------------------------
    layer("ft-dc.commits_per_event", "count", Lower),
    layer("ft-dc.logged_per_event", "count", Lower),
    layer("ft-dc.sim_commit_ns_per_commit", "ns", Lower),
    layer("ft-dc.recoveries", "count", Lower),
    layer("ft-dc.cascade_rollbacks", "count", Lower),
    layer("ft-dc.microreboots", "count", Lower),
    layer("ft-dc.escalations", "count", Lower),
    layer("ft-dc.lost_events_per_incident", "count", Lower),
    layer("ft-dc.sim_mttr_p95_ms_full", "ms", Lower),
    layer("ft-dc.sim_mttr_p95_ms_micro", "ms", Lower),
    layer("ft-dc.run_ns_per_event", "ns", Lower),
    layer("ft-dc.over_plain_ratio", "ratio", Lower),
    layer("ft-dc.self_ns_per_event", "ns", Lower),
    // ---- ft-dsm, ft-apps, ft-faults, ft-bench -----------------------
    layer("ft-dsm.shm_ops_per_event", "count", Lower),
    layer("ft-dsm.alloc_bytes_per_event", "B", Lower),
    layer("ft-apps.build_ms", "ms", Lower),
    layer("ft-faults.kills_injected", "count", Higher),
    layer("ft-bench.fingerprint_ns_per_event", "ns", Lower),
    // ---- ft-check ---------------------------------------------------
    layer("ft-check.schedule_us_p50", "us", Lower),
    layer("ft-check.schedule_us_p95", "us", Lower),
    layer("ft-check.reexec_events_per_schedule", "count", Lower),
    layer("ft-check.dedup_ratio", "ratio", Higher),
    layer("ft-check.build_share", "ratio", Lower),
    layer("ft-check.run_share", "ratio", Lower),
    layer("ft-check.fingerprint_share", "ratio", Lower),
    layer("ft-check.judge_share", "ratio", Lower),
    // ---- ft-analyze, the benchmark itself ---------------------------
    layer("ft-analyze.analyze_ns_per_event", "ns", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
];

pub fn spec(name: &str) -> &'static Spec {
    SPECS
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the table"))
}

/// One printed metric: the median of `n` samples with its quartiles, or a
/// single exact value (`n == 1`).
pub struct Metric {
    pub spec: &'static Spec,
    pub value: f64,
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Records the median and quartiles of `samples` under `name`.
    pub fn samples(&mut self, name: &str, samples: &[f64]) {
        let (q1, value, q3) = quartiles(samples);
        self.0.push(Metric {
            spec: spec(name),
            value,
            n: samples.len(),
            q1,
            q3,
        });
    }

    /// Records a single value: a count, or a percentile taken elsewhere.
    pub fn exact(&mut self, name: &str, value: f64) {
        self.samples(name, &[value]);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.spec.name == name).map(|m| m.value)
    }
}
