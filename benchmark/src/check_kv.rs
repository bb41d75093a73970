//! `check_kv`: `ft-check` on the kvstore family — every enumerated crash
//! point of the canonical run, re-executed from t = 0, fingerprinted and
//! judged. An op is a crash schedule; a rep is one of [`STRATA`]
//! interleaved strata (point index mod 11) of both protocols' points.

use std::time::Instant;

use ft_bench::fingerprint::report_fingerprint;
use ft_bench::stats::percentile;
use ft_check::explore::{canonical_run, enumerate_points, run_point, visible_pairs};
use ft_check::{Canonical, CheckConfig, PointResult, Workload as CheckWorkload};
use ft_core::event::ProcessId;
use ft_core::oracle::{check_recovery, InvariantViolation};
use ft_core::protocol::Protocol;
use ft_dc::{CommitKill, DcHarness, DcReport};
use ft_faults::crash::CrashPoint;

use crate::metrics::Metrics;
use crate::span::Tracer;
use crate::workload::{measured, rep_seed, Rep, Workload};

/// Requests the one gateway issues (the `kvstore` family's size knob).
const SIZE: usize = 128;
const STRATA: u64 = 11;
/// One protocol that commits locally and one that commits in coordinated
/// rounds. CBNDV-2PC is left out: at this size `ft-check` reports Save-work
/// orphans under it (README, "Open findings"), and a benchmark workload is
/// one on which no operation fails.
const PROTOCOLS: [Protocol; 2] = [Protocol::Cpvs, Protocol::Cpv2pc];

/// One protocol's canonical run and the schedules enumerated from it
/// (`None` is the failure-free pseudo-schedule `ft-check` also explores).
struct Side {
    cfg: CheckConfig,
    canonical: Canonical,
    points: Vec<Option<CrashPoint>>,
}

/// Pass `j` explores the workload seeded `rep_seed(S, j)` once, in
/// `STRATA` reps.
struct Pass {
    workload: CheckWorkload,
    sides: Vec<Side>,
}

impl Pass {
    fn new(seed: u64) -> Self {
        let workload = CheckWorkload {
            name: "kvstore",
            seed,
            size: SIZE,
        };
        let sides = PROTOCOLS
            .iter()
            .map(|&protocol| {
                let cfg = CheckConfig::new(protocol);
                let canonical = canonical_run(&workload, SIZE, &cfg);
                let points = std::iter::once(None)
                    .chain(enumerate_points(&canonical).into_iter().map(Some))
                    .collect();
                Side {
                    cfg,
                    canonical,
                    points,
                }
            })
            .collect();
        Pass { workload, sides }
    }
}

/// Counts over pass 0's traced schedules; the times are the tracer's spans.
#[derive(Default)]
struct LayerSums {
    schedules: u64,
    reexec_events: u64,
}

pub struct CheckKv {
    seed: u64,
    passes: Vec<Pass>,
    /// `(protocol index, fingerprint)` of every schedule of pass 0.
    fingerprints: Vec<(usize, u64)>,
    layer: LayerSums,
}

/// `run_point`'s four steps through the same public calls, with a span
/// around each. Returns the verdict, the seconds the schedule took and the
/// events it re-executed.
fn run_point_traced(
    pass: &Pass,
    side: &Side,
    point: Option<CrashPoint>,
    trial: u32,
    tracer: &mut Tracer,
) -> (PointResult, f64, u64) {
    let s0 = Instant::now();
    let (sim, apps) = pass.workload.build(SIZE).into_parts();
    let kill = match point {
        Some(CrashPoint::InCommit { pid, nth, point }) => Some(CommitKill { pid, nth, point }),
        _ => None,
    };
    let mut harness = DcHarness::new(sim, side.cfg.dc_config(kill), apps);
    let s1 = Instant::now();
    let report = match point {
        Some(CrashPoint::AtStart { pid }) => {
            harness.sim.kill_at(ProcessId(pid), 0);
            harness.run()
        }
        Some(CrashPoint::AtPosition { pid, pos }) => {
            let target = ProcessId(pid);
            let mut fired = false;
            harness.run_with(move |sim| {
                if !fired && sim.trace_position(target) >= pos {
                    fired = true;
                    let now = sim.now();
                    sim.kill_at(target, now);
                }
            })
        }
        _ => harness.run(),
    };
    let s2 = Instant::now();
    let fingerprint = report_fingerprint(&report);
    let s3 = Instant::now();
    let result = judge(&side.canonical, point, &report, fingerprint);
    let events = report.trace.len() as u64;
    drop(report);
    let s4 = Instant::now();

    let schedule = tracer.push("schedule", "ft-check", (s0, s4), None, trial);
    tracer.push("build", "ft-apps", (s0, s1), Some(schedule), trial);
    tracer.push("run", "ft-dc", (s1, s2), Some(schedule), trial);
    tracer.push("fingerprint", "ft-bench", (s2, s3), Some(schedule), trial);
    tracer.push("judge", "ft-core", (s3, s4), Some(schedule), trial);
    (result, s4.duration_since(s0).as_secs_f64(), events)
}

/// The verdict `ft_check::explore` composes for one recovered run.
fn judge(
    canonical: &Canonical,
    point: Option<CrashPoint>,
    report: &DcReport,
    fingerprint: u64,
) -> PointResult {
    let verdict = if report.abandoned == 0 && !report.all_done {
        Err(InvariantViolation::Incomplete { abandoned: 0 })
    } else {
        check_recovery(
            &canonical.report.trace,
            &canonical.visibles,
            &report.trace,
            &visible_pairs(report),
            report.abandoned as usize,
        )
    };
    PointResult {
        point,
        fingerprint,
        duplicates: verdict.as_ref().map_or(0, |v| v.duplicates),
        violation: verdict.err(),
    }
}

impl CheckKv {
    pub fn new(seed: u64) -> Self {
        CheckKv {
            seed,
            passes: Vec::new(),
            fingerprints: Vec::new(),
            layer: LayerSums::default(),
        }
    }
}

impl Workload for CheckKv {
    fn setup(&mut self) {
        self.passes.clear();
        self.passes.push(Pass::new(rep_seed(self.seed, 0)));
        let schedules = self.passes[0].sides.iter().map(|s| s.points.len()).sum();
        self.fingerprints = Vec::with_capacity(schedules);
    }

    fn prefix_reps(&self) -> u64 {
        STRATA
    }

    fn rate_name(&self) -> &'static str {
        "schedules_per_s"
    }

    fn rep(&mut self, i: u64, mut tracer: Option<&mut Tracer>) -> Rep {
        let (j, stratum) = ((i / STRATA) as usize, i % STRATA);
        while self.passes.len() <= j {
            let seed = rep_seed(self.seed, self.passes.len() as u64);
            self.passes.push(Pass::new(seed));
        }
        let pass = &self.passes[j];
        let trial = u32::try_from(i).expect("fewer than 2^32 reps");
        let fingerprints = &mut self.fingerprints;
        let layer = &mut self.layer;
        let mut rep = Rep::default();
        let mut traced_secs = 0.0;
        let ((), cost) = measured(|| {
            for (s, side) in pass.sides.iter().enumerate() {
                let mine = side
                    .points
                    .iter()
                    .enumerate()
                    .filter(|(idx, _)| *idx as u64 % STRATA == stratum);
                for (_, &point) in mine {
                    let bundled =
                        run_point(&pass.workload, SIZE, &side.cfg, &side.canonical, point);
                    rep.ops += 1;
                    rep.failed += u64::from(bundled.violation.is_some());
                    rep.digest = rep.digest.rotate_left(7) ^ bundled.fingerprint;
                    if j == 0 {
                        fingerprints.push((s, bundled.fingerprint));
                    }
                    if let Some(tr) = tracer.as_deref_mut() {
                        let (traced, secs, events) = run_point_traced(pass, side, point, trial, tr);
                        traced_secs += secs;
                        // Counts are pass 0's, whatever else the host fits in.
                        if j == 0 {
                            layer.schedules += 1;
                            layer.reexec_events += events;
                        }
                        if traced != bundled {
                            eprintln!("check_kv: decomposed {traced:?} != bundled {bundled:?}");
                            rep.failed += 1;
                        }
                    }
                }
            }
        });
        rep.attempted = rep.ops;
        rep.charge(cost);
        if tracer.is_some() {
            // A traced rep's time is its schedule spans: the bundled twin
            // run for comparison is not part of it.
            rep.secs = traced_secs;
        }
        rep
    }

    fn finish(&mut self, m: &mut Metrics, tracer: Option<&Tracer>) -> (u64, u64) {
        let Some(tracer) = tracer else {
            return (0, 0);
        };
        let l = &self.layer;
        let events = l.reexec_events as f64;
        let schedule_ns = tracer.durations("schedule");
        let total = schedule_ns.iter().sum::<u64>() as f64;
        let sum_ns = |name: &str| tracer.durations(name).iter().sum::<u64>() as f64;
        let (run, fingerprint, judge) = (sum_ns("run"), sum_ns("fingerprint"), sum_ns("judge"));
        let build_ms: Vec<f64> = tracer
            .durations("build")
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        m.exact(
            "ft-check.schedule_us_p50",
            percentile(&schedule_ns, 50) as f64 / 1e3,
        );
        m.exact(
            "ft-check.schedule_us_p95",
            percentile(&schedule_ns, 95) as f64 / 1e3,
        );
        m.exact(
            "ft-check.reexec_events_per_schedule",
            events / l.schedules as f64,
        );
        let mut unique = self.fingerprints.clone();
        unique.sort_unstable();
        unique.dedup();
        m.exact(
            "ft-check.dedup_ratio",
            self.fingerprints.len() as f64 / unique.len() as f64,
        );
        m.exact("ft-check.build_share", sum_ns("build") / total);
        m.exact("ft-check.run_share", run / total);
        m.exact("ft-check.fingerprint_share", fingerprint / total);
        m.exact("ft-check.judge_share", judge / total);
        m.samples("ft-apps.build_ms", &build_ms);
        m.exact("ft-dc.run_ns_per_event", run / events);
        m.exact("ft-bench.fingerprint_ns_per_event", fingerprint / events);
        m.exact("ft-core.oracle_ns_per_event", judge / events);
        m.exact("ft-core.oracle_share", judge / total);
        (0, 0)
    }
}
