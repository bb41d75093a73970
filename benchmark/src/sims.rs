//! The four simulation workloads: `kv108_ff`, `kv108_crash`, `nvi_cand`
//! and `treadmarks_2pc`. A trial is build + run + judge + drop of one
//! scenario under the recovery runtime; an op is a trace event.

use std::time::Instant;

use ft_apps::kvstore::{self, KvParams};
use ft_bench::fingerprint::report_fingerprint;
use ft_bench::scenarios::{self, Built};
use ft_bench::stats::percentile;
use ft_check::explore::visible_pairs;
use ft_core::avail::{availability, total_downtime_ns, Incident};
use ft_core::event::ProcessId;
use ft_core::oracle::check_recovery;
use ft_core::protocol::Protocol;
use ft_core::savework::check_save_work;
use ft_core::trace::Trace;
use ft_dc::{DcConfig, DcHarness, DcReport, Strategy};
use ft_faults::arrivals::PoissonArrivals;
use ft_sim::harness::run_plain_on;
use ft_sim::rng::SplitMix64;

use crate::metrics::Metrics;
use crate::probes::{self, EventMix};
use crate::span::{SpanId, Tracer};
use crate::stats::median;
use crate::workload::{digest_words, measured, rep_seed, Rep, Workload};

/// The scenario a workload builds, at its pinned size.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Scenario {
    /// The kvstore campaign shape: 34 × 3 shards + 6 gateways = 108
    /// processes, 10⁶ open-loop sessions in simulated time.
    Kv108,
    /// One nvi session of [`NVI_KEYS`] keystrokes.
    Nvi,
    /// Barnes-Hut on 4 DSM nodes for [`TREADMARKS_ITERATIONS`] steps.
    Treadmarks,
}

/// Keys per nvi session. `scenarios::nvi` stops completing above ~5 600
/// keys (README, "Open findings"), so the size is pinned below that.
const NVI_KEYS: usize = 4_000;
const TREADMARKS_ITERATIONS: u64 = 400;

/// Written out, not taken from `KvConfig::default()`, so the campaign can
/// change without moving the yardstick.
fn kv108_params(seed: u64) -> KvParams {
    KvParams {
        shards: 34,
        replication: 3,
        gateways: 6,
        requests_per_gateway: 1_500,
        sessions: 1_000_000,
        rate_per_session: 0.02,
        key_space: 65_536,
        theta: 0.99,
        put_fraction: 0.5,
        visible_every: 256,
        seed,
    }
}

impl Scenario {
    fn build(self, seed: u64) -> Built {
        match self {
            Scenario::Kv108 => scenarios::kvstore_cluster(&kv108_params(seed)),
            Scenario::Nvi => scenarios::nvi(seed, NVI_KEYS),
            Scenario::Treadmarks => scenarios::treadmarks(seed, TREADMARKS_ITERATIONS),
        }
    }

    /// The size named when a run does not complete.
    fn size(self) -> String {
        match self {
            Scenario::Kv108 => format!(
                "{} requests per gateway",
                kv108_params(0).requests_per_gateway
            ),
            Scenario::Nvi => format!("{NVI_KEYS} keys"),
            Scenario::Treadmarks => format!("{TREADMARKS_ITERATIONS} iterations"),
        }
    }

    /// Suffix of the `TraceBuilder` probe at this scenario's clock width.
    fn width(self) -> &'static str {
        match self {
            Scenario::Kv108 => "w108",
            Scenario::Nvi => "w1",
            Scenario::Treadmarks => "w4",
        }
    }
}

/// What distinguishes one simulation workload from another.
pub struct SimSpec {
    pub name: &'static str,
    scenario: Scenario,
    protocol: Protocol,
    /// Trials per rep: a trial shorter than ~0.1 s is batched so that one
    /// rep is a usable timing sample.
    trials_per_rep: u64,
    prefix_reps: u64,
    /// Expected Poisson kills per trial (0 = failure-free). A crashed rep
    /// runs its trial twice, under full rollback and under microreboot,
    /// against the same arrivals and victims.
    crashes_per_trial: f64,
}

pub const KV108_FF: SimSpec = SimSpec {
    name: "kv108_ff",
    scenario: Scenario::Kv108,
    protocol: Protocol::Cpvs,
    trials_per_rep: 1,
    prefix_reps: 4,
    crashes_per_trial: 0.0,
};

pub const KV108_CRASH: SimSpec = SimSpec {
    name: "kv108_crash",
    scenario: Scenario::Kv108,
    protocol: Protocol::Cpvs,
    trials_per_rep: 1,
    prefix_reps: 4,
    crashes_per_trial: 120.0,
};

pub const NVI_CAND: SimSpec = SimSpec {
    name: "nvi_cand",
    scenario: Scenario::Nvi,
    protocol: Protocol::Cand,
    trials_per_rep: 30,
    prefix_reps: 3,
    crashes_per_trial: 0.0,
};

pub const TREADMARKS_2PC: SimSpec = SimSpec {
    name: "treadmarks_2pc",
    scenario: Scenario::Treadmarks,
    protocol: Protocol::Cbndv2pc,
    trials_per_rep: 1,
    prefix_reps: 4,
    crashes_per_trial: 0.0,
};

/// The failure-free run without recovery: the paper's Figure 8 baseline.
struct Plain {
    runtime: u64,
    events: u64,
}

/// The failure-free run under the protocol, which crashed trials are
/// judged against.
struct Canonical {
    trace: Trace,
    visibles: Vec<(u32, u64)>,
    runtime: u64,
    kills_per_sec: f64,
}

/// Counts summed over the prefix's traced trials, and span times of every
/// traced trial.
#[derive(Default)]
struct LayerSums {
    events: u64,
    queue_ops: u64,
    kills: u64,
    incidents: u64,
    lost_events: u64,
    run_alloc_bytes: u64,
    shm_ops: u64,
    arena: ft_mem::arena::ArenaStats,
    dc: ft_dc::DcStats,
    /// Per-trial host ns of each phase, in trial order.
    build_ns: Vec<f64>,
    run_ns: Vec<f64>,
    run_ns_per_event: Vec<f64>,
    judge_ns_per_event: Vec<f64>,
    judge_share: Vec<f64>,
    /// Once, on the first traced trial.
    savework_ns_per_event: Option<f64>,
    fingerprint_ns_per_event: Option<f64>,
    analyze_ns_per_event: Option<f64>,
    mix: EventMix,
}

pub struct Sim {
    spec: &'static SimSpec,
    seed: u64,
    plain: Option<Plain>,
    /// Host ns of the plain run, one per set-up.
    plain_ns: Vec<f64>,
    canonical: Option<Canonical>,
    /// Simulated runtime of rep 0's first trial (for `sim_overhead_pct`).
    first_runtime: Option<u64>,
    /// Incidents of the prefix reps, per strategy, with the process-time
    /// they happened in: `(incidents, downtime_ns, process_ns)`.
    incidents: [(Vec<Incident>, u64, u64); 2],
    layer: LayerSums,
}

/// Runs `f` and returns its result with when it started and ended.
fn timed<T>(f: impl FnOnce() -> T) -> (T, (Instant, Instant)) {
    let t0 = Instant::now();
    let out = f();
    (out, (t0, Instant::now()))
}

const STRATEGIES: [Strategy; 2] = [Strategy::FullRollback, Strategy::Microreboot];
/// How the metric names call them.
const STRATEGY_TAGS: [&str; 2] = ["full", "micro"];

/// Nearest-rank percentile of the resolved incidents' MTTR, in ms.
fn mttr_ms(incidents: &[Incident], pct: u32) -> f64 {
    let ns: Vec<u64> = incidents.iter().filter_map(Incident::mttr_ns).collect();
    percentile(&ns, pct) as f64 / 1e6
}

/// Client responses the gateways reported: per gateway, the highest count
/// any of its progress/done visibles carried (as `ft_bench::kv` counts).
fn completed_responses(params: &KvParams, report: &DcReport) -> u64 {
    let servers = params.n_servers();
    let mut best = vec![0u64; params.gateways as usize];
    for &(_, p, t) in &report.visibles {
        let kind = kvstore::token_kind(t);
        if (kind == kvstore::KIND_GW_PROGRESS || kind == kvstore::KIND_GW_DONE) && p.0 >= servers {
            let slot = (p.0 - servers) as usize;
            best[slot] = best[slot].max(kvstore::token_count(t));
        }
    }
    best.iter().sum()
}

impl Sim {
    pub fn new(spec: &'static SimSpec, seed: u64) -> Self {
        Sim {
            spec,
            seed,
            plain: None,
            plain_ns: Vec::new(),
            canonical: None,
            first_runtime: None,
            incidents: Default::default(),
            layer: LayerSums::default(),
        }
    }

    fn crashed(&self) -> bool {
        self.spec.crashes_per_trial > 0.0
    }

    /// Seed of the scenario trial `t` of rep `i` builds. Crashed trials all
    /// share rep 0's scenario, because they share one canonical run; their
    /// own seed draws the arrivals and victims.
    fn scenario_seed(&self, trial_seed: u64) -> u64 {
        if self.crashed() {
            rep_seed(self.seed, 0)
        } else {
            trial_seed
        }
    }

    fn trial_seed(&self, i: u64, t: u64) -> u64 {
        let rep = rep_seed(self.seed, i);
        if self.spec.trials_per_rep == 1 {
            rep
        } else {
            SplitMix64::new(rep).nth(t)
        }
    }

    fn dc_config(&self, strategy: Strategy) -> DcConfig {
        let mut dc = DcConfig::discount_checking(self.spec.protocol);
        if self.crashed() {
            // As the kv campaign: room for the whole crash load.
            dc.max_recoveries = 64;
            dc.strategy = strategy;
        }
        dc
    }

    /// Refuses a run that was cut short: timing it would time less work
    /// than the workload states.
    fn assert_complete(&self, what: &str, all_done: bool, abandoned: u32) {
        assert!(
            all_done && abandoned == 0,
            "{}: {what} did not complete (all_done = {all_done}, abandoned = {abandoned}) at \
             {}; refusing to time a truncated run",
            self.spec.name,
            self.spec.scenario.size(),
        );
    }

    /// One trial under `STRATEGIES[strategy]`. Returns its `Rep` contribution.
    fn trial(
        &mut self,
        trial_seed: u64,
        strategy: usize,
        rep: u64,
        first: bool,
        mut tracer: Option<&mut Tracer>,
    ) -> Rep {
        let spec = self.spec;
        let traced = tracer.is_some();
        let in_prefix = rep < spec.prefix_reps;
        let trial_no = u32::try_from(rep).expect("fewer than 2^32 reps");
        let scenario_seed = self.scenario_seed(trial_seed);
        let t0 = Instant::now();
        let span = tracer
            .as_deref_mut()
            .map(|tr| tr.open("trial", "bench", t0, trial_no));

        let dc = self.dc_config(STRATEGIES[strategy]);
        let ((harness, procs), build) = measured(|| {
            let built = spec.scenario.build(scenario_seed);
            let procs = built.meta.processes;
            let (sim, apps) = built.into_parts();
            (DcHarness::new(sim, dc, apps), procs)
        });
        let t1 = Instant::now();

        let mut kills = 0u64;
        let mut queue_ops = 0u64;
        let (report, run) = measured(|| match &self.canonical {
            Some(canon) => {
                // Arrivals and victims drawn as `ft_bench::kv::run_trial`
                // draws them, over the canonical horizon.
                let mut arrivals =
                    PoissonArrivals::new(SplitMix64::new(trial_seed).nth(0), canon.kills_per_sec);
                let mut victims = SplitMix64::new(SplitMix64::new(trial_seed).nth(1));
                let mut next = arrivals.next_arrival_ns();
                let horizon = canon.runtime;
                harness.run_with(|sim| {
                    while next <= horizon && sim.now() >= next {
                        let victim = ProcessId::from_index(victims.index(procs));
                        let now = sim.now();
                        sim.kill_at(victim, now);
                        kills += 1;
                        next = arrivals.next_arrival_ns();
                    }
                    if traced {
                        queue_ops = sim.queue_ops();
                    }
                })
            }
            None if traced => harness.run_with(|sim| queue_ops = sim.queue_ops()),
            None => harness.run(),
        });
        let t2 = Instant::now();

        let (ok, judge) = measured(|| match &self.canonical {
            Some(canon) => {
                (report.all_done || report.abandoned > 0)
                    && check_recovery(
                        &canon.trace,
                        &canon.visibles,
                        &report.trace,
                        &visible_pairs(&report),
                        report.abandoned as usize,
                    )
                    .is_ok()
            }
            None => {
                self.assert_complete("a trial", report.all_done, report.abandoned);
                spec.scenario != Scenario::Kv108
                    || completed_responses(&kv108_params(scenario_seed), &report)
                        == kv108_params(scenario_seed).total_requests()
            }
        });
        let t3 = Instant::now();

        if let Some(tr) = tracer.as_deref_mut() {
            tr.push("build", "ft-apps", (t0, t1), span, trial_no);
            tr.push("run", "ft-dc", (t1, t2), span, trial_no);
            tr.push("judge", "ft-core", (t2, t3), span, trial_no);
        }

        // Bookkeeping and once-only output checks: inside the trial's span,
        // outside its time.
        let events = report.trace.len() as u64;
        let mut out = Rep {
            ops: events,
            attempted: 1,
            failed: u64::from(!ok),
            digest: digest_words(
                report
                    .visibles
                    .iter()
                    .flat_map(|&(t, p, tok)| [t, u64::from(p.0), tok])
                    .chain([events, report.runtime]),
            ),
            ..Rep::default()
        };
        if first {
            out.failed += self.first_trial_checks(&report, tracer.as_deref_mut().zip(span));
        }
        if self.crashed() && in_prefix {
            let slot = &mut self.incidents[strategy];
            slot.1 += total_downtime_ns(&report.incidents, report.runtime);
            slot.2 += procs as u64 * report.runtime;
            slot.0.extend(report.incidents.iter().cloned());
        }
        // Counts come from the prefix's traced trials only, so that they do
        // not depend on how many reps the host fits into the run.
        if traced && in_prefix {
            let l = &mut self.layer;
            l.events += events;
            l.queue_ops += queue_ops;
            l.kills += kills;
            l.run_alloc_bytes += run.bytes;
            l.shm_ops += report.shm.len() as u64;
            l.incidents += report.incidents.len() as u64;
            l.lost_events += report.incidents.iter().map(|i| i.lost_events).sum::<u64>();
            l.arena.absorb(&report.arena);
            let d = &mut l.dc;
            let t = &report.totals;
            d.commits += t.commits;
            d.logged_events += t.logged_events;
            d.commit_time_ns += t.commit_time_ns;
            d.recoveries += t.recoveries;
            d.cascade_rollbacks += t.cascade_rollbacks;
            d.microreboots += t.microreboots;
            d.escalations += t.escalations;
        }

        let t4 = Instant::now();
        let ((), dropped) = measured(|| drop(report));
        let t5 = Instant::now();
        for phase in [build, run, judge, dropped] {
            out.charge(phase);
        }
        if let Some((tr, span)) = tracer.zip(span) {
            tr.push("drop", "bench", (t4, t5), Some(span), trial_no);
            tr.close(span, t5);
            let l = &mut self.layer;
            l.build_ns.push(build.secs * 1e9);
            l.run_ns.push(run.secs * 1e9);
            l.run_ns_per_event.push(run.secs * 1e9 / events as f64);
            l.judge_ns_per_event.push(judge.secs * 1e9 / events as f64);
            l.judge_share.push(judge.secs / out.secs);
        }
        out
    }

    /// Output checks made once, on the first trial of rep 0: Save-work on
    /// its trace and, when traced, the analyses whose cost is recorded once
    /// (they take longer than the trial they read). Returns the failures.
    fn first_trial_checks(
        &mut self,
        report: &DcReport,
        tracer: Option<(&mut Tracer, SpanId)>,
    ) -> u64 {
        self.first_runtime = Some(report.runtime);
        let events = report.trace.len() as f64;
        let ns_per_event =
            |(a, b): (Instant, Instant)| b.duration_since(a).as_nanos() as f64 / events;

        let (save_work, at) = timed(|| check_save_work(&report.trace));
        let mut failed = u64::from(save_work.is_err());
        let Some((tr, span)) = tracer else {
            return failed;
        };
        let crashed = self.crashed();
        let l = &mut self.layer;
        tr.push("savework", "ft-core", at, Some(span), 0);
        l.savework_ns_per_event = Some(ns_per_event(at));
        l.mix = EventMix::of(&report.trace);
        match self.spec.scenario {
            // The kv campaign never fingerprints; `ft-check` does, per
            // schedule, and this is what it would cost at 108 processes.
            Scenario::Kv108 if !crashed => {
                let (_, at) = timed(|| std::hint::black_box(report_fingerprint(report)));
                tr.push("fingerprint", "ft-bench", at, Some(span), 0);
                l.fingerprint_ns_per_event = Some(ns_per_event(at));
            }
            Scenario::Treadmarks => {
                let (analysis, at) =
                    timed(|| ft_analyze::report::analyze(&report.trace, &report.shm));
                failed += u64::from(!analysis.savework_agrees);
                tr.push("analyze", "ft-analyze", at, Some(span), 0);
                l.analyze_ns_per_event = Some(ns_per_event(at));
            }
            _ => {}
        }
        failed
    }
}

impl Workload for Sim {
    fn setup(&mut self) {
        let seed = rep_seed(self.seed, 0);
        let (sim, mut apps) = self.spec.scenario.build(seed).into_parts();
        let t0 = Instant::now();
        let plain = run_plain_on(sim, &mut apps);
        self.plain_ns.push(t0.elapsed().as_nanos() as f64);
        self.assert_complete("the plain reference run", plain.all_done, 0);
        self.plain = Some(Plain {
            runtime: plain.runtime,
            events: plain.trace.len() as u64,
        });
        if self.crashed() {
            let (sim, apps) = self.spec.scenario.build(seed).into_parts();
            let report = DcHarness::new(sim, self.dc_config(STRATEGIES[0]), apps).run();
            self.assert_complete("the canonical run", report.all_done, report.abandoned);
            let params = kv108_params(seed);
            assert_eq!(
                completed_responses(&params, &report),
                params.total_requests(),
                "{}: the canonical run must answer every request",
                self.spec.name
            );
            self.canonical = Some(Canonical {
                visibles: visible_pairs(&report),
                runtime: report.runtime,
                kills_per_sec: self.spec.crashes_per_trial / (report.runtime as f64 / 1e9),
                trace: report.trace,
            });
        }
    }

    fn prefix_reps(&self) -> u64 {
        self.spec.prefix_reps
    }

    fn rate_name(&self) -> &'static str {
        "events_per_s"
    }

    fn rep(&mut self, i: u64, mut tracer: Option<&mut Tracer>) -> Rep {
        let strategies = if self.crashed() { STRATEGIES.len() } else { 1 };
        let mut rep = Rep::default();
        for t in 0..self.spec.trials_per_rep {
            let seed = self.trial_seed(i, t);
            for strategy in 0..strategies {
                let first = i == 0 && t == 0 && strategy == 0;
                rep.add(&self.trial(seed, strategy, i, first, tracer.as_deref_mut()));
            }
        }
        rep
    }

    fn finish(&mut self, m: &mut Metrics, tracer: Option<&Tracer>) -> (u64, u64) {
        let spec = self.spec;
        let plain = self.plain.as_ref().expect("set-up ran");
        if tracer.is_none() {
            if self.crashed() {
                let mut downtime = 0;
                let mut process_ns = 0;
                for (strategy, (incidents, down, procs)) in
                    STRATEGY_TAGS.iter().zip(&self.incidents)
                {
                    m.exact(
                        &format!("sim_mttr_p50_ms_{strategy}"),
                        mttr_ms(incidents, 50),
                    );
                    downtime += down;
                    process_ns += procs;
                }
                m.exact(
                    "sim_availability_pct",
                    availability(downtime, 1, process_ns) * 100.0,
                );
            } else {
                let dc = self.first_runtime.expect("rep 0 ran") as f64;
                m.exact(
                    "sim_overhead_pct",
                    (dc - plain.runtime as f64) / plain.runtime as f64 * 100.0,
                );
            }
            return (0, 0);
        }

        // The probes below should not run beside a 300 MB reference trace.
        self.canonical = None;
        let l = &self.layer;
        let events = l.events as f64;
        let per_event = |count: u64| count as f64 / events;
        m.exact("ft-sim.queue_ops_per_event", per_event(l.queue_ops));
        let plain_ns_per_event: Vec<f64> = self
            .plain_ns
            .iter()
            .map(|ns| ns / plain.events as f64)
            .collect();
        m.samples("ft-sim.plain_ns_per_event", &plain_ns_per_event);
        m.exact(
            "ft-core.savework_ns_per_event",
            l.savework_ns_per_event.expect("rep 0 was traced"),
        );
        if self.crashed() {
            m.samples("ft-core.oracle_ns_per_event", &l.judge_ns_per_event);
            m.samples("ft-core.oracle_share", &l.judge_share);
            m.exact("ft-faults.kills_injected", l.kills as f64);
            m.exact("ft-dc.recoveries", l.dc.recoveries as f64);
            m.exact("ft-dc.cascade_rollbacks", l.dc.cascade_rollbacks as f64);
            m.exact("ft-dc.microreboots", l.dc.microreboots as f64);
            m.exact("ft-dc.escalations", l.dc.escalations as f64);
            for (strategy, (incidents, ..)) in STRATEGY_TAGS.iter().zip(&self.incidents) {
                m.exact(
                    &format!("ft-dc.sim_mttr_p95_ms_{strategy}"),
                    mttr_ms(incidents, 95),
                );
            }
            m.exact(
                "ft-dc.lost_events_per_incident",
                l.lost_events as f64 / l.incidents as f64,
            );
        }
        m.exact("ft-mem.traps_per_event", per_event(l.arena.traps));
        m.exact(
            "ft-mem.pages_per_commit",
            l.arena.committed_pages as f64 / l.arena.commits as f64,
        );
        m.exact(
            "ft-mem.bytes_per_commit",
            l.arena.committed_bytes as f64 / l.arena.commits as f64,
        );
        m.exact("ft-dc.commits_per_event", per_event(l.dc.commits));
        m.exact("ft-dc.logged_per_event", per_event(l.dc.logged_events));
        m.exact(
            "ft-dc.sim_commit_ns_per_commit",
            l.dc.commit_time_ns as f64 / l.dc.commits as f64,
        );
        m.samples("ft-dc.run_ns_per_event", &l.run_ns_per_event);
        m.samples(
            "ft-apps.build_ms",
            &l.build_ns.iter().map(|ns| ns / 1e6).collect::<Vec<_>>(),
        );
        if l.shm_ops > 0 {
            m.exact("ft-dsm.shm_ops_per_event", per_event(l.shm_ops));
            m.exact("ft-dsm.alloc_bytes_per_event", per_event(l.run_alloc_bytes));
        }
        if let Some(ns) = l.fingerprint_ns_per_event {
            m.exact("ft-bench.fingerprint_ns_per_event", ns);
        }
        if let Some(ns) = l.analyze_ns_per_event {
            m.exact("ft-analyze.analyze_ns_per_event", ns);
        }

        // Unit costs of the layers below the runtime, at this workload's
        // shape, and what is left of the run span once they are charged.
        let wheel = probes::wheel(m);
        let net = match spec.scenario {
            Scenario::Kv108 => {
                probes::net(m, 1);
                probes::net(m, 107)
            }
            Scenario::Treadmarks => probes::net(m, 1),
            Scenario::Nvi => 0.0,
        };
        let trace = probes::trace(m, spec.scenario.width(), &l.mix);
        let arena = probes::arena(m);
        // Whole runs, not per event: the plain run records no commit events.
        m.exact(
            "ft-dc.over_plain_ratio",
            median(&l.run_ns) / median(&self.plain_ns),
        );
        let run = m.get("ft-dc.run_ns_per_event").expect("just recorded");
        let below = trace
            + per_event(l.queue_ops) * wheel
            + l.mix.share_recv() * net
            + per_event(l.arena.traps) * arena.trap_ns
            + per_event(l.arena.committed_pages) * arena.commit_ns_per_page;
        // An estimate: the probes time each layer alone, with warm caches.
        m.exact("ft-dc.self_ns_per_event", run - below);
        (0, 0)
    }
}
