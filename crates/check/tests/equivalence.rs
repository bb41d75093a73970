//! Serial/sharded equivalence: the exploration must be a pure function
//! of the schedule space, never of thread scheduling. `run_indexed`
//! returns index-ordered results and every run is deterministic, so the
//! whole `Exploration` — points, fingerprints, verdicts — is asserted
//! bitwise-identical across thread counts, including a count above the
//! point total. And the schedule executor is the three kill mechanisms it
//! replaced: every point's result is the one they produce.

use ft_check::explore::{canonical_run, enumerate_points, explore_points, run_point};
use ft_check::scenario::{CheckConfig, Workload};
use ft_check::{Canonical, PointResult};
use ft_core::event::ProcessId;
use ft_core::protocol::Protocol;
use ft_dc::fingerprint::report_fingerprint;
use ft_dc::{CommitKill, DcHarness};
use ft_faults::crash::CrashPoint;

#[test]
fn exploration_is_identical_across_thread_counts() {
    let w = Workload {
        name: "taskfarm",
        seed: 7,
        size: 1,
    };
    let cfg = CheckConfig::new(Protocol::CandLog);
    let canonical = canonical_run(&w, w.size, &cfg);
    let points = enumerate_points(&canonical);
    let serial = explore_points(&w, w.size, &cfg, &canonical, &points, 1);
    for threads in [2, 4, 7, points.len() + 5] {
        let sharded = explore_points(&w, w.size, &cfg, &canonical, &points, threads);
        assert_eq!(
            serial.results, sharded.results,
            "threads={threads} diverged from the serial reference"
        );
        assert_eq!(serial.unique_fingerprints, sharded.unique_fingerprints);
    }
}

/// One point through the three mechanisms a kill schedule replaced: a
/// start kill as `kill_at(pid, 0)` before `run()`, a position kill as a
/// `run_with` watcher, a mid-commit kill as `dc_config(Some(CommitKill))`.
fn run_point_three_armed(
    w: &Workload,
    cfg: &CheckConfig,
    canonical: &Canonical,
    point: Option<CrashPoint>,
) -> PointResult {
    let (sim, apps) = w.build(w.size).into_parts();
    let kill = match point {
        Some(CrashPoint::InCommit { pid, nth, point }) => Some(CommitKill { pid, nth, point }),
        _ => None,
    };
    let mut harness = DcHarness::new(sim, cfg.dc_config(kill), apps);
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
    let verdict = report.judge_against(&canonical.report.trace, &canonical.visibles);
    PointResult {
        point,
        fingerprint: report_fingerprint(&report),
        duplicates: verdict.as_ref().map_or(0, |v| v.duplicates),
        violation: verdict.err(),
    }
}

#[test]
fn the_schedule_executor_matches_the_three_kill_mechanisms() {
    for (name, size) in [("nvi", 2), ("taskfarm", 1)] {
        let w = Workload {
            name,
            seed: 7,
            size,
        };
        for protocol in [Protocol::Cpvs, Protocol::Cpv2pc] {
            let cfg = CheckConfig::new(protocol);
            let canonical = canonical_run(&w, w.size, &cfg);
            let points = enumerate_points(&canonical);
            for point in std::iter::once(None).chain(points.into_iter().map(Some)) {
                assert_eq!(
                    run_point(&w, w.size, &cfg, &canonical, point),
                    run_point_three_armed(&w, &cfg, &canonical, point),
                    "{name}@{protocol}"
                );
            }
        }
    }
}
