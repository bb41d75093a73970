//! Canonical-trace capture, crash-point enumeration, and the exhaustive
//! (serial or sharded) exploration loop.

use ft_core::event::ProcessId;
use ft_core::fault::{CommitCrashPoint, CrashPoint, Fault};
use ft_core::oracle::InvariantViolation;
use ft_dc::fingerprint::report_fingerprint;
use ft_dc::{DcHarness, DcReport};
use ft_sim::runner::run_indexed;

use crate::scenario::{CheckConfig, Workload};

/// The failure-free reference run: the trace every crashed-and-recovered
/// execution is judged against, plus the two enumeration domains (event
/// positions and commit points).
#[derive(Debug)]
pub struct Canonical {
    /// The failure-free run's report.
    pub report: DcReport,
    /// Reference visible outputs as `(pid, token)` in emission order.
    pub visibles: Vec<(u32, u64)>,
    /// Per-process canonical trace lengths (kill positions range over
    /// `0..=positions[p]`).
    pub positions: Vec<u64>,
    /// Per-process commit-point counts (mid-commit kills range over
    /// `0..commit_points[p]`, each at three sub-steps).
    pub commit_points: Vec<u64>,
}

/// Flattens a report's timed visible log to `(pid, token)` pairs
/// ([`DcReport::visible_pairs`]; kept as a free function for callers
/// outside the workspace).
pub fn visible_pairs(report: &DcReport) -> Vec<(u32, u64)> {
    report.visible_pairs()
}

/// Runs the workload once with no faults and records the canonical trace.
///
/// Panics if the failure-free run does not complete: a workload that
/// cannot finish without faults is not checkable.
pub fn canonical_run(w: &Workload, size: usize, cfg: &CheckConfig) -> Canonical {
    let (sim, apps) = w.build(size).into_parts();
    let report = DcHarness::new(sim, cfg.dc_config(None), apps).run();
    assert!(
        report.all_done && report.abandoned == 0,
        "canonical {} run did not complete",
        w.name
    );
    let n = report.trace.num_processes();
    let positions = (0..n)
        .map(|p| report.trace.process(ProcessId::from_index(p)).len() as u64)
        .collect();
    let commit_points = report.commit_points_per_proc.clone();
    let visibles = report.visible_pairs();
    Canonical {
        report,
        visibles,
        positions,
        commit_points,
    }
}

/// Enumerates every crash point of the canonical run: for each process, a
/// kill before its first event, a kill after each of its event indices,
/// and a kill inside each of its commit points at all three commit
/// sub-steps.
pub fn enumerate_points(canonical: &Canonical) -> Vec<CrashPoint> {
    let mut pts = Vec::new();
    for p in 0..canonical.positions.len() {
        let pid = u32::try_from(p).expect("process indices are small and dense");
        pts.push(CrashPoint::AtStart { pid });
        for pos in 1..=canonical.positions[p] {
            pts.push(CrashPoint::AtPosition { pid, pos });
        }
        for nth in 0..canonical.commit_points[p] {
            for point in CommitCrashPoint::ALL {
                pts.push(CrashPoint::InCommit { pid, nth, point });
            }
        }
    }
    pts
}

/// Outcome of exploring one crash point (or, with `point: None`, the
/// failure-free pseudo-point — included so a protocol broken even without
/// faults is caught).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointResult {
    /// The injected kill (`None` for the failure-free pseudo-point, and
    /// for a schedule [`run_faults`] ran).
    pub point: Option<CrashPoint>,
    /// FNV-1a fingerprint of the resulting report (the dedup key).
    pub fingerprint: u64,
    /// The first invariant the run violated, if any.
    pub violation: Option<InvariantViolation>,
    /// Duplicate visible outputs the user observed (allowed by
    /// consistent recovery, counted for reporting).
    pub duplicates: usize,
}

/// Re-executes the workload with `point` as its one-entry kill schedule
/// and judges the result against the canonical run.
pub fn run_point(
    w: &Workload,
    size: usize,
    cfg: &CheckConfig,
    canonical: &Canonical,
    point: Option<CrashPoint>,
) -> PointResult {
    let faults = point.map(Fault::Kill);
    PointResult {
        point,
        ..run_faults(w, size, cfg, canonical, faults.as_slice())
    }
}

/// Re-executes the workload under the fault schedule `faults` and judges
/// the result against the canonical run with the composed oracles.
pub fn run_faults(
    w: &Workload,
    size: usize,
    cfg: &CheckConfig,
    canonical: &Canonical,
    faults: &[Fault],
) -> PointResult {
    let (sim, apps) = w.build(size).into_parts();
    let mut dc = cfg.dc_config(None);
    dc.faults.extend_from_slice(faults);
    let report = DcHarness::new(sim, dc, apps).run();
    let verdict = report.judge_against(&canonical.report.trace, &canonical.visibles);
    PointResult {
        point: None,
        fingerprint: report_fingerprint(&report),
        duplicates: verdict.as_ref().map_or(0, |v| v.duplicates),
        violation: verdict.err(),
    }
}

/// An exhausted crash-schedule space.
#[derive(Debug, PartialEq, Eq)]
pub struct Exploration {
    /// One result per explored state, in enumeration order (index 0 is
    /// the failure-free pseudo-point).
    pub results: Vec<PointResult>,
    /// Number of *distinct* report fingerprints among the results: the
    /// denominator of the dedup ratio. Two crash points that yield
    /// bit-identical reports are one state of the schedule space.
    pub unique_fingerprints: usize,
}

impl Exploration {
    /// States explored (canonical run excluded).
    pub fn explored(&self) -> usize {
        self.results.len()
    }

    /// All violating results, in enumeration order.
    pub fn violations(&self) -> Vec<&PointResult> {
        self.results
            .iter()
            .filter(|r| r.violation.is_some())
            .collect()
    }

    /// Explored-to-unique ratio (1.0 = no pruning opportunity).
    pub fn dedup_ratio(&self) -> f64 {
        if self.unique_fingerprints == 0 {
            return 1.0;
        }
        self.explored() as f64 / self.unique_fingerprints as f64
    }
}

/// Explores an explicit point list (plus the failure-free pseudo-point at
/// index 0), sharded over `threads` workers. Results are index-ordered,
/// so every `threads` value produces the identical `Exploration`.
pub fn explore_points(
    w: &Workload,
    size: usize,
    cfg: &CheckConfig,
    canonical: &Canonical,
    points: &[CrashPoint],
    threads: usize,
) -> Exploration {
    let n = points.len() + 1;
    let results = run_indexed(n, threads, |i| {
        let point = if i == 0 { None } else { Some(points[i - 1]) };
        run_point(w, size, cfg, canonical, point)
    });
    let mut fps: Vec<u64> = results.iter().map(|r| r.fingerprint).collect();
    fps.sort_unstable();
    fps.dedup();
    Exploration {
        results,
        unique_fingerprints: fps.len(),
    }
}

/// Captures the canonical run, enumerates every crash point, and exhausts
/// the schedule space with `cfg.threads` workers.
pub fn explore(w: &Workload, cfg: &CheckConfig) -> Exploration {
    let canonical = canonical_run(w, w.size, cfg);
    let points = enumerate_points(&canonical);
    explore_points(w, w.size, cfg, &canonical, &points, cfg.threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::protocol::Protocol;

    fn tiny() -> Workload {
        Workload {
            name: "taskfarm",
            seed: 7,
            size: 1,
        }
    }

    #[test]
    fn canonical_run_fills_both_domains() {
        let w = tiny();
        let cfg = CheckConfig::new(Protocol::Cand);
        let c = canonical_run(&w, w.size, &cfg);
        assert!(c.positions.iter().any(|&n| n > 0), "empty canonical trace");
        assert!(
            c.commit_points.iter().any(|&n| n > 0),
            "CAND ran no commit points"
        );
    }

    #[test]
    fn enumeration_covers_every_position_and_sub_step() {
        let w = tiny();
        let cfg = CheckConfig::new(Protocol::Cand);
        let c = canonical_run(&w, w.size, &cfg);
        let pts = enumerate_points(&c);
        let expected: u64 = c
            .positions
            .iter()
            .zip(&c.commit_points)
            .map(|(&len, &cp)| 1 + len + 3 * cp)
            .sum();
        assert_eq!(pts.len() as u64, expected);
        assert!(pts.iter().any(|p| matches!(
            p,
            CrashPoint::InCommit {
                point: CommitCrashPoint::MidUndoWalk,
                ..
            }
        )));
    }

    #[test]
    fn failure_free_pseudo_point_matches_the_canonical_fingerprint() {
        let w = tiny();
        let cfg = CheckConfig::new(Protocol::Cand);
        let c = canonical_run(&w, w.size, &cfg);
        let r = run_point(&w, w.size, &cfg, &c, None);
        assert_eq!(r.violation, None);
        assert_eq!(r.fingerprint, report_fingerprint(&c.report));
        assert_eq!(r.duplicates, 0);
    }
}
