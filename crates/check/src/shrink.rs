//! Counterexample shrinking: smallest workload, earliest kill.
//!
//! The exhaustive explorer reports *a* violation; this module reduces it
//! to the most debuggable one. Two binary searches run in sequence:
//!
//! 1. **Workload size.** Search `[1, size]` for the smallest size
//!    whose exploration still violates an invariant. Failure is assumed
//!    monotone in size (a protocol bug that loses work on three workers
//!    loses it on one); if the assumption does not hold for a particular
//!    bug, the search result is re-verified and the original size kept as
//!    a fallback, so the returned counterexample always actually fails.
//! 2. **Fault set.** At the minimal size, the failure-free pseudo-point
//!    is tried first — if the run violates with *no* kill at all, the
//!    minimal fault set is empty. Otherwise the first failing kill is
//!    taken, and for position kills a second binary search finds the
//!    earliest event index of that process that still fails.

use ft_core::fault::{CrashPoint, Fault};
use ft_core::oracle::InvariantViolation;
use ft_core::protocol::Protocol;

use crate::explore::{canonical_run, enumerate_points, run_point, Canonical, PointResult};
use crate::scenario::{CheckConfig, Workload};
use crate::script::render_script;

/// A shrunk, replayable invariant violation.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The workload at its shrunk size.
    pub workload: Workload,
    /// The protocol that violated.
    pub protocol: Protocol,
    /// The minimal fault set: one kill, or `None` when the failure-free
    /// run itself violates.
    pub point: Option<CrashPoint>,
    /// The invariant that failed.
    pub violation: InvariantViolation,
    /// A replay script reproducing the violation (see
    /// [`crate::script::parse_script`]).
    pub script: String,
}

/// Serially explores `w` at `size` and returns the first violating
/// result (failure-free pseudo-point first, then enumeration order).
fn first_violation(
    w: &Workload,
    size: usize,
    cfg: &CheckConfig,
) -> Option<(Canonical, PointResult)> {
    let canonical = canonical_run(w, size, cfg);
    let ff = run_point(w, size, cfg, &canonical, None);
    if ff.violation.is_some() {
        return Some((canonical, ff));
    }
    for pt in enumerate_points(&canonical) {
        let r = run_point(w, size, cfg, &canonical, Some(pt));
        if r.violation.is_some() {
            return Some((canonical, r));
        }
    }
    None
}

/// Shrinks a violating workload to a minimal counterexample, or returns
/// `None` if no crash schedule of `w` violates anything.
pub fn shrink(w: &Workload, cfg: &CheckConfig) -> Option<Counterexample> {
    first_violation(w, w.size, cfg)?;
    // Binary-search the smallest failing size.
    let (mut lo, mut hi) = (1, w.size);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if first_violation(w, mid, cfg).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    // Re-verify (monotonicity is an assumption, not a theorem).
    let size = if first_violation(w, lo, cfg).is_some() {
        lo
    } else {
        w.size
    };
    let (canonical, mut found) =
        first_violation(w, size, cfg).expect("verified failing size no longer fails");
    // Minimal fault set: for a position kill, binary-search the earliest
    // event index of the same process that still fails.
    if let Some(CrashPoint::AtPosition { pid, pos }) = found.point {
        let (mut lo, mut hi) = (1u64, pos);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let r = run_point(
                w,
                size,
                cfg,
                &canonical,
                Some(CrashPoint::AtPosition { pid, pos: mid }),
            );
            if r.violation.is_some() {
                found = r;
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
    }
    let violation = found.violation.clone().expect("shrunk result violates");
    let shrunk = Workload { size, ..*w };
    let comment = match found.point {
        Some(p) => format!("{violation}\nvia: {}", Fault::Kill(p)),
        None => format!("{violation}\nvia: the failure-free run (empty fault set)"),
    };
    let faults = found.point.map(Fault::Kill);
    let script = render_script(
        &shrunk,
        size,
        cfg.protocol,
        faults.as_slice(),
        cfg.mutation,
        &comment,
    );
    Some(Counterexample {
        workload: shrunk,
        protocol: cfg.protocol,
        point: found.point,
        violation,
        script,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_workload_has_nothing_to_shrink() {
        let w = Workload {
            name: "taskfarm",
            seed: 7,
            size: 1,
        };
        let cfg = CheckConfig::new(Protocol::Cand);
        assert!(shrink(&w, &cfg).is_none());
    }
}
