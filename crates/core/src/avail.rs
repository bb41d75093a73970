//! Incident and availability accounting for the continuous-fault campaign.
//!
//! The paper's evaluation scores each protocol per *single* injected
//! crash; the availability campaign instead drives a sustained Poisson
//! fault process and measures the operational consequences. The unit of
//! accounting is the [`Incident`]: everything between a crash landing on
//! a process and that process catching back up to where it was. From a
//! trial's incident list the campaign derives the three classic
//! serviceability metrics — MTTR percentiles, steady-state availability
//! (and its "nines"), and goodput relative to a failure-free baseline.
//!
//! These types are pure bookkeeping: the runtime (`ft-dc`) fills them in,
//! the benchmark layer aggregates them, and `ft_core::oracle` separately
//! adjudicates whether each trial's recovery was *consistent* — metrics
//! here never substitute for the Save-work verdict.

/// One crash-to-recovery episode of a single process.
///
/// An incident opens when a crash lands and closes when the process has
/// re-executed past the trace position it had reached before the crash
/// (or finishes its workload). Repeated failures before catch-up — e.g. a
/// microreboot that does not stick — extend the same incident rather than
/// opening a new one, so MTTR reflects the user-observed outage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incident {
    /// The crashed process.
    pub pid: u32,
    /// Simulated time at which the (first) crash of this incident landed.
    pub crash_at: u64,
    /// Simulated time at which the process caught back up, or `None` if
    /// the incident was still open when the trial ended (an abandoned
    /// recovery or a trial-horizon truncation).
    pub recovered_at: Option<u64>,
    /// Trace events rolled back and owed to re-execution, summed over
    /// every failure folded into this incident — the "re-execution work"
    /// column of the campaign.
    pub lost_events: u64,
    /// Partial-restart (microreboot) attempts spent on this incident.
    pub microreboot_attempts: u32,
    /// Restart delay of each microreboot attempt, in order — the ladder's
    /// realized backoff schedule.
    pub attempt_delays: Vec<u64>,
    /// Whether the ladder was exhausted and recovery escalated to a full
    /// rollback.
    pub escalated: bool,
}

impl Incident {
    /// Crash-to-recovery latency, or `None` while unresolved.
    pub fn mttr_ns(&self) -> Option<u64> {
        self.recovered_at.map(|r| r.saturating_sub(self.crash_at))
    }

    /// Downtime this incident contributes within a horizon ending at
    /// `end_ns`: unresolved incidents count as down through the horizon.
    fn downtime_ns(&self, end_ns: u64) -> u64 {
        let until = self.recovered_at.unwrap_or(end_ns).min(end_ns);
        until.saturating_sub(self.crash_at)
    }
}

/// Total downtime of a set of incidents within a horizon.
pub fn total_downtime_ns(incidents: &[Incident], end_ns: u64) -> u64 {
    incidents.iter().map(|i| i.downtime_ns(end_ns)).sum()
}

/// Steady-state availability: the fraction of process-time spent up.
///
/// With `procs` processes observed over `horizon_ns`, the denominator is
/// `procs * horizon_ns` process-nanoseconds. Returns 1.0 for an empty
/// horizon (no observed time, no observed downtime).
pub fn availability(downtime_ns: u64, procs: u64, horizon_ns: u64) -> f64 {
    let total = procs.saturating_mul(horizon_ns);
    if total == 0 {
        return 1.0;
    }
    let down = downtime_ns.min(total);
    1.0 - down as f64 / total as f64
}

/// The "nines" of an availability figure: `-log10(1 - a)`, so 0.999 → 3.
///
/// Clamped to `[0, 9]`: a perfect (or better-than-observable) figure
/// reports 9 — the simulation horizon cannot resolve more — and anything
/// at or below zero availability reports 0.
pub fn nines(availability: f64) -> f64 {
    if availability >= 1.0 {
        return 9.0;
    }
    if availability <= 0.0 {
        return 0.0;
    }
    (-(1.0 - availability).log10()).clamp(0.0, 9.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn incident(crash_at: u64, recovered_at: Option<u64>) -> Incident {
        Incident {
            pid: 0,
            crash_at,
            recovered_at,
            lost_events: 0,
            microreboot_attempts: 0,
            attempt_delays: Vec::new(),
            escalated: false,
        }
    }

    #[test]
    fn mttr_is_crash_to_recovery() {
        assert_eq!(incident(100, Some(350)).mttr_ns(), Some(250));
        assert_eq!(incident(100, None).mttr_ns(), None);
    }

    #[test]
    fn downtime_counts_unresolved_through_horizon() {
        assert_eq!(incident(100, Some(350)).downtime_ns(1000), 250);
        assert_eq!(incident(100, None).downtime_ns(1000), 900);
        // Recovery recorded past the horizon is clipped to it.
        assert_eq!(incident(100, Some(1500)).downtime_ns(1000), 900);
    }

    #[test]
    fn total_downtime_sums_incidents() {
        let v = vec![
            incident(0, Some(10)),
            incident(50, Some(75)),
            incident(90, None),
        ];
        assert_eq!(total_downtime_ns(&v, 100), 10 + 25 + 10);
    }

    #[test]
    fn availability_fractions() {
        assert_eq!(availability(0, 4, 1000), 1.0);
        let a = availability(100, 1, 1000);
        assert!((a - 0.9).abs() < 1e-12);
        // Four processes, one down for the whole horizon: 75%.
        let a = availability(1000, 4, 1000);
        assert!((a - 0.75).abs() < 1e-12);
        // Degenerate horizon.
        assert_eq!(availability(123, 0, 1000), 1.0);
        assert_eq!(availability(123, 4, 0), 1.0);
        // Downtime can never exceed observed process-time.
        assert_eq!(availability(u64::MAX, 2, 10), 0.0);
    }

    #[test]
    fn nines_of_common_availabilities() {
        assert!((nines(0.9) - 1.0).abs() < 1e-9);
        assert!((nines(0.999) - 3.0).abs() < 1e-9);
        assert_eq!(nines(1.0), 9.0);
        assert_eq!(nines(0.0), 0.0);
        assert_eq!(nines(-0.5), 0.0);
        // Sub-one-nine availabilities still report their fraction.
        assert!((nines(0.5) - 0.5f64.log10().abs()).abs() < 1e-9);
    }
}
