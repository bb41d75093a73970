//! Poisson fault arrivals and the microreboot escalation policy.
//!
//! The Table 1 / Table 2 campaigns inject exactly one fault per trial and
//! ask *was recovery consistent?* The availability campaign asks the
//! production question instead: under a *sustained* fault process, what are
//! the recovery latency distribution, the steady-state availability, and
//! the goodput of each protocol? The classic model for sustained faults is
//! a Poisson process — memoryless arrivals at rate λ — which is generated
//! here by sampling exponential inter-arrival gaps with inverse-transform
//! sampling over [`SplitMix64`].
//!
//! Everything is deterministic and splittable in the PR 2 seed-stream
//! style: trial `t`'s entire arrival schedule is reachable in O(1) from a
//! base seed (no sequential draw is shared between threads), so the
//! sharded campaign runner reproduces the serial campaign bit for bit.
//!
//! [`EscalationPolicy`] is the companion knob for the microreboot recovery
//! strategy: how many partial-restart attempts an incident is allowed,
//! and the backoff delay ladder between them, before the runtime escalates
//! to a full rollback.

use ft_sim::cost::MS;
use ft_sim::rng::SplitMix64;

/// Exponential inter-arrival gap sampler at a fixed rate.
///
/// Gaps are drawn by inverse-transform sampling: for `u ∈ [0, 1)` uniform,
/// `-ln(1 - u) / λ` is exponentially distributed with mean `1/λ`. Gaps are
/// reported in simulated nanoseconds and clamped to at least 1 ns so the
/// arrival clock always advances.
///
/// The sampler mirrors [`SplitMix64`]'s dual interface: [`next_gap_ns`]
/// draws sequentially, while [`gap_ns`] computes the `n`-th upcoming gap
/// in O(1) without advancing (the two agree — see the property tests).
///
/// [`next_gap_ns`]: ExpSampler::next_gap_ns
/// [`gap_ns`]: ExpSampler::gap_ns
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpSampler {
    rng: SplitMix64,
    rate_per_sec: f64,
}

/// Converts one raw 64-bit draw into an exponential gap in nanoseconds.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "-ln(1-u) is >= 0 and gaps are clamped to plausible nanosecond ranges far below u64::MAX"
)]
fn gap_from_raw(raw: u64, rate_per_sec: f64) -> u64 {
    // Same bit-to-unit mapping as `SplitMix64::unit_f64`: u ∈ [0, 1), so
    // 1 - u ∈ (0, 1] and the logarithm is finite.
    let u = (raw >> 11) as f64 / (1u64 << 53) as f64;
    let secs = -(1.0 - u).ln() / rate_per_sec;
    ((secs * 1e9) as u64).max(1)
}

impl ExpSampler {
    /// Creates a sampler with mean gap `1/rate_per_sec` seconds.
    ///
    /// # Panics
    ///
    /// Panics unless the rate is positive and finite.
    pub fn new(seed: u64, rate_per_sec: f64) -> Self {
        assert!(
            rate_per_sec > 0.0 && rate_per_sec.is_finite(),
            "arrival rate must be positive and finite"
        );
        ExpSampler {
            rng: SplitMix64::new(seed),
            rate_per_sec,
        }
    }

    /// Draws the next gap, advancing the sampler.
    pub fn next_gap_ns(&mut self) -> u64 {
        gap_from_raw(self.rng.next_u64(), self.rate_per_sec)
    }

    /// The `n`-th upcoming gap (0-indexed) without advancing — O(1) via
    /// the Weyl-sequence jump of [`SplitMix64::nth`].
    pub fn gap_ns(&self, n: u64) -> u64 {
        gap_from_raw(self.rng.nth(n), self.rate_per_sec)
    }
}

/// A Poisson fault-arrival process: the running sum of exponential gaps.
///
/// [`next_arrival_ns`](PoissonArrivals::next_arrival_ns) yields strictly
/// increasing absolute simulated timestamps; the campaign's injection hook
/// kills a victim whenever the simulation clock passes the next arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonArrivals {
    sampler: ExpSampler,
    clock_ns: u64,
}

impl PoissonArrivals {
    /// Creates an arrival process starting at simulated time zero.
    pub fn new(seed: u64, rate_per_sec: f64) -> Self {
        PoissonArrivals {
            sampler: ExpSampler::new(seed, rate_per_sec),
            clock_ns: 0,
        }
    }

    /// Advances to, and returns, the next absolute arrival time (ns).
    pub fn next_arrival_ns(&mut self) -> u64 {
        self.clock_ns = self.clock_ns.saturating_add(self.sampler.next_gap_ns());
        self.clock_ns
    }
}

/// The bounded retry/backoff ladder for microreboot recovery.
///
/// An incident is allowed `max_attempts` partial restarts; attempt `k`
/// (1-based) waits `base_delay_ns * backoff_factor^(k-1)` before resuming
/// the component. When the ladder is exhausted — the component keeps
/// failing — the runtime escalates to a full rollback, which is always
/// available as the sound fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EscalationPolicy {
    /// Partial-restart attempts before escalating to full rollback.
    pub max_attempts: u32,
    /// Restart delay of the first attempt, in simulated nanoseconds.
    pub base_delay_ns: u64,
    /// Multiplier applied to the delay after each failed attempt.
    pub backoff_factor: u64,
}

impl Default for EscalationPolicy {
    /// Three attempts at 5 ms, 10 ms, 20 ms — an order of magnitude under
    /// the 50 ms full-reboot delay, which is what makes microreboot's
    /// MTTR win measurable when the partial restart sticks.
    fn default() -> Self {
        EscalationPolicy {
            max_attempts: 3,
            base_delay_ns: 5 * MS,
            backoff_factor: 2,
        }
    }
}

impl EscalationPolicy {
    /// The restart delay of 1-based attempt `k`, saturating on overflow.
    ///
    /// # Panics
    ///
    /// Panics if `attempt` is 0 (attempts are 1-based).
    pub fn attempt_delay_ns(&self, attempt: u32) -> u64 {
        assert!(attempt > 0, "attempts are 1-based");
        self.base_delay_ns
            .saturating_mul(self.backoff_factor.saturating_pow(attempt - 1))
    }

    /// The full backoff schedule, for reports and directed tests.
    pub fn schedule(&self) -> Vec<u64> {
        (1..=self.max_attempts)
            .map(|k| self.attempt_delay_ns(k))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_is_deterministic_across_runs() {
        let mut a = ExpSampler::new(0xA11, 3.0);
        let mut b = ExpSampler::new(0xA11, 3.0);
        for _ in 0..1000 {
            assert_eq!(a.next_gap_ns(), b.next_gap_ns());
        }
    }

    #[test]
    fn sampler_is_deterministic_across_threads() {
        let draw = || -> Vec<u64> {
            let mut s = ExpSampler::new(0xBEEF, 7.5);
            (0..500).map(|_| s.next_gap_ns()).collect()
        };
        let reference = draw();
        let handles: Vec<_> = (0..4).map(|_| std::thread::spawn(draw)).collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), reference);
        }
    }

    #[test]
    fn mean_gap_tracks_inverse_rate() {
        // Mean of 10^4 exponential samples has relative standard error
        // 1/sqrt(10^4) = 1%; a 5% tolerance gives wide deterministic
        // margin for these fixed seeds.
        for (seed, rate) in [(1u64, 0.5f64), (2, 5.0), (3, 50.0)] {
            let mut s = ExpSampler::new(seed, rate);
            let n = 10_000u64;
            let sum: u64 = (0..n).map(|_| s.next_gap_ns()).sum();
            let mean = sum as f64 / n as f64;
            let expect = 1e9 / rate;
            let err = (mean - expect).abs() / expect;
            assert!(
                err < 0.05,
                "rate {rate}: mean {mean} vs expected {expect} (err {err})"
            );
        }
    }

    #[test]
    fn random_access_matches_sequential_draws() {
        let base = ExpSampler::new(0xFEED, 2.0);
        let mut seq = base;
        for n in 0..200u64 {
            assert_eq!(base.gap_ns(n), seq.next_gap_ns(), "gap {n}");
        }
        // gap_ns never advances the sampler it is called on.
        assert_eq!(base, ExpSampler::new(0xFEED, 2.0));
    }

    #[test]
    fn arrivals_strictly_increase() {
        let mut a = PoissonArrivals::new(9, 100.0);
        let mut last = 0;
        for _ in 0..1000 {
            let t = a.next_arrival_ns();
            assert!(t > last);
            last = t;
        }
    }

    #[test]
    fn gaps_are_positive() {
        // Even at an absurd rate the clamp keeps the clock advancing.
        let mut s = ExpSampler::new(4, 1e12);
        for _ in 0..1000 {
            assert!(s.next_gap_ns() >= 1);
        }
    }

    #[test]
    fn escalation_schedule_doubles_from_base() {
        let p = EscalationPolicy {
            max_attempts: 4,
            base_delay_ns: 5 * MS,
            backoff_factor: 2,
        };
        assert_eq!(p.schedule(), vec![5 * MS, 10 * MS, 20 * MS, 40 * MS]);
        assert_eq!(p.attempt_delay_ns(1), 5 * MS);
        assert_eq!(p.attempt_delay_ns(4), 40 * MS);
    }

    #[test]
    fn escalation_delay_saturates() {
        let p = EscalationPolicy {
            max_attempts: 200,
            base_delay_ns: u64::MAX / 2,
            backoff_factor: 1000,
        };
        assert_eq!(p.attempt_delay_ns(100), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn attempt_zero_panics() {
        EscalationPolicy::default().attempt_delay_ns(0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        ExpSampler::new(0, 0.0);
    }
}
