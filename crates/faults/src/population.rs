//! Open-loop client population generator for planet-scale workloads.
//!
//! A closed-loop client waits for each response before issuing the next
//! request, so a slow server throttles its own offered load. Production
//! traffic is *open-loop*: millions of independent sessions each issue
//! requests at their own Poisson rate, and the superposition of `S`
//! Poisson processes at rate `λ` is itself Poisson at rate `S·λ`
//! (requests keep arriving whether or not the service is keeping up —
//! which is exactly what makes goodput under crashes an honest metric).
//!
//! [`OpenLoopPopulation`] exploits that superposition theorem: rather
//! than simulating `S` per-session clocks, one aggregate exponential
//! stream generates the merged arrival sequence, and each arrival is
//! attributed to a uniformly chosen session (the memoryless property
//! makes uniform attribution exact, not an approximation). Both the
//! `i`-th gap and the `i`-th session are O(1) random-accessible via
//! [`SplitMix64::nth`], so a gateway process recomputing request `i`
//! after a rollback — or a sharded campaign runner replaying trial `t`
//! on another thread — needs no sequential state at all.
//!
//! [`SplitMix64::nth`]: ft_sim::rng::SplitMix64::nth

use ft_sim::rng::SplitMix64;

use crate::arrivals::ExpSampler;

/// A population of `sessions` open-loop clients, each issuing requests
/// as a Poisson process at `rate_per_session` requests/second, merged
/// into one aggregate arrival stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopPopulation {
    sampler: ExpSampler,
    session_rng: SplitMix64,
    sessions: u64,
    rate_per_session: f64,
}

impl OpenLoopPopulation {
    /// Builds the population. The aggregate rate is
    /// `sessions × rate_per_session`; the gap stream and the session
    /// attribution stream are split from `seed` so neither perturbs the
    /// other.
    ///
    /// # Panics
    ///
    /// Panics if `sessions` is zero or the per-session rate is not
    /// positive and finite (delegated to [`ExpSampler::new`]).
    pub fn new(seed: u64, sessions: u64, rate_per_session: f64) -> Self {
        assert!(sessions > 0, "population needs at least one session");
        let mut split = SplitMix64::new(seed);
        let gap_seed = split.next_u64();
        let session_seed = split.next_u64();
        OpenLoopPopulation {
            sampler: ExpSampler::new(gap_seed, rate_per_session * sessions as f64),
            session_rng: SplitMix64::new(session_seed),
            sessions,
            rate_per_session,
        }
    }

    /// Number of sessions in the population.
    pub fn sessions(&self) -> u64 {
        self.sessions
    }

    /// Per-session request rate (requests/second).
    pub fn rate_per_session(&self) -> f64 {
        self.rate_per_session
    }

    /// The gap (ns) between merged arrival `i-1` and arrival `i`
    /// (0-indexed; `gap_ns(0)` is the gap from time zero to the first
    /// arrival). O(1), non-advancing.
    pub fn gap_ns(&self, i: u64) -> u64 {
        self.sampler.gap_ns(i)
    }

    /// The session (in `0..sessions`) that issued merged arrival `i`.
    /// O(1), non-advancing. Uses the unbiased rejection-free threshold
    /// trick of `SplitMix64::below` applied to a random-accessed draw.
    pub fn session_of(&self, i: u64) -> u64 {
        // 128-bit multiply-shift maps a uniform u64 onto 0..sessions with
        // bias at most 2^-64 per bucket — negligible against the 2^-53
        // resolution of the gap sampler, and crucially a pure function of
        // draw `i` (no rejection loop, so random access stays O(1)).
        let raw = self.session_rng.nth(i);
        ((u128::from(raw) * u128::from(self.sessions)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_stream_matches_plain_exponential_at_aggregate_rate() {
        // The merged stream must be exactly the ExpSampler stream at
        // S·λ drawn from the first split of the seed.
        let p = OpenLoopPopulation::new(42, 1000, 2.0);
        let mut split = SplitMix64::new(42);
        let reference = ExpSampler::new(split.next_u64(), 2000.0);
        for i in 0..200 {
            assert_eq!(p.gap_ns(i), reference.gap_ns(i), "gap {i}");
        }
    }

    #[test]
    fn session_attribution_is_in_range_and_covers_the_space() {
        let p = OpenLoopPopulation::new(7, 8, 1.0);
        let mut seen = [false; 8];
        for i in 0..2000 {
            let s = p.session_of(i);
            assert!(s < 8);
            seen[usize::try_from(s).unwrap()] = true;
        }
        assert!(seen.iter().all(|&b| b), "some session never attributed");
    }

    #[test]
    fn random_access_is_stateless() {
        let p = OpenLoopPopulation::new(99, 64, 3.0);
        // Query out of order, twice; answers must be identical and the
        // struct is Copy so there is no hidden advancing state.
        let probe: Vec<(u64, u64)> = [17u64, 3, 200, 3, 0, 17]
            .iter()
            .map(|&i| (p.gap_ns(i), p.session_of(i)))
            .collect();
        assert_eq!(probe[0], probe[5]);
        assert_eq!(probe[1], probe[3]);
    }

    #[test]
    #[should_panic(expected = "at least one session")]
    fn empty_population_panics() {
        OpenLoopPopulation::new(0, 0, 1.0);
    }
}
