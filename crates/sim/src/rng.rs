//! A tiny deterministic PRNG for the simulator, and the arrival streams
//! built on it.
//!
//! The simulator must be bit-for-bit reproducible given its seed, cloneable
//! (checkpointing copies kernels), and serializable. SplitMix64 (Steele,
//! Lea & Flood, OOPSLA 2014) is a well-mixed 64-bit generator that fits in
//! one word of state — entirely sufficient for modeling non-deterministic
//! *choice* (the values only need to be well spread, not cryptographic).
//!
//! The sustained-fault and open-loop campaigns draw Poisson processes from
//! it: [`ExpSampler`] samples exponential gaps by inverse transform,
//! [`PoissonArrivals`] sums them into crash arrival times, and
//! [`OpenLoopPopulation`] merges millions of client sessions into one
//! arrival stream. Every draw is O(1)-reachable through
//! [`SplitMix64::nth`], so a sharded campaign reproduces the serial one
//! bit for bit and a rolled-back gateway recomputes request `i` without
//! sequential state.

/// The Weyl-sequence increment: SplitMix64 advances its state by this
/// constant per draw, which is what makes the stream randomly accessible
/// (see [`SplitMix64::nth`]).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// A SplitMix64 generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The `n`-th upcoming draw of this generator (0-indexed), without
    /// advancing it and without computing the intermediate values.
    ///
    /// SplitMix64's state is a Weyl sequence (it advances by a constant
    /// per draw), so the stream supports O(1) random access: jump the
    /// state `n` increments ahead and mix once. This is the split
    /// primitive the parallel campaign runner builds per-trial seed
    /// streams from — worker `k` can compute trial `t`'s seed directly,
    /// with no sequential draw shared between threads, and the resulting
    /// seeds are identical to drawing the stream serially.
    pub fn nth(&self, n: u64) -> u64 {
        SplitMix64 {
            state: self.state.wrapping_add(GOLDEN.wrapping_mul(n)),
        }
        .next_u64()
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift; bias is negligible for simulation purposes.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `usize` index in `[0, bound)`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the draw is < bound, which fit a usize on the way in"
    )]
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }
}

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

/// A population of `sessions` open-loop clients, each issuing requests
/// as a Poisson process at `rate_per_session` requests/second, merged
/// into one aggregate arrival stream.
///
/// Open-loop traffic keeps arriving whether or not the service keeps up,
/// which is what makes goodput under crashes an honest metric. The
/// superposition of `S` Poisson processes at rate `λ` is Poisson at
/// `S·λ`, so one aggregate exponential stream generates the merged
/// sequence and each arrival goes to a uniformly chosen session (exact,
/// by memorylessness). Both the `i`-th gap and the `i`-th session are
/// O(1) random-accessible.
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
    fn deterministic_given_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn nth_matches_sequential_draws() {
        let base = SplitMix64::new(0xFEED);
        let mut seq = base;
        for n in 0..200u64 {
            assert_eq!(base.nth(n), seq.next_u64(), "draw {n}");
        }
        // nth never advances the generator it is called on.
        assert_eq!(base, SplitMix64::new(0xFEED));
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(1);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
            assert!(r.index(3) < 3);
        }
    }

    #[test]
    fn unit_f64_in_range_and_spread() {
        let mut r = SplitMix64::new(2);
        let mut sum = 0.0;
        for _ in 0..1000 {
            let x = r.unit_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from 0.5");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn below_zero_panics() {
        SplitMix64::new(0).below(0);
    }

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
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        ExpSampler::new(0, 0.0);
    }

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
