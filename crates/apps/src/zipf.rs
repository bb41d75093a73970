//! Zipfian key selection for the kvstore client population.
//!
//! Real KV workloads are heavily skewed: a few hot keys absorb most of
//! the traffic (the YCSB observation). This module implements the
//! standard Gray et al. rejection-free Zipfian sampler used by YCSB: the
//! generalized harmonic number `zeta(n, θ)` is computed once at
//! construction, after which each sample maps one uniform draw to a rank
//! in `0..n` (rank 0 hottest) in O(1) with probability proportional to
//! `1 / (rank + 1)^θ`.
//!
//! Sampling is a pure function of the raw 64-bit draw, so the generator
//! composes with [`SplitMix64::nth`]'s O(1) stream splitting: request
//! `i`'s key is computable from the seed and `i` alone, which is what
//! keeps the sharded kvstore campaigns bitwise-deterministic.
//!
//! [`SplitMix64::nth`]: ft_sim::rng::SplitMix64::nth

/// A Zipfian rank sampler over `0..n` with skew `θ`.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    half_pow_theta: f64,
}

impl Zipfian {
    /// Builds a sampler over ranks `0..n` with skew `theta` (YCSB's
    /// default skew is 0.99; `theta` must be in `(0, 1)`).
    ///
    /// Construction computes `zeta(n, θ)` in O(n); the struct is immutable
    /// configuration thereafter (cheap to clone, safe to hold in an `App`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is outside `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipfian needs a non-empty rank space");
        assert!(theta > 0.0 && theta < 1.0, "zipfian skew must be in (0, 1)");
        let zetan = zeta(n, theta);
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
            half_pow_theta: 0.5f64.powf(theta),
        }
    }

    /// The rank space size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The skew parameter θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The expected probability of rank `r` (for statistical tests):
    /// `1 / (r + 1)^θ / zeta(n, θ)`.
    pub fn expected_prob(&self, rank: u64) -> f64 {
        1.0 / ((rank + 1) as f64).powf(self.theta) / self.zetan
    }

    /// Maps a uniform `u ∈ [0, 1)` to a rank in `0..n` (Gray et al.).
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the Gray/Zipf rank formula yields a value in [0, n) for u in [0, 1)"
    )]
    pub fn rank(&self, u: f64) -> u64 {
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }

    /// Maps one raw 64-bit draw to a rank (same bit-to-unit mapping as
    /// `SplitMix64::unit_f64`, so a rank is a pure function of the draw).
    pub fn sample(&self, raw: u64) -> u64 {
        self.rank((raw >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// The generalized harmonic number `Σ_{i=1..n} 1 / i^θ`.
fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

/// Scrambles a Zipfian rank into a key in `0..key_space` (a power of
/// two) so consecutive hot ranks land on unrelated keys — and therefore
/// on unrelated shards. Multiplication by an odd constant is a bijection
/// on `Z/2^k`, so distinct ranks map to distinct keys and the rank
/// popularity distribution carries over to keys unchanged.
///
/// # Panics
///
/// Panics unless `key_space` is a power of two.
pub fn scramble_rank(rank: u64, key_space: u64) -> u64 {
    assert!(
        key_space.is_power_of_two(),
        "key space must be a power of two"
    );
    rank.wrapping_add(0x9E37_79B9)
        .wrapping_mul(0xFF51_AFD7_ED55_8CCD)
        & (key_space - 1)
}

#[cfg(test)]
#[allow(
    clippy::cast_possible_truncation,
    reason = "test ranks are < a few thousand; narrowing them for indexing is exact"
)]
mod tests {
    use super::*;
    use ft_sim::rng::SplitMix64;

    #[test]
    fn ranks_stay_in_range_and_hit_the_extremes() {
        let z = Zipfian::new(100, 0.99);
        let mut rng = SplitMix64::new(7);
        let mut seen0 = false;
        let mut seen_tail = false;
        for _ in 0..20_000 {
            let r = z.sample(rng.next_u64());
            assert!(r < 100);
            seen0 |= r == 0;
            seen_tail |= r > 50;
        }
        assert!(seen0, "the hot rank never sampled");
        assert!(seen_tail, "the tail never sampled");
    }

    #[test]
    fn sampling_is_a_pure_function_of_the_draw() {
        let z = Zipfian::new(4096, 0.99);
        let mut rng = SplitMix64::new(9);
        for _ in 0..1000 {
            let raw = rng.next_u64();
            assert_eq!(z.sample(raw), z.sample(raw));
        }
    }

    #[test]
    fn expected_probs_sum_to_one() {
        let z = Zipfian::new(64, 0.8);
        let total: f64 = (0..64).map(|r| z.expected_prob(r)).sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn scramble_is_a_bijection_on_the_key_space() {
        let ks = 256u64;
        let mut seen = vec![false; ks as usize];
        for rank in 0..ks {
            let k = scramble_rank(rank, ks);
            assert!(k < ks);
            assert!(!seen[k as usize], "rank {rank} collided");
            seen[k as usize] = true;
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn scramble_rejects_non_power_of_two() {
        scramble_rank(0, 48);
    }

    #[test]
    #[should_panic(expected = "(0, 1)")]
    fn extreme_skew_rejected() {
        Zipfian::new(10, 1.0);
    }
}
