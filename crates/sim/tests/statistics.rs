//! Statistical and splitting validation of the arrival streams:
//! exponential inter-arrival moments, and the O(1)-split determinism
//! that makes sharded campaigns bitwise-identical to serial ones.

#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test inputs are tiny by construction (seed counts, page numbers, probe offsets), so index-type narrowing cannot truncate"
)]

use ft_sim::rng::{ExpSampler, OpenLoopPopulation, SplitMix64};

/// Inter-arrival gaps have exponential mean AND variance: mean ≈ 1/λ and
/// variance ≈ 1/λ² (the coefficient of variation of an exponential is
/// exactly 1 — a Poisson process, not a jittered clock).
#[test]
fn poisson_interarrival_mean_and_variance_match_rate() {
    const RATE: f64 = 250.0; // per second
    const N: usize = 100_000;
    let mut s = ExpSampler::new(0x9A15, RATE);
    let gaps: Vec<f64> = (0..N).map(|_| s.next_gap_ns() as f64 / 1e9).collect();
    let mean = gaps.iter().sum::<f64>() / N as f64;
    let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / (N - 1) as f64;
    let expect_mean = 1.0 / RATE;
    let expect_var = expect_mean * expect_mean;
    assert!(
        (mean - expect_mean).abs() / expect_mean < 0.02,
        "mean {mean:.6}s vs 1/λ {expect_mean:.6}s"
    );
    assert!(
        (var - expect_var).abs() / expect_var < 0.05,
        "variance {var:.3e} vs 1/λ² {expect_var:.3e}"
    );
}

/// `gap_ns(n)` (the O(1) random-access draw) is byte-identical to
/// advancing the sequential sampler `n` steps — including straddling
/// arbitrary "shard boundary" offsets.
#[test]
fn random_access_gap_equals_sequential_advance() {
    let rate = 40.0;
    let reference = ExpSampler::new(0x0C0A, rate);
    let mut walker = ExpSampler::new(0x0C0A, rate);
    let sequential: Vec<u64> = (0..512).map(|_| walker.next_gap_ns()).collect();
    for boundary in [0usize, 1, 7, 64, 129, 511] {
        assert_eq!(
            reference.gap_ns(boundary as u64),
            sequential[boundary],
            "gap {boundary} diverges from the sequential stream"
        );
    }
    // A shard starting mid-stream reproduces the suffix exactly.
    let suffix: Vec<u64> = (129..512).map(|i| reference.gap_ns(i as u64)).collect();
    assert_eq!(&suffix[..], &sequential[129..]);
}

/// `SplitMix64::nth(k)` equals `k` sequential `next_u64` advances, so a
/// shard seeded at offset `k` continues the serial stream bit for bit.
#[test]
fn splitmix_nth_equals_k_step_advance() {
    let base = SplitMix64::new(0x5EED);
    let mut walk = SplitMix64::new(0x5EED);
    for k in 0..200u64 {
        assert_eq!(base.nth(k), walk.next_u64(), "nth({k}) != step {k}");
    }
}

/// Two shards of an open-loop population, each recomputing its half of
/// the gap/attribution streams independently from the same seed, produce
/// byte-identical results to one serial pass — at every split point.
#[test]
fn population_streams_are_identical_across_shard_boundaries() {
    let pop_a = OpenLoopPopulation::new(0xB00B, 10_000, 3.0);
    let pop_b = OpenLoopPopulation::new(0xB00B, 10_000, 3.0);
    let serial: Vec<(u64, u64)> = (0..256)
        .map(|i| (pop_a.gap_ns(i), pop_a.session_of(i)))
        .collect();
    for split in [1usize, 63, 100, 255] {
        let left: Vec<(u64, u64)> = (0..split as u64)
            .map(|i| (pop_b.gap_ns(i), pop_b.session_of(i)))
            .collect();
        let right: Vec<(u64, u64)> = (split as u64..256)
            .map(|i| (pop_b.gap_ns(i), pop_b.session_of(i)))
            .collect();
        assert_eq!(&serial[..split], &left[..]);
        assert_eq!(&serial[split..], &right[..]);
    }
}
