//! Statistical validation of the kvstore workload generator: the Zipfian
//! sampler's empirical rank-frequency curve matches theory across seeds,
//! and the scrambled key stream covers the key space.

#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test inputs are tiny by construction (seed counts, page numbers, probe offsets), so index-type narrowing cannot truncate"
)]

use ft_apps::zipf::{scramble_rank, Zipfian};
use ft_sim::rng::SplitMix64;

/// Empirical frequencies of the hot ranks match `expected_prob` within a
/// few percent, for three unrelated seeds.
#[test]
fn zipfian_rank_frequency_matches_theory_across_seeds() {
    const N: u64 = 1024;
    const THETA: f64 = 0.99;
    const DRAWS: usize = 200_000;
    let zipf = Zipfian::new(N, THETA);
    for seed in [0x51AB_0001u64, 0xDEAD_0002, 0x0FF1_0003] {
        let mut rng = SplitMix64::new(seed);
        let mut counts = vec![0u64; N as usize];
        for _ in 0..DRAWS {
            counts[zipf.sample(rng.next_u64()) as usize] += 1;
        }
        // Ranks 0 and 1 are handled exactly by the Gray et al. quick-fit
        // (dedicated branch per rank), and rank 0 has p ≈ 0.10 at
        // θ=0.99/N=1024, so 200k draws put the ±4σ band well under 5%
        // relative error. Mid ranks go through the power-law
        // approximation, whose fit error dominates sampling noise — hold
        // those to 25%.
        for rank in 0..8 {
            let expected = zipf.expected_prob(rank) * DRAWS as f64;
            let got = counts[rank as usize] as f64;
            let rel = (got - expected).abs() / expected;
            let tol = if rank < 2 { 0.05 } else { 0.25 };
            assert!(
                rel < tol,
                "seed {seed:#x} rank {rank}: expected {expected:.0}, got {got:.0} ({rel:.3} rel)"
            );
        }
        // The tail in aggregate: ranks 64.. should carry their combined
        // theoretical mass within 10% (approximation error partially
        // cancels when summed over the tail).
        let tail_expected: f64 = (64..N).map(|r| zipf.expected_prob(r)).sum::<f64>() * DRAWS as f64;
        let tail_got: f64 = counts[64..].iter().sum::<u64>() as f64;
        assert!(
            (tail_got - tail_expected).abs() / tail_expected < 0.10,
            "seed {seed:#x} tail: expected {tail_expected:.0}, got {tail_got:.0}"
        );
        // Monotonicity of the head: empirical popularity must decrease
        // over the first few ranks (rank 0 the hottest).
        assert!(counts[0] > counts[1] && counts[1] > counts[2]);
    }
}

/// The rank scrambler preserves the frequency *distribution* while
/// decorrelating rank from key id: the hottest key is (almost surely)
/// not key 0, but some key still carries rank 0's mass.
#[test]
fn scrambled_keys_keep_the_zipfian_shape() {
    const KEY_SPACE: u64 = 1024;
    let zipf = Zipfian::new(KEY_SPACE, 0.99);
    let mut rng = SplitMix64::new(0x5CAB);
    let mut counts = vec![0u64; KEY_SPACE as usize];
    const DRAWS: usize = 100_000;
    for _ in 0..DRAWS {
        let key = scramble_rank(zipf.sample(rng.next_u64()), KEY_SPACE);
        counts[key as usize] += 1;
    }
    let hot_key = (0..KEY_SPACE).max_by_key(|&k| counts[k as usize]).unwrap();
    assert_eq!(hot_key, scramble_rank(0, KEY_SPACE));
    let expected = zipf.expected_prob(0) * DRAWS as f64;
    let got = counts[hot_key as usize] as f64;
    assert!(
        (got - expected).abs() / expected < 0.05,
        "hot key mass: expected {expected:.0}, got {got:.0}"
    );
}
