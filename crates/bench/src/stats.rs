//! Deterministic order statistics for the campaign reports.
//!
//! The MTTR columns of `BENCH_avail.json` are percentiles over integer
//! nanosecond samples. Because the reports are byte-identity-asserted in
//! CI, the quantile definition must be exact and free of floating-point
//! environment sensitivity: this module implements the *nearest-rank*
//! percentile (the smallest sample with at least `pct`% of the samples at
//! or below it) in pure integer arithmetic.

/// The nearest-rank `pct`-th percentile of `values` (unsorted is fine).
///
/// For `n` samples the rank is `ceil(n * pct / 100)`, clamped to at
/// least one, and the result is the rank-th smallest sample — so `pct =
/// 50` is the median's upper variant, `pct = 100` the maximum. Returns
/// 0 for an empty slice (the campaign renders that as "no incidents").
///
/// # Panics
///
/// Panics if `pct` is 0 or greater than 100.
pub fn percentile(values: &[u64], pct: u32) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    percentile_sorted(&sorted, pct)
}

/// As [`percentile`], over an already ascending-sorted slice.
fn percentile_sorted(sorted: &[u64], pct: u32) -> u64 {
    assert!((1..=100).contains(&pct), "percentile must be in 1..=100");
    let n = sorted.len();
    if n == 0 {
        return 0;
    }
    // ceil(n * pct / 100) in integer arithmetic; n * pct fits u64 far
    // beyond any sample count the campaign produces.
    let rank = (n as u64 * u64::from(pct)).div_ceil(100).max(1);
    let rank = usize::try_from(rank).expect("rank <= n, which is a usize");
    sorted[rank - 1]
}

/// The requested percentiles of `values`, sorted once.
pub(crate) fn percentiles(values: &[u64], pcts: &[u32]) -> Vec<u64> {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    pcts.iter()
        .map(|&p| percentile_sorted(&sorted, p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_values_on_one_to_hundred() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 1), 1);
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 95), 95);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
    }

    #[test]
    fn input_order_is_irrelevant() {
        let v = vec![30u64, 10, 50, 20, 40];
        assert_eq!(percentile(&v, 50), 30); // rank ceil(5*50/100) = 3.
        assert_eq!(percentile(&v, 95), 50); // rank ceil(5*95/100) = 5.
        assert_eq!(percentile(&v, 20), 10); // rank exactly 1.
        assert_eq!(percentile(&v, 21), 20); // rank ceil(1.05) = 2.
    }

    #[test]
    fn small_and_degenerate_inputs() {
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 1), 7);
        assert_eq!(percentile(&[7], 100), 7);
        let two = [3u64, 9];
        assert_eq!(percentile(&two, 50), 3); // rank ceil(1.0) = 1.
        assert_eq!(percentile(&two, 51), 9); // rank ceil(1.02) = 2.
    }

    #[test]
    fn duplicates_and_extremes() {
        let v = vec![5u64; 1000];
        assert_eq!(percentile(&v, 99), 5);
        let v = vec![0, u64::MAX];
        assert_eq!(percentile(&v, 100), u64::MAX);
    }

    #[test]
    fn percentiles_batch_matches_singles() {
        let v: Vec<u64> = (0..977).map(|i| (i * 7919) % 1000).collect();
        let batch = percentiles(&v, &[50, 95, 99]);
        assert_eq!(
            batch,
            vec![percentile(&v, 50), percentile(&v, 95), percentile(&v, 99)]
        );
    }

    #[test]
    fn nearest_rank_is_pinned_for_tiny_samples() {
        // n = 0: no samples — every percentile renders as 0 ("no
        // incidents"), not a panic and not an index underflow.
        for pct in 1..=100 {
            assert_eq!(percentile(&[], pct), 0, "n=0 pct {pct}");
        }
        assert_eq!(percentiles(&[], &[50, 95, 99]), vec![0, 0, 0]);
        // n = 1: rank ceil(pct/100) = 1 for every pct — always the
        // lone sample, from p1 through p100.
        for pct in 1..=100 {
            assert_eq!(percentile(&[42], pct), 42, "n=1 pct {pct}");
        }
        // n = 2: rank ceil(2·pct/100) crosses 1 → 2 exactly after
        // pct 50 — the nearest-rank median of two is the *lower*
        // sample, regardless of input order.
        for pct in 1..=50 {
            assert_eq!(percentile(&[9, 3], pct), 3, "n=2 pct {pct}");
        }
        for pct in 51..=100 {
            assert_eq!(percentile(&[9, 3], pct), 9, "n=2 pct {pct}");
        }
    }

    #[test]
    #[should_panic(expected = "1..=100")]
    fn zero_percentile_panics() {
        percentile(&[1], 0);
    }

    #[test]
    #[should_panic(expected = "1..=100")]
    fn over_hundred_panics() {
        percentile(&[1], 101);
    }
}
