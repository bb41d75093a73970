//! Order statistics for host timings: medians and quartiles, computed the
//! way Python's `statistics.quantiles(values, n=4)` does (the exclusive
//! method), so a spread printed here is the spread the contract's own
//! check computes.

/// `(q1, median, q3)` of `values`. One sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quantiles() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        let v = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
        assert_eq!(quartiles(&v), (3.5, 13.5, 31.0));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[5.0, 1.0]), (0.0, 3.0, 6.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
