//! Order statistics over per-pass samples.

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) and
/// `statistics.median` give them. One sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), median, cut(3))
}

/// The median of the samples.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The highest of p90, p80 and p50 (nearest rank) that has at least
/// `min_beyond` samples above its rank, with its name; `None` when even
/// the median has too few samples beyond it.
pub fn tail(values: &[f64], min_beyond: usize) -> Option<(&'static str, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [("p90", 90), ("p80", 80), ("p50", 50)]
        .into_iter()
        .find_map(|(name, p)| {
            let rank = (p * n).div_ceil(100).max(1);
            (n >= rank && n - rank >= min_beyond).then(|| (name, v[rank - 1]))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 10), Some(("p90", 90.0)));
        let v: Vec<f64> = (1..=55).map(f64::from).collect();
        assert_eq!(tail(&v, 10), Some(("p80", 44.0)));
        assert_eq!(tail(&[1.0, 2.0, 3.0], 10), None);
    }
}
