//! Correlation analysis (paper §IV.A, equation (2)).
//!
//! The paper scores each metric by the Pearson correlation coefficient
//! between the metric's values and the application execution times over a
//! sweep of I/O access cases, then *normalizes* the sign: "If the value for
//! each I/O metric showed a consistent correlation direction with the
//! expected one listed in Table 1, we recorded it with a positive value;
//! otherwise, we recorded it with a negative value."
//!
//! So a normalized CC near +1 means "strong and in the right direction"; a
//! negative normalized CC is the paper's smoking gun for a misleading metric
//! (e.g. IOPS in Fig. 5, ARPT in Fig. 9/11, BW in Fig. 12).

use crate::error::CoreError;
use crate::metrics::Direction;

/// Result of scoring one metric against execution time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CcOutcome {
    /// Raw Pearson CC between metric values and execution times.
    pub raw: f64,
    /// Sign-normalized CC: positive iff the observed direction matches the
    /// expected one.
    pub normalized: f64,
    /// Whether the observed direction matched Table 1's expectation.
    pub direction_correct: bool,
}

/// Pearson correlation coefficient (the paper's equation (2)).
///
/// Returns an error for mismatched/too-short series and for series with zero
/// variance (CC undefined).
///
/// ```
/// use bps_core::correlation::pearson;
/// let time = [10.0, 20.0, 30.0];
/// let throughput = [30.0, 15.0, 10.0];
/// assert!(pearson(&throughput, &time).unwrap() < -0.9);
/// ```
pub fn pearson(x: &[f64], y: &[f64]) -> Result<f64, CoreError> {
    if x.len() != y.len() || x.len() < 2 {
        return Err(CoreError::BadSeries {
            x_len: x.len(),
            y_len: y.len(),
        });
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&xi, &yi) in x.iter().zip(y) {
        let dx = xi - mx;
        let dy = yi - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return Err(CoreError::ZeroVariance);
    }
    // Clamp against floating-point excursions slightly outside [-1, 1].
    Ok((sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0))
}

/// Spearman rank correlation: Pearson over the rank-transformed series.
/// Robust to monotone nonlinearity; used as a cross-check in the experiment
/// harness (the paper uses Pearson only).
pub fn spearman(x: &[f64], y: &[f64]) -> Result<f64, CoreError> {
    if x.len() != y.len() || x.len() < 2 {
        return Err(CoreError::BadSeries {
            x_len: x.len(),
            y_len: y.len(),
        });
    }
    pearson(&ranks(x), &ranks(y))
}

/// Kendall's tau-a: concordant-vs-discordant pair fraction. O(n²), fine for
/// the handful of sweep points per figure.
pub fn kendall_tau(x: &[f64], y: &[f64]) -> Result<f64, CoreError> {
    if x.len() != y.len() || x.len() < 2 {
        return Err(CoreError::BadSeries {
            x_len: x.len(),
            y_len: y.len(),
        });
    }
    let n = x.len();
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let sx = (x[i] - x[j]).partial_cmp(&0.0).expect("finite values");
            let sy = (y[i] - y[j]).partial_cmp(&0.0).expect("finite values");
            use std::cmp::Ordering::*;
            match (sx, sy) {
                (Equal, _) | (_, Equal) => {}
                (a, b) if a == b => concordant += 1,
                _ => discordant += 1,
            }
        }
    }
    let pairs = (n * (n - 1) / 2) as f64;
    if pairs == 0.0 {
        return Err(CoreError::ZeroVariance);
    }
    Ok((concordant - discordant) as f64 / pairs)
}

/// Average ranks (ties get the mean of their positions), 1-based.
fn ranks(v: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..v.len()).collect();
    idx.sort_by(|&a, &b| v[a].partial_cmp(&v[b]).expect("finite values"));
    let mut out = vec![0.0; v.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && v[idx[j + 1]] == v[idx[i]] {
            j += 1;
        }
        // Positions i..=j share the value; assign the mean rank.
        let mean_rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = mean_rank;
        }
        i = j + 1;
    }
    out
}

/// Score a metric series against execution times, applying the paper's
/// Table 1 direction normalization.
///
/// `expected` is the direction the metric *should* correlate with execution
/// time. The normalized value is `|raw|` when the observed sign matches the
/// expected one and `-|raw|` otherwise — exactly the bars plotted in the
/// paper's Figures 4–6, 9, 11 and 12.
pub fn normalized_cc(
    metric_values: &[f64],
    exec_times: &[f64],
    expected: Direction,
) -> Result<CcOutcome, CoreError> {
    let raw = pearson(metric_values, exec_times)?;
    let direction_correct = raw * expected.sign() >= 0.0;
    let normalized = if direction_correct {
        raw.abs()
    } else {
        -raw.abs()
    };
    Ok(CcOutcome {
        raw,
        normalized,
        direction_correct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_linear_correlation() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 1.0).collect();
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let y_neg: Vec<f64> = x.iter().map(|v| -2.0 * v + 7.0).collect();
        assert!((pearson(&x, &y_neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn symmetric_and_bounded() {
        let x = [1.0, 5.0, 2.0, 8.0, 3.0];
        let y = [2.0, 1.0, 9.0, 4.0, 4.0];
        let a = pearson(&x, &y).unwrap();
        let b = pearson(&y, &x).unwrap();
        assert!((a - b).abs() < 1e-12);
        assert!((-1.0..=1.0).contains(&a));
    }

    #[test]
    fn degenerate_inputs_error() {
        assert!(matches!(
            pearson(&[1.0], &[1.0]),
            Err(CoreError::BadSeries { .. })
        ));
        assert!(matches!(
            pearson(&[1.0, 2.0], &[1.0, 2.0, 3.0]),
            Err(CoreError::BadSeries { .. })
        ));
        assert!(matches!(
            pearson(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]),
            Err(CoreError::ZeroVariance)
        ));
    }

    #[test]
    fn spearman_monotone_nonlinear_is_one() {
        let x = [1.0f64, 2.0, 3.0, 4.0, 5.0];
        let y: Vec<f64> = x.iter().map(|v| v.exp()).collect();
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        // Pearson on the same data is < 1 (nonlinear).
        assert!(pearson(&x, &y).unwrap() < 1.0);
    }

    #[test]
    fn spearman_handles_ties() {
        let x = [1.0, 1.0, 2.0, 3.0];
        let y = [1.0, 1.0, 2.0, 3.0];
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kendall_signs() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let up: Vec<f64> = x.to_vec();
        let down: Vec<f64> = x.iter().map(|v| -v).collect();
        assert!((kendall_tau(&x, &up).unwrap() - 1.0).abs() < 1e-12);
        assert!((kendall_tau(&x, &down).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalization_matches_paper_convention() {
        let exec = [10.0, 20.0, 30.0, 40.0];
        // A throughput metric falling as time rises: correct direction.
        let good = [4.0, 3.0, 2.0, 1.0];
        let out = normalized_cc(&good, &exec, Direction::Negative).unwrap();
        assert!(out.direction_correct);
        assert!(out.normalized > 0.99);

        // The same metric values scored as a latency metric (expected
        // positive): wrong direction, recorded negative.
        let out = normalized_cc(&good, &exec, Direction::Positive).unwrap();
        assert!(!out.direction_correct);
        assert!(out.normalized < -0.99);
        assert!((out.normalized + out.raw.abs()).abs() < 1e-12);
    }

    #[test]
    fn ranks_average_ties() {
        assert_eq!(ranks(&[10.0, 20.0, 20.0, 30.0]), vec![1.0, 2.5, 2.5, 4.0]);
    }
}
