//! Statistics helpers for reporting experiments.

/// Quantiles reported for CDF-style figures (5(a), 5(c), 6(a), 6(c)).
pub const CDF_QUANTILES: [f64; 7] = [0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99];

/// Mean of a slice; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Linear-interpolated `q`-quantile of unsorted data; `None` when empty.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile must lie in [0, 1]");
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.len() == 1 {
        return Some(sorted[0]);
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Percentage reduction of `ours` relative to `baseline`
/// ("reduce the average job response time … by up to 45%").
pub fn reduction_pct(baseline: f64, ours: f64) -> f64 {
    if baseline <= 0.0 {
        return 0.0;
    }
    (1.0 - ours / baseline) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_percentile_basics() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&v), Some(2.5));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(percentile(&v, 0.5), Some(2.5));
        assert_eq!(mean(&[]), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_handles_unsorted_input() {
        let v = [9.0, 1.0, 5.0];
        assert_eq!(percentile(&v, 0.5), Some(5.0));
    }

    #[test]
    fn normalization_and_reduction() {
        // Fair at 100 s, ours at 55 s: a 45% reduction.
        assert!((reduction_pct(100.0, 55.0) - 45.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "lie in [0, 1]")]
    fn out_of_range_quantile_panics() {
        let _ = percentile(&[1.0], 1.5);
    }
}
