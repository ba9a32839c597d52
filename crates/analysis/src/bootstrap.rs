//! Seeded percentile bootstrap.
//!
//! Response-time distributions are heavy-tailed, so normal-theory
//! intervals around statistics like the p99 are unreliable. The
//! percentile bootstrap resamples the data with replacement and reads the
//! interval off the resampled statistic's empirical distribution — no
//! distributional assumption, works for any statistic. Resampling uses a
//! splitmix64 stream keyed by an explicit seed, keeping campaign reports
//! reproducible without threading an RNG through the analysis.

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A bootstrap confidence interval for an arbitrary statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct BootstrapCi {
    /// The statistic on the original sample.
    pub point: f64,
    /// Lower CI bound.
    pub low: f64,
    /// Upper CI bound.
    pub high: f64,
    /// Number of resamples used.
    pub resamples: usize,
}

/// Percentile-bootstrap CI of `statistic` over `values` at the given
/// `confidence` (e.g. 0.95), using `resamples` resamples seeded by `seed`.
/// `None` for an empty or non-finite sample, zero resamples, or a
/// confidence outside `(0, 1)`.
///
/// # Examples
///
/// ```
/// use lasmq_analysis::try_bootstrap_ci;
///
/// let data: Vec<f64> = (1..=100).map(f64::from).collect();
/// let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
/// let ci = try_bootstrap_ci(&data, mean, 0.95, 1_000, 7).unwrap();
/// assert!(ci.low < 50.5 && 50.5 < ci.high);
///
/// assert!(try_bootstrap_ci(&[], mean, 0.95, 100, 0).is_none());
/// let ci = try_bootstrap_ci(&[5.0], mean, 0.95, 100, 0).unwrap();
/// assert_eq!((ci.low, ci.point, ci.high), (5.0, 5.0, 5.0));
/// ```
pub fn try_bootstrap_ci(
    values: &[f64],
    statistic: impl Fn(&[f64]) -> f64,
    confidence: f64,
    resamples: usize,
    seed: u64,
) -> Option<BootstrapCi> {
    if values.is_empty()
        || values.iter().any(|v| !v.is_finite())
        || resamples == 0
        || !(confidence > 0.0 && confidence < 1.0)
    {
        return None;
    }
    let n = values.len();
    let point = statistic(values);
    let mut stats = Vec::with_capacity(resamples);
    let mut state = seed ^ 0x5bf0_3635;
    let mut resample = vec![0.0; n];
    for _ in 0..resamples {
        for slot in resample.iter_mut() {
            state = splitmix64(state);
            *slot = values[(state % n as u64) as usize];
        }
        stats.push(statistic(&resample));
    }
    stats.sort_by(f64::total_cmp);
    let alpha = (1.0 - confidence) / 2.0;
    let idx =
        |q: f64| -> usize { ((q * (resamples - 1) as f64).round() as usize).min(resamples - 1) };
    Some(BootstrapCi {
        point,
        low: stats[idx(alpha)],
        high: stats[idx(1.0 - alpha)],
        resamples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean(s: &[f64]) -> f64 {
        s.iter().sum::<f64>() / s.len() as f64
    }

    #[test]
    fn interval_brackets_the_point_estimate() {
        let data: Vec<f64> = (0..200).map(|i| (i % 13) as f64).collect();
        let ci = try_bootstrap_ci(&data, mean, 0.95, 500, 1).unwrap();
        assert!(ci.low <= ci.point && ci.point <= ci.high);
        assert!(ci.high - ci.low < 2.0, "interval too wide: {ci:?}");
    }

    #[test]
    fn deterministic_per_seed() {
        let data: Vec<f64> = (0..50).map(f64::from).collect();
        let a = try_bootstrap_ci(&data, mean, 0.9, 200, 42);
        let b = try_bootstrap_ci(&data, mean, 0.9, 200, 42);
        let c = try_bootstrap_ci(&data, mean, 0.9, 200, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn works_for_tail_statistics() {
        // p90 of a long-tailed sample.
        let mut data: Vec<f64> = vec![1.0; 95];
        data.extend(vec![100.0; 5]);
        let p90 = |s: &[f64]| {
            let mut v = s.to_vec();
            v.sort_by(f64::total_cmp);
            v[(0.9 * (v.len() - 1) as f64) as usize]
        };
        let ci = try_bootstrap_ci(&data, p90, 0.95, 400, 3).unwrap();
        assert!(ci.point == 1.0 || ci.point == 100.0);
        assert!(ci.low <= ci.high);
    }

    #[test]
    fn wider_confidence_is_wider() {
        let data: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64).collect();
        let narrow = try_bootstrap_ci(&data, mean, 0.5, 800, 9).unwrap();
        let wide = try_bootstrap_ci(&data, mean, 0.99, 800, 9).unwrap();
        assert!(wide.high - wide.low >= narrow.high - narrow.low);
    }

    #[test]
    fn try_bootstrap_rejects_degenerate_inputs_without_panicking() {
        assert!(try_bootstrap_ci(&[], mean, 0.9, 10, 0).is_none());
        assert!(try_bootstrap_ci(&[1.0, f64::NAN], mean, 0.9, 10, 0).is_none());
        assert!(try_bootstrap_ci(&[1.0], mean, 0.9, 0, 0).is_none());
        assert!(try_bootstrap_ci(&[1.0], mean, 1.5, 10, 0).is_none());
        assert!(try_bootstrap_ci(&[1.0], mean, 0.0, 10, 0).is_none());
    }

    #[test]
    fn try_bootstrap_single_value_collapses_to_the_point() {
        // The single-job edge case: every resample of a one-element
        // sample is that element, so the interval is degenerate but
        // finite — no NaN anywhere.
        let ci = try_bootstrap_ci(&[7.5], mean, 0.95, 50, 3).unwrap();
        assert_eq!((ci.low, ci.point, ci.high), (7.5, 7.5, 7.5));
    }
}
