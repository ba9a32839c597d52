//! Summary statistics with confidence intervals.
//!
//! Experiment campaigns repeat each configuration over several seeds
//! ("the experiments are conducted multiple times", §III-C of the paper);
//! reporting a bare mean over 3 seeds invites over-reading. This module
//! computes the mean with its Student-t 95 % confidence interval, which
//! is the honest way to print small-sample results.

use std::fmt;

/// Mean, spread and a 95 % confidence interval of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct SampleSummary {
    /// Sample size.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected).
    pub std_dev: f64,
    /// Standard error of the mean.
    pub sem: f64,
    /// Half-width of the 95 % Student-t confidence interval
    /// (0 for n = 1 — no spread information).
    pub ci95_half_width: f64,
}

impl SampleSummary {
    /// The interval as `(low, high)`.
    pub fn ci95(&self) -> (f64, f64) {
        (
            self.mean - self.ci95_half_width,
            self.mean + self.ci95_half_width,
        )
    }

    /// Whether `value` lies inside the 95 % interval.
    pub fn contains(&self, value: f64) -> bool {
        let (lo, hi) = self.ci95();
        (lo..=hi).contains(&value)
    }
}

impl fmt::Display for SampleSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.n > 1 {
            write!(
                f,
                "{:.4} ± {:.4} (n={})",
                self.mean, self.ci95_half_width, self.n
            )
        } else {
            write!(f, "{:.4} (n=1)", self.mean)
        }
    }
}

/// Two-sided 97.5 % Student-t quantiles for small degrees of freedom
/// (≥ 30 approximated by the normal 1.96).
fn t_975(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        f64::INFINITY
    } else if df <= TABLE.len() {
        TABLE[df - 1]
    } else {
        1.96
    }
}

/// Summarizes a sample. `None` for an empty sample or one with
/// non-finite entries, so pipeline code over possibly-empty slices (a
/// bin no job landed in, a run where nothing completed) degrades to "no
/// data" instead of a panic or a NaN-poisoned table.
///
/// # Examples
///
/// ```
/// use lasmq_analysis::try_summarize;
///
/// let s = try_summarize(&[10.0, 12.0, 11.0]).unwrap();
/// assert_eq!(s.n, 3);
/// assert!((s.mean - 11.0).abs() < 1e-12);
/// assert!(s.contains(11.0));
///
/// assert!(try_summarize(&[]).is_none());
/// assert!(try_summarize(&[1.0, f64::NAN]).is_none());
/// assert_eq!(try_summarize(&[3.0]).unwrap().mean, 3.0);
/// ```
pub fn try_summarize(values: &[f64]) -> Option<SampleSummary> {
    if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let n = values.len();
    let mean = values.iter().sum::<f64>() / n as f64;
    if n == 1 {
        return Some(SampleSummary {
            n,
            mean,
            std_dev: 0.0,
            sem: 0.0,
            ci95_half_width: 0.0,
        });
    }
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64;
    let std_dev = var.sqrt();
    let sem = std_dev / (n as f64).sqrt();
    Some(SampleSummary {
        n,
        mean,
        std_dev,
        sem,
        ci95_half_width: t_975(n - 1) * sem,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_value_has_zero_spread() {
        let s = try_summarize(&[42.0]).unwrap();
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.ci95_half_width, 0.0);
        assert_eq!(s.ci95(), (42.0, 42.0));
        assert!(s.to_string().contains("n=1"));
    }

    #[test]
    fn textbook_example() {
        // n=5, values 2,4,4,4,6: mean 4, var 2, sd ~1.414, sem ~0.632,
        // t(4)=2.776 → half width ~1.756.
        let s = try_summarize(&[2.0, 4.0, 4.0, 4.0, 6.0]).unwrap();
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0f64.sqrt()).abs() < 1e-12);
        assert!((s.ci95_half_width - 2.776 * 2.0f64.sqrt() / 5.0f64.sqrt()).abs() < 1e-9);
        assert!(s.contains(4.0));
        assert!(!s.contains(10.0));
    }

    #[test]
    fn large_samples_use_the_normal_quantile() {
        let values: Vec<f64> = (0..100).map(|i| (i % 10) as f64).collect();
        let s = try_summarize(&values).unwrap();
        assert!((s.ci95_half_width - 1.96 * s.sem).abs() < 1e-12);
    }

    #[test]
    fn try_summarize_rejects_degenerate_inputs_without_panicking() {
        assert!(try_summarize(&[]).is_none());
        assert!(try_summarize(&[f64::NAN]).is_none());
        assert!(try_summarize(&[1.0, f64::INFINITY]).is_none());
        assert!(try_summarize(&[1.0, f64::NEG_INFINITY, 2.0]).is_none());
    }

    #[test]
    fn try_summarize_single_value_is_fully_finite() {
        // The single-job edge case: one completed job in a bin must
        // produce a usable summary, not NaN spread.
        let s = try_summarize(&[42.0]).unwrap();
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 42.0);
        assert!(s.std_dev == 0.0 && s.sem == 0.0 && s.ci95_half_width == 0.0);
        assert!(s.ci95().0.is_finite() && s.ci95().1.is_finite());
        assert_eq!(Some(s), try_summarize(&[42.0]));
    }
}
