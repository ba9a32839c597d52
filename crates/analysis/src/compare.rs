//! Paired comparisons between schedulers across seeds.
//!
//! The right way to compare two schedulers on seeded workloads is
//! *paired*: run both on the same seeds and analyze the per-seed
//! differences, cancelling workload-to-workload variance. A confidence
//! interval on the mean difference that excludes zero is evidence the
//! gap is real, not seed luck.

use crate::summary::{try_summarize, SampleSummary};

/// The result of a paired comparison `a − b` across seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct PairedComparison {
    /// Summary of the per-seed differences `a_i − b_i`.
    pub difference: SampleSummary,
    /// Mean of `a`.
    pub mean_a: f64,
    /// Mean of `b`.
    pub mean_b: f64,
}

impl PairedComparison {
    /// Whether the 95 % interval of the difference excludes zero — i.e.
    /// the sign of the gap is statistically resolved at this sample size.
    /// A single pair carries no spread information and is never
    /// significant.
    pub fn is_significant(&self) -> bool {
        if self.difference.n < 2 {
            return false;
        }
        let (lo, hi) = self.difference.ci95();
        lo > 0.0 || hi < 0.0
    }

    /// Relative improvement of `a` over `b` in percent
    /// (`(b − a) / b × 100`; positive when `a` is smaller/better for
    /// lower-is-better metrics).
    pub fn improvement_pct(&self) -> f64 {
        if self.mean_b == 0.0 {
            0.0
        } else {
            (self.mean_b - self.mean_a) / self.mean_b * 100.0
        }
    }
}

/// Pairs `a` and `b` by index (same seed at the same position) and
/// summarizes their differences. `None` when the slices differ in
/// length, are empty, or contain non-finite values — the shapes that
/// arise naturally when a campaign produced no completed repetitions for
/// one of the two schedulers.
///
/// # Examples
///
/// ```
/// use lasmq_analysis::try_paired_compare;
///
/// // LAS_MQ vs Fair mean responses over 4 seeds.
/// let las_mq = [820.0, 790.0, 860.0, 810.0];
/// let fair = [1400.0, 1350.0, 1490.0, 1380.0];
/// let cmp = try_paired_compare(&las_mq, &fair).unwrap();
/// assert!(cmp.is_significant());
/// assert!(cmp.improvement_pct() > 40.0);
///
/// assert!(try_paired_compare(&[], &[]).is_none());
/// assert!(try_paired_compare(&[1.0], &[1.0, 2.0]).is_none());
/// let cmp = try_paired_compare(&[1.0, 2.0], &[3.0, 4.0]).unwrap();
/// assert_eq!(cmp.difference.mean, -2.0);
/// ```
pub fn try_paired_compare(a: &[f64], b: &[f64]) -> Option<PairedComparison> {
    if a.len() != b.len() || a.is_empty() {
        return None;
    }
    let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    Some(PairedComparison {
        difference: try_summarize(&diffs)?,
        mean_a: a.iter().sum::<f64>() / a.len() as f64,
        mean_b: b.iter().sum::<f64>() / b.len() as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistent_gaps_are_significant() {
        let a = [1.0, 1.1, 0.9, 1.0, 1.05];
        let b = [2.0, 2.1, 1.9, 2.0, 2.05];
        let cmp = try_paired_compare(&a, &b).unwrap();
        assert!(cmp.is_significant());
        assert!((cmp.improvement_pct() - 50.0).abs() < 2.0);
        assert!(cmp.difference.mean < 0.0);
    }

    #[test]
    fn noisy_overlapping_samples_are_not() {
        let a = [1.0, 3.0, 2.0, 1.5];
        let b = [2.0, 1.0, 2.5, 2.0];
        let cmp = try_paired_compare(&a, &b).unwrap();
        assert!(!cmp.is_significant());
    }

    #[test]
    fn try_paired_compare_degrades_instead_of_panicking() {
        assert!(try_paired_compare(&[], &[]).is_none());
        assert!(try_paired_compare(&[1.0], &[]).is_none());
        assert!(try_paired_compare(&[1.0], &[1.0, 2.0]).is_none());
        assert!(try_paired_compare(&[1.0, f64::NAN], &[2.0, 3.0]).is_none());

        // A single pair is usable: never significant (n=1 carries no
        // spread information), never NaN.
        let cmp = try_paired_compare(&[1.0], &[5.0]).unwrap();
        assert!(!cmp.is_significant());
        assert_eq!(cmp.difference.mean, -4.0);
        assert!(cmp.improvement_pct().is_finite());
    }
}
