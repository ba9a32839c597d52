//! Extension experiment: the price of bad size estimates.
//!
//! The paper's entire premise (§II) is that size-based schedulers are only
//! as good as their estimates, and that estimation errors are asymmetric:
//! an under-estimated large job "may be placed ahead of other smaller jobs
//! and delay all of them", while over-estimates mostly delay the job
//! itself (§III-B, citing Dell'Amico et al.). This experiment makes that
//! quantitative on the heavy-tailed trace: perfect oracles (SRTF, SJF)
//! versus SJF over increasingly corrupted estimates, versus the
//! estimate-free schedulers (LAS_MQ, LAS, Fair).
//!
//! Expected shape: mild unbiased noise barely hurts SJF (decade-scale size
//! differences survive σ ≤ 1); heavy noise (σ = 2, a realistic error level
//! for predicting stages that have not started, §II) erases the oracle's
//! advantage entirely — LAS_MQ beats it *without any estimates*; and a
//! mere 5 % of gross under-estimates leaves the mean deceptively intact
//! while blowing up the p99 tail (the mis-filed giants delay everything
//! that queues behind them) — the asymmetry §III-B describes.

use crate::scale::Scale;
use crate::table::{fmt_num, TextTable};

use lasmq_campaign::{Campaign, ExecOptions, RunCell, SchedulerKind, SimSetup, WorkloadSpec};

/// One estimator variant's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimationRow {
    /// Display label.
    pub label: String,
    /// Mean response time in seconds.
    pub mean_response: f64,
    /// 99th-percentile response time in seconds.
    pub p99_response: f64,
}

/// The experiment's output.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimationResult {
    /// Rows in presentation order.
    pub rows: Vec<EstimationRow>,
}

impl EstimationResult {
    /// The row for a label.
    pub fn row(&self, label: &str) -> Option<&EstimationRow> {
        self.rows.iter().find(|r| r.label == label)
    }

    /// The rendered table.
    pub fn tables(&self) -> Vec<TextTable> {
        let mut t = TextTable::new(
            "Extension: the price of bad size estimates (heavy-tailed trace)",
            vec![
                "scheduler".into(),
                "mean response (s)".into(),
                "p99 response (s)".into(),
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.label.clone(),
                fmt_num(r.mean_response),
                fmt_num(r.p99_response),
            ]);
        }
        vec![t]
    }
}

/// The estimator lineup, from perfectly informed to grossly misinformed to
/// estimate-free.
pub fn lineup(seed: u64) -> Vec<(String, SchedulerKind)> {
    let est = |sigma: f64, gross: f64| SchedulerKind::SjfEstimated {
        sigma,
        gross_underestimate_prob: gross,
        seed,
    };
    vec![
        ("SRTF (perfect)".into(), SchedulerKind::Srtf),
        ("SJF (perfect)".into(), SchedulerKind::Sjf),
        ("SJF-est σ=0.5".into(), est(0.5, 0.0)),
        ("SJF-est σ=1".into(), est(1.0, 0.0)),
        ("SJF-est σ=2".into(), est(2.0, 0.0)),
        ("SJF-est σ=1 + 5% gross-under".into(), est(1.0, 0.05)),
        (
            "LAS_MQ (no estimates)".into(),
            SchedulerKind::las_mq_simulations(),
        ),
        ("LAS (no estimates)".into(), SchedulerKind::Las),
        ("FAIR".into(), SchedulerKind::Fair),
    ]
}

/// Runs the experiment as one campaign under `exec`.
pub fn run(scale: &Scale, exec: &ExecOptions) -> EstimationResult {
    let workload = WorkloadSpec::Facebook {
        jobs: scale.facebook_jobs,
        seed: scale.seed,
        load: None,
    };
    let lineup = lineup(scale.seed);
    let mut campaign = Campaign::new("ext_estimation");
    for (label, kind) in &lineup {
        campaign.push(RunCell::new(
            format!("ext_estimation/{label}"),
            kind.clone(),
            workload.clone(),
            SimSetup::trace_sim(),
        ));
    }
    let result = campaign.run(exec);

    let rows = lineup
        .into_iter()
        .zip(&result.reports)
        .map(|((label, _), report)| EstimationRow {
            label,
            mean_response: report.mean_response_secs().unwrap_or(f64::NAN),
            p99_response: report.response_percentile(0.99).unwrap_or(f64::NAN),
        })
        .collect();
    EstimationResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_quality_orders_outcomes() {
        // Gross under-estimates only bite when a *large* job gets
        // mis-filed; at 5 % over a heavy tail that needs a few thousand
        // jobs to happen reliably, so this test runs above Scale::test.
        let scale = Scale {
            facebook_jobs: 8_000,
            ..Scale::test()
        };
        let r = run(&scale, &ExecOptions::default().no_cache());
        let mean = |label: &str| r.row(label).unwrap().mean_response;
        let p99 = |label: &str| r.row(label).unwrap().p99_response;

        // Perfect information wins; SRTF ≤ SJF.
        assert!(mean("SRTF (perfect)") <= mean("SJF (perfect)") * 1.05);
        // Noise degrades the estimator monotonically (mild tolerance for
        // sampling effects at test scale).
        assert!(mean("SJF-est σ=1") >= mean("SJF (perfect)") * 0.95);
        assert!(
            mean("SJF-est σ=2") > mean("SJF-est σ=1"),
            "σ=2 {} vs σ=1 {}",
            mean("SJF-est σ=2"),
            mean("SJF-est σ=1"),
        );
        // Gross under-estimates blow up the tail relative to clean noise.
        assert!(
            p99("SJF-est σ=1 + 5% gross-under") > p99("SJF-est σ=1"),
            "gross p99 {} vs clean p99 {}",
            p99("SJF-est σ=1 + 5% gross-under"),
            p99("SJF-est σ=1"),
        );
        // LAS_MQ without any estimates beats the heavily misinformed SJF
        // and Fair.
        assert!(
            mean("LAS_MQ (no estimates)") < mean("SJF-est σ=2") * 1.05,
            "LAS_MQ {} vs σ=2 SJF {}",
            mean("LAS_MQ (no estimates)"),
            mean("SJF-est σ=2"),
        );
        assert!(mean("LAS_MQ (no estimates)") < mean("FAIR"));
        assert_eq!(r.tables()[0].row_count(), 9);
    }
}
