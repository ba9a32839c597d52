//! Extension experiment: the fairness knob (§VII of the paper).
//!
//! The paper's discussion proposes "a tunable parameter to make the
//! tradeoff [between fairness and job response times] and flexibly adjust
//! the performance as needed". The queue-weight ratio *is* that knob:
//! equal weights treat the queues evenly (gentlest to demoted large jobs),
//! growing geometric ratios concentrate capacity on the top queues, and
//! strict priority is the limit. This experiment sweeps it on the
//! heavy-tailed trace and reports both sides.
//!
//! A finding worth stating plainly: **at load 0.9 on this trace, the
//! sweep is one-sided** — harsher settings improve the mean *and* the
//! large-job slowdowns, because the top queues drain often enough that
//! the last queue is rarely starved, while gentle weights permanently tax
//! the small jobs. Only the worst-case giant (max slowdown) degrades
//! under strict priority, and only at loads ≳ 0.95. The knob therefore
//! earns its keep as *insurance* against sustained top-queue pressure,
//! exactly why the paper defaults to weighted sharing rather than strict
//! priority (§III-A) — not as a free lunch.

use lasmq_campaign::{Campaign, ExecOptions, RunCell, SchedulerKind, SimSetup, WorkloadSpec};
use lasmq_core::{LasMqConfig, QueueSharing, QueueWeights};

use crate::scale::Scale;
use crate::table::{fmt_num, TextTable};

/// One knob setting's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessRow {
    /// Knob label.
    pub label: String,
    /// Mean response time (s) — the performance side.
    pub mean_response: f64,
    /// Mean slowdown — the fairness side.
    pub mean_slowdown: f64,
    /// 99th-percentile slowdown — the tail of the fairness side.
    pub p99_slowdown: f64,
    /// Mean slowdown of the largest 1 % of jobs — the population a harsh
    /// knob setting would starve.
    pub large_job_slowdown: f64,
    /// Worst-case slowdown across all jobs — where starvation appears
    /// first.
    pub max_slowdown: f64,
}

/// The experiment's output.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessResult {
    /// Rows from gentlest (equal) to harshest (strict priority).
    pub rows: Vec<FairnessRow>,
}

impl FairnessResult {
    /// The row for a label.
    pub fn row(&self, label: &str) -> Option<&FairnessRow> {
        self.rows.iter().find(|r| r.label == label)
    }

    /// The rendered table.
    pub fn tables(&self) -> Vec<TextTable> {
        let mut t = TextTable::new(
            "Extension: fairness knob — queue weights trade response time vs slowdown",
            vec![
                "queue weights".into(),
                "mean response (s)".into(),
                "mean slowdown".into(),
                "p99 slowdown".into(),
                "largest-1% slowdown".into(),
                "max slowdown".into(),
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.label.clone(),
                fmt_num(r.mean_response),
                fmt_num(r.mean_slowdown),
                fmt_num(r.p99_slowdown),
                fmt_num(r.large_job_slowdown),
                fmt_num(r.max_slowdown),
            ]);
        }
        vec![t]
    }
}

/// The swept knob settings, gentlest first.
pub fn knob_settings() -> Vec<(String, LasMqConfig)> {
    let base = LasMqConfig::paper_simulations();
    let mut settings = vec![(
        "equal".to_string(),
        base.clone().with_weights(QueueWeights::Equal),
    )];
    for ratio in [1.5, 2.0, 4.0, 8.0] {
        settings.push((
            format!("geometric r={ratio}"),
            base.clone().with_weights(QueueWeights::Geometric { ratio }),
        ));
    }
    settings.push((
        "strict priority".to_string(),
        base.with_sharing(QueueSharing::StrictPriority),
    ));
    settings
}

/// Runs the sweep as one campaign under `exec`.
pub fn run(scale: &Scale, exec: &ExecOptions) -> FairnessResult {
    let workload = WorkloadSpec::Facebook {
        jobs: scale.facebook_jobs,
        seed: scale.seed,
        load: None,
    };
    let settings = knob_settings();
    let mut campaign = Campaign::new("ext_fairness");
    for (label, config) in &settings {
        campaign.push(RunCell::new(
            format!("ext_fairness/{label}"),
            SchedulerKind::LasMq(config.clone()),
            workload.clone(),
            SimSetup::trace_sim(),
        ));
    }
    let result = campaign.run(exec);

    let rows = settings
        .into_iter()
        .zip(&result.reports)
        .map(|((label, _), report)| {
            let slowdowns = report.slowdown_cdf();
            let p99 = crate::stats::percentile(&slowdowns, 0.99).unwrap_or(f64::NAN);
            // The largest 1% of jobs by true size: the knob's victims.
            let sizes: Vec<f64> = report
                .outcomes()
                .iter()
                .map(|o| o.true_size.as_container_secs())
                .collect();
            let cutoff = crate::stats::percentile(&sizes, 0.99).unwrap_or(f64::INFINITY);
            let large: Vec<f64> = report
                .outcomes()
                .iter()
                .filter(|o| o.true_size.as_container_secs() >= cutoff)
                .filter_map(|o| o.slowdown())
                .collect();
            let max_slowdown = slowdowns.last().copied().unwrap_or(f64::NAN);
            FairnessRow {
                label,
                mean_response: report.mean_response_secs().unwrap_or(f64::NAN),
                mean_slowdown: report.mean_slowdown().unwrap_or(f64::NAN),
                p99_slowdown: p99,
                large_job_slowdown: crate::stats::mean(&large).unwrap_or(f64::NAN),
                max_slowdown,
            }
        })
        .collect();
    FairnessResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_the_knob_range() {
        let settings = knob_settings();
        assert_eq!(settings.len(), 6);
        assert_eq!(settings[0].0, "equal");
        assert_eq!(settings[5].0, "strict priority");
    }

    #[test]
    fn every_setting_completes_with_finite_metrics() {
        let r = run(&Scale::test(), &ExecOptions::default().no_cache());
        assert_eq!(r.rows.len(), 6);
        for row in &r.rows {
            assert!(row.mean_response.is_finite(), "{}", row.label);
            assert!(row.mean_slowdown >= 1.0, "{}", row.label);
            assert!(row.p99_slowdown >= row.mean_slowdown * 0.5, "{}", row.label);
            assert!(row.large_job_slowdown >= 1.0, "{}", row.label);
            assert!(
                row.max_slowdown >= row.large_job_slowdown * 0.5,
                "{}",
                row.label
            );
        }
        // The documented one-sidedness at moderate load: harsher settings
        // do not worsen the mean (equal weights are the most expensive).
        let gentle = r.row("equal").unwrap().mean_response;
        let harsh = r.row("strict priority").unwrap().mean_response;
        assert!(
            harsh <= gentle * 1.05,
            "strict priority should not cost mean response at this load: {harsh} vs {gentle}"
        );
    }
}
