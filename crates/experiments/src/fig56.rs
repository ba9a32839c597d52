//! Figures 5 and 6: the testbed workload under two system loads.
//!
//! 100 PUMA jobs (Table I) on the 120-container testbed with admission
//! capped at 30 concurrent jobs; Fig. 5 uses a mean arrival interval of
//! 80 s, Fig. 6 of 50 s (higher load). Each figure has three panels:
//!
//! * **(a)** the CDF of job response times (reported here as quantiles),
//! * **(b)** the average job response time per input-size bin and overall,
//! * **(c)** the CDF of slowdowns (fairness).
//!
//! Expected shape: LAS_MQ cuts the mean response time of LAS/Fair by
//! ≈ 40 % (80 s) and ≈ 45 % (50 s) and of FIFO by ≈ 46 % / 65 %, with the
//! gap *widening* at higher load; FIFO is competitive only in bin 4.

use lasmq_analysis::{try_paired_compare, PairedComparison};
use lasmq_campaign::{Campaign, ExecOptions, RunCell, SchedulerKind, SimSetup, WorkloadSpec};
use lasmq_simulator::JobOutcome;

use crate::scale::Scale;
use crate::stats::{mean, percentile, reduction_pct, CDF_QUANTILES};
use crate::table::{fmt_num, TextTable};

/// Aggregated results for one scheduler across repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerSummary {
    /// Scheduler name.
    pub name: String,
    /// Mean response time in seconds (all completed jobs, all reps).
    pub mean_response: f64,
    /// Mean response per workload bin 1–4.
    pub mean_by_bin: [f64; 4],
    /// `(quantile, response seconds)` points of the response CDF.
    pub response_quantiles: Vec<(f64, f64)>,
    /// `(quantile, slowdown)` points of the slowdown CDF.
    pub slowdown_quantiles: Vec<(f64, f64)>,
    /// Mean slowdown.
    pub mean_slowdown: f64,
    /// Per-repetition mean responses (one entry per seed), for paired
    /// statistics.
    pub per_rep_mean_response: Vec<f64>,
}

/// One full figure (5 or 6).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig56Result {
    /// Mean arrival interval used (80 s → Fig. 5, 50 s → Fig. 6).
    pub interval_secs: f64,
    /// Per-scheduler summaries in lineup order (LAS_MQ, LAS, FAIR, FIFO).
    pub schedulers: Vec<SchedulerSummary>,
}

impl Fig56Result {
    /// The summary for one scheduler by name.
    pub fn summary_for(&self, name: &str) -> Option<&SchedulerSummary> {
        self.schedulers.iter().find(|s| s.name == name)
    }

    /// LAS_MQ's percentage reduction of mean response vs `baseline`.
    pub fn lasmq_reduction_vs(&self, baseline: &str) -> Option<f64> {
        let ours = self.summary_for("LAS_MQ")?.mean_response;
        let base = self.summary_for(baseline)?.mean_response;
        Some(reduction_pct(base, ours))
    }

    /// Paired per-seed comparison of LAS_MQ against `baseline` (mean
    /// response; negative differences favour LAS_MQ).
    pub fn lasmq_paired_vs(&self, baseline: &str) -> Option<PairedComparison> {
        let ours = &self.summary_for("LAS_MQ")?.per_rep_mean_response;
        let base = &self.summary_for(baseline)?.per_rep_mean_response;
        try_paired_compare(ours, base)
    }

    /// Which figure number this corresponds to in the paper.
    pub fn figure_label(&self) -> &'static str {
        if self.interval_secs >= 65.0 {
            "Fig 5"
        } else {
            "Fig 6"
        }
    }

    /// The three paper-style panels plus a reduction summary.
    pub fn tables(&self) -> Vec<TextTable> {
        let fig = self.figure_label();
        let mut out = Vec::new();

        let mut a = TextTable::new(
            format!(
                "{fig}(a): response-time CDF (quantiles, s) — interval {} s",
                self.interval_secs
            ),
            std::iter::once("scheduler".to_string())
                .chain(CDF_QUANTILES.iter().map(|q| format!("p{:02.0}", q * 100.0)))
                .collect(),
        );
        for s in &self.schedulers {
            a.row(
                std::iter::once(s.name.clone())
                    .chain(s.response_quantiles.iter().map(|&(_, v)| fmt_num(v)))
                    .collect(),
            );
        }
        out.push(a);

        let mut b = TextTable::new(
            format!("{fig}(b): average job response time per bin (s)"),
            vec![
                "scheduler".into(),
                "Bin 1".into(),
                "Bin 2".into(),
                "Bin 3".into(),
                "Bin 4".into(),
                "ALL".into(),
            ],
        );
        for s in &self.schedulers {
            b.row(
                std::iter::once(s.name.clone())
                    .chain(s.mean_by_bin.iter().map(|&v| fmt_num(v)))
                    .chain(std::iter::once(fmt_num(s.mean_response)))
                    .collect(),
            );
        }
        out.push(b);

        let mut c = TextTable::new(
            format!("{fig}(c): slowdown CDF (quantiles)"),
            std::iter::once("scheduler".to_string())
                .chain(CDF_QUANTILES.iter().map(|q| format!("p{:02.0}", q * 100.0)))
                .chain(std::iter::once("mean".to_string()))
                .collect(),
        );
        for s in &self.schedulers {
            c.row(
                std::iter::once(s.name.clone())
                    .chain(s.slowdown_quantiles.iter().map(|&(_, v)| fmt_num(v)))
                    .chain(std::iter::once(fmt_num(s.mean_slowdown)))
                    .collect(),
            );
        }
        out.push(c);

        let mut d = TextTable::new(
            format!("{fig}: LAS_MQ mean-response reduction vs baselines (%)"),
            vec![
                "baseline".into(),
                "reduction (%)".into(),
                "paired Δ (s, 95% CI)".into(),
                "sign at n seeds".into(),
            ],
        );
        for baseline in ["LAS", "FAIR", "FIFO"] {
            if let Some(r) = self.lasmq_reduction_vs(baseline) {
                let (delta, sig) = match self.lasmq_paired_vs(baseline) {
                    Some(cmp) => (
                        format!(
                            "{:.0} ± {:.0}",
                            cmp.difference.mean, cmp.difference.ci95_half_width
                        ),
                        if cmp.is_significant() {
                            "resolved"
                        } else {
                            "not resolved"
                        },
                    ),
                    None => ("-".into(), "-"),
                };
                d.row(vec![baseline.into(), format!("{r:.1}"), delta, sig.into()]);
            }
        }
        out.push(d);
        out
    }
}

/// Runs the Fig. 5/6 experiment as a campaign under `exec`.
pub fn run(scale: &Scale, interval_secs: f64, exec: &ExecOptions) -> Fig56Result {
    let setup = SimSetup::testbed();
    let lineup = SchedulerKind::paper_lineup_experiments();
    let name = if interval_secs >= 65.0 {
        "fig5"
    } else {
        "fig6"
    };

    // One cell per (repetition, scheduler), repetition-major.
    let mut campaign = Campaign::new(name);
    for rep in 0..scale.puma_repetitions {
        for kind in &lineup {
            campaign.push(RunCell::new(
                format!("{name}/rep{rep}/{kind}"),
                kind.clone(),
                WorkloadSpec::Puma {
                    jobs: scale.puma_jobs,
                    mean_interval_secs: interval_secs,
                    seed: scale.seed + rep as u64,
                    geo_bandwidth_mb_per_s: None,
                },
                setup.clone(),
            ));
        }
    }
    let result = campaign.run(exec);

    // outcomes[scheduler] pools completed jobs across repetitions.
    let mut pooled: Vec<Vec<JobOutcome>> = vec![Vec::new(); lineup.len()];
    let mut per_rep: Vec<Vec<f64>> = vec![Vec::new(); lineup.len()];
    for (cell, report) in result.reports.iter().enumerate() {
        let i = cell % lineup.len();
        if let Some(mean) = report.mean_response_secs() {
            per_rep[i].push(mean);
        }
        pooled[i].extend(report.outcomes().iter().filter(|o| o.completed()).cloned());
    }

    let schedulers = lineup
        .iter()
        .zip(pooled)
        .zip(per_rep)
        .map(|((kind, outcomes), reps)| summarize_outcomes(kind.to_string(), &outcomes, reps))
        .collect();
    Fig56Result {
        interval_secs,
        schedulers,
    }
}

fn summarize_outcomes(
    name: String,
    outcomes: &[JobOutcome],
    per_rep_mean_response: Vec<f64>,
) -> SchedulerSummary {
    let responses: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.response().map(|r| r.as_secs_f64()))
        .collect();
    let slowdowns: Vec<f64> = outcomes.iter().filter_map(JobOutcome::slowdown).collect();
    let mut mean_by_bin = [f64::NAN; 4];
    for bin in 1..=4u8 {
        let vals: Vec<f64> = outcomes
            .iter()
            .filter(|o| o.bin == bin)
            .filter_map(|o| o.response().map(|r| r.as_secs_f64()))
            .collect();
        mean_by_bin[bin as usize - 1] = mean(&vals).unwrap_or(f64::NAN);
    }
    SchedulerSummary {
        name,
        mean_response: mean(&responses).unwrap_or(f64::NAN),
        mean_by_bin,
        response_quantiles: CDF_QUANTILES
            .iter()
            .map(|&q| (q, percentile(&responses, q).unwrap_or(f64::NAN)))
            .collect(),
        slowdown_quantiles: CDF_QUANTILES
            .iter()
            .map(|&q| (q, percentile(&slowdowns, q).unwrap_or(f64::NAN)))
            .collect(),
        mean_slowdown: mean(&slowdowns).unwrap_or(f64::NAN),
        per_rep_mean_response,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lasmq_beats_baselines_at_test_scale() {
        let r = run(&Scale::test(), 50.0, &ExecOptions::default().no_cache());
        let lasmq = r.summary_for("LAS_MQ").unwrap().mean_response;
        let fair = r.summary_for("FAIR").unwrap().mean_response;
        let fifo = r.summary_for("FIFO").unwrap().mean_response;
        assert!(lasmq < fair, "LAS_MQ {lasmq} vs FAIR {fair}");
        assert!(lasmq < fifo, "LAS_MQ {lasmq} vs FIFO {fifo}");
        assert!(r.lasmq_reduction_vs("FAIR").unwrap() > 0.0);
    }

    #[test]
    fn figure_label_follows_interval() {
        let r = run(&Scale::test(), 80.0, &ExecOptions::default().no_cache());
        assert_eq!(r.figure_label(), "Fig 5");
        assert_eq!(r.tables().len(), 4);
    }

    #[test]
    fn bins_are_populated() {
        let r = run(&Scale::test(), 50.0, &ExecOptions::default().no_cache());
        let s = r.summary_for("LAS_MQ").unwrap();
        // At test scale all four bins exist in the mix.
        for (i, m) in s.mean_by_bin.iter().enumerate() {
            assert!(m.is_finite(), "bin {} empty", i + 1);
        }
        assert!(s.mean_slowdown >= 1.0);
    }
}
