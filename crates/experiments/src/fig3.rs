//! Figure 3: ablation of LAS_MQ's two design features.
//!
//! 100 PUMA jobs, Poisson arrivals with mean interval 50 s, normalized
//! average job response time = Fair's mean / the variant's mean (> 1 beats
//! Fair):
//!
//! * **Case 1** — neither feature (plain MLFQ: FIFO in each queue, no
//!   stage awareness): only slightly better than Fair.
//! * **Case 2** — stage awareness only: ≈ +10 % in the best case.
//! * **Case 3** — in-queue demand ordering only: a wide margin.
//! * **Case 4** — both (the shipped design): best.

use lasmq_campaign::{Campaign, ExecOptions, RunCell, SchedulerKind, SimSetup, WorkloadSpec};
use lasmq_core::{LasMqConfig, QueueOrdering};

use crate::scale::Scale;
use crate::stats::mean;
use crate::table::TextTable;

/// The four ablation cases of Fig. 3, in paper order.
pub fn cases() -> Vec<(&'static str, LasMqConfig)> {
    let base = LasMqConfig::paper_experiments();
    vec![
        (
            "Case 1 (neither)",
            base.clone()
                .with_stage_awareness(false)
                .with_ordering(QueueOrdering::Fifo),
        ),
        (
            "Case 2 (stage awareness)",
            base.clone().with_ordering(QueueOrdering::Fifo),
        ),
        (
            "Case 3 (queue ordering)",
            base.clone().with_stage_awareness(false),
        ),
        ("Case 4 (both = LAS_MQ)", base),
    ]
}

/// The Fig. 3 output: normalized response time per case.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Result {
    /// `(case label, Fair mean / case mean)` in paper order.
    pub normalized: Vec<(String, f64)>,
    /// Downsampled queue-depth trace of repetition 0's Case 4 run:
    /// `(time in ms, per-queue depth)` rows, highest-priority queue first.
    /// Empty unless the campaign ran with telemetry
    /// ([`ExecOptions::telemetry_dir`]).
    pub queue_trace: Vec<(u64, Vec<u32>)>,
}

impl Fig3Result {
    /// The normalized value for a case by index (0 = Case 1).
    pub fn case(&self, index: usize) -> f64 {
        self.normalized[index].1
    }

    /// Paper-style table.
    pub fn tables(&self) -> Vec<TextTable> {
        let mut t = TextTable::new(
            "Fig 3: normalized avg response time vs Fair (higher is better)",
            vec!["design option".into(), "normalized (Fair/ours)".into()],
        );
        for (label, v) in &self.normalized {
            t.row(vec![label.clone(), format!("{v:.2}")]);
        }
        let mut tables = vec![t];
        if !self.queue_trace.is_empty() {
            let queues = self
                .queue_trace
                .iter()
                .map(|(_, depths)| depths.len())
                .max()
                .unwrap_or(0);
            let mut header = vec!["t_s".to_string()];
            header.extend((1..=queues).map(|i| format!("q{i}")));
            let mut qt = TextTable::new(
                "Fig 3 telemetry: Case 4 queue depths over time (rep 0)",
                header,
            );
            for (at_ms, depths) in &self.queue_trace {
                let mut row = vec![format!("{:.0}", *at_ms as f64 / 1000.0)];
                row.extend((0..queues).map(|i| depths.get(i).copied().unwrap_or(0).to_string()));
                qt.row(row);
            }
            tables.push(qt);
        }
        tables
    }
}

/// Runs the ablation (mean arrival interval 50 s, as in the paper) as one
/// campaign under `exec`.
pub fn run(scale: &Scale, exec: &ExecOptions) -> Fig3Result {
    let setup = SimSetup::testbed();
    let case_list = cases();

    // Per repetition: one Fair baseline cell, then the four ablation cells.
    let mut campaign = Campaign::new("fig3");
    for rep in 0..scale.puma_repetitions {
        let workload = WorkloadSpec::Puma {
            jobs: scale.puma_jobs,
            mean_interval_secs: 50.0,
            seed: scale.seed + rep as u64,
            geo_bandwidth_mb_per_s: None,
        };
        campaign.push(RunCell::new(
            format!("fig3/rep{rep}/FAIR"),
            SchedulerKind::Fair,
            workload.clone(),
            setup.clone(),
        ));
        for (label, config) in &case_list {
            campaign.push(RunCell::new(
                format!("fig3/rep{rep}/{label}"),
                SchedulerKind::LasMq(config.clone()),
                workload.clone(),
                setup.clone(),
            ));
        }
    }
    let result = campaign.run(exec);

    // normalized[case][rep]
    let stride = 1 + case_list.len();
    let mut normalized: Vec<Vec<f64>> = vec![Vec::new(); case_list.len()];
    for rep in 0..scale.puma_repetitions {
        let fair_mean = result.reports[rep * stride]
            .mean_response_secs()
            .expect("fair run completes jobs");
        for (i, per_case) in normalized.iter_mut().enumerate() {
            let ours = result.reports[rep * stride + 1 + i]
                .mean_response_secs()
                .expect("ablation run completes jobs");
            per_case.push(fair_mean / ours);
        }
    }

    // Repetition 0's Case 4 cell sits right after its Fair baseline.
    let queue_trace = result.reports[case_list.len()]
        .telemetry()
        .map(|telemetry| {
            let samples = telemetry.samples();
            // Keep the table readable: at most ~24 evenly spaced rows.
            let step = (samples.len() / 24).max(1);
            samples
                .iter()
                .step_by(step)
                .map(|s| (s.at.as_millis(), s.queue_depths.clone()))
                .collect()
        })
        .unwrap_or_default();

    Fig3Result {
        normalized: case_list
            .iter()
            .zip(normalized)
            .map(|((label, _), vals)| ((*label).to_string(), mean(&vals).unwrap_or(f64::NAN)))
            .collect(),
        queue_trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_cases_match_the_papers_grid() {
        let c = cases();
        assert_eq!(c.len(), 4);
        assert!(!c[0].1.stage_awareness());
        assert_eq!(c[0].1.ordering(), QueueOrdering::Fifo);
        assert!(c[1].1.stage_awareness());
        assert_eq!(c[2].1.ordering(), QueueOrdering::RemainingDemand);
        assert!(c[3].1.stage_awareness());
        assert_eq!(c[3].1.ordering(), QueueOrdering::RemainingDemand);
    }

    #[test]
    fn full_design_beats_fair_and_the_bare_variant() {
        let r = run(&Scale::test(), &ExecOptions::default().no_cache());
        assert!(r.case(3) > 1.0, "Case 4 must beat Fair, got {}", r.case(3));
        assert!(
            r.case(3) >= r.case(0) * 0.95,
            "Case 4 ({}) should not trail Case 1 ({})",
            r.case(3),
            r.case(0)
        );
        assert_eq!(r.tables()[0].row_count(), 4);
    }
}
