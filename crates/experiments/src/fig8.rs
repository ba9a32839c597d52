//! Figure 8: sensitivity of LAS_MQ to its parameters, on the heavy-tailed
//! trace.
//!
//! * **8(a)** — number of queues ∈ {1, 2, 4, 5, 10} with α₁ = 1, p = 10:
//!   LAS_MQ overtakes Fair from 5 queues on, and 5 queues already achieve
//!   the best result because no job exceeds the 5th threshold (10⁴).
//! * **8(b)** — first threshold ∈ {0.001, 0.01, 0.1, 1, 10} with k = 10,
//!   p = 10: flat and good for α₁ ≤ 1, degrading at 10 (above the trace's
//!   mean size ≈ 20, most jobs never leave the first queue).
//!
//! Both report the paper's normalized metric: Fair's mean response over
//! LAS_MQ's (> 1 beats Fair).

use lasmq_campaign::{Campaign, ExecOptions, RunCell, SchedulerKind, SimSetup, WorkloadSpec};
use lasmq_core::LasMqConfig;

use crate::scale::Scale;
use crate::table::TextTable;

/// Queue counts swept in Fig. 8(a).
pub const QUEUE_SWEEP: [usize; 5] = [1, 2, 4, 5, 10];

/// First thresholds swept in Fig. 8(b). The paper sweeps
/// {0.001, 0.01, 0.1, 1, 10}; 30 and 100 extend the sweep to expose the
/// degradation knee, which sits about a decade higher here than in the
/// paper because the synthetic trace's *median* size (≈ 2) is far below
/// its mean (≈ 20) — the first queue only turns into a FIFO bottleneck
/// once the threshold clears a meaningful share of the total work.
pub const THRESHOLD_SWEEP: [f64; 7] = [0.001, 0.01, 0.1, 1.0, 10.0, 30.0, 100.0];

/// The Fig. 8 output.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Result {
    /// 8(a): `(num queues, Fair mean / LAS_MQ mean)`.
    pub by_queues: Vec<(usize, f64)>,
    /// 8(b): `(first threshold, Fair mean / LAS_MQ mean)`.
    pub by_threshold: Vec<(f64, f64)>,
}

impl Fig8Result {
    /// The normalized value for a queue count.
    pub fn normalized_for_queues(&self, k: usize) -> Option<f64> {
        self.by_queues
            .iter()
            .find(|&&(q, _)| q == k)
            .map(|&(_, v)| v)
    }

    /// The normalized value for a first threshold.
    pub fn normalized_for_threshold(&self, alpha: f64) -> Option<f64> {
        self.by_threshold
            .iter()
            .find(|&&(a, _)| a == alpha)
            .map(|&(_, v)| v)
    }

    /// Paper-style tables for both panels.
    pub fn tables(&self) -> Vec<TextTable> {
        let mut a = TextTable::new(
            "Fig 8(a): number of queues (α₁ = 1, p = 10) — normalized vs Fair",
            vec!["queues".into(), "normalized (Fair/ours)".into()],
        );
        for &(k, v) in &self.by_queues {
            a.row(vec![k.to_string(), format!("{v:.2}")]);
        }
        let mut b = TextTable::new(
            "Fig 8(b): threshold of the first queue (k = 10, p = 10) — normalized vs Fair",
            vec!["first threshold".into(), "normalized (Fair/ours)".into()],
        );
        for &(alpha, v) in &self.by_threshold {
            b.row(vec![format!("{alpha}"), format!("{v:.2}")]);
        }
        vec![a, b]
    }
}

/// Runs both sweeps as one campaign under `exec`.
pub fn run(scale: &Scale, exec: &ExecOptions) -> Fig8Result {
    let workload = WorkloadSpec::Facebook {
        jobs: scale.facebook_jobs,
        seed: scale.seed,
        load: None,
    };
    let setup = SimSetup::trace_sim();

    // Cell 0 is the shared Fair baseline; then one cell per swept config.
    let mut campaign = Campaign::new("fig8");
    campaign.push(RunCell::new(
        "fig8/FAIR",
        SchedulerKind::Fair,
        workload.clone(),
        setup.clone(),
    ));
    for &k in &QUEUE_SWEEP {
        campaign.push(RunCell::new(
            format!("fig8/queues{k}"),
            SchedulerKind::LasMq(LasMqConfig::paper_simulations().with_num_queues(k)),
            workload.clone(),
            setup.clone(),
        ));
    }
    for &alpha in &THRESHOLD_SWEEP {
        campaign.push(RunCell::new(
            format!("fig8/threshold{alpha}"),
            SchedulerKind::LasMq(LasMqConfig::paper_simulations().with_first_threshold(alpha)),
            workload.clone(),
            setup.clone(),
        ));
    }
    let result = campaign.run(exec);

    let mean_of = |i: usize| -> f64 {
        result.reports[i]
            .mean_response_secs()
            .expect("trace run completes")
    };
    let fair_mean = mean_of(0);
    let by_queues = QUEUE_SWEEP
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, fair_mean / mean_of(1 + i)))
        .collect();
    let by_threshold = THRESHOLD_SWEEP
        .iter()
        .enumerate()
        .map(|(i, &alpha)| (alpha, fair_mean / mean_of(1 + QUEUE_SWEEP.len() + i)))
        .collect();
    Fig8Result {
        by_queues,
        by_threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_queues_beat_fair_eventually() {
        let r = run(&Scale::test(), &ExecOptions::default().no_cache());
        let at_10 = r.normalized_for_queues(10).unwrap();
        assert!(at_10 > 1.0, "10 queues must beat Fair, got {at_10}");
        let at_1 = r.normalized_for_queues(1).unwrap();
        assert!(
            at_10 >= at_1 * 0.9,
            "more queues should not hurt much: {at_1} -> {at_10}"
        );
    }

    #[test]
    fn small_thresholds_work_large_ones_degrade() {
        let r = run(&Scale::test(), &ExecOptions::default().no_cache());
        let at_1 = r.normalized_for_threshold(1.0).unwrap();
        let at_100 = r.normalized_for_threshold(100.0).unwrap();
        assert!(at_1 > 1.0, "α₁ = 1 must beat Fair, got {at_1}");
        assert!(
            at_100 < at_1,
            "a first threshold above most job sizes must degrade: {at_100} vs {at_1}"
        );
        assert_eq!(r.tables().len(), 2);
    }
}
