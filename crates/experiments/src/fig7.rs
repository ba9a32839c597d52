//! Figure 7: average job response time over different size distributions.
//!
//! * **7(a)** — the heavy-tailed (Facebook-2010-like) trace at load 0.9:
//!   LAS wins, LAS_MQ follows closely (≈ 30 % better than Fair), FIFO is
//!   orders of magnitude worse.
//! * **7(b)** — the uniform batch (10,000 jobs of size 10,000): FIFO and
//!   LAS_MQ serialize jobs and halve the mean response time of Fair and
//!   LAS, which collapse to processor sharing.
//!
//! Both use LAS_MQ's simulation config: k = 10, p = 10, α₁ = 1 (§V-C1).

use lasmq_campaign::{Campaign, ExecOptions, RunCell, SchedulerKind, SimSetup, WorkloadSpec};

use crate::scale::Scale;
use crate::table::{fmt_num, TextTable};

/// Mean response time per scheduler for one distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributionResult {
    /// `(scheduler name, mean response seconds)`, in lineup order.
    pub mean_response: Vec<(String, f64)>,
}

impl DistributionResult {
    /// Mean response for one scheduler by name.
    pub fn mean_for(&self, name: &str) -> Option<f64> {
        self.mean_response
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, m)| m)
    }
}

/// The full Fig. 7 output.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Result {
    /// 7(a): heavy-tailed trace.
    pub heavy_tailed: DistributionResult,
    /// 7(b): uniform batch.
    pub uniform: DistributionResult,
}

impl Fig7Result {
    /// Paper-style tables for both panels.
    pub fn tables(&self) -> Vec<TextTable> {
        let mut out = Vec::new();
        for (title, panel) in [
            (
                "Fig 7(a): heavy-tailed distribution — avg job response time (s)",
                &self.heavy_tailed,
            ),
            (
                "Fig 7(b): uniform distribution — avg job response time (s)",
                &self.uniform,
            ),
        ] {
            let mut t = TextTable::new(title, vec!["scheduler".into(), "avg response (s)".into()]);
            for (name, mean) in &panel.mean_response {
                t.row(vec![name.clone(), fmt_num(*mean)]);
            }
            out.push(t);
        }
        out
    }
}

/// Runs Fig. 7 as a campaign under `exec`.
pub fn run(scale: &Scale, exec: &ExecOptions) -> Fig7Result {
    let lineup = SchedulerKind::paper_lineup_simulations();
    let mut campaign = Campaign::new("fig7");
    for kind in &lineup {
        campaign.push(RunCell::new(
            format!("fig7/heavy/{kind}"),
            kind.clone(),
            WorkloadSpec::Facebook {
                jobs: scale.facebook_jobs,
                seed: scale.seed,
                load: None,
            },
            SimSetup::trace_sim(),
        ));
    }
    for kind in &lineup {
        campaign.push(RunCell::new(
            format!("fig7/uniform/{kind}"),
            kind.clone(),
            WorkloadSpec::Uniform {
                jobs: scale.uniform_jobs,
                tasks_per_job: scale.uniform_tasks_per_job,
                seed: scale.seed,
                load: None,
            },
            SimSetup::uniform_sim(),
        ));
    }
    let result = campaign.run(exec);

    let panel = |reports: &[lasmq_simulator::SimulationReport]| DistributionResult {
        mean_response: lineup
            .iter()
            .zip(reports)
            .map(|(kind, report)| {
                (
                    kind.to_string(),
                    report.mean_response_secs().unwrap_or(f64::NAN),
                )
            })
            .collect(),
    };
    Fig7Result {
        heavy_tailed: panel(&result.reports[..lineup.len()]),
        uniform: panel(&result.reports[lineup.len()..]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_the_paper_at_test_scale() {
        let r = run(&Scale::test(), &ExecOptions::default().no_cache());

        // 7(a): LAS best or tied, LAS_MQ close, FIFO worst by a wide margin.
        let h = &r.heavy_tailed;
        let (lasmq, las, fair, fifo) = (
            h.mean_for("LAS_MQ").unwrap(),
            h.mean_for("LAS").unwrap(),
            h.mean_for("FAIR").unwrap(),
            h.mean_for("FIFO").unwrap(),
        );
        assert!(lasmq < fair, "LAS_MQ {lasmq} must beat FAIR {fair}");
        // The FIFO gap grows with trace length (heavier realized tail); at
        // the tiny test scale a 1.8× margin already shows the blow-up —
        // the full-scale shape test lives in tests/paper_shapes.rs.
        assert!(
            fifo > 1.8 * lasmq,
            "FIFO {fifo} must trail far behind LAS_MQ {lasmq}"
        );
        assert!(
            las < 1.5 * lasmq,
            "LAS {las} should be in LAS_MQ's neighbourhood {lasmq}"
        );

        // 7(b): LAS_MQ ≈ FIFO, both well ahead of FAIR ≈ LAS.
        let u = &r.uniform;
        let (lasmq, las, fair, fifo) = (
            u.mean_for("LAS_MQ").unwrap(),
            u.mean_for("LAS").unwrap(),
            u.mean_for("FAIR").unwrap(),
            u.mean_for("FIFO").unwrap(),
        );
        assert!(
            lasmq < 0.7 * fair,
            "LAS_MQ {lasmq} must clearly beat FAIR {fair}"
        );
        assert!(fifo < 0.7 * las, "FIFO {fifo} must clearly beat LAS {las}");
        assert!(
            (lasmq / fifo - 1.0).abs() < 0.35,
            "LAS_MQ {lasmq} ≈ FIFO {fifo}"
        );
    }

    #[test]
    fn tables_render() {
        let r = run(&Scale::test(), &ExecOptions::default().no_cache());
        let tables = r.tables();
        assert_eq!(tables.len(), 2);
        assert!(tables[0].to_string().contains("LAS_MQ"));
    }
}
