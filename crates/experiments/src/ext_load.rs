//! Extension experiment: behaviour across system load, and the admission
//! knob.
//!
//! Two sweeps that contextualize the paper's fixed operating points:
//!
//! * **Load sweep** (trace workload, ρ from 0.5 to 0.95): the classic
//!   response-vs-load curves. All schedulers blow up as ρ → 1; the paper's
//!   claim "our approach works even better for higher system loads"
//!   (§V-B3) shows as LAS_MQ's curve bending up latest.
//! * **Admission sweep** (PUMA workload): the paper caps running jobs at
//!   30 (§IV). Sweeping the cap shows what it does: very small caps
//!   serialize the cluster (everyone converges toward FIFO), very large
//!   caps leave LAS_MQ's scheduling to do all the work.

use lasmq_campaign::{Campaign, ExecOptions, RunCell, SchedulerKind, SimSetup, WorkloadSpec};

use crate::scale::Scale;
use crate::table::{fmt_num, TextTable};

/// Loads swept in the load panel.
pub const LOAD_SWEEP: [f64; 4] = [0.5, 0.7, 0.9, 0.95];

/// Admission caps swept in the admission panel (`None` = unlimited).
pub const ADMISSION_SWEEP: [Option<usize>; 4] = [Some(5), Some(15), Some(30), None];

/// Mean response per scheduler at one load.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadRow {
    /// The offered load ρ.
    pub load: f64,
    /// `(scheduler, mean response)` in lineup order.
    pub mean_response: Vec<(String, f64)>,
}

/// Mean response for LAS_MQ and FIFO at one admission cap.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionRow {
    /// The cap label.
    pub cap: String,
    /// LAS_MQ's mean response (s).
    pub las_mq: f64,
    /// FIFO's mean response (s).
    pub fifo: f64,
}

/// The experiment's output.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadResult {
    /// The load sweep.
    pub by_load: Vec<LoadRow>,
    /// The admission sweep.
    pub by_admission: Vec<AdmissionRow>,
}

impl LoadResult {
    /// LAS_MQ's mean at a given load.
    pub fn lasmq_at_load(&self, load: f64) -> Option<f64> {
        self.by_load
            .iter()
            .find(|r| (r.load - load).abs() < 1e-9)?
            .mean_response
            .iter()
            .find(|(n, _)| n == "LAS_MQ")
            .map(|&(_, m)| m)
    }

    /// The rendered tables.
    pub fn tables(&self) -> Vec<TextTable> {
        let mut a = TextTable::new(
            "Extension: response time vs offered load (heavy-tailed trace)",
            std::iter::once("load".to_string())
                .chain(
                    self.by_load
                        .first()
                        .map(|r| {
                            r.mean_response
                                .iter()
                                .map(|(n, _)| n.clone())
                                .collect::<Vec<String>>()
                        })
                        .unwrap_or_default(),
                )
                .collect(),
        );
        for row in &self.by_load {
            a.row(
                std::iter::once(format!("{:.2}", row.load))
                    .chain(row.mean_response.iter().map(|&(_, m)| fmt_num(m)))
                    .collect(),
            );
        }
        let mut b = TextTable::new(
            "Extension: the admission cap (PUMA workload, §IV's limit of 30)",
            vec![
                "max running jobs".into(),
                "LAS_MQ (s)".into(),
                "FIFO (s)".into(),
            ],
        );
        for row in &self.by_admission {
            b.row(vec![
                row.cap.clone(),
                fmt_num(row.las_mq),
                fmt_num(row.fifo),
            ]);
        }
        vec![a, b]
    }
}

/// Runs both sweeps as one campaign under `exec`.
pub fn run(scale: &Scale, exec: &ExecOptions) -> LoadResult {
    let lineup = SchedulerKind::paper_lineup_simulations();
    let mut campaign = Campaign::new("ext_load");
    for &load in &LOAD_SWEEP {
        for kind in &lineup {
            campaign.push(RunCell::new(
                format!("ext_load/rho{load}/{kind}"),
                kind.clone(),
                WorkloadSpec::Facebook {
                    jobs: scale.facebook_jobs,
                    seed: scale.seed,
                    load: Some(load),
                },
                SimSetup::trace_sim(),
            ));
        }
    }
    let puma = WorkloadSpec::Puma {
        jobs: scale.puma_jobs,
        mean_interval_secs: 50.0,
        seed: scale.seed,
        geo_bandwidth_mb_per_s: None,
    };
    for &cap in &ADMISSION_SWEEP {
        let setup = SimSetup::testbed().admission(cap);
        let tag = cap.map_or("unlimited".into(), |n| n.to_string());
        for kind in [SchedulerKind::las_mq_experiments(), SchedulerKind::Fifo] {
            campaign.push(RunCell::new(
                format!("ext_load/cap-{tag}/{kind}"),
                kind,
                puma.clone(),
                setup.clone(),
            ));
        }
    }
    let result = campaign.run(exec);

    let mean_of = |i: usize| -> f64 { result.reports[i].mean_response_secs().unwrap_or(f64::NAN) };
    let by_load = LOAD_SWEEP
        .iter()
        .enumerate()
        .map(|(row, &load)| LoadRow {
            load,
            mean_response: lineup
                .iter()
                .enumerate()
                .map(|(col, kind)| (kind.to_string(), mean_of(row * lineup.len() + col)))
                .collect(),
        })
        .collect();
    let admission_base = LOAD_SWEEP.len() * lineup.len();
    let by_admission = ADMISSION_SWEEP
        .iter()
        .enumerate()
        .map(|(row, &cap)| AdmissionRow {
            cap: cap.map_or("unlimited".into(), |n| n.to_string()),
            las_mq: mean_of(admission_base + 2 * row),
            fifo: mean_of(admission_base + 2 * row + 1),
        })
        .collect();

    LoadResult {
        by_load,
        by_admission,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_grows_with_load_and_lasmq_bends_latest() {
        let r = run(&Scale::test(), &ExecOptions::default().no_cache());
        assert_eq!(r.by_load.len(), 4);
        let lo = r.lasmq_at_load(0.5).unwrap();
        let hi = r.lasmq_at_load(0.95).unwrap();
        assert!(hi > lo, "more load must cost more: {lo} -> {hi}");
        // At the highest load LAS_MQ still beats FAIR.
        let at95 = &r.by_load[3].mean_response;
        let get = |n: &str| at95.iter().find(|(x, _)| x == n).unwrap().1;
        assert!(get("LAS_MQ") < get("FAIR"));
    }

    #[test]
    fn tiny_admission_caps_hurt_lasmq_more_than_fifo() {
        let r = run(&Scale::test(), &ExecOptions::default().no_cache());
        assert_eq!(r.by_admission.len(), 4);
        // With only 5 running jobs LAS_MQ has little room to reorder; its
        // advantage over FIFO must widen as the cap loosens.
        let at5 = &r.by_admission[0];
        let wide = &r.by_admission[3];
        let margin_at5 = at5.fifo / at5.las_mq;
        let margin_wide = wide.fifo / wide.las_mq;
        assert!(
            margin_wide > margin_at5 * 0.9,
            "looser admission should not shrink the margin much: {margin_at5} -> {margin_wide}"
        );
        for row in &r.by_admission {
            assert!(
                row.las_mq.is_finite() && row.fifo.is_finite(),
                "{}",
                row.cap
            );
        }
    }
}
