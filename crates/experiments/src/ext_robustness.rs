//! Extension experiment: robustness — hostile environments and, the
//! headline, *robustness to size-estimation error*.
//!
//! §II argues job sizes are unpredictable partly because the *environment*
//! is: nodes differ in speed and tasks fail. LAS_MQ never relies on
//! predictions, so its advantage over Fair should survive a hostile
//! substrate. The first experiment here runs the PUMA workload under four
//! environments — clean, task failures (10 % of attempts), a slow node
//! (one of four at 2.5×), and failures + slow node + speculation — and
//! compares LAS_MQ against Fair in each.
//!
//! The second ([`run_noise`]) is the figure the paper never produced: a
//! grid sweeping estimation-noise σ × offered load × the full
//! 13-scheduler zoo on the heavy-tailed (Facebook) and light-tailed
//! (uniform) traces. Every estimate-driven scheduler (SJF-est, FSP, HFSP,
//! WFP3, UNICEF) sees the *same* corrupted sizes (one shared
//! `SizeNoise` draw per job — noise never touches true service), while
//! the estimate-free lineup (LAS_MQ, LAS, FAIR, FIFO, PS, LEARNED) and
//! the perfect oracles (SJF, SRTF) anchor the two ends. The output is the
//! grid plus a *crossover table*: per trace × load, the smallest σ at
//! which LAS_MQ's mean response beats noisy-estimate SJF and FSP — i.e.
//! how wrong size estimates must be before "no prior information" wins.

use lasmq_campaign::{Campaign, ExecOptions, RunCell, SchedulerKind, SimSetup, WorkloadSpec};
use lasmq_simulator::{ClusterConfig, FailureConfig, SpeculationConfig};

use crate::scale::Scale;
use crate::stats::reduction_pct;
use crate::table::{fmt_num, TextTable};

/// One environment's outcome for both schedulers.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessRow {
    /// Environment label.
    pub environment: String,
    /// LAS_MQ's mean response (s).
    pub las_mq: f64,
    /// Fair's mean response (s).
    pub fair: f64,
    /// Task attempts lost to failures under LAS_MQ.
    pub tasks_failed: u64,
    /// Speculative copies launched under LAS_MQ.
    pub speculative: u64,
}

impl RobustnessRow {
    /// LAS_MQ's percentage reduction vs Fair in this environment.
    pub fn reduction(&self) -> f64 {
        reduction_pct(self.fair, self.las_mq)
    }
}

/// The experiment's output.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessResult {
    /// Rows in environment order (clean → harshest).
    pub rows: Vec<RobustnessRow>,
}

impl RobustnessResult {
    /// The rendered table.
    pub fn tables(&self) -> Vec<TextTable> {
        let mut t = TextTable::new(
            "Extension: robustness to failures and slow nodes (PUMA workload)",
            vec![
                "environment".into(),
                "LAS_MQ (s)".into(),
                "FAIR (s)".into(),
                "reduction (%)".into(),
                "failed attempts".into(),
                "spec copies".into(),
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.environment.clone(),
                fmt_num(r.las_mq),
                fmt_num(r.fair),
                format!("{:.1}", r.reduction()),
                r.tasks_failed.to_string(),
                r.speculative.to_string(),
            ]);
        }
        vec![t]
    }
}

fn environments(seed: u64) -> Vec<(String, SimSetup)> {
    let hetero = ClusterConfig::new(4, 30).with_heterogeneity(1, 2.5);
    vec![
        ("clean".into(), SimSetup::testbed()),
        (
            "10% task failures".into(),
            SimSetup::testbed().failures(FailureConfig::with_probability(0.10, seed)),
        ),
        (
            "1 slow node (2.5x)".into(),
            SimSetup::testbed().cluster(hetero),
        ),
        (
            "failures + slow node + speculation".into(),
            SimSetup::testbed()
                .cluster(hetero)
                .failures(FailureConfig::with_probability(0.10, seed))
                .speculation(SpeculationConfig::enabled(3, 1.5)),
        ),
    ]
}

/// Runs the experiment as one campaign under `exec`.
pub fn run(scale: &Scale, exec: &ExecOptions) -> RobustnessResult {
    let workload = WorkloadSpec::Puma {
        jobs: scale.puma_jobs,
        mean_interval_secs: 50.0,
        seed: scale.seed,
        geo_bandwidth_mb_per_s: None,
    };
    let environments = environments(scale.seed);
    let mut campaign = Campaign::new("ext_robustness");
    for (environment, setup) in &environments {
        for kind in [SchedulerKind::las_mq_experiments(), SchedulerKind::Fair] {
            campaign.push(RunCell::new(
                format!("ext_robustness/{environment}/{kind}"),
                kind,
                workload.clone(),
                setup.clone(),
            ));
        }
    }
    let result = campaign.run(exec);

    let rows = environments
        .into_iter()
        .enumerate()
        .map(|(i, (environment, _))| {
            let ours = &result.reports[2 * i];
            let fair = &result.reports[2 * i + 1];
            RobustnessRow {
                environment,
                las_mq: ours.mean_response_secs().unwrap_or(f64::NAN),
                fair: fair.mean_response_secs().unwrap_or(f64::NAN),
                tasks_failed: ours.stats().tasks_failed,
                speculative: ours.stats().speculative_launched,
            }
        })
        .collect();
    RobustnessResult { rows }
}

/// The estimation-error scales the noise grid sweeps. σ = 0 is the
/// perfectly informed anchor; σ = 2 is a realistic error level for
/// predicting stages that have not started (§II); σ = 4 is estimates that
/// are routinely an order of magnitude off.
pub const NOISE_SIGMAS: [f64; 5] = [0.0, 0.5, 1.0, 2.0, 4.0];

/// The offered loads the noise grid sweeps (ρ on a 100-container
/// cluster), from relaxed to near saturation.
pub const NOISE_LOADS: [f64; 4] = [0.5, 0.7, 0.9, 0.99];

/// One cell of the noise grid: one scheduler's outcome at one
/// (trace, load, σ) coordinate. Estimate-free schedulers are reported at
/// every σ with the same numbers (they never see estimates), so the grid
/// is rectangular and crossovers read directly off it.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseCell {
    /// Trace label (`facebook` or `uniform`).
    pub trace: String,
    /// Offered load ρ.
    pub load: f64,
    /// Estimation-noise scale this row was scored at.
    pub sigma: f64,
    /// Scheduler display name.
    pub scheduler: String,
    /// Mean response time in seconds.
    pub mean_response: f64,
    /// 99th-percentile response time in seconds.
    pub p99_response: f64,
}

/// The noise-robustness campaign's output.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseRobustnessResult {
    /// The full grid, ordered trace → load → σ → scheduler lineup.
    pub cells: Vec<NoiseCell>,
}

impl NoiseRobustnessResult {
    /// The cell for an exact (trace, load, σ, scheduler) coordinate.
    pub fn cell(&self, trace: &str, load: f64, sigma: f64, scheduler: &str) -> Option<&NoiseCell> {
        self.cells.iter().find(|c| {
            c.trace == trace && c.load == load && c.sigma == sigma && c.scheduler == scheduler
        })
    }

    /// The smallest swept σ at which LAS_MQ's mean response beats
    /// `rival`'s on (trace, load) — `None` if LAS_MQ never wins within
    /// the sweep.
    pub fn crossover(&self, trace: &str, load: f64, rival: &str) -> Option<f64> {
        NOISE_SIGMAS.into_iter().find(|&sigma| {
            match (
                self.cell(trace, load, sigma, "LAS_MQ"),
                self.cell(trace, load, sigma, rival),
            ) {
                (Some(ours), Some(theirs)) => ours.mean_response < theirs.mean_response,
                _ => false,
            }
        })
    }

    /// The rendered tables: the full grid, then the crossover summary.
    pub fn tables(&self) -> Vec<TextTable> {
        let mut grid = TextTable::new(
            "Extension: robustness to size-estimation error (σ × load × scheduler)",
            vec![
                "trace".into(),
                "load".into(),
                "sigma".into(),
                "scheduler".into(),
                "mean response (s)".into(),
                "p99 response (s)".into(),
            ],
        );
        for c in &self.cells {
            grid.row(vec![
                c.trace.clone(),
                format!("{:.2}", c.load),
                format!("{:.1}", c.sigma),
                c.scheduler.clone(),
                fmt_num(c.mean_response),
                fmt_num(c.p99_response),
            ]);
        }

        let mut crossover = TextTable::new(
            "Crossover: smallest σ where LAS_MQ's mean beats the noisy estimator",
            vec![
                "trace".into(),
                "load".into(),
                "σ* vs SJF-est".into(),
                "σ* vs FSP".into(),
            ],
        );
        let mut coords: Vec<(String, f64)> = Vec::new();
        for c in &self.cells {
            if !coords.iter().any(|(t, l)| *t == c.trace && *l == c.load) {
                coords.push((c.trace.clone(), c.load));
            }
        }
        for (trace, load) in coords {
            let fmt = |x: Option<f64>| match x {
                Some(sigma) => format!("{sigma:.1}"),
                None => "—".into(),
            };
            let sjf = self.crossover(&trace, load, "SJF-est");
            let fsp = self.crossover(&trace, load, "FSP");
            crossover.row(vec![trace, format!("{load:.2}"), fmt(sjf), fmt(fsp)]);
        }
        vec![grid, crossover]
    }
}

/// The estimate-free half of the zoo plus the perfect oracles — none of
/// these react to σ, so each runs once per (trace, load).
fn sigma_independent_lineup() -> Vec<(String, SchedulerKind)> {
    vec![
        ("LAS_MQ".into(), SchedulerKind::las_mq_simulations()),
        ("LAS".into(), SchedulerKind::Las),
        ("FAIR".into(), SchedulerKind::Fair),
        ("FIFO".into(), SchedulerKind::Fifo),
        ("PS".into(), SchedulerKind::Ps),
        (
            "LEARNED".into(),
            SchedulerKind::Learned(lasmq_schedulers::LinearPolicy::las_like()),
        ),
        ("SJF".into(), SchedulerKind::Sjf),
        ("SRTF".into(), SchedulerKind::Srtf),
    ]
}

/// The estimate-driven half: one cell per σ. All five share the same
/// per-job noise draws at a given (σ, seed).
fn noisy_lineup(sigma: f64, seed: u64) -> Vec<(String, SchedulerKind)> {
    vec![
        (
            "SJF-est".into(),
            SchedulerKind::SjfEstimated {
                sigma,
                gross_underestimate_prob: 0.0,
                seed,
            },
        ),
        ("FSP".into(), SchedulerKind::Fsp { sigma, seed }),
        ("HFSP".into(), SchedulerKind::Hfsp { sigma, seed }),
        ("WFP3".into(), SchedulerKind::Wfp3 { sigma, seed }),
        ("UNICEF".into(), SchedulerKind::Unicef { sigma, seed }),
    ]
}

/// The two traces the grid sweeps, with the load knob applied. The
/// uniform trace is capped (jobs ×, task count ÷ 10 relative to the
/// paper's batch) because the grid multiplies every cell by
/// |σ| × |loads| × lineup — the paper-scale 10,000 × 1,000-task batch
/// would put a single grid run into the hours.
fn traces(scale: &Scale, load: f64) -> Vec<(String, WorkloadSpec, SimSetup)> {
    vec![
        (
            "facebook".into(),
            WorkloadSpec::Facebook {
                jobs: scale.facebook_jobs,
                seed: scale.seed,
                load: Some(load),
            },
            SimSetup::trace_sim(),
        ),
        (
            "uniform".into(),
            WorkloadSpec::Uniform {
                jobs: (scale.uniform_jobs / 2).max(20),
                tasks_per_job: (scale.uniform_tasks_per_job / 10).max(10),
                seed: scale.seed,
                load: Some(load),
            },
            SimSetup::uniform_sim(),
        ),
    ]
}

/// The downscaled scale `repro robustness --quick` (and CI's
/// robustness-smoke job) runs. The grid keeps its full σ × load × zoo
/// axes — every scheduler still runs at every coordinate — but the
/// traces drop two orders of magnitude so the 264-run sweep stays in
/// smoke territory even with the invariant checker armed on every cell
/// (verification costs ~100× a plain run).
pub fn smoke_scale(scale: &Scale) -> Scale {
    Scale {
        facebook_jobs: scale.facebook_jobs.min(120),
        uniform_jobs: scale.uniform_jobs.min(40),
        uniform_tasks_per_job: scale.uniform_tasks_per_job.min(100),
        ..*scale
    }
}

/// Runs the noise grid as one campaign under `exec`.
pub fn run_noise(scale: &Scale, exec: &ExecOptions) -> NoiseRobustnessResult {
    // Declare every unique run once; the grid then references
    // σ-independent runs from each σ row. Declaration order ==
    // reports order.
    let mut campaign = Campaign::new("ext_robustness_noise");
    let mut index: Vec<(String, f64, Option<f64>, String)> = Vec::new();
    for load in NOISE_LOADS {
        for (trace, workload, setup) in traces(scale, load) {
            for (label, kind) in sigma_independent_lineup() {
                campaign.push(RunCell::new(
                    format!("ext_robustness/{trace}/rho{load}/{label}"),
                    kind,
                    workload.clone(),
                    setup.clone(),
                ));
                index.push((trace.clone(), load, None, label));
            }
            for sigma in NOISE_SIGMAS {
                for (label, kind) in noisy_lineup(sigma, scale.seed) {
                    campaign.push(RunCell::new(
                        format!("ext_robustness/{trace}/rho{load}/sigma{sigma}/{label}"),
                        kind,
                        workload.clone(),
                        setup.clone(),
                    ));
                    index.push((trace.clone(), load, Some(sigma), label));
                }
            }
        }
    }
    let result = campaign.run(exec);

    // Project the runs onto the rectangular (trace, load, σ, scheduler)
    // grid: σ-independent runs repeat across every σ.
    let outcome = |trace: &str, load: f64, sigma: Option<f64>, label: &str| {
        let at = index
            .iter()
            .position(|(t, l, s, n)| t == trace && *l == load && *s == sigma && n == label)
            .expect("every grid coordinate was declared");
        let report = &result.reports[at];
        (
            report.mean_response_secs().unwrap_or(f64::NAN),
            report.response_percentile(0.99).unwrap_or(f64::NAN),
        )
    };
    let mut cells = Vec::new();
    for load in NOISE_LOADS {
        for (trace, _, _) in traces(scale, load) {
            for sigma in NOISE_SIGMAS {
                for (label, _) in sigma_independent_lineup() {
                    let (mean_response, p99_response) = outcome(&trace, load, None, &label);
                    cells.push(NoiseCell {
                        trace: trace.clone(),
                        load,
                        sigma,
                        scheduler: label,
                        mean_response,
                        p99_response,
                    });
                }
                for (label, _) in noisy_lineup(sigma, scale.seed) {
                    let (mean_response, p99_response) = outcome(&trace, load, Some(sigma), &label);
                    cells.push(NoiseCell {
                        trace: trace.clone(),
                        load,
                        sigma,
                        scheduler: label,
                        mean_response,
                        p99_response,
                    });
                }
            }
        }
    }
    NoiseRobustnessResult { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lasmq_advantage_survives_hostile_environments() {
        let r = run(&Scale::test(), &ExecOptions::default().no_cache());
        assert_eq!(r.rows.len(), 4);
        for row in &r.rows {
            assert!(
                row.las_mq.is_finite() && row.fair.is_finite(),
                "{}",
                row.environment
            );
            assert!(
                row.reduction() > 0.0,
                "LAS_MQ must keep beating Fair under '{}': {:.0} vs {:.0}",
                row.environment,
                row.las_mq,
                row.fair
            );
        }
        // Failures actually happened in the failure environments.
        assert!(r.rows[1].tasks_failed > 0);
        assert!(r.rows[3].tasks_failed > 0);
        // Harsh environments cost time relative to clean.
        assert!(r.rows[1].las_mq > r.rows[0].las_mq * 0.9);
    }

    #[test]
    fn noise_grid_is_rectangular_and_consistent() {
        // A deliberately tiny scale: the grid itself multiplies every
        // cell by |σ| × |loads| × the 13-scheduler lineup.
        let scale = Scale {
            facebook_jobs: 120,
            uniform_jobs: 40,
            uniform_tasks_per_job: 100,
            ..Scale::test()
        };
        let r = run_noise(&scale, &ExecOptions::default().no_cache());
        let expected = NOISE_LOADS.len() * 2 * NOISE_SIGMAS.len() * (8 + 5);
        assert_eq!(r.cells.len(), expected);
        for c in &r.cells {
            assert!(
                c.mean_response.is_finite() && c.p99_response.is_finite(),
                "{}/{}/{}/{}",
                c.trace,
                c.load,
                c.sigma,
                c.scheduler
            );
        }

        // Estimate-free schedulers never see σ: their numbers are
        // constant along the σ axis.
        for trace in ["facebook", "uniform"] {
            for load in NOISE_LOADS {
                let base = r.cell(trace, load, 0.0, "LAS_MQ").unwrap().mean_response;
                for sigma in NOISE_SIGMAS {
                    assert_eq!(
                        r.cell(trace, load, sigma, "LAS_MQ").unwrap().mean_response,
                        base,
                        "{trace}/ρ{load}: LAS_MQ must be σ-independent"
                    );
                }
                // σ = 0 estimates are exact, so SJF-est collapses onto SJF.
                assert_eq!(
                    r.cell(trace, load, 0.0, "SJF-est").unwrap().mean_response,
                    r.cell(trace, load, 0.0, "SJF").unwrap().mean_response,
                    "{trace}/ρ{load}: σ = 0 SJF-est must equal SJF"
                );
            }
        }

        // Tables render the full grid plus one crossover row per
        // trace × load.
        let tables = r.tables();
        assert_eq!(tables[0].row_count(), expected);
        assert_eq!(tables[1].row_count(), NOISE_LOADS.len() * 2);
        // Crossovers are well-defined Options (a win may or may not occur
        // at this tiny scale; computing one must not panic either way).
        let _ = r.crossover("facebook", 0.9, "SJF-est");
        let _ = r.crossover("facebook", 0.9, "FSP");
    }
}
