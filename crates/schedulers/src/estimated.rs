//! SJF driven by *imperfect* size estimates.
//!
//! The paper's motivation (§II) is that job sizes cannot be estimated
//! reliably — and §III-B argues the failure mode is asymmetric: "if we
//! under-estimate the job size, we may give it higher priority than it
//! should have, which will delay a lot of jobs with smaller job sizes",
//! while over-estimates mostly delay the job itself (Dell'Amico et al.,
//! MASCOTS 2014). This scheduler makes that argument measurable: it is SJF
//! over a *corrupted* oracle — log-normal noise on every job's size, plus
//! an optional probability of grossly under-estimating a job (×10⁻⁴ — the
//! "mistook a giant for a tiny job" case). With zero noise it coincides
//! with [`ShortestJobFirst`](crate::ShortestJobFirst).
//!
//! Estimates are drawn once per job from a deterministic per-job hash, so
//! runs stay reproducible.

use std::collections::HashMap;

use lasmq_simulator::{AllocationPlan, JobId, SchedContext, Scheduler, Service};

use crate::grant_in_order;
use crate::noise::SizeNoise;

/// SJF with noisy size estimates (an oracle-family scheduler: it reads the
/// true size, then corrupts it — so it requires `expose_oracle(true)`).
///
/// # Examples
///
/// ```
/// use lasmq_schedulers::EstimatedSjf;
/// use lasmq_simulator::Scheduler;
///
/// let sched = EstimatedSjf::new(1.0, 0.05, 7);
/// assert!(sched.requires_oracle());
/// assert_eq!(sched.name(), "SJF-est");
/// ```
#[derive(Debug, Clone)]
pub struct EstimatedSjf {
    noise: SizeNoise,
    estimates: HashMap<JobId, Service>,
}

impl EstimatedSjf {
    /// SJF over estimates with log-normal error of scale `sigma`, and a
    /// `gross_underestimate_prob` chance per job of a ×10⁻⁴ gross
    /// under-estimate. `seed` pins the error draws.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative/not finite or the probability is
    /// outside `[0, 1]`.
    pub fn new(sigma: f64, gross_underestimate_prob: f64, seed: u64) -> Self {
        EstimatedSjf {
            noise: SizeNoise::new(sigma, gross_underestimate_prob, seed),
            estimates: HashMap::new(),
        }
    }

    /// A perfectly informed instance (sanity baseline: behaves as SJF).
    pub fn exact() -> Self {
        EstimatedSjf::new(0.0, 0.0, 0)
    }

    /// The estimate this scheduler uses for a job of true size
    /// `true_size` (computed on first contact, then frozen — as a real
    /// predictor would produce one estimate at submission).
    fn estimate(&mut self, job: JobId, true_size: Service) -> Service {
        let noise = self.noise;
        *self
            .estimates
            .entry(job)
            .or_insert_with(|| noise.estimate(job, true_size))
    }
}

/// One frozen estimate in a serialized snapshot of this scheduler.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct FrozenEstimate {
    job: u32,
    size: f64,
}

/// Serialized state: the frozen per-job estimates, sorted by job id so the
/// payload is byte-stable regardless of map iteration order. The noise
/// parameters are configuration, not state — restore re-checks nothing
/// because estimates are self-contained values.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct EstimatedSjfState {
    estimates: Vec<FrozenEstimate>,
}

impl Scheduler for EstimatedSjf {
    fn name(&self) -> &str {
        "SJF-est"
    }

    fn requires_oracle(&self) -> bool {
        true
    }

    fn on_job_completed(&mut self, job: JobId, _now: lasmq_simulator::SimTime) {
        self.estimates.remove(&job);
    }

    fn snapshot_state(&self) -> Option<String> {
        let mut estimates: Vec<FrozenEstimate> = self
            .estimates
            .iter()
            .map(|(&job, &size)| FrozenEstimate {
                job: u32::from(job),
                size: size.as_container_secs(),
            })
            .collect();
        estimates.sort_by_key(|e| e.job);
        let state = EstimatedSjfState { estimates };
        Some(serde_json::to_string(&state).expect("SJF-est state serialization cannot fail"))
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        let state: EstimatedSjfState =
            serde_json::from_str(state).map_err(|e| format!("malformed SJF-est state: {e}"))?;
        self.estimates = state
            .estimates
            .into_iter()
            .map(|e| (JobId::new(e.job), Service::from_container_secs(e.size)))
            .collect();
        Ok(())
    }

    fn allocate(&mut self, ctx: &SchedContext<'_>) -> AllocationPlan {
        let jobs = ctx.jobs();
        let mut keyed: Vec<(Service, usize)> = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| {
                let true_size = j
                    .oracle
                    .expect("engine guarantees oracle info for oracle schedulers")
                    .total_size;
                (self.estimate(j.id, true_size), i)
            })
            .collect();
        keyed.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then_with(|| jobs[a.1].arrival.cmp(&jobs[b.1].arrival))
                .then_with(|| jobs[a.1].id.cmp(&jobs[b.1].id))
        });
        grant_in_order(
            keyed.into_iter().map(|(_, i)| &jobs[i]),
            ctx.total_containers(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasmq_simulator::{JobView, OracleInfo, SimTime};

    fn view(id: u32, size: f64) -> JobView {
        JobView {
            id: JobId::new(id),
            arrival: SimTime::ZERO,
            admitted_at: SimTime::ZERO,
            priority: 1,
            attained: Service::ZERO,
            attained_stage: Service::ZERO,
            stage_index: 0,
            stage_count: 1,
            stage_progress: 0.0,
            remaining_tasks: 100,
            unstarted_tasks: 100,
            containers_per_task: 1,
            held: 0,
            oracle: Some(OracleInfo {
                total_size: Service::from_container_secs(size),
                remaining: Service::from_container_secs(size),
            }),
        }
    }

    #[test]
    fn exact_estimates_reproduce_sjf_order() {
        let jobs = vec![view(0, 500.0), view(1, 5.0), view(2, 50.0)];
        let ctx = SchedContext::new(SimTime::ZERO, 10, &jobs);
        let plan = EstimatedSjf::exact().allocate(&ctx);
        assert_eq!(plan.entries()[0].0, JobId::new(1));
    }

    #[test]
    fn estimates_are_frozen_per_job() {
        let mut sched = EstimatedSjf::new(1.0, 0.0, 3);
        let a = sched.estimate(JobId::new(7), Service::from_container_secs(100.0));
        let b = sched.estimate(JobId::new(7), Service::from_container_secs(100.0));
        assert_eq!(a, b);
    }

    #[test]
    fn same_seed_same_estimates() {
        let mut a = EstimatedSjf::new(1.5, 0.1, 42);
        let mut b = EstimatedSjf::new(1.5, 0.1, 42);
        for i in 0..50 {
            let size = Service::from_container_secs(10.0 + i as f64);
            assert_eq!(
                a.estimate(JobId::new(i), size),
                b.estimate(JobId::new(i), size)
            );
        }
    }

    #[test]
    fn gross_underestimates_occur_at_roughly_the_configured_rate() {
        let mut sched = EstimatedSjf::new(0.0, 0.2, 11);
        let size = Service::from_container_secs(1_000.0);
        let mut gross = 0;
        for i in 0..2_000 {
            let est = sched.estimate(JobId::new(i), size);
            if est.as_container_secs() < 100.0 {
                gross += 1;
            }
        }
        let rate = gross as f64 / 2_000.0;
        assert!((rate - 0.2).abs() < 0.05, "gross rate {rate}");
    }

    #[test]
    fn noisy_estimates_shuffle_close_sizes_not_decades() {
        // With sigma 0.5, a 10× size gap is almost never inverted.
        let jobs = vec![view(0, 1_000.0), view(1, 1.0)];
        let ctx = SchedContext::new(SimTime::ZERO, 10, &jobs);
        let mut inversions = 0;
        for seed in 0..100 {
            let plan = EstimatedSjf::new(0.5, 0.0, seed).allocate(&ctx);
            if plan.entries()[0].0 == JobId::new(0) {
                inversions += 1;
            }
        }
        assert!(
            inversions < 5,
            "{inversions} decade inversions at sigma 0.5"
        );
    }

    #[test]
    #[should_panic(expected = "probability must be in")]
    fn bad_probability_rejected() {
        let _ = EstimatedSjf::new(0.5, 1.5, 0);
    }
}
