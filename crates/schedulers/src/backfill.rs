//! WFP3 and UNICEF: batch-scheduler backfill-score heuristics.
//!
//! These two policies come from the HPC batch-scheduling literature (Tang
//! et al., *Fault-aware, utility-based job scheduling on Blue Gene/P
//! systems*, and the deep-batch-scheduler baseline suite) where they serve
//! as strong hand-tuned priority functions between FCFS and SJF:
//!
//! * **WFP3** — `(wait / runtime)³ × procs`: cubic wait-time aging scaled
//!   by the job's width. Long-waiting, wide jobs win; short-runtime jobs
//!   age fastest because the denominator is small.
//! * **UNICEF** — `wait / (log₂(procs + 1) × runtime)`: wait-time aging
//!   discounted by width — a "smallest quickest" score that favors narrow,
//!   short jobs.
//!
//! Both need a runtime estimate, which in HPC comes from user-declared
//! walltime — notoriously noisy, which is exactly what the robustness
//! campaign stresses. Here the estimate is the oracle size corrupted by
//! the shared [`SizeNoise`] model, frozen per job at first contact.
//! `procs` maps to the job's remaining container demand and `runtime` to
//! `estimate / procs` (the time the job would need at full width).
//! Scores are recomputed every pass from pass-visible state only, so the
//! engine and the reference executor agree bit-for-bit.

use std::collections::HashMap;

use lasmq_simulator::{AllocationPlan, JobId, JobView, SchedContext, Scheduler, SimTime};

use crate::grant_in_order;
use crate::noise::SizeNoise;

/// Which backfill score a [`Backfill`] instance ranks by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScoreRule {
    Wfp3,
    Unicef,
}

/// A backfill-score scheduler (WFP3 or UNICEF), built via
/// [`Backfill::wfp3`] / [`Backfill::unicef`].
///
/// # Examples
///
/// ```
/// use lasmq_schedulers::Backfill;
/// use lasmq_simulator::Scheduler;
///
/// assert_eq!(Backfill::wfp3(0.0, 0).name(), "WFP3");
/// assert_eq!(Backfill::unicef(0.0, 0).name(), "UNICEF");
/// ```
#[derive(Debug, Clone)]
pub struct Backfill {
    rule: ScoreRule,
    noise: SizeNoise,
    /// Frozen per-job size estimates (container-secs), drawn once at first
    /// contact like a user-declared walltime.
    estimates: HashMap<JobId, f64>,
}

impl Backfill {
    /// The WFP3 scheduler: rank by `(wait / runtime)³ × procs`, highest
    /// first. `sigma` is the log-normal noise on the runtime estimate
    /// (`0` = exact), `seed` pins the draws.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn wfp3(sigma: f64, seed: u64) -> Self {
        Backfill {
            rule: ScoreRule::Wfp3,
            noise: SizeNoise::new(sigma, 0.0, seed),
            estimates: HashMap::new(),
        }
    }

    /// The UNICEF scheduler: rank by `wait / (log₂(procs + 1) × runtime)`,
    /// highest first. Parameters as in [`Backfill::wfp3`].
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn unicef(sigma: f64, seed: u64) -> Self {
        Backfill {
            rule: ScoreRule::Unicef,
            noise: SizeNoise::new(sigma, 0.0, seed),
            estimates: HashMap::new(),
        }
    }

    fn estimate(&mut self, view: &JobView) -> f64 {
        let noise = self.noise;
        let id = view.id;
        *self.estimates.entry(id).or_insert_with(|| {
            let true_size = view
                .oracle
                .expect("engine guarantees oracle info for oracle schedulers")
                .total_size;
            noise.estimate(id, true_size).as_container_secs()
        })
    }

    /// The priority score for one job at `now` — higher runs first.
    fn score(&mut self, view: &JobView, now: SimTime) -> f64 {
        let wait = now.saturating_since(view.arrival).as_secs_f64();
        let procs = view.remaining_demand().max(1) as f64;
        // `estimate` is floored at a positive epsilon, so runtime > 0.
        let runtime = self.estimate(view) / procs;
        match self.rule {
            ScoreRule::Wfp3 => (wait / runtime).powi(3) * procs,
            ScoreRule::Unicef => wait / ((procs + 1.0).log2() * runtime),
        }
    }
}

/// One frozen estimate in a serialized snapshot of this scheduler.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct FrozenEstimate {
    job: u32,
    size: f64,
}

/// Serialized state: the frozen per-job estimates, sorted by job id so the
/// payload is byte-stable regardless of map iteration order.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct BackfillState {
    estimates: Vec<FrozenEstimate>,
}

impl Scheduler for Backfill {
    fn name(&self) -> &str {
        match self.rule {
            ScoreRule::Wfp3 => "WFP3",
            ScoreRule::Unicef => "UNICEF",
        }
    }

    fn requires_oracle(&self) -> bool {
        true
    }

    fn on_job_completed(&mut self, job: JobId, _now: SimTime) {
        self.estimates.remove(&job);
    }

    fn snapshot_state(&self) -> Option<String> {
        let mut estimates: Vec<FrozenEstimate> = self
            .estimates
            .iter()
            .map(|(&job, &size)| FrozenEstimate {
                job: u32::from(job),
                size,
            })
            .collect();
        estimates.sort_by_key(|e| e.job);
        let state = BackfillState { estimates };
        Some(serde_json::to_string(&state).expect("backfill state serialization cannot fail"))
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        let state: BackfillState =
            serde_json::from_str(state).map_err(|e| format!("malformed backfill state: {e}"))?;
        self.estimates = state
            .estimates
            .into_iter()
            .map(|e| (JobId::new(e.job), e.size))
            .collect();
        Ok(())
    }

    fn check_consistency(&self) -> Result<(), String> {
        for (&job, &size) in &self.estimates {
            if !size.is_finite() || size <= 0.0 {
                return Err(format!(
                    "job {} has invalid frozen estimate {size}",
                    u32::from(job)
                ));
            }
        }
        Ok(())
    }

    fn allocate(&mut self, ctx: &SchedContext<'_>) -> AllocationPlan {
        let jobs = ctx.jobs();
        let now = ctx.now();
        let mut keyed: Vec<(f64, usize)> = (0..jobs.len())
            .map(|i| (self.score(&jobs[i], now), i))
            .collect();
        // Highest score first; ties resolve oldest-arrival then lowest id.
        keyed.sort_by(|a, b| {
            b.0.total_cmp(&a.0)
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
    use lasmq_simulator::{OracleInfo, Service};

    fn view(id: u32, size: f64, tasks: u32, arrival_secs: u64) -> JobView {
        JobView {
            id: JobId::new(id),
            arrival: SimTime::from_secs(arrival_secs),
            admitted_at: SimTime::from_secs(arrival_secs),
            priority: 1,
            attained: Service::ZERO,
            attained_stage: Service::ZERO,
            stage_index: 0,
            stage_count: 1,
            stage_progress: 0.0,
            remaining_tasks: tasks,
            unstarted_tasks: tasks,
            containers_per_task: 1,
            held: 0,
            oracle: Some(OracleInfo {
                total_size: Service::from_container_secs(size),
                remaining: Service::from_container_secs(size),
            }),
        }
    }

    #[test]
    fn wfp3_ages_short_jobs_fastest() {
        // Equal width, equal wait: the shorter job's runtime denominator
        // is smaller, so its score is higher.
        let mut sched = Backfill::wfp3(0.0, 0);
        let jobs = vec![view(0, 1_000.0, 10, 0), view(1, 10.0, 10, 0)];
        let ctx = SchedContext::new(SimTime::from_secs(100), 5, &jobs);
        let plan = sched.allocate(&ctx);
        assert_eq!(plan.entries()[0].0, JobId::new(1));
    }

    #[test]
    fn wfp3_prefers_wider_jobs_at_equal_per_task_runtime() {
        // Same per-task runtime (size/procs), same wait — the ×procs term
        // favors the wider job.
        let mut sched = Backfill::wfp3(0.0, 0);
        let jobs = vec![view(0, 100.0, 10, 0), view(1, 400.0, 40, 0)];
        let ctx = SchedContext::new(SimTime::from_secs(100), 5, &jobs);
        let plan = sched.allocate(&ctx);
        assert_eq!(plan.entries()[0].0, JobId::new(1));
    }

    #[test]
    fn unicef_prefers_narrow_short_jobs() {
        // UNICEF discounts width: at equal per-task runtime the narrow job
        // wins (opposite of WFP3's tie-break direction).
        let mut sched = Backfill::unicef(0.0, 0);
        let jobs = vec![view(0, 100.0, 10, 0), view(1, 400.0, 40, 0)];
        let ctx = SchedContext::new(SimTime::from_secs(100), 5, &jobs);
        let plan = sched.allocate(&ctx);
        assert_eq!(plan.entries()[0].0, JobId::new(0));
    }

    #[test]
    fn zero_wait_falls_back_to_arrival_order() {
        // At the arrival instant every score is 0 — ties resolve by
        // arrival then id, so admission order holds.
        let mut sched = Backfill::wfp3(0.0, 0);
        let jobs = vec![view(0, 1_000.0, 10, 0), view(1, 10.0, 10, 0)];
        let ctx = SchedContext::new(SimTime::ZERO, 5, &jobs);
        let plan = sched.allocate(&ctx);
        assert_eq!(plan.entries()[0].0, JobId::new(0));
    }

    #[test]
    fn estimates_are_frozen_at_first_contact() {
        let mut sched = Backfill::unicef(2.0, 9);
        let v = view(3, 500.0, 10, 0);
        let first = { sched.estimate(&v) };
        // Same job, different apparent size: the frozen estimate stands.
        let mut shrunk = v;
        shrunk.oracle = Some(OracleInfo {
            total_size: Service::from_container_secs(1.0),
            remaining: Service::from_container_secs(1.0),
        });
        assert_eq!(sched.estimate(&shrunk), first);
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let mut sched = Backfill::wfp3(1.0, 5);
        let jobs = vec![
            view(0, 500.0, 10, 0),
            view(1, 5.0, 10, 0),
            view(2, 50.0, 10, 0),
        ];
        sched.allocate(&SchedContext::new(SimTime::from_secs(10), 5, &jobs));
        let snap = sched.snapshot_state().unwrap();
        let mut restored = Backfill::wfp3(1.0, 5);
        restored.restore_state(&snap).unwrap();
        assert_eq!(restored.snapshot_state().unwrap(), snap);
        let ctx = SchedContext::new(SimTime::from_secs(20), 5, &jobs);
        assert_eq!(restored.allocate(&ctx), sched.allocate(&ctx));
    }

    #[test]
    fn malformed_state_is_rejected() {
        let mut sched = Backfill::unicef(0.0, 0);
        assert!(sched.restore_state("not json").is_err());
        sched.check_consistency().unwrap();
    }
}
