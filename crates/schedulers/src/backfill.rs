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
//! the shared [`SizeNoise`] model, one draw per job.
//! `procs` maps to the job's remaining container demand and `runtime` to
//! `estimate / procs` (the time the job would need at full width).
//! Scores are recomputed every pass from pass-visible state only, so the
//! engine and the reference executor agree bit-for-bit.

use lasmq_simulator::{AllocationPlan, JobId, JobView, SchedContext, Scheduler, SimTime};

use crate::noise::{EstimateMemo, SizeNoise};
use crate::rank_and_grant;

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
    /// Per-job size estimates, one per job like a user-declared walltime.
    estimates: EstimateMemo,
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
        Backfill::with_rule(ScoreRule::Wfp3, sigma, seed)
    }

    /// The UNICEF scheduler: rank by `wait / (log₂(procs + 1) × runtime)`,
    /// highest first. Parameters as in [`Backfill::wfp3`].
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn unicef(sigma: f64, seed: u64) -> Self {
        Backfill::with_rule(ScoreRule::Unicef, sigma, seed)
    }

    fn with_rule(rule: ScoreRule, sigma: f64, seed: u64) -> Self {
        Backfill {
            rule,
            estimates: EstimateMemo::new(SizeNoise::new(sigma, 0.0, seed)),
        }
    }

    /// The priority score for one job at `now` — higher runs first.
    fn score(&mut self, view: &JobView, now: SimTime) -> f64 {
        let wait = now.saturating_since(view.arrival).as_secs_f64();
        let procs = view.remaining_demand().max(1) as f64;
        // `estimate` is floored at a positive epsilon, so runtime > 0.
        let runtime = self.estimates.estimate(view).as_container_secs() / procs;
        match self.rule {
            ScoreRule::Wfp3 => (wait / runtime).powi(3) * procs,
            ScoreRule::Unicef => wait / ((procs + 1.0).log2() * runtime),
        }
    }
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

    fn reads_stage_progress(&self) -> bool {
        false
    }

    fn on_job_completed(&mut self, job: JobId, _now: SimTime) {
        self.estimates.forget(job);
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
        let now = ctx.now();
        // Highest score first; ties resolve oldest-arrival then lowest id.
        rank_and_grant(ctx, plan, |j| (-self.score(j, now), (j.arrival, j.id)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasmq_simulator::{testkit, OracleInfo, Service};

    fn view(id: u32, size: f64, tasks: u32, arrival_secs: u64) -> JobView {
        JobView {
            arrival: SimTime::from_secs(arrival_secs),
            admitted_at: SimTime::from_secs(arrival_secs),
            remaining_tasks: tasks,
            unstarted_tasks: tasks,
            oracle: Some(OracleInfo {
                total_size: Service::from_container_secs(size),
                remaining: Service::from_container_secs(size),
            }),
            ..testkit::view(id)
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
}
