//! The paper's Fig. 4 deployment: LAS_MQ as a capacity-updating
//! controller.
//!
//! In the paper, LAS_MQ never hands containers out directly — it is a
//! plug-in that, on every scheduling round, recomputes each application
//! queue's *capacity* and lets YARN's capacity scheduler do the actual
//! allocation. [`CapacityController`] reproduces that indirection: an
//! inner policy (LAS_MQ or any other [`Scheduler`]) produces its per-job
//! container targets, the controller converts them into capacity fractions
//! (optionally quantized to whole percents, as a real
//! `capacity-scheduler.xml` would be), pushes them into the
//! [`CapacityScheduler`], and the capacity scheduler allocates.
//!
//! The point of carrying this extra moving part: the equivalence tests in
//! `tests/deployment_equivalence.rs` show the indirection is faithful —
//! the capacity-mediated LAS_MQ performs like the direct one, with a small
//! quantization cost at whole-percent granularity. That is the evidence
//! that the paper's deployment mechanism does not distort its algorithm.

use lasmq_simulator::{
    AllocationPlan, JobId, JobView, QueueDemotion, SchedContext, Scheduler, SimTime,
};

use crate::capacity::{CapacityGranularity, CapacityScheduler};

/// Runs an inner scheduling policy through the capacity-scheduler
/// indirection of the paper's YARN deployment.
///
/// # Examples
///
/// ```
/// use lasmq_core::LasMq;
/// use lasmq_simulator::Scheduler;
/// use lasmq_yarn::{CapacityController, CapacityGranularity};
///
/// let deployed = CapacityController::new(
///     LasMq::with_paper_defaults(),
///     CapacityGranularity::WholePercent,
/// );
/// assert_eq!(deployed.name(), "LAS_MQ@capacity");
/// ```
#[derive(Debug)]
pub struct CapacityController<S> {
    inner: S,
    capacity: CapacityScheduler,
    name: String,
}

impl<S: Scheduler> CapacityController<S> {
    /// Deploys `inner` behind a capacity scheduler of the given
    /// granularity.
    pub fn new(inner: S, granularity: CapacityGranularity) -> Self {
        let name = format!("{}@capacity", inner.name());
        CapacityController {
            inner,
            capacity: CapacityScheduler::new(granularity),
            name,
        }
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The emulated capacity scheduler (to inspect current capacities).
    pub fn capacity_scheduler(&self) -> &CapacityScheduler {
        &self.capacity
    }
}

impl<S: Scheduler> Scheduler for CapacityController<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn requires_oracle(&self) -> bool {
        self.inner.requires_oracle()
    }

    fn reads_stage_progress(&self) -> bool {
        // The capacity scheduler divides by demand and capacity only.
        self.inner.reads_stage_progress()
    }

    fn on_job_admitted(&mut self, view: &JobView, now: SimTime) {
        self.inner.on_job_admitted(view, now);
    }

    fn on_stage_completed(&mut self, job: JobId, new_stage_index: usize, now: SimTime) {
        self.inner.on_stage_completed(job, new_stage_index, now);
    }

    fn on_job_completed(&mut self, job: JobId, now: SimTime) {
        self.inner.on_job_completed(job, now);
        self.capacity.remove_app(job);
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
        // 1. The policy decides per-job container targets…
        self.inner.allocate_into(ctx, plan);
        // 2. …which become queue capacities ("update the configuration
        //    file"): 0 for every job, then each entry of a job in the pass
        //    overwrites it, so the last entry wins, exactly like targets.
        let total = ctx.total_containers().max(1) as f64;
        self.capacity
            .set_capacities(ctx.jobs().iter().map(|j| (j.id, 0.0)));
        for &(job, target) in plan.entries() {
            if self.capacity.capacities().contains_key(&job) {
                self.capacity.set_capacity(job, target as f64 / total);
            }
        }
        // 3. The capacity scheduler performs the actual allocation, in
        //    place of the policy's targets.
        plan.clear();
        self.capacity.allocate_into(ctx, plan);
    }

    fn queue_depths(&self) -> Option<Vec<u32>> {
        self.inner.queue_depths()
    }

    fn drain_demotions(&mut self) -> Vec<QueueDemotion> {
        self.inner.drain_demotions()
    }

    // The capacities are rewritten from the policy's plan on every pass, so
    // the policy's state is all there is to carry across a snapshot.
    fn snapshot_state(&self) -> Option<String> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        self.inner.restore_state(state)
    }

    fn check_consistency(&self) -> Result<(), String> {
        self.inner.check_consistency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasmq_core::LasMq;
    use lasmq_simulator::Service;

    fn view(id: u32, attained: f64, unstarted: u32) -> JobView {
        JobView {
            id: JobId::new(id),
            arrival: SimTime::ZERO,
            admitted_at: SimTime::ZERO,
            priority: 1,
            attained: Service::from_container_secs(attained),
            attained_stage: Service::from_container_secs(attained),
            stage_index: 0,
            stage_count: 1,
            stage_progress: 0.0,
            remaining_tasks: unstarted,
            unstarted_tasks: unstarted,
            containers_per_task: 1,
            held: 0,
            oracle: None,
        }
    }

    #[test]
    fn controller_pushes_policy_targets_as_capacities() {
        let mut deployed =
            CapacityController::new(LasMq::with_paper_defaults(), CapacityGranularity::Exact);
        let views = vec![view(0, 0.0, 50), view(1, 5_000.0, 50)];
        for v in &views {
            deployed.on_job_admitted(v, SimTime::ZERO);
        }
        let ctx = SchedContext::new(SimTime::ZERO, 100, &views);
        let plan = deployed.allocate(&ctx);
        // Capacities were installed for both apps and sum to ~1 under
        // saturation.
        let caps = deployed.capacity_scheduler().capacities();
        assert_eq!(caps.len(), 2);
        let sum: f64 = caps.values().sum();
        assert!((sum - 1.0).abs() < 1e-9, "capacities sum {sum}");
        // And the final plan matches the policy's intent at exact
        // granularity.
        assert_eq!(plan.total_target(), 100);
    }

    #[test]
    fn quantization_changes_targets_by_at_most_a_percent_step() {
        let mut exact =
            CapacityController::new(LasMq::with_paper_defaults(), CapacityGranularity::Exact);
        let mut percent = CapacityController::new(
            LasMq::with_paper_defaults(),
            CapacityGranularity::WholePercent,
        );
        let views: Vec<JobView> = (0..7).map(|i| view(i, i as f64 * 300.0, 40)).collect();
        for v in &views {
            exact.on_job_admitted(v, SimTime::ZERO);
            percent.on_job_admitted(v, SimTime::ZERO);
        }
        let ctx = SchedContext::new(SimTime::ZERO, 120, &views);
        let a = exact.allocate(&ctx);
        let b = percent.allocate(&ctx);
        for v in &views {
            let ta = a.target_for(v.id).unwrap_or(0) as i64;
            let tb = b.target_for(v.id).unwrap_or(0) as i64;
            // 1% of 120 containers = 1.2; allow rounding slack of 2 plus
            // redistribution of the rounding remainders.
            assert!((ta - tb).abs() <= 4, "{}: {ta} vs {tb}", v.id);
        }
    }

    #[test]
    fn completed_jobs_clear_both_layers() {
        let mut deployed =
            CapacityController::new(LasMq::with_paper_defaults(), CapacityGranularity::Exact);
        let v = view(0, 0.0, 10);
        deployed.on_job_admitted(&v, SimTime::ZERO);
        let views = vec![v];
        let ctx = SchedContext::new(SimTime::ZERO, 10, &views);
        let _ = deployed.allocate(&ctx);
        assert!(!deployed.capacity_scheduler().capacities().is_empty());
        deployed.on_job_completed(JobId::new(0), SimTime::ZERO);
        assert!(deployed.capacity_scheduler().capacities().is_empty());
        assert_eq!(deployed.inner().queue_lengths().iter().sum::<usize>(), 0);
    }
}
