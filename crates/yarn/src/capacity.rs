//! An emulation of YARN's capacity scheduler, reduced to what the paper's
//! deployment uses.
//!
//! "The capacity scheduler can change the capacities of queues by updating
//! the configuration file on a real-time basis. In our implementation,
//! each application is assigned to a unique queue. Thus, we can control
//! the amount of resources for each application by setting the capacities
//! of queues." (§IV)
//!
//! This module provides exactly that interface: a flat set of leaf queues,
//! each holding at most one application, with **capacities** (fractions of
//! the cluster) that an external controller updates between scheduling
//! rounds. Allocation is work-conserving, like YARN's with elasticity on:
//! a queue's unused guarantee spills over to queues that can use it.

use std::collections::BTreeMap;

use lasmq_schedulers::{rank_and_share, RankShareScratch};
use lasmq_simulator::{AllocationPlan, JobId, JobView, SchedContext, Scheduler, SimTime};

/// Capacity granularity modes, mirroring how fine a real configuration
/// file can express queue capacities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapacityGranularity {
    /// Capacities are arbitrary `f64` fractions (an idealized deployment).
    Exact,
    /// Capacities are rounded to whole percent steps, as in a YARN
    /// `capacity-scheduler.xml` holding percentages — the quantization a
    /// real deployment of the paper's design pays.
    WholePercent,
}

impl CapacityGranularity {
    fn quantize(self, fraction: f64) -> f64 {
        match self {
            CapacityGranularity::Exact => fraction,
            CapacityGranularity::WholePercent => (fraction * 100.0).round() / 100.0,
        }
    }
}

/// The emulated capacity scheduler: one leaf queue per application,
/// runtime-updatable capacities, work-conserving elasticity.
///
/// On its own (no controller updating capacities) every queue keeps the
/// capacity assigned at submission, which defaults to an equal share —
/// i.e. plain YARN behaviour. The paper's LAS_MQ deployment drives it via
/// [`CapacityController`](crate::CapacityController).
///
/// # Examples
///
/// ```
/// use lasmq_yarn::{CapacityGranularity, CapacityScheduler};
///
/// let sched = CapacityScheduler::new(CapacityGranularity::WholePercent);
/// assert_eq!(sched.capacities().len(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct CapacityScheduler {
    granularity: CapacityGranularity,
    /// Ordered by id, so the default share sums in the same order in
    /// every process.
    capacities: BTreeMap<JobId, f64>,
    /// The share kernel's reused working memory; no state between passes.
    scratch: RankShareScratch<JobId>,
}

impl CapacityScheduler {
    /// An empty scheduler with the given capacity granularity.
    pub fn new(granularity: CapacityGranularity) -> Self {
        CapacityScheduler {
            granularity,
            capacities: BTreeMap::new(),
            scratch: RankShareScratch::default(),
        }
    }

    /// Current per-application capacities (fractions of the cluster).
    pub fn capacities(&self) -> &BTreeMap<JobId, f64> {
        &self.capacities
    }

    /// Updates one application queue's capacity — the "update the
    /// configuration file on a real-time basis" call. Fractions are
    /// clamped to `[0, 1]` and quantized per the configured granularity.
    pub fn set_capacity(&mut self, app: JobId, fraction: f64) {
        let clamped = if fraction.is_finite() {
            fraction.clamp(0.0, 1.0)
        } else {
            0.0
        };
        self.capacities
            .insert(app, self.granularity.quantize(clamped));
    }

    /// Replaces all capacities at once (one refresh round).
    pub fn set_capacities(&mut self, fractions: impl IntoIterator<Item = (JobId, f64)>) {
        self.capacities.clear();
        for (app, fraction) in fractions {
            self.set_capacity(app, fraction);
        }
    }

    /// Removes a finished application's queue.
    pub fn remove_app(&mut self, app: JobId) {
        self.capacities.remove(&app);
    }
}

impl Scheduler for CapacityScheduler {
    fn name(&self) -> &str {
        "CAPACITY"
    }

    fn on_job_completed(&mut self, job: JobId, _now: SimTime) {
        self.remove_app(job);
    }

    /// Allocates the cluster per the current capacities: each app queue is
    /// guaranteed `capacity × cluster` (rounded via weighted sharing), and
    /// unused guarantees spill to queues with demand (YARN elasticity).
    /// Apps without an explicit capacity get the mean capacity (a fresh
    /// queue's default share), summed in `JobId` order.
    fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
        let default_weight = if self.capacities.is_empty() {
            1.0
        } else {
            (self.capacities.values().sum::<f64>() / self.capacities.len() as f64).max(1e-6)
        };
        let capacity = |view: &JobView| -> f64 {
            self.capacities
                .get(&view.id)
                .copied()
                .unwrap_or(default_weight)
                .max(1e-9)
        };
        // Serve queues in descending capacity so the rounding bonus lands
        // on the largest guarantees; ties by id for determinism.
        let descending = |j: &JobView| (-capacity(j), j.id);
        rank_and_share(ctx, plan, &mut self.scratch, descending, capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasmq_simulator::Service;

    fn view(id: u32, unstarted: u32) -> JobView {
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
            remaining_tasks: unstarted,
            unstarted_tasks: unstarted,
            containers_per_task: 1,
            held: 0,
            oracle: None,
        }
    }

    #[test]
    fn capacities_divide_the_cluster() {
        let mut sched = CapacityScheduler::new(CapacityGranularity::Exact);
        sched.set_capacities([(JobId::new(0), 0.75), (JobId::new(1), 0.25)]);
        let jobs = vec![view(0, 100), view(1, 100)];
        let ctx = SchedContext::new(SimTime::ZERO, 40, &jobs);
        let plan = sched.allocate(&ctx);
        assert_eq!(plan.target_for(JobId::new(0)), Some(30));
        assert_eq!(plan.target_for(JobId::new(1)), Some(10));
    }

    #[test]
    fn unused_capacity_spills_over() {
        let mut sched = CapacityScheduler::new(CapacityGranularity::Exact);
        sched.set_capacities([(JobId::new(0), 0.9), (JobId::new(1), 0.1)]);
        // App 0 can only use 5 containers; its guarantee flows to app 1.
        let jobs = vec![view(0, 5), view(1, 100)];
        let ctx = SchedContext::new(SimTime::ZERO, 40, &jobs);
        let plan = sched.allocate(&ctx);
        assert_eq!(plan.target_for(JobId::new(0)), Some(5));
        assert_eq!(plan.target_for(JobId::new(1)), Some(35));
    }

    #[test]
    fn whole_percent_quantizes() {
        let mut sched = CapacityScheduler::new(CapacityGranularity::WholePercent);
        sched.set_capacity(JobId::new(0), 0.3333);
        assert_eq!(sched.capacities()[&JobId::new(0)], 0.33);
        sched.set_capacity(JobId::new(1), 0.0049);
        assert_eq!(sched.capacities()[&JobId::new(1)], 0.0);
    }

    #[test]
    fn unknown_apps_get_the_default_share() {
        let mut sched = CapacityScheduler::new(CapacityGranularity::Exact);
        let jobs = vec![view(0, 100), view(1, 100)];
        let ctx = SchedContext::new(SimTime::ZERO, 10, &jobs);
        let plan = sched.allocate(&ctx);
        assert_eq!(plan.target_for(JobId::new(0)), Some(5));
        assert_eq!(plan.target_for(JobId::new(1)), Some(5));
    }

    #[test]
    fn the_default_share_is_the_same_in_every_process() {
        // Seven capacities whose float sum depends on the order they are
        // added in; the mean is summed in id order, so the plan for the
        // two apps without a capacity is fixed.
        let caps = [0.1, 0.2, 0.3, 0.7, 0.11, 0.13, 0.17];
        let mut sched = CapacityScheduler::new(CapacityGranularity::Exact);
        sched.set_capacities(
            caps.iter()
                .enumerate()
                .map(|(i, &c)| (JobId::new(i as u32), c)),
        );
        let sum: f64 = sched.capacities().values().sum();
        let in_id_order = caps.iter().fold(0.0, |acc, c| acc + c);
        assert_eq!(sum.to_bits(), in_id_order.to_bits());
        let jobs: Vec<JobView> = (0..9).map(|i| view(i, 1_000)).collect();
        let ctx = SchedContext::new(SimTime::ZERO, 997, &jobs);
        let plan = sched.allocate(&ctx);
        let targets: Vec<u32> = (0..9)
            .map(|i| plan.target_for(JobId::new(i)).unwrap_or(0))
            .collect();
        assert_eq!(targets, [45, 91, 136, 317, 50, 59, 77, 111, 111]);
    }

    #[test]
    fn bad_fractions_are_sanitized() {
        let mut sched = CapacityScheduler::new(CapacityGranularity::Exact);
        sched.set_capacity(JobId::new(0), f64::NAN);
        sched.set_capacity(JobId::new(1), 7.0);
        sched.set_capacity(JobId::new(2), -3.0);
        assert_eq!(sched.capacities()[&JobId::new(0)], 0.0);
        assert_eq!(sched.capacities()[&JobId::new(1)], 1.0);
        assert_eq!(sched.capacities()[&JobId::new(2)], 0.0);
    }

    #[test]
    fn completed_apps_drop_their_queue() {
        let mut sched = CapacityScheduler::new(CapacityGranularity::Exact);
        sched.set_capacity(JobId::new(0), 0.5);
        sched.on_job_completed(JobId::new(0), SimTime::ZERO);
        assert!(sched.capacities().is_empty());
    }
}
