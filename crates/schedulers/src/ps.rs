//! The Processor Sharing (PS) baseline.
//!
//! PS divides the cluster equally among all admitted jobs, capped by each
//! job's useful demand, with the surplus of capped jobs recirculating —
//! plain equal-weight max-min fairness. It is the idealized policy that
//! Fair and LAS both *degrade to* in their worst cases (many concurrent
//! similar jobs), so having it as an explicit lineup entry makes those
//! degradations measurable: where LAS ≈ PS the size-based family has
//! nothing left to exploit.
//!
//! Unlike [`Fair`](crate::Fair) with equal weights, PS ignores usage
//! history entirely: the share computation runs over jobs in admission
//! order every pass, so integer-rounding surplus goes to older jobs
//! instead of rotating by attained service.

use lasmq_simulator::{AllocationPlan, SchedContext, Scheduler};

use crate::{rank_and_share, RankShareScratch};

/// Equal-share processor sharing.
///
/// # Examples
///
/// ```
/// use lasmq_schedulers::Ps;
/// use lasmq_simulator::Scheduler;
///
/// assert_eq!(Ps::new().name(), "PS");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Ps {
    /// The share kernel's reused working memory; no state between passes.
    scratch: RankShareScratch<()>,
}

impl Ps {
    /// Creates the PS scheduler.
    pub fn new() -> Self {
        Ps::default()
    }
}

impl Scheduler for Ps {
    fn name(&self) -> &str {
        "PS"
    }

    fn reads_stage_progress(&self) -> bool {
        false
    }

    // PS recomputes equal shares from demand every pass; no state. One
    // constant key keeps admission order.
    fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
        rank_and_share(ctx, plan, &mut self.scratch, |_| (0.0, ()), |_| 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasmq_simulator::{testkit, JobId, JobView, Service, SimTime};

    fn view(id: u32, attained: f64, unstarted: u32) -> JobView {
        JobView {
            admitted_at: SimTime::from_secs(id as u64),
            attained: Service::from_container_secs(attained),
            attained_stage: Service::from_container_secs(attained),
            remaining_tasks: unstarted,
            unstarted_tasks: unstarted,
            ..testkit::view(id)
        }
    }

    #[test]
    fn splits_the_cluster_equally() {
        let jobs = vec![view(0, 100.0, 50), view(1, 0.0, 50)];
        let ctx = SchedContext::new(SimTime::ZERO, 10, &jobs);
        let plan = Ps::new().allocate(&ctx);
        // Attained service is irrelevant: both jobs get half.
        assert_eq!(plan.entries(), &[(JobId::new(0), 5), (JobId::new(1), 5)]);
    }

    #[test]
    fn capped_jobs_surplus_recirculates() {
        let jobs = vec![view(0, 0.0, 2), view(1, 0.0, 100)];
        let ctx = SchedContext::new(SimTime::ZERO, 10, &jobs);
        let plan = Ps::new().allocate(&ctx);
        assert_eq!(plan.entries(), &[(JobId::new(0), 2), (JobId::new(1), 8)]);
    }

    #[test]
    fn work_conserving_under_scarcity() {
        let jobs = vec![view(0, 0.0, 100), view(1, 0.0, 100), view(2, 0.0, 100)];
        let ctx = SchedContext::new(SimTime::ZERO, 10, &jobs);
        let plan = Ps::new().allocate(&ctx);
        assert_eq!(plan.total_target(), 10);
    }
}
