//! The FIFO baseline.
//!
//! Jobs are served strictly in admission order: the head job receives its
//! full demand, then the next, until the cluster is exhausted. This is
//! YARN's FIFO scheduler, and the paper's worst baseline under mixed job
//! sizes — small jobs are "severely delayed by large jobs" (§V-B1).

use lasmq_simulator::{AllocationPlan, SchedContext, Scheduler};

use crate::grant_in_order;

/// First-in-first-out job scheduling.
///
/// # Examples
///
/// ```
/// use lasmq_schedulers::Fifo;
/// use lasmq_simulator::Scheduler;
///
/// assert_eq!(Fifo::new().name(), "FIFO");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo {
    _private: (),
}

impl Fifo {
    /// Creates the FIFO scheduler.
    pub fn new() -> Self {
        Fifo { _private: () }
    }
}

impl Scheduler for Fifo {
    fn name(&self) -> &str {
        "FIFO"
    }

    fn reads_stage_progress(&self) -> bool {
        false
    }

    // FIFO keeps no state between passes (the plan is recomputed from the
    // admission-ordered views), so there is nothing to snapshot.
    fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
        // ctx.jobs() is in admission order, which is arrival order.
        grant_in_order(plan, ctx.jobs(), ctx.total_containers());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasmq_simulator::{testkit, JobId, JobView, SimTime};

    fn view(id: u32, unstarted: u32, held: u32) -> JobView {
        JobView {
            arrival: SimTime::from_secs(id as u64),
            admitted_at: SimTime::from_secs(id as u64),
            remaining_tasks: unstarted,
            unstarted_tasks: unstarted,
            held,
            ..testkit::view(id)
        }
    }

    #[test]
    fn head_of_line_gets_everything_it_needs() {
        let jobs = vec![view(0, 6, 0), view(1, 10, 0)];
        let ctx = SchedContext::new(SimTime::ZERO, 10, &jobs);
        let plan = Fifo::new().allocate(&ctx);
        assert_eq!(plan.entries(), &[(JobId::new(0), 6), (JobId::new(1), 4)]);
    }

    #[test]
    fn large_head_starves_the_tail() {
        let jobs = vec![view(0, 100, 0), view(1, 1, 0)];
        let ctx = SchedContext::new(SimTime::ZERO, 10, &jobs);
        let plan = Fifo::new().allocate(&ctx);
        assert_eq!(plan.entries(), &[(JobId::new(0), 10)]);
        assert_eq!(plan.target_for(JobId::new(1)), None);
    }

    #[test]
    fn work_conserving_under_scarce_demand() {
        let jobs = vec![view(0, 2, 0), view(1, 3, 0)];
        let ctx = SchedContext::new(SimTime::ZERO, 100, &jobs);
        let plan = Fifo::new().allocate(&ctx);
        assert_eq!(plan.total_target(), 5);
    }

    #[test]
    fn empty_cluster_empty_plan() {
        let ctx = SchedContext::new(SimTime::ZERO, 10, &[]);
        assert!(Fifo::new().allocate(&ctx).is_empty());
    }
}
