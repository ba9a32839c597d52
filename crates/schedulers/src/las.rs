//! The LAS (least attained service) baseline.
//!
//! LAS serves the job that has received the least service so far — a
//! preemptive policy that favours small jobs without knowing sizes (Rai et
//! al., SIGMETRICS 2003; §I of the paper). Each pass, jobs are sorted by
//! attained service and given their full demand in that order, so the
//! least-served job takes as much of the cluster as it can use. Over
//! successive quanta, jobs with equal attained service leapfrog one
//! another, which is exactly LAS's processor-sharing behaviour among
//! equals — and its weakness when several large jobs coexist (Fig. 1).

use lasmq_simulator::{AllocationPlan, SchedContext, Scheduler};

use crate::rank_and_grant;

/// Least-attained-service scheduling.
///
/// # Examples
///
/// ```
/// use lasmq_schedulers::Las;
/// use lasmq_simulator::Scheduler;
///
/// assert_eq!(Las::new().name(), "LAS");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Las {
    _private: (),
}

impl Las {
    /// Creates the LAS scheduler.
    pub fn new() -> Self {
        Las { _private: () }
    }
}

impl Scheduler for Las {
    fn name(&self) -> &str {
        "LAS"
    }

    fn reads_stage_progress(&self) -> bool {
        false
    }

    // LAS re-derives its ordering from attained service (which lives in the
    // engine's job views) every pass, so there is nothing to snapshot.
    fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
        rank_and_grant(ctx, plan, |j| {
            (j.attained.as_container_secs(), (j.admitted_at, j.id))
        });
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
    fn least_attained_served_first() {
        let jobs = vec![view(0, 50.0, 100), view(1, 5.0, 100), view(2, 20.0, 100)];
        let ctx = SchedContext::new(SimTime::ZERO, 10, &jobs);
        let plan = Las::new().allocate(&ctx);
        // Job 1 (attained 5) absorbs the whole cluster.
        assert_eq!(plan.entries(), &[(JobId::new(1), 10)]);
    }

    #[test]
    fn surplus_flows_to_next_least_attained() {
        let jobs = vec![view(0, 0.0, 3), view(1, 10.0, 100)];
        let ctx = SchedContext::new(SimTime::ZERO, 10, &jobs);
        let plan = Las::new().allocate(&ctx);
        assert_eq!(plan.entries(), &[(JobId::new(0), 3), (JobId::new(1), 7)]);
    }

    #[test]
    fn ties_break_by_admission_then_id() {
        let jobs = vec![view(1, 0.0, 100), view(0, 0.0, 100)];
        let ctx = SchedContext::new(SimTime::ZERO, 4, &jobs);
        let plan = Las::new().allocate(&ctx);
        // Same attained service: job 0 was admitted earlier (admitted_at =
        // id seconds in this fixture).
        assert_eq!(plan.entries()[0].0, JobId::new(0));
    }

    #[test]
    fn newly_arrived_job_preempts() {
        // A fresh job (attained 0) outranks a long-running one, mirroring
        // Fig. 1's preemption of job A by B and C.
        let jobs = vec![view(0, 1_000.0, 100), view(1, 0.0, 100)];
        let ctx = SchedContext::new(SimTime::ZERO, 8, &jobs);
        let plan = Las::new().allocate(&ctx);
        assert_eq!(plan.entries(), &[(JobId::new(1), 8)]);
    }
}
