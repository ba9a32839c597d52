//! Oracle baselines: SJF and SRTF with ground-truth job sizes.
//!
//! The paper's motivation (§I) is that shortest-job-first and
//! shortest-remaining-time-first are excellent *if* job sizes are known —
//! which they usually are not. These schedulers quantify the "price of no
//! information": they read the true sizes from [`JobView::oracle`], which
//! the engine populates because they declare `requires_oracle` (and for no
//! scheduler that does not).
//!
//! [`JobView::oracle`]: lasmq_simulator::JobView

use lasmq_simulator::{AllocationPlan, SchedContext, Scheduler};

use crate::{oracle_info, rank_and_grant};

/// Shortest job first (preemptive, by true total size).
///
/// # Examples
///
/// ```
/// use lasmq_schedulers::ShortestJobFirst;
/// use lasmq_simulator::Scheduler;
///
/// let sjf = ShortestJobFirst::new();
/// assert!(sjf.requires_oracle());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ShortestJobFirst {
    _private: (),
}

impl ShortestJobFirst {
    /// Creates the SJF oracle scheduler.
    pub fn new() -> Self {
        ShortestJobFirst { _private: () }
    }
}

impl Scheduler for ShortestJobFirst {
    fn name(&self) -> &str {
        "SJF"
    }

    fn requires_oracle(&self) -> bool {
        true
    }

    fn reads_stage_progress(&self) -> bool {
        false
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
        rank_and_grant(ctx, plan, |j| {
            (
                oracle_info(j).total_size.as_container_secs(),
                (j.arrival, j.id),
            )
        });
    }
}

/// Shortest remaining time first (preemptive, by true remaining service).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShortestRemainingFirst {
    _private: (),
}

impl ShortestRemainingFirst {
    /// Creates the SRTF oracle scheduler.
    pub fn new() -> Self {
        ShortestRemainingFirst { _private: () }
    }
}

impl Scheduler for ShortestRemainingFirst {
    fn name(&self) -> &str {
        "SRTF"
    }

    fn requires_oracle(&self) -> bool {
        true
    }

    fn reads_stage_progress(&self) -> bool {
        false
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
        rank_and_grant(ctx, plan, |j| {
            (
                oracle_info(j).remaining.as_container_secs(),
                (j.arrival, j.id),
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasmq_simulator::{testkit, JobId, JobView, OracleInfo, Service, SimTime};

    fn view(id: u32, total: f64, remaining: f64) -> JobView {
        JobView {
            oracle: Some(OracleInfo {
                total_size: Service::from_container_secs(total),
                remaining: Service::from_container_secs(remaining),
            }),
            ..testkit::view(id)
        }
    }

    #[test]
    fn sjf_orders_by_total_size() {
        let jobs = vec![view(0, 100.0, 10.0), view(1, 5.0, 5.0)];
        let ctx = SchedContext::new(SimTime::ZERO, 8, &jobs);
        let plan = ShortestJobFirst::new().allocate(&ctx);
        assert_eq!(plan.entries()[0].0, JobId::new(1));
    }

    #[test]
    fn srtf_orders_by_remaining() {
        // Job 0 is bigger in total but nearly done.
        let jobs = vec![view(0, 100.0, 2.0), view(1, 5.0, 5.0)];
        let ctx = SchedContext::new(SimTime::ZERO, 8, &jobs);
        let plan = ShortestRemainingFirst::new().allocate(&ctx);
        assert_eq!(plan.entries()[0].0, JobId::new(0));
    }

    #[test]
    fn surplus_cascades_down_the_order() {
        let mut small = view(1, 5.0, 5.0);
        small.unstarted_tasks = 2;
        small.remaining_tasks = 2;
        let jobs = vec![view(0, 100.0, 100.0), small];
        let ctx = SchedContext::new(SimTime::ZERO, 10, &jobs);
        let plan = ShortestJobFirst::new().allocate(&ctx);
        assert_eq!(plan.entries(), &[(JobId::new(1), 2), (JobId::new(0), 8)]);
    }
}
