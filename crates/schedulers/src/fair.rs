//! The Fair baseline.
//!
//! YARN's Fair scheduler divides the cluster among running jobs in
//! proportion to their weights; in the paper's experiments "the priorities
//! of jobs are randomly generated integers ranging from 1 to 5" (§V-A) and
//! act as the weights. Demand-capped weighted max-min fairness makes the
//! allocation work-conserving: what a small job cannot use flows to the
//! others.
//!
//! Under many concurrently running large jobs, Fair degrades to processor
//! sharing — the failure mode LAS_MQ is designed to avoid.

use lasmq_simulator::{AllocationPlan, JobId, JobView, SchedContext, Scheduler, SimTime};

use crate::{rank_and_share, RankShareScratch};

/// Serialized snapshot of the Fair scheduler. Fair recomputes shares from
/// scratch every pass, so the only thing worth checking on restore is that
/// the weighting mode matches the snapshotted run.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct FairState {
    ignore_priorities: bool,
}

/// Priority-weighted fair sharing.
///
/// # Examples
///
/// ```
/// use lasmq_schedulers::Fair;
/// use lasmq_simulator::Scheduler;
///
/// assert_eq!(Fair::new().name(), "FAIR");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Fair {
    ignore_priorities: bool,
    /// The share kernel's reused working memory; no state between passes.
    scratch: RankShareScratch<(SimTime, JobId)>,
}

impl Fair {
    /// Fair sharing weighted by job priorities (the paper's configuration).
    pub fn new() -> Self {
        Fair::default()
    }

    /// Plain equal-weight fair sharing, ignoring priorities.
    pub fn unweighted() -> Self {
        Fair {
            ignore_priorities: true,
            ..Fair::default()
        }
    }
}

impl Scheduler for Fair {
    fn name(&self) -> &str {
        "FAIR"
    }

    fn reads_stage_progress(&self) -> bool {
        false
    }

    fn snapshot_state(&self) -> Option<String> {
        let state = FairState {
            ignore_priorities: self.ignore_priorities,
        };
        Some(serde_json::to_string(&state).expect("FAIR state serialization cannot fail"))
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        let state: FairState =
            serde_json::from_str(state).map_err(|e| format!("malformed FAIR state: {e}"))?;
        if state.ignore_priorities != self.ignore_priorities {
            return Err(format!(
                "snapshot was taken with ignore_priorities={}, this instance uses {}",
                state.ignore_priorities, self.ignore_priorities
            ));
        }
        Ok(())
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
        // YARN's fair policy orders apps by usage over weight; replicating
        // that here sends integer-rounding surplus containers to the jobs
        // furthest below their fair share, so equal jobs rotate (processor
        // sharing) rather than the first N monopolizing the rounding bonus.
        let ignore_priorities = self.ignore_priorities;
        let weight = move |j: &JobView| f64::from(if ignore_priorities { 1 } else { j.priority });
        let usage = |j: &JobView| {
            (
                j.attained.as_container_secs() / weight(j),
                (j.admitted_at, j.id),
            )
        };
        rank_and_share(ctx, plan, &mut self.scratch, usage, weight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasmq_simulator::{testkit, JobId, JobView, SimTime};

    fn view(id: u32, priority: u8, unstarted: u32) -> JobView {
        JobView {
            priority,
            remaining_tasks: unstarted,
            unstarted_tasks: unstarted,
            ..testkit::view(id)
        }
    }

    #[test]
    fn splits_by_priority() {
        let jobs = vec![view(0, 1, 100), view(1, 4, 100)];
        let ctx = SchedContext::new(SimTime::ZERO, 10, &jobs);
        let plan = Fair::new().allocate(&ctx);
        assert_eq!(plan.target_for(JobId::new(0)), Some(2));
        assert_eq!(plan.target_for(JobId::new(1)), Some(8));
    }

    #[test]
    fn unweighted_splits_evenly() {
        let jobs = vec![view(0, 1, 100), view(1, 5, 100)];
        let ctx = SchedContext::new(SimTime::ZERO, 10, &jobs);
        let plan = Fair::unweighted().allocate(&ctx);
        assert_eq!(plan.target_for(JobId::new(0)), Some(5));
        assert_eq!(plan.target_for(JobId::new(1)), Some(5));
    }

    #[test]
    fn small_jobs_release_their_surplus() {
        let jobs = vec![view(0, 5, 1), view(1, 1, 100)];
        let ctx = SchedContext::new(SimTime::ZERO, 10, &jobs);
        let plan = Fair::new().allocate(&ctx);
        // Job 0 can only use 1; job 1 absorbs the other 9.
        assert_eq!(plan.target_for(JobId::new(0)), Some(1));
        assert_eq!(plan.target_for(JobId::new(1)), Some(9));
    }

    #[test]
    fn work_conserving_total() {
        let jobs = vec![view(0, 2, 50), view(1, 3, 50), view(2, 5, 50)];
        let ctx = SchedContext::new(SimTime::ZERO, 64, &jobs);
        let plan = Fair::new().allocate(&ctx);
        assert_eq!(plan.total_target(), 64);
    }
}
