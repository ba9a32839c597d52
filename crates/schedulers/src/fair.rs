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

use lasmq_simulator::{AllocationPlan, JobView, SchedContext, Scheduler};

use crate::share::{weighted_shares_into, ShareRequest, ShareScratch};

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
    /// Reused per-pass buffers: `(usage over weight, slot)` in service
    /// order, the share requests and shares in that order, and the share
    /// computation's working memory. Hold no state between passes.
    order: Vec<(f64, usize)>,
    requests: Vec<ShareRequest>,
    shares: Vec<u32>,
    share_scratch: ShareScratch,
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
        let jobs = ctx.jobs();
        // YARN's fair policy orders apps by usage over weight; replicating
        // that here sends integer-rounding surplus containers to the jobs
        // furthest below their fair share, so equal jobs rotate (processor
        // sharing) rather than the first N monopolizing the rounding bonus.
        let ignore_priorities = self.ignore_priorities;
        let weight = |job: &JobView| {
            if ignore_priorities {
                1.0
            } else {
                f64::from(job.priority)
            }
        };
        // The usage key is computed once per job, not once per comparison.
        self.order.clear();
        self.order.extend(
            jobs.iter()
                .enumerate()
                .map(|(i, j)| (j.attained.as_container_secs() / weight(j), i)),
        );
        self.order.sort_by(|&(usage_a, a), &(usage_b, b)| {
            usage_a
                .total_cmp(&usage_b)
                .then_with(|| jobs[a].admitted_at.cmp(&jobs[b].admitted_at))
                .then_with(|| jobs[a].id.cmp(&jobs[b].id))
        });
        self.requests.clear();
        self.requests.extend(
            self.order.iter().map(|&(_, i)| {
                ShareRequest::new(jobs[i].max_useful_allocation(), weight(&jobs[i]))
            }),
        );
        weighted_shares_into(
            ctx.total_containers(),
            &self.requests,
            &mut self.share_scratch,
            &mut self.shares,
        );
        plan.extend(
            self.order
                .iter()
                .zip(&self.shares)
                .filter(|(_, &share)| share > 0)
                .map(|(&(_, i), &share)| (jobs[i].id, share)),
        );
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
