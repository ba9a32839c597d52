//! Baseline job schedulers for the LAS_MQ reproduction (ICDCS 2017).
//!
//! The paper compares LAS_MQ against three information-agnostic baselines,
//! all implemented here against
//! [`lasmq_simulator::Scheduler`]:
//!
//! * [`Fifo`] — strict arrival order; suffers head-of-line blocking,
//! * [`Fair`] — priority-weighted max-min sharing (YARN's Fair scheduler
//!   with the paper's random 1–5 priorities); degrades to processor
//!   sharing under concurrent large jobs,
//! * [`Las`] — least attained service; excellent on heavy tails, collapses
//!   to processor sharing when job sizes are similar.
//!
//! The *oracle / estimate* family quantifies the value of the information
//! LAS_MQ does without — all declare `requires_oracle`, which is what
//! makes the engine hand them true sizes:
//!
//! * [`ShortestJobFirst`] (SJF) and [`ShortestRemainingFirst`] (SRTF),
//! * [`EstimatedSjf`] — SJF over *corrupted* estimates, quantifying the
//!   paper's §II argument that bad size estimates (especially
//!   under-estimates) are worse than no estimates,
//! * [`Fsp`] — the Fair Sojourn Protocol: jobs run to completion in the
//!   order a virtual processor-sharing system would finish them. The same
//!   virtual-PS core, built with [`Fsp::hfsp`], is the HFSP-style variant:
//!   progressive estimate refinement from observed stage progress, plus
//!   aging for waiting jobs,
//! * [`Backfill`] — the WFP3 and UNICEF backfill-score heuristics from
//!   the HPC batch-scheduling literature.
//!
//! The estimate-driven entries (SJF-est, FSP, HFSP, WFP3, UNICEF) all
//! corrupt the oracle size through the shared [`noise::SizeNoise`] model,
//! so the robustness campaign compares them on identical noisy traces.
//!
//! The zoo has two kernels, and a policy file holds its key, tie-break and
//! weight and nothing else. Every policy that is "key each job, sort,
//! grant in that order" — LAS, SJF, SRTF, SJF-est, WFP3, UNICEF and
//! LEARNED — is one closure handed to [`rank_and_grant`]. FAIR, PS and
//! `lasmq-yarn`'s capacity scheduler rank the same way, then split the
//! cluster by weight in that order: a key and a weight handed to
//! [`rank_and_share`].
//!
//! Two further information-agnostic entries extend the lineup beyond the
//! paper's legend:
//!
//! * [`Ps`] — idealized equal-share processor sharing, the policy Fair
//!   and LAS degrade to under concurrent similar jobs,
//! * [`LearnedScheduler`] — ranks jobs with a trained [`LinearPolicy`]
//!   over the [`learned::job_features`] vector (runtime-observable
//!   signals only; trained by `ext_train` in `lasmq-experiments`).
//!
//! The [`share`] module provides the demand-capped weighted max-min
//! primitive under [`rank_and_share`] and LAS_MQ's across-queue sharing in
//! `lasmq-core`.
//!
//! # Examples
//!
//! ```
//! use lasmq_schedulers::{Fair, Fifo, Las};
//! use lasmq_simulator::Scheduler;
//!
//! let (fifo, fair, las) = (Fifo::new(), Fair::new(), Las::new());
//! assert_eq!([fifo.name(), fair.name(), las.name()], ["FIFO", "FAIR", "LAS"]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod backfill;
pub mod estimated;
pub mod fair;
pub mod fifo;
pub mod fsp;
pub mod las;
pub mod learned;
pub mod noise;
pub mod oracle;
pub mod ps;
pub mod share;

pub use backfill::Backfill;
pub use estimated::EstimatedSjf;
pub use fair::Fair;
pub use fifo::Fifo;
pub use fsp::Fsp;
pub use las::Las;
pub use learned::{
    job_features, ClusterFeatures, LearnedScheduler, LinearPolicy, FEATURE_COUNT, FEATURE_NAMES,
    POLICY_SCHEMA_VERSION,
};
pub use oracle::{ShortestJobFirst, ShortestRemainingFirst};
pub use ps::Ps;

use lasmq_simulator::{AllocationPlan, JobView, OracleInfo, SchedContext};

use crate::share::{weighted_shares_into, ShareRequest, ShareScratch};

/// Ranks the context's jobs by `key` and grants in that order into
/// `plan`: smallest primary key first under IEEE 754 `totalOrder` (so NaN
/// keys stay orderable; negate a score to serve the highest first), then
/// the policy's tie-break, then admission order (the sort is stable and
/// [`SchedContext::jobs`] is in admission order). Each job gets its full
/// useful demand until the cluster's containers run out.
///
/// # Examples
///
/// ```
/// use lasmq_schedulers::rank_and_grant;
/// use lasmq_simulator::testkit::view;
/// use lasmq_simulator::{AllocationPlan, JobId, JobView, SchedContext, SimTime};
///
/// // Fewest remaining tasks first, ties to the lower id.
/// let jobs = [view(0), JobView { unstarted_tasks: 3, remaining_tasks: 3, ..view(1) }];
/// let ctx = SchedContext::new(SimTime::ZERO, 10, &jobs);
/// let mut plan = AllocationPlan::new();
/// rank_and_grant(&ctx, &mut plan, |j| (f64::from(j.remaining_tasks), j.id));
/// assert_eq!(plan.entries(), &[(JobId::new(1), 3), (JobId::new(0), 7)]);
/// ```
pub fn rank_and_grant<T: Ord>(
    ctx: &SchedContext<'_>,
    plan: &mut AllocationPlan,
    key: impl FnMut(&JobView) -> (f64, T),
) {
    let jobs = ctx.jobs();
    let mut ranked = Vec::new();
    rank(jobs, key, &mut ranked);
    grant_in_order(
        plan,
        ranked.iter().map(|&(_, i)| &jobs[i]),
        ctx.total_containers(),
    );
}

/// Ranks the context's jobs by `key` exactly as [`rank_and_grant`] does,
/// then splits the cluster among them in that order by demand-capped
/// weighted max-min sharing ([`share::weighted_shares_into`]) with each job's
/// `weight`; the rank decides who gets the rounding surplus. Pushes the
/// positive shares into `plan` in rank order. `scratch` is reused, so a
/// warm pass allocates nothing. Panics on a negative or non-finite weight.
///
/// # Examples
///
/// ```
/// use lasmq_schedulers::{rank_and_share, RankShareScratch};
/// use lasmq_simulator::testkit::view;
/// use lasmq_simulator::{AllocationPlan, JobId, SchedContext, SimTime};
///
/// // Equal weights over 5 containers: the lower id takes the odd one.
/// let jobs = [view(1), view(0)];
/// let ctx = SchedContext::new(SimTime::ZERO, 5, &jobs);
/// let (mut plan, mut scratch) = (AllocationPlan::new(), RankShareScratch::default());
/// rank_and_share(&ctx, &mut plan, &mut scratch, |j| (0.0, j.id), |_| 1.0);
/// assert_eq!(plan.entries(), &[(JobId::new(0), 3), (JobId::new(1), 2)]);
/// ```
pub fn rank_and_share<T: Ord>(
    ctx: &SchedContext<'_>,
    plan: &mut AllocationPlan,
    scratch: &mut RankShareScratch<T>,
    key: impl FnMut(&JobView) -> (f64, T),
    mut weight: impl FnMut(&JobView) -> f64,
) {
    let jobs = ctx.jobs();
    rank(jobs, key, &mut scratch.ranked);
    let in_rank = || scratch.ranked.iter().map(|&(_, i)| &jobs[i]);
    let requests = in_rank().map(|j| ShareRequest::new(j.max_useful_allocation(), weight(j)));
    scratch.requests.clear();
    scratch.requests.extend(requests);
    weighted_shares_into(
        ctx.total_containers(),
        &scratch.requests,
        &mut scratch.share,
        &mut scratch.shares,
    );
    plan.extend(
        in_rank()
            .zip(&scratch.shares)
            .filter(|(_, &s)| s > 0)
            .map(|(j, &s)| (j.id, s)),
    );
}

/// Reusable working memory for [`rank_and_share`], typed by the policy's
/// tie-break `T`. Holds nothing between passes.
#[derive(Debug, Clone, Default)]
pub struct RankShareScratch<T> {
    ranked: Vec<((f64, T), usize)>,
    requests: Vec<ShareRequest>,
    shares: Vec<u32>,
    share: ShareScratch,
}

/// The ranking both kernels share: `(key, slot)` per job, smallest key
/// first under `totalOrder`, then the tie-break, stable in slot order.
fn rank<T: Ord>(
    jobs: &[JobView],
    mut key: impl FnMut(&JobView) -> (f64, T),
    ranked: &mut Vec<((f64, T), usize)>,
) {
    ranked.clear();
    ranked.extend(jobs.iter().enumerate().map(|(i, j)| (key(j), i)));
    ranked.sort_by(|((a, ta), _), ((b, tb), _)| a.total_cmp(b).then_with(|| ta.cmp(tb)));
}

/// The ground truth an oracle-family scheduler reads from a view.
fn oracle_info(view: &JobView) -> OracleInfo {
    view.oracle
        .expect("engine guarantees oracle info for oracle schedulers")
}

/// The grant loop every strict-priority policy ends with: walk `jobs` in
/// the policy's priority order and give each its full useful demand until
/// the cluster's `total_containers` run out, appending to `plan`. Jobs
/// with nothing to use are skipped, so the plan lists only positive
/// grants.
fn grant_in_order<'a>(
    plan: &mut AllocationPlan,
    jobs: impl IntoIterator<Item = &'a JobView>,
    total_containers: u32,
) {
    let mut budget = total_containers;
    for job in jobs {
        if budget == 0 {
            break;
        }
        let want = job.max_useful_allocation().min(budget);
        if want > 0 {
            plan.push(job.id, want);
            budget -= want;
        }
    }
}
