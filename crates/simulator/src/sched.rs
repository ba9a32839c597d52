//! The scheduler interface: what a pluggable job scheduler observes and
//! decides.
//!
//! The central design point of this module is **information hiding**. The
//! paper's premise is that job sizes are *not* known in advance, so
//! [`JobView`] — the only window a scheduler gets onto a job — exposes
//! exactly the signals a real YARN scheduler can observe at runtime:
//!
//! * arrival/admission times and the job's configured priority,
//! * attained service so far (total, and within the current stage),
//! * the current stage's index, task counts and *progress* (fraction of the
//!   stage's tasks completed, with partial credit for running tasks — the
//!   counter Hadoop and Spark both export),
//! * current container holdings and demand.
//!
//! True job sizes appear only in [`JobView::oracle`], which is `None` unless
//! the scheduler declares [`Scheduler::requires_oracle`] — so "cheating"
//! baselines such as SJF say so in their own code.

use crate::ids::JobId;
use crate::telemetry::QueueDemotion;
use crate::time::{Service, SimTime};

/// Ground-truth size information, available only to oracle schedulers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleInfo {
    /// The job's true total size in container-seconds.
    pub total_size: Service,
    /// The true service still required to finish the job.
    pub remaining: Service,
}

/// A snapshot of one admitted, unfinished job, as visible to a scheduler.
///
/// All quantities are observable in a real cluster; see the module docs.
/// The struct is plain data with public fields so scheduler implementations
/// can construct views in their own unit tests.
#[derive(Debug, Clone, PartialEq)]
pub struct JobView {
    /// The job's identity.
    pub id: JobId,
    /// When the job was submitted.
    pub arrival: SimTime,
    /// When the job passed admission control (≥ `arrival`).
    pub admitted_at: SimTime,
    /// Configured priority in 1..=5 (used by the Fair baseline).
    pub priority: u8,
    /// Attained service across all stages so far — precise, Eq. (1).
    pub attained: Service,
    /// Attained service within the *current* stage — precise.
    pub attained_stage: Service,
    /// Index of the current stage (0-based).
    pub stage_index: usize,
    /// Total number of stages in the job. Known in advance for Hadoop
    /// (map + reduce) and Spark (the DAG is submitted up front); knowing the
    /// *count* does not reveal stage *sizes*.
    pub stage_count: usize,
    /// Fraction of the current stage completed, in `[0, 1]`: completed
    /// tasks plus the fractional progress of running tasks, over the
    /// stage's task count. This is the "stage progress" counter the paper's
    /// stage-awareness strategy divides by (§III-B).
    ///
    /// Computed on demand: the views the engine hands a scheduler that
    /// declares [`Scheduler::reads_stage_progress`] `false` carry `0.0`
    /// here instead.
    pub stage_progress: f64,
    /// Tasks of the current stage not yet finished (running + unstarted) —
    /// the "remaining tasks including running tasks" of §III-C.
    pub remaining_tasks: u32,
    /// Tasks of the current stage not yet started.
    pub unstarted_tasks: u32,
    /// Containers each task of the current stage occupies (1 for maps, 2
    /// for reduces in the paper's implementation).
    pub containers_per_task: u32,
    /// Containers the job currently holds.
    pub held: u32,
    /// Ground truth sizes; `None` unless the scheduler declares
    /// [`Scheduler::requires_oracle`].
    pub oracle: Option<OracleInfo>,
}

impl JobView {
    /// Containers that would be used by the remaining tasks of the current
    /// stage, including running ones — the paper's in-queue ordering key
    /// (§III-C): `remaining_tasks × containers_per_task`.
    pub fn remaining_demand(&self) -> u32 {
        self.remaining_tasks
            .saturating_mul(self.containers_per_task)
    }

    /// The largest allocation the job can use right now: containers already
    /// held plus what its unstarted ready tasks need.
    pub fn max_useful_allocation(&self) -> u32 {
        self.held
            + self
                .unstarted_tasks
                .saturating_mul(self.containers_per_task)
    }

    /// Whether the job could use more containers than it currently holds.
    pub fn wants_more(&self) -> bool {
        self.unstarted_tasks > 0
    }
}

/// Everything a scheduler sees when asked to allocate: the clock, cluster
/// capacity, and a view of every admitted unfinished job (in admission
/// order).
#[derive(Debug)]
pub struct SchedContext<'a> {
    now: SimTime,
    total_containers: u32,
    jobs: &'a [JobView],
    changed: Option<&'a [usize]>,
}

impl<'a> SchedContext<'a> {
    /// Creates a context. Used by the engine; exposed for scheduler unit
    /// tests.
    pub fn new(now: SimTime, total_containers: u32, jobs: &'a [JobView]) -> Self {
        SchedContext {
            now,
            total_containers,
            jobs,
            changed: None,
        }
    }

    /// Attaches the engine's dirty-set hint: the ascending, unique indices into
    /// [`jobs`](Self::jobs) whose views differ from the previous
    /// scheduling pass on the same scheduler instance. See
    /// [`changed`](Self::changed) for the exact contract.
    pub fn with_changed(mut self, changed: &'a [usize]) -> Self {
        self.changed = Some(changed);
        self
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total containers in the cluster.
    pub fn total_containers(&self) -> u32 {
        self.total_containers
    }

    /// Views of all admitted, unfinished jobs, in admission order.
    pub fn jobs(&self) -> &[JobView] {
        self.jobs
    }

    /// Which entries of [`jobs`](Self::jobs) changed since the previous
    /// scheduling pass on the same scheduler instance, as ascending, unique
    /// indices into that slice. A running job whose view moved only in
    /// [`attained`](JobView::attained) and
    /// [`attained_stage`](JobView::attained_stage) is listed too.
    ///
    /// `None` means "no information — treat every job as possibly changed"
    /// (hand-built test contexts, the `lasmq-verify` reference executor,
    /// and any other caller that does not track deltas). `Some(..)` is a
    /// *promise*:
    /// every *job* whose view content differs from what the scheduler saw
    /// last time appears in the list, at its current slot (newly admitted
    /// jobs are always listed, and jobs that completed were already
    /// announced via [`Scheduler::on_job_completed`]). Note the promise is
    /// per *job*, not per slot: removals compact the slice (preserving
    /// admission order), so an unlisted job's view may sit at a lower slot
    /// than last pass while its content is unchanged. Incremental
    /// schedulers should therefore key their caches by [`JobView::id`]
    /// when they outlive a single pass; schedulers that ignore the hint
    /// remain correct.
    pub fn changed(&self) -> Option<&[usize]> {
        self.changed
    }

    /// Sum of all jobs' useful demand, capped at cluster capacity.
    pub fn total_demand(&self) -> u32 {
        let demand: u64 = self
            .jobs
            .iter()
            .map(|j| j.max_useful_allocation() as u64)
            .sum();
        demand.min(self.total_containers as u64) as u32
    }
}

/// The scheduler's decision: per-job container *targets*, in priority order.
///
/// The engine walks the plan in order, topping each job up toward its target
/// while free containers last; the order therefore expresses which jobs get
/// containers first when capacity is scarce, and which job is refilled first
/// when containers free up between full passes.
///
/// Targets above a job's useful demand are clamped by the engine (the
/// surplus stays in the pool for later entries / speculation).
///
/// # Examples
///
/// ```
/// use lasmq_simulator::{AllocationPlan, JobId};
///
/// let mut plan = AllocationPlan::new();
/// plan.push(JobId::new(1), 8);
/// plan.push(JobId::new(0), 4);
/// assert_eq!(plan.entries().len(), 2);
/// assert_eq!(plan.target_for(JobId::new(0)), Some(4));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllocationPlan {
    entries: Vec<(JobId, u32)>,
}

impl AllocationPlan {
    /// An empty plan (no job receives containers).
    pub fn new() -> Self {
        AllocationPlan::default()
    }

    /// Appends a job with its container target. Jobs earlier in the plan
    /// are served first.
    pub fn push(&mut self, job: JobId, target: u32) {
        self.entries.push((job, target));
    }

    /// The planned `(job, target)` pairs in priority order.
    pub fn entries(&self) -> &[(JobId, u32)] {
        &self.entries
    }

    /// The target for `job`, if the plan mentions it. If a job appears more
    /// than once the *last* entry wins (matching the engine's reconciliation).
    pub fn target_for(&self, job: JobId) -> Option<u32> {
        self.entries
            .iter()
            .rev()
            .find(|(j, _)| *j == job)
            .map(|&(_, t)| t)
    }

    /// Sum of all targets.
    pub fn total_target(&self) -> u64 {
        self.entries.iter().map(|&(_, t)| t as u64).sum()
    }

    /// Whether the plan assigns nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Empties the plan while keeping its allocation, so a buffer can be
    /// recycled across scheduling passes.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl FromIterator<(JobId, u32)> for AllocationPlan {
    fn from_iter<I: IntoIterator<Item = (JobId, u32)>>(iter: I) -> Self {
        AllocationPlan {
            entries: iter.into_iter().collect(),
        }
    }
}

impl Extend<(JobId, u32)> for AllocationPlan {
    fn extend<I: IntoIterator<Item = (JobId, u32)>>(&mut self, iter: I) {
        self.entries.extend(iter);
    }
}

/// A pluggable job scheduler.
///
/// Implementations receive lifecycle notifications (admission, stage and job
/// completion) and are periodically asked to divide the cluster's
/// containers among admitted jobs through
/// [`allocate_into`](Self::allocate_into).
///
/// The engine invokes `allocate_into` on job arrival, on stage/job
/// completion, and once per scheduling quantum — so schedulers may keep
/// incremental state keyed by [`JobId`] between calls.
pub trait Scheduler {
    /// A short human-readable name ("FIFO", "LAS_MQ", ...), used in reports.
    fn name(&self) -> &str;

    /// Whether this scheduler needs ground-truth job sizes
    /// ([`JobView::oracle`]). This is the only switch: the engine asks once,
    /// when the simulation is built, restored or forked, and fills the
    /// field exactly when the answer is `true`, so the answer must not
    /// change over the scheduler's lifetime.
    fn requires_oracle(&self) -> bool {
        false
    }

    /// Whether this scheduler ever reads [`JobView::stage_progress`].
    ///
    /// The counter costs one addition per running task of every job with
    /// running tasks on every pass, so the engine computes it only for
    /// schedulers that use it: when this returns `false`, every view the
    /// engine passes to [`on_job_admitted`](Self::on_job_admitted) and
    /// [`allocate_into`](Self::allocate_into) carries
    /// `stage_progress == 0.0`. The default `true` is always correct;
    /// answering `false` is a promise that no decision of this scheduler
    /// depends on the field, so the run is bit-identical either way. The
    /// engine asks once, when the simulation is built or restored, so the
    /// answer must not change over the scheduler's lifetime.
    fn reads_stage_progress(&self) -> bool {
        true
    }

    /// A job passed admission control and is now schedulable.
    fn on_job_admitted(&mut self, _view: &JobView, _now: SimTime) {}

    /// A job finished its current stage and moved to `new_stage_index`.
    fn on_stage_completed(&mut self, _job: JobId, _new_stage_index: usize, _now: SimTime) {}

    /// A job finished entirely and left the system.
    fn on_job_completed(&mut self, _job: JobId, _now: SimTime) {}

    /// Divides the cluster's containers among the jobs in `ctx`, writing
    /// the decision into `plan`, which arrives empty. This is the one
    /// method a policy implements to decide a pass: the engine calls it
    /// with a buffer it clears and reuses, so the plan's storage lives
    /// across passes.
    ///
    /// Work conservation is the scheduler's responsibility: if total demand
    /// meets or exceeds capacity, a well-behaved plan allocates every
    /// container (an armed invariant checker records a plan that does not).
    fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan);

    /// This pass's decision as a new plan: a convenience for tests and
    /// callers without a buffer to reuse, derived from
    /// [`allocate_into`](Self::allocate_into). Policies do not override it.
    fn allocate(&mut self, ctx: &SchedContext<'_>) -> AllocationPlan {
        let mut plan = AllocationPlan::new();
        self.allocate_into(ctx, &mut plan);
        plan
    }

    /// Current per-queue job counts, highest priority first, for telemetry
    /// sampling. `None` (the default) means the scheduler has no
    /// multilevel-queue structure to report.
    fn queue_depths(&self) -> Option<Vec<u32>> {
        None
    }

    /// Demotions performed since the last drain, for telemetry. The engine
    /// calls this after every [`allocate_into`](Self::allocate_into);
    /// implementations should hand over and clear their pending list
    /// (`std::mem::take`).
    /// The default returns nothing, which costs nothing.
    fn drain_demotions(&mut self) -> Vec<QueueDemotion> {
        Vec::new()
    }

    /// Serializes the scheduler's internal state for a
    /// [`SimSnapshot`](crate::SimSnapshot) (multilevel queues, service
    /// counters, estimator caches — whatever is needed to continue
    /// bit-identically after [`restore_state`](Self::restore_state)).
    ///
    /// The payload is an opaque string (conventionally JSON); `None` (the
    /// default) declares the scheduler stateless, so restore needs no data.
    fn snapshot_state(&self) -> Option<String> {
        None
    }

    /// Restores state produced by [`snapshot_state`](Self::snapshot_state)
    /// on the same scheduler configuration. The default (for stateless
    /// schedulers) accepts anything and changes nothing.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message if the payload cannot be applied
    /// (corrupt data, or a mismatch with this scheduler's configuration).
    fn restore_state(&mut self, _state: &str) -> Result<(), String> {
        Ok(())
    }

    /// Audits the scheduler's internal data structures for consistency
    /// (queue membership uniqueness, valid back-pointers, monotone
    /// counters). Called by the engine's runtime invariant checker when
    /// the simulation was built with
    /// [`SimulationBuilder::check_invariants`](crate::SimulationBuilder::check_invariants);
    /// never called otherwise, so the default costs nothing.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency
    /// found. Implementations should report, not panic — the engine turns
    /// the message into a structured violation.
    fn check_consistency(&self) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(id: u32, remaining: u32, unstarted: u32, cpt: u32, held: u32) -> JobView {
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
            remaining_tasks: remaining,
            unstarted_tasks: unstarted,
            containers_per_task: cpt,
            held,
            oracle: None,
        }
    }

    #[test]
    fn remaining_demand_counts_running_tasks() {
        // 5 remaining tasks (2 running, 3 unstarted), 2 containers each.
        let v = view(0, 5, 3, 2, 4);
        assert_eq!(v.remaining_demand(), 10);
        assert_eq!(v.max_useful_allocation(), 4 + 6);
        assert!(v.wants_more());
    }

    #[test]
    fn saturated_job_wants_no_more() {
        let v = view(0, 2, 0, 1, 2);
        assert!(!v.wants_more());
        assert_eq!(v.max_useful_allocation(), 2);
    }

    #[test]
    fn plan_last_entry_wins() {
        let mut plan = AllocationPlan::new();
        plan.push(JobId::new(0), 3);
        plan.push(JobId::new(0), 7);
        assert_eq!(plan.target_for(JobId::new(0)), Some(7));
        assert_eq!(plan.total_target(), 10);
    }

    #[test]
    fn plan_collects_from_iterator() {
        let plan: AllocationPlan = vec![(JobId::new(0), 1), (JobId::new(1), 2)]
            .into_iter()
            .collect();
        assert_eq!(plan.entries().len(), 2);
        assert_eq!(plan.target_for(JobId::new(1)), Some(2));
        assert_eq!(plan.target_for(JobId::new(9)), None);
    }

    #[test]
    fn context_total_demand_caps_at_capacity() {
        let jobs = vec![view(0, 100, 100, 1, 0), view(1, 100, 100, 1, 0)];
        let ctx = SchedContext::new(SimTime::ZERO, 50, &jobs);
        assert_eq!(ctx.total_demand(), 50);
        assert_eq!(ctx.jobs().len(), 2);
        assert_eq!(ctx.total_containers(), 50);
    }
}
