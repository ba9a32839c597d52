//! Test utilities for scheduler developers.
//!
//! [`view`] builds the one [`JobView`] fixture that scheduler unit tests
//! vary with struct-update syntax.
//!
//! [`InvariantSpy`] wraps any [`Scheduler`] and checks, on every
//! scheduling pass, the contracts the engine relies on — so a new policy
//! can be dropped into an existing test suite and violations surface at
//! the pass where they happen rather than as mysterious end-to-end
//! numbers. The checks:
//!
//! * **context sanity** — job views are unique per id, progress lies in
//!   `[0, 1]`, remaining ≥ unstarted, attained ≥ attained-in-stage, held
//!   containers never exceed cluster capacity in total;
//! * **plan discipline** — final targets never exceed a job's useful
//!   demand, the plan never references unknown jobs, and the summed
//!   targets never exceed capacity. (The engine itself *tolerates* sloppy
//!   plans by clamping; the spy treats them as bugs, because targets the
//!   engine must clamp make the plan's priority order meaningless.)
//! * **work conservation** (optional) — under saturation the plan
//!   allocates every container.
//!
//! # Examples
//!
//! ```
//! use lasmq_simulator::testkit::InvariantSpy;
//! use lasmq_simulator::{
//!     AllocationPlan, ClusterConfig, JobSpec, SchedContext, Scheduler, SimDuration,
//!     Simulation, StageKind, StageSpec, TaskSpec,
//! };
//!
//! struct Mine;
//! impl Scheduler for Mine {
//!     fn name(&self) -> &str {
//!         "mine"
//!     }
//!     fn allocate(&mut self, ctx: &SchedContext<'_>) -> AllocationPlan {
//!         let mut budget = ctx.total_containers();
//!         let mut plan = AllocationPlan::new();
//!         for j in ctx.jobs() {
//!             let grant = j.max_useful_allocation().min(budget);
//!             plan.push(j.id, grant);
//!             budget -= grant;
//!         }
//!         plan
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let job = JobSpec::builder()
//!     .stage(StageSpec::uniform(StageKind::Map, 4, TaskSpec::new(SimDuration::from_secs(1))))
//!     .build();
//! let report = Simulation::builder()
//!     .cluster(ClusterConfig::single_node(2))
//!     .job(job)
//!     .build(InvariantSpy::new(Mine).check_work_conservation(true))?
//!     .run();
//! assert!(report.all_completed()); // no invariant panicked along the way
//! # Ok(())
//! # }
//! ```

use std::collections::HashSet;

use crate::ids::JobId;
use crate::sched::{AllocationPlan, JobView, SchedContext, Scheduler};
use crate::telemetry::QueueDemotion;
use crate::time::{Service, SimTime};

/// A plain [`JobView`] for scheduler unit tests: job `id`, submitted and
/// admitted at time zero with priority 1, nothing attained, one
/// single-container stage of 100 unstarted tasks, nothing held and no
/// oracle. Tests state only what they vary, with struct-update syntax.
///
/// # Examples
///
/// ```
/// use lasmq_simulator::testkit::view;
/// use lasmq_simulator::JobView;
///
/// let held = JobView { held: 4, ..view(7) };
/// assert_eq!(held.max_useful_allocation(), 104);
/// ```
pub fn view(id: u32) -> JobView {
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
        remaining_tasks: 100,
        unstarted_tasks: 100,
        containers_per_task: 1,
        held: 0,
        oracle: None,
    }
}

/// Wraps a scheduler and panics on the first violated contract.
///
/// Intended for tests: the panic message names the violated invariant and
/// the pass count, which together with deterministic replays pins the bug.
#[derive(Debug)]
pub struct InvariantSpy<S> {
    inner: S,
    check_work_conservation: bool,
    passes: u64,
}

impl<S: Scheduler> InvariantSpy<S> {
    /// Wraps `inner` with context and plan checks.
    pub fn new(inner: S) -> Self {
        InvariantSpy {
            inner,
            check_work_conservation: false,
            passes: 0,
        }
    }

    /// Additionally requires the plan to allocate all of a saturated
    /// cluster (on by default for the paper's schedulers; opt-in here
    /// because deliberately non-work-conserving policies exist).
    pub fn check_work_conservation(mut self, enabled: bool) -> Self {
        self.check_work_conservation = enabled;
        self
    }

    /// Scheduling passes observed so far.
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// The wrapped scheduler.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn check_context(&self, ctx: &SchedContext<'_>) {
        let mut seen = HashSet::new();
        let mut held_total: u64 = 0;
        for view in ctx.jobs() {
            assert!(
                seen.insert(view.id),
                "[pass {}] duplicate job view for {}",
                self.passes,
                view.id
            );
            assert!(
                (0.0..=1.0).contains(&view.stage_progress),
                "[pass {}] {}: progress {} outside [0, 1]",
                self.passes,
                view.id,
                view.stage_progress
            );
            assert!(
                view.remaining_tasks >= view.unstarted_tasks,
                "[pass {}] {}: remaining {} < unstarted {}",
                self.passes,
                view.id,
                view.remaining_tasks,
                view.unstarted_tasks
            );
            assert!(
                view.attained.as_container_secs() + 1e-9 >= view.attained_stage.as_container_secs(),
                "[pass {}] {}: stage service exceeds total",
                self.passes,
                view.id
            );
            assert!(
                view.stage_index < view.stage_count,
                "[pass {}] {}: stage index {} out of {}",
                self.passes,
                view.id,
                view.stage_index,
                view.stage_count
            );
            held_total += view.held as u64;
        }
        assert!(
            held_total <= ctx.total_containers() as u64,
            "[pass {}] held containers {} exceed capacity {}",
            self.passes,
            held_total,
            ctx.total_containers()
        );
    }

    fn check_plan(&self, ctx: &SchedContext<'_>, plan: &AllocationPlan) {
        let view_of = |id: JobId| -> &JobView {
            ctx.jobs()
                .iter()
                .find(|v| v.id == id)
                .unwrap_or_else(|| panic!("[pass {}] plan references unknown {}", self.passes, id))
        };
        // Final targets (last entry per job wins, as the engine applies).
        let mut finals: Vec<(JobId, u32)> = Vec::new();
        for &(id, target) in plan.entries() {
            if let Some(slot) = finals.iter_mut().find(|(j, _)| *j == id) {
                slot.1 = target;
            } else {
                finals.push((id, target));
            }
        }
        let mut total: u64 = 0;
        for &(id, target) in &finals {
            let view = view_of(id);
            assert!(
                target <= view.max_useful_allocation(),
                "[pass {}] {}: target {} exceeds useful demand {}",
                self.passes,
                id,
                target,
                view.max_useful_allocation()
            );
            total += target as u64;
        }
        assert!(
            total <= ctx.total_containers() as u64,
            "[pass {}] plan allocates {} of {} containers",
            self.passes,
            total,
            ctx.total_containers()
        );
        if self.check_work_conservation {
            let demand: u64 = ctx
                .jobs()
                .iter()
                .map(|v| v.max_useful_allocation() as u64)
                .sum();
            let expected = demand.min(ctx.total_containers() as u64);
            assert!(
                total >= expected,
                "[pass {}] not work-conserving: planned {} of {} usable",
                self.passes,
                total,
                expected
            );
        }
    }
}

impl<S: Scheduler> Scheduler for InvariantSpy<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn requires_oracle(&self) -> bool {
        self.inner.requires_oracle()
    }

    fn reads_stage_progress(&self) -> bool {
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
    }

    fn allocate(&mut self, ctx: &SchedContext<'_>) -> AllocationPlan {
        self.passes += 1;
        self.check_context(ctx);
        let plan = self.inner.allocate(ctx);
        self.check_plan(ctx, &plan);
        plan
    }

    fn queue_depths(&self) -> Option<Vec<u32>> {
        self.inner.queue_depths()
    }

    fn drain_demotions(&mut self) -> Vec<QueueDemotion> {
        self.inner.drain_demotions()
    }

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
    use crate::cluster::ClusterConfig;
    use crate::engine::Simulation;
    use crate::job::{JobSpec, StageKind, StageSpec, TaskSpec};
    use crate::time::SimDuration;

    struct Greedy;

    impl Scheduler for Greedy {
        fn name(&self) -> &str {
            "greedy"
        }

        fn allocate(&mut self, ctx: &SchedContext<'_>) -> AllocationPlan {
            let mut budget = ctx.total_containers();
            let mut plan = AllocationPlan::new();
            for j in ctx.jobs() {
                let grant = j.max_useful_allocation().min(budget);
                if grant > 0 {
                    plan.push(j.id, grant);
                    budget -= grant;
                }
            }
            plan
        }
    }

    /// Demands more than a job can use — the spy must catch it.
    struct OverAsker;

    impl Scheduler for OverAsker {
        fn name(&self) -> &str {
            "over-asker"
        }

        fn allocate(&mut self, ctx: &SchedContext<'_>) -> AllocationPlan {
            ctx.jobs()
                .iter()
                .map(|j| (j.id, j.max_useful_allocation() + 1))
                .collect()
        }
    }

    /// Allocates nothing — violates work conservation under saturation.
    struct Lazy;

    impl Scheduler for Lazy {
        fn name(&self) -> &str {
            "lazy"
        }

        fn allocate(&mut self, _ctx: &SchedContext<'_>) -> AllocationPlan {
            AllocationPlan::new()
        }
    }

    fn job(tasks: u32) -> JobSpec {
        JobSpec::builder()
            .stage(StageSpec::uniform(
                StageKind::Map,
                tasks,
                TaskSpec::new(SimDuration::from_secs(2)),
            ))
            .build()
    }

    fn run(scheduler: impl Scheduler) -> crate::metrics::SimulationReport {
        Simulation::builder()
            .cluster(ClusterConfig::single_node(3))
            .jobs(vec![job(5), job(2)])
            .build(scheduler)
            .expect("valid setup")
            .run()
    }

    #[test]
    fn well_behaved_scheduler_passes_all_checks() {
        let report = run(InvariantSpy::new(Greedy).check_work_conservation(true));
        assert!(report.all_completed());
        assert_eq!(report.scheduler(), "greedy");
    }

    #[test]
    #[should_panic(expected = "exceeds useful demand")]
    fn over_asking_is_caught() {
        let _ = run(InvariantSpy::new(OverAsker));
    }

    #[test]
    #[should_panic(expected = "not work-conserving")]
    fn laziness_is_caught_when_requested() {
        let _ = run(InvariantSpy::new(Lazy).check_work_conservation(true));
    }

    #[test]
    fn lazy_is_tolerated_without_the_flag() {
        // Without work-conservation checks a lazy plan is "sound" — the
        // run never finishes, so cap it with a deadline.
        let report = Simulation::builder()
            .cluster(ClusterConfig::single_node(3))
            .deadline(crate::time::SimTime::from_secs(30))
            .jobs(vec![job(2)])
            .build(InvariantSpy::new(Lazy))
            .expect("valid setup")
            .run();
        assert!(!report.all_completed());
    }

    #[test]
    fn spy_counts_passes_and_exposes_inner() {
        let spy = InvariantSpy::new(Greedy);
        assert_eq!(spy.passes(), 0);
        assert_eq!(spy.inner().name(), "greedy");
    }
}
