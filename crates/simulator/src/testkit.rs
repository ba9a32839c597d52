//! Test utilities for scheduler developers.
//!
//! [`view`] builds the one [`JobView`] fixture that scheduler unit tests
//! vary with struct-update syntax; [`BudgetedGreedy`] is the smallest
//! scheduler that keeps every promise a pass is audited for.
//!
//! To hold a new policy to those promises, build its simulation with
//! [`check_invariants(true)`](crate::SimulationBuilder::check_invariants):
//! every pass is then audited for view sanity, plan discipline and work
//! conservation (see [`crate::invariant`]), and a breach surfaces in
//! [`SimulationReport::invariants`](crate::SimulationReport::invariants)
//! with the time of the pass where it happened rather than as mysterious
//! end-to-end numbers.
//!
//! # Examples
//!
//! ```
//! use lasmq_simulator::testkit::BudgetedGreedy;
//! use lasmq_simulator::{
//!     ClusterConfig, JobSpec, SimDuration, Simulation, StageKind, StageSpec, TaskSpec,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let job = JobSpec::builder()
//!     .stage(StageSpec::uniform(StageKind::Map, 4, TaskSpec::new(SimDuration::from_secs(1))))
//!     .build();
//! let report = Simulation::builder()
//!     .cluster(ClusterConfig::single_node(2))
//!     .check_invariants(true)
//!     .job(job)
//!     .build(BudgetedGreedy)? // the policy under test
//!     .run();
//! assert!(report.all_completed());
//! let audit = report.invariants().expect("the checker was armed");
//! assert!(audit.is_clean(), "{audit}");
//! # Ok(())
//! # }
//! ```

use crate::ids::JobId;
use crate::sched::{AllocationPlan, JobView, SchedContext, Scheduler};
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

/// Hands each job, in admission order, as much of its useful demand as the
/// cluster still has: a first-come first-served policy that honours every
/// contract the armed engine audits, for tests that need a clean report.
#[derive(Debug, Clone, Copy, Default)]
pub struct BudgetedGreedy;

impl Scheduler for BudgetedGreedy {
    fn name(&self) -> &str {
        "greedy"
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
        let mut budget = ctx.total_containers();
        for j in ctx.jobs() {
            let grant = j.max_useful_allocation().min(budget);
            if grant > 0 {
                plan.push(j.id, grant);
                budget -= grant;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::engine::Simulation;
    use crate::invariant::{InvariantKind, InvariantReport};
    use crate::job::{JobSpec, StageKind, StageSpec, TaskSpec};
    use crate::time::SimDuration;

    /// Demands more than a job can use — the audit must catch it.
    struct OverAsker;

    impl Scheduler for OverAsker {
        fn name(&self) -> &str {
            "over-asker"
        }

        fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
            plan.extend(
                ctx.jobs()
                    .iter()
                    .map(|j| (j.id, j.max_useful_allocation() + 1)),
            );
        }
    }

    /// Allocates nothing — the audit must call it lazy and nothing else.
    struct Lazy;

    impl Scheduler for Lazy {
        fn name(&self) -> &str {
            "lazy"
        }

        fn allocate_into(&mut self, _ctx: &SchedContext<'_>, _plan: &mut AllocationPlan) {}
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

    /// An armed run of a five-task and a two-task job on three containers,
    /// cut off at 30 s for the policies that never finish.
    fn run(scheduler: impl Scheduler) -> crate::metrics::SimulationReport {
        let mut sim = Simulation::builder()
            .cluster(ClusterConfig::single_node(3))
            .check_invariants(true)
            .jobs(vec![job(5), job(2)])
            .build(scheduler)
            .expect("valid setup");
        sim.run_until(SimTime::from_secs(30));
        sim.into_report()
    }

    fn audit(report: &crate::metrics::SimulationReport) -> &InvariantReport {
        report.invariants().expect("the checker was armed")
    }

    #[test]
    fn well_behaved_scheduler_passes_all_checks() {
        let report = run(BudgetedGreedy);
        assert!(report.all_completed());
        assert_eq!(report.scheduler(), "greedy");
        assert!(audit(&report).is_clean(), "{}", audit(&report));
    }

    #[test]
    fn over_asking_is_caught() {
        let report = run(OverAsker);
        assert!(audit(&report).violations.iter().any(|v| {
            v.kind == InvariantKind::PlanDiscipline && v.detail.contains("exceeds useful demand")
        }));
    }

    #[test]
    fn laziness_is_caught_when_requested() {
        let report = run(Lazy);
        assert!(audit(&report).violations.iter().any(|v| {
            v.kind == InvariantKind::WorkConservation && v.detail.contains("not work-conserving")
        }));
    }

    #[test]
    fn lazy_is_tolerated_without_the_flag() {
        // Laziness is a class of its own: a lazy plan is otherwise sound,
        // so the report holds nothing else and the run is not cut short —
        // it never finishes, and stops where `run` pauses it.
        let report = run(Lazy);
        assert!(!report.all_completed());
        let audit = audit(&report);
        assert!(!audit.is_clean());
        assert_eq!(audit.violations_total, audit.violations.len() as u64);
        assert!(audit
            .violations
            .iter()
            .all(|v| v.kind == InvariantKind::WorkConservation));
        assert!(report.stats().makespan >= SimTime::from_secs(29));
    }
}
