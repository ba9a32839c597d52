//! The share family's exact plans on one tie-heavy pass.
//!
//! FAIR, PS and the capacity scheduler all rank the jobs, then split the
//! cluster by weight in that order. Their plans on this context are pinned
//! entry for entry, so any change to the ranking, the tie-breaks, the
//! largest-remainder rounding or the capacity bookkeeping shows up here.
//! No campaign or golden runs the capacity path, which makes this test its
//! only exact gate.
//!
//! The context has equal usages under equal weights (ties the key breaks
//! by admission time, then id), fractional shares that largest-remainder
//! rounding must break, a demand-capped job and a job with nothing to use.

use lasmq_core::LasMq;
use lasmq_schedulers::{Fair, Ps};
use lasmq_simulator::testkit;
use lasmq_simulator::{JobId, JobView, SchedContext, Scheduler, Service, SimTime};
use lasmq_yarn::{CapacityController, CapacityGranularity, CapacityScheduler};

/// An odd cluster size, so no split below comes out whole.
const CONTAINERS: u32 = 29;

fn view(
    id: u32,
    admitted_secs: u64,
    priority: u8,
    attained: f64,
    unstarted: u32,
    held: u32,
) -> JobView {
    JobView {
        admitted_at: SimTime::from_secs(admitted_secs),
        priority,
        attained: Service::from_container_secs(attained),
        attained_stage: Service::from_container_secs(attained),
        remaining_tasks: unstarted + held,
        unstarted_tasks: unstarted,
        held,
        ..testkit::view(id)
    }
}

/// The jobs in admission order (ids deliberately out of order).
fn jobs() -> Vec<JobView> {
    vec![
        // Equal usage and weight: the key breaks the tie by id, against
        // admission order.
        view(7, 0, 2, 0.0, 40, 0),
        view(3, 0, 2, 0.0, 40, 0),
        view(5, 10, 4, 0.0, 40, 0),
        // Demand-capped: it can use 3 containers at most.
        view(1, 10, 1, 5.0, 2, 1),
        // Nothing to use.
        view(9, 20, 3, 0.0, 0, 0),
        // Usage over weight 5, like job 1 (ties by admission time) and
        // job 4 (ties by id).
        view(2, 20, 3, 15.0, 30, 2),
        view(4, 20, 1, 5.0, 25, 0),
    ]
}

fn plan_of(scheduler: &mut dyn Scheduler, jobs: &[JobView]) -> Vec<(u32, u32)> {
    let ctx = SchedContext::new(SimTime::from_secs(30), CONTAINERS, jobs);
    scheduler
        .allocate(&ctx)
        .entries()
        .iter()
        .map(|&(id, target)| (id.index() as u32, target))
        .collect()
}

/// Capacities whose sum is the same in any summation order, so the
/// default share of the jobs without one (1, 2 and 4, tied) is exact too.
/// Whole percents move job 3's capacity from 0.0051 to 0.01, which wins
/// it a rounding container.
fn with_capacities(granularity: CapacityGranularity) -> CapacityScheduler {
    let mut sched = CapacityScheduler::new(granularity);
    sched.set_capacity(JobId::new(7), 0.3349);
    sched.set_capacity(JobId::new(3), 0.0051);
    sched.set_capacity(JobId::new(5), 0.0);
    sched
}

fn deployed(granularity: CapacityGranularity, jobs: &[JobView]) -> Vec<(u32, u32)> {
    let mut controller = CapacityController::new(LasMq::with_paper_defaults(), granularity);
    for job in jobs {
        controller.on_job_admitted(job, job.admitted_at);
    }
    plan_of(&mut controller, jobs)
}

#[test]
fn fair_plans_are_pinned() {
    let jobs = jobs();
    assert_eq!(
        plan_of(&mut Fair::new(), &jobs),
        [(3, 5), (7, 4), (5, 9), (1, 2), (2, 7), (4, 2)]
    );
    assert_eq!(
        plan_of(&mut Fair::unweighted(), &jobs),
        [(3, 6), (7, 5), (5, 5), (1, 3), (4, 5), (2, 5)]
    );
}

#[test]
fn ps_plan_is_pinned() {
    assert_eq!(
        plan_of(&mut Ps::new(), &jobs()),
        [(7, 6), (3, 5), (5, 5), (1, 3), (2, 5), (4, 5)]
    );
}

#[test]
fn capacity_plans_are_pinned() {
    let jobs = jobs();
    let mut fresh = CapacityScheduler::new(CapacityGranularity::Exact);
    assert_eq!(
        plan_of(&mut fresh, &jobs),
        [(1, 3), (2, 6), (3, 5), (4, 5), (5, 5), (7, 5)]
    );
    let mut exact = with_capacities(CapacityGranularity::Exact);
    assert_eq!(
        plan_of(&mut exact, &jobs),
        [(7, 16), (1, 3), (2, 5), (4, 5)]
    );
    let mut percent = with_capacities(CapacityGranularity::WholePercent);
    assert_eq!(
        plan_of(&mut percent, &jobs),
        [(7, 15), (1, 3), (2, 5), (4, 5), (3, 1)]
    );
}

#[test]
fn deployed_lasmq_plans_are_pinned() {
    let jobs = jobs();
    assert_eq!(
        deployed(CapacityGranularity::Exact, &jobs),
        [(4, 25), (1, 3), (2, 1)]
    );
    assert_eq!(
        deployed(CapacityGranularity::WholePercent, &jobs),
        [(4, 25), (1, 3), (2, 1)]
    );
}
