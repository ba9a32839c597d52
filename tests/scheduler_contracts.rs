//! The scheduling-pass contracts — view sanity, plan discipline, work
//! conservation, audited on every pass by the engine's armed invariant
//! checker — for what needs the facade crate: the schedulers no
//! `SchedulerKind` builds (LAS_MQ at the paper's defaults and in every
//! configuration corner, the capacity-deployed LAS_MQ; the zoo itself is
//! `crates/campaign/tests/zoo_contract.rs`), and every scheduler wrapper
//! held to forwarding the whole trait.

use std::cell::RefCell;
use std::rc::Rc;

use lasmq::campaign::SimSetup;
use lasmq::core::{LasMq, LasMqConfig};
use lasmq::simulator::testkit;
use lasmq::simulator::{
    AllocationPlan, ClusterConfig, FailureConfig, JobId, JobSpec, JobView, QueueDemotion,
    SchedContext, Scheduler, Service, SimTime, SpeculationConfig,
};
use lasmq::workload::{FacebookTrace, PumaWorkload};
use lasmq::yarn::{CapacityController, CapacityGranularity};

fn check(setup: &SimSetup, jobs: &[JobSpec], scheduler: impl Scheduler) {
    let report = setup
        .clone()
        .check_invariants(true)
        .build_simulation_with(jobs.to_vec(), scheduler, false)
        .run();
    let who = report.scheduler();
    assert!(report.all_completed(), "{who} left jobs unfinished");
    let invariants = report.invariants().expect("the checker was armed");
    assert!(invariants.is_clean(), "{who}: {invariants}");
}

fn check_paper_defaults_and_capacity_deployment(setup: &SimSetup, jobs: &[JobSpec]) {
    check(setup, jobs, LasMq::with_paper_defaults());
    check(
        setup,
        jobs,
        CapacityController::new(
            LasMq::with_paper_defaults(),
            CapacityGranularity::WholePercent,
        ),
    );
}

/// `zoo_contract.rs`'s faulty testbed: PUMA on 4 × 30 under the admission
/// cap, with task failures and speculative copies (some sixty and ninety
/// over twelve jobs). An armed run's cost grows with the square of the job
/// count, and this suite runs on every `cargo test`.
fn faulty_testbed() -> (SimSetup, Vec<JobSpec>) {
    let setup = SimSetup::testbed()
        .failures(FailureConfig::with_probability(0.02, 11))
        .speculation(SpeculationConfig::enabled(3, 1.5));
    (setup, PumaWorkload::new().jobs(12).seed(9).generate())
}

#[test]
fn all_schedulers_honour_the_contracts_on_the_trace() {
    for jobs in [
        FacebookTrace::new().jobs(60).seed(5).generate(),
        FacebookTrace::new().jobs(400).seed(8).generate(),
    ] {
        check_paper_defaults_and_capacity_deployment(&SimSetup::trace_sim(), &jobs);
    }
}

#[test]
fn all_schedulers_honour_the_contracts_on_puma() {
    let jobs = PumaWorkload::new().jobs(25).seed(9).generate();
    let four_by_thirty = SimSetup::trace_sim().cluster(ClusterConfig::new(4, 30));
    check_paper_defaults_and_capacity_deployment(&four_by_thirty, &jobs);
    let (setup, jobs) = faulty_testbed();
    check_paper_defaults_and_capacity_deployment(&setup, &jobs);
}

#[test]
fn lasmq_honours_the_contracts_in_every_configuration_corner() {
    use lasmq::core::{QueueOrdering, QueueSharing, QueueWeights};
    let inputs = [
        (
            SimSetup::trace_sim().cluster(ClusterConfig::single_node(50)),
            FacebookTrace::new().jobs(200).seed(10).generate(),
        ),
        faulty_testbed(),
    ];
    for k in [1, 3, 10] {
        for sharing in [QueueSharing::Weighted, QueueSharing::StrictPriority] {
            for ordering in [QueueOrdering::RemainingDemand, QueueOrdering::Fifo] {
                let config = LasMqConfig::paper_simulations()
                    .with_num_queues(k)
                    .with_sharing(sharing)
                    .with_ordering(ordering)
                    .with_weights(QueueWeights::Geometric { ratio: 3.0 });
                for (setup, jobs) in &inputs {
                    check(setup, jobs, LasMq::new(config.clone()));
                }
            }
        }
    }
}

/// Answers every defaulted [`Scheduler`] method with something its default
/// would not, and logs every call that returns nothing to tell by.
struct Probe(Rc<RefCell<Vec<&'static str>>>);

/// The methods [`Probe`] gives a telling answer to (`allocate` through
/// its default, which hands on `allocate_into`'s plan). Must list the
/// whole trait: see `wrappers_forward_every_scheduler_method`.
const PROBED: [&str; 13] = [
    "name",
    "requires_oracle",
    "reads_stage_progress",
    "on_job_admitted",
    "on_stage_completed",
    "on_job_completed",
    "allocate_into",
    "allocate",
    "queue_depths",
    "drain_demotions",
    "snapshot_state",
    "restore_state",
    "check_consistency",
];

fn probe_demotion() -> QueueDemotion {
    QueueDemotion {
        job: JobId::new(0),
        from_queue: 1,
        to_queue: 2,
        effective: Service::from_container_secs(3.0),
    }
}

impl Scheduler for Probe {
    fn name(&self) -> &str {
        "probe"
    }
    fn requires_oracle(&self) -> bool {
        true
    }
    fn reads_stage_progress(&self) -> bool {
        false
    }
    fn on_job_admitted(&mut self, _view: &JobView, _now: SimTime) {
        self.0.borrow_mut().push("on_job_admitted");
    }
    fn on_stage_completed(&mut self, _job: JobId, _new_stage_index: usize, _now: SimTime) {
        self.0.borrow_mut().push("on_stage_completed");
    }
    fn on_job_completed(&mut self, _job: JobId, _now: SimTime) {
        self.0.borrow_mut().push("on_job_completed");
    }
    fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
        self.0.borrow_mut().push("allocate_into");
        plan.extend(ctx.jobs().iter().map(|j| (j.id, ctx.total_containers())));
    }
    fn queue_depths(&self) -> Option<Vec<u32>> {
        Some(vec![4, 2])
    }
    fn drain_demotions(&mut self) -> Vec<QueueDemotion> {
        vec![probe_demotion()]
    }
    fn snapshot_state(&self) -> Option<String> {
        Some("probe state".into())
    }
    fn restore_state(&mut self, _state: &str) -> Result<(), String> {
        Err("probe refuses".into())
    }
    fn check_consistency(&self) -> Result<(), String> {
        Err("probe is inconsistent".into())
    }
}

/// `wrap(probe)` must answer every defaulted method as the probe does.
fn assert_forwards<W: Scheduler>(what: &str, wrap: impl FnOnce(Probe) -> W) {
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut wrapped = wrap(Probe(Rc::clone(&log)));
    assert!(wrapped.requires_oracle(), "{what}: requires_oracle");
    assert!(
        !wrapped.reads_stage_progress(),
        "{what}: reads_stage_progress"
    );
    assert_eq!(wrapped.queue_depths(), Some(vec![4, 2]), "{what}");
    assert_eq!(wrapped.drain_demotions(), vec![probe_demotion()], "{what}");
    assert_eq!(wrapped.snapshot_state().as_deref(), Some("probe state"));
    assert!(wrapped.restore_state("").is_err(), "{what}: restore_state");
    assert!(wrapped.check_consistency().is_err(), "{what}: consistency");

    let views = [testkit::view(0)];
    let now = SimTime::ZERO;
    wrapped.on_job_admitted(&views[0], now);
    let ctx = SchedContext::new(now, 10, &views);
    let plan = wrapped.allocate(&ctx);
    assert_eq!(plan.entries(), [(JobId::new(0), 10)], "{what}: allocate");
    let mut reused = AllocationPlan::new();
    wrapped.allocate_into(&ctx, &mut reused);
    assert_eq!(reused, plan, "{what}: allocate_into");
    wrapped.on_stage_completed(JobId::new(0), 1, now);
    wrapped.on_job_completed(JobId::new(0), now);
    assert_eq!(
        *log.borrow(),
        [
            "on_job_admitted",
            "allocate_into",
            "allocate_into",
            "on_stage_completed",
            "on_job_completed"
        ],
        "{what}: hooks"
    );
}

/// A wrapper that leaves out a defaulted method compiles, runs, and
/// silently answers for its inner scheduler with the default. Every
/// wrapper in the repository is held to the probe — and the probe to the
/// trait's source, so a method added to `Scheduler` fails here until the
/// probe and the wrappers learn it.
#[test]
fn wrappers_forward_every_scheduler_method() {
    let source = include_str!("../crates/simulator/src/sched.rs");
    let start = source
        .find("pub trait Scheduler {")
        .expect("trait moved: point this test at it");
    let body = &source[start..];
    let body = &body[..body.find("\n}\n").expect("trait has an end")];
    let declared: Vec<&str> = body
        .lines()
        .filter_map(|line| line.strip_prefix("    fn "))
        .map(|rest| rest.split('(').next().expect("split yields a first item"))
        .collect();
    assert_eq!(
        declared, PROBED,
        "the Scheduler trait and the forwarding probe list different methods"
    );

    assert_forwards("Box", Box::new);
    assert_forwards("Box<dyn>", |probe| -> Box<dyn Scheduler> {
        Box::new(probe)
    });
    assert_forwards("CapacityController", |probe| {
        CapacityController::new(probe, CapacityGranularity::Exact)
    });
}
