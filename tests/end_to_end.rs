//! Cross-crate integration tests: workload generation → trace round-trip
//! → simulation under every scheduler → metric invariants.

use lasmq::campaign::{SchedulerKind, SimSetup, WorkloadSpec};
use lasmq::core::{LasMq, LasMqConfig};
use lasmq::experiments::warm_fork::donor_snapshot;
use lasmq::schedulers::{Fair, Fifo, Las, ShortestJobFirst, ShortestRemainingFirst};
use lasmq::simulator::{
    AllocationPlan, ClusterConfig, JobId, JobSpec, JobView, SchedContext, Scheduler, SimTime,
    Simulation, SimulationReport,
};
use lasmq::workload::{FacebookTrace, PumaWorkload, Trace, UniformWorkload};

fn run_trace(jobs: Vec<JobSpec>, scheduler: impl Scheduler) -> SimulationReport {
    Simulation::builder()
        .cluster(ClusterConfig::single_node(100))
        .jobs(jobs)
        .build(scheduler)
        .expect("valid setup")
        .run()
}

#[test]
fn every_scheduler_completes_the_trace_workload() {
    let jobs = FacebookTrace::new().jobs(300).seed(1).generate();
    let reports = vec![
        run_trace(jobs.clone(), Fifo::new()),
        run_trace(jobs.clone(), Fair::new()),
        run_trace(jobs.clone(), Las::new()),
        run_trace(jobs.clone(), LasMq::new(LasMqConfig::paper_simulations())),
        run_trace(jobs.clone(), ShortestJobFirst::new()),
        run_trace(jobs, ShortestRemainingFirst::new()),
    ];
    for report in &reports {
        assert!(
            report.all_completed(),
            "{} left jobs unfinished",
            report.scheduler()
        );
        assert_eq!(report.outcomes().len(), 300);
    }
}

#[test]
fn responses_never_beat_isolated_runtime() {
    let jobs = PumaWorkload::new().jobs(30).seed(2).generate();
    let report = Simulation::builder()
        .cluster(ClusterConfig::new(4, 30))
        .admission_limit(30)
        .jobs(jobs)
        .build(LasMq::with_paper_defaults())
        .expect("valid setup")
        .run();
    for o in report.outcomes() {
        let resp = o.response().expect("completed").as_secs_f64();
        let iso = o.isolated.as_secs_f64();
        assert!(
            resp >= iso * 0.999,
            "{}: response {resp} below isolated {iso}",
            o.id
        );
        assert!(o.slowdown().expect("completed") >= 0.999);
    }
}

#[test]
fn utilization_integral_accounts_for_all_work() {
    // With graceful preemption and no speculation, every consumed
    // container-second is productive: mean utilization × makespan ×
    // capacity equals the workload's total service.
    let jobs = FacebookTrace::new().jobs(200).seed(3).generate();
    let total_work: f64 = jobs
        .iter()
        .map(|j| j.total_service().as_container_secs())
        .sum();
    for report in [
        run_trace(jobs.clone(), Fifo::new()),
        run_trace(jobs.clone(), LasMq::new(LasMqConfig::paper_simulations())),
    ] {
        let s = report.stats();
        let integral = s.mean_utilization * s.makespan.as_secs_f64() * 100.0;
        let rel = (integral - total_work).abs() / total_work;
        assert!(
            rel < 1e-6,
            "{}: integral {integral} vs work {total_work}",
            report.scheduler()
        );
    }
}

#[test]
fn trace_roundtrip_preserves_simulation_results() {
    let jobs = FacebookTrace::new().jobs(150).seed(4).generate();
    let trace = Trace::new("roundtrip", jobs.clone());
    let json = trace.to_json().expect("serializable");
    let reloaded = Trace::from_json(&json).expect("parsable");
    let a = run_trace(jobs, Las::new());
    let b = run_trace(reloaded.into_jobs(), Las::new());
    assert_eq!(a.outcomes(), b.outcomes());
}

#[test]
fn simulations_are_deterministic_across_runs() {
    let jobs = PumaWorkload::new().jobs(25).seed(5).generate();
    let run = || {
        Simulation::builder()
            .cluster(ClusterConfig::new(4, 30))
            .admission_limit(10)
            .jobs(jobs.clone())
            .build(LasMq::with_paper_defaults())
            .expect("valid setup")
            .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.outcomes(), b.outcomes());
    assert_eq!(a.stats(), b.stats());
}

#[test]
fn admission_limit_bounds_concurrency() {
    let jobs = UniformWorkload::new().jobs(40).tasks_per_job(10).generate();
    let limit = 7usize;
    let report = Simulation::builder()
        .cluster(ClusterConfig::single_node(20))
        .admission_limit(limit)
        .jobs(jobs)
        .build(Fifo::new())
        .expect("valid setup")
        .run();
    assert!(report.all_completed());
    // Sweep the admission intervals: at no instant may more than `limit`
    // jobs be admitted-but-unfinished.
    let mut events: Vec<(u64, i64)> = Vec::new();
    for o in report.outcomes() {
        events.push((o.admitted_at.expect("admitted").as_millis(), 1));
        events.push((o.finish.expect("finished").as_millis(), -1));
    }
    events.sort();
    let mut running = 0i64;
    for (_, delta) in events {
        running += delta;
        assert!(
            running <= limit as i64,
            "admission limit exceeded: {running}"
        );
    }
}

#[test]
fn oracle_schedulers_refuse_to_run_blind() {
    // Sizes follow the scheduler's own `requires_oracle`: a plainly built
    // SJF is handed them and cannot run blind.
    let jobs = FacebookTrace::new().jobs(10).seed(6).generate();
    let report = Simulation::builder()
        .cluster(ClusterConfig::single_node(10))
        .jobs(jobs)
        .build(ShortestJobFirst::new())
        .expect("valid setup")
        .run();
    assert!(report.all_completed());
}

#[test]
fn a_fork_hands_sizes_to_an_oracle_policy_from_a_blind_donor() {
    let workload = WorkloadSpec::Puma {
        jobs: 30,
        mean_interval_secs: 50.0,
        seed: 3,
        geo_bandwidth_mb_per_s: None,
    };
    let snapshot = donor_snapshot(&SimSetup::testbed(), &workload);
    assert!(snapshot.to_json().contains(r#""expose_oracle":false"#));
    // SJF ranks every view it is shown by its true size, and panics on a
    // view without one.
    let report = Simulation::fork(&snapshot, SchedulerKind::Sjf.build())
        .expect("a FIFO snapshot forks into SJF")
        .run();
    assert!(report.all_completed());
}

/// LAS_MQ, asserting that no view it is shown carries a size.
struct Blind(LasMq);

impl Scheduler for Blind {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn requires_oracle(&self) -> bool {
        self.0.requires_oracle()
    }
    fn on_job_admitted(&mut self, view: &JobView, now: SimTime) {
        self.0.on_job_admitted(view, now);
    }
    fn on_job_completed(&mut self, job: JobId, now: SimTime) {
        self.0.on_job_completed(job, now);
    }
    fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
        assert!(ctx.jobs().iter().all(|view| view.oracle.is_none()));
        self.0.allocate_into(ctx, plan)
    }
}

#[test]
fn las_mq_views_never_carry_sizes() {
    let jobs = FacebookTrace::new().jobs(60).seed(4).generate();
    let las_mq = Blind(LasMq::new(LasMqConfig::paper_simulations()));
    let report = SimSetup::trace_sim()
        .build_simulation_with(jobs, las_mq, false)
        .run();
    // Jobs only finish on containers that `allocate_into` granted.
    assert!(report.all_completed());
}

#[test]
fn las_mq_runs_under_all_engine_extensions() {
    use lasmq::simulator::{FailureConfig, SpeculationConfig};
    let jobs = PumaWorkload::new().jobs(20).seed(7).generate();
    for speculation in [
        SpeculationConfig::disabled(),
        SpeculationConfig::enabled(3, 1.5),
    ] {
        for failures in [
            FailureConfig::disabled(),
            FailureConfig::with_probability(0.1, 7),
        ] {
            let report = Simulation::builder()
                .cluster(ClusterConfig::new(4, 30))
                .speculation(speculation)
                .failures(failures)
                .jobs(jobs.clone())
                .build(LasMq::with_paper_defaults())
                .expect("valid setup")
                .run();
            assert!(
                report.all_completed(),
                "unfinished jobs under {speculation:?}/{failures:?}"
            );
        }
    }
}
