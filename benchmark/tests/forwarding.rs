//! The timing decorator must be invisible to the simulation: it forwards
//! every `Scheduler` method, so a wrapped run reproduces the unwrapped
//! report byte for byte — with the invariant checker armed (which calls
//! `check_consistency`), with telemetry on (which calls `queue_depths` and
//! `drain_demotions`), across a snapshot/restore (which calls
//! `snapshot_state` / `restore_state`), and for an oracle kind (which needs
//! `requires_oracle` and the size oracle to reach the inner scheduler).

use std::time::Instant;

use lasmq_benchmark::engine::{Fingerprint, FB_NARROW, SCALE_WIDE, UNIFORM_BATCH};
use lasmq_benchmark::timed::TimedScheduler;
use lasmq_campaign::{SchedulerKind, SimSetup};
use lasmq_simulator::{JobSpec, SimTime, Simulation, SimulationReport};
use lasmq_workload::FacebookTrace;

fn trace(jobs: usize) -> Vec<JobSpec> {
    FacebookTrace::new().jobs(jobs).seed(3).generate()
}

fn checked() -> SimSetup {
    SimSetup::trace_sim().check_invariants(true)
}

fn bytes(report: &SimulationReport) -> String {
    serde_json::to_string(report).expect("reports serialize")
}

fn assert_invisible(kind: SchedulerKind, setup: SimSetup, jobs: usize) -> SimulationReport {
    let plain = setup.run(trace(jobs), &kind);
    let (timed, timings) = TimedScheduler::new(kind.build(), Instant::now());
    let wrapped = setup
        .build_simulation_with(trace(jobs), timed, kind.requires_oracle())
        .run();
    let calls = timings.borrow().allocate.count();
    assert!(plain.all_completed());
    assert_eq!(
        bytes(&plain),
        bytes(&wrapped),
        "{kind} differs when wrapped"
    );
    assert_eq!(
        calls,
        plain.stats().scheduling_passes,
        "{kind}: one timed allocate call per scheduling pass"
    );
    plain
}

fn assert_clean(report: &SimulationReport) {
    assert!(report
        .invariants()
        .expect("the checker was armed")
        .is_clean());
}

#[test]
fn wrapped_las_mq_reproduces_the_unwrapped_report() {
    assert_clean(&assert_invisible(
        SchedulerKind::las_mq_simulations(),
        checked(),
        2_000,
    ));
}

#[test]
fn wrapped_oracle_kind_reproduces_the_unwrapped_report() {
    assert_clean(&assert_invisible(SchedulerKind::Srtf, checked(), 2_000));
}

#[test]
fn telemetry_passes_through_the_wrapper() {
    let report = assert_invisible(
        SchedulerKind::las_mq_simulations(),
        SimSetup::trace_sim().record_telemetry(true),
        400,
    );
    assert!(report.telemetry().is_some());
}

#[test]
fn snapshot_and_restore_pass_through_the_wrapper() {
    let kind = SchedulerKind::las_mq_simulations();
    let plain = checked().run(trace(400), &kind);

    let (timed, _) = TimedScheduler::new(kind.build(), Instant::now());
    let mut sim = checked().build_simulation_with(trace(400), timed, kind.requires_oracle());
    let halfway = SimTime::from_millis(plain.stats().makespan.as_millis() / 2);
    assert!(sim.run_until(halfway), "the run pauses mid-way");
    let snapshot = sim.snapshot();
    drop(sim);

    let (timed, _) = TimedScheduler::new(kind.build(), Instant::now());
    let resumed = Simulation::restore(snapshot, timed)
        .expect("the wrapper hands the state to the inner scheduler")
        .run();
    assert_eq!(bytes(&plain), bytes(&resumed));
}

/// The journal rep builds its simulation on `Simulation::builder()` directly
/// (the only place `record_journal` lives); it must stay the same
/// environment as the workload's `SimSetup`.
#[test]
fn journal_simulations_match_their_setups() {
    for workload in [FB_NARROW, SCALE_WIDE, UNIFORM_BATCH] {
        let jobs = workload.generate(300, 5);
        let kind = lasmq_benchmark::engine::EngineWorkload::kind();
        let via_setup = workload.setup().run(jobs.clone(), &kind);
        let via_builder = workload.journal_simulation(jobs).run();
        assert!(via_builder.journal().is_some());
        assert_eq!(
            Fingerprint::of(&via_setup),
            Fingerprint::of(&via_builder),
            "{} drifted from its SimSetup",
            workload.name
        );
    }
}
