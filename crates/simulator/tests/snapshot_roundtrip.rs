//! Snapshot/restore correctness: a run paused mid-flight, serialized,
//! deserialized and resumed must be *byte-identical* to the uninterrupted
//! run — including the telemetry CSVs — with failures and speculation
//! enabled. Also covers the warm-state fork primitive and snapshot error
//! paths.

use proptest::prelude::*;

use lasmq_simulator::{
    AllocationPlan, ClusterConfig, FailureConfig, JobSpec, SchedContext, Scheduler, SimDuration,
    SimError, SimTime, Simulation, SimulationReport, SpeculationConfig, StageKind, StageSpec,
    TaskSpec,
};

/// A deterministic *stateful* scheduler: rotates which admitted job gets
/// first claim on the cluster, advancing a cursor every pass. The cursor is
/// genuine cross-pass state — if restore failed to carry it, the resumed
/// run would allocate differently and the byte-identity checks below would
/// fail.
struct Rotor {
    cursor: u64,
}

impl Rotor {
    fn new() -> Self {
        Rotor { cursor: 0 }
    }
}

impl Scheduler for Rotor {
    fn name(&self) -> &str {
        "rotor"
    }

    fn snapshot_state(&self) -> Option<String> {
        Some(self.cursor.to_string())
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        self.cursor = state
            .parse()
            .map_err(|e| format!("bad rotor cursor {state:?}: {e}"))?;
        Ok(())
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
        self.cursor += 1;
        let jobs = ctx.jobs();
        let n = jobs.len();
        let mut budget = ctx.total_containers();
        for i in 0..n {
            let job = &jobs[(i + self.cursor as usize) % n];
            let grant = job.max_useful_allocation().min(budget);
            if grant > 0 {
                plan.push(job.id, grant);
                budget -= grant;
            }
        }
    }
}

fn staged_job(arrival: u64, map_tasks: u32, dur: u64, reduce_tasks: u32) -> JobSpec {
    let mut builder = JobSpec::builder()
        .arrival(SimTime::from_secs(arrival))
        .stage(StageSpec::uniform(
            StageKind::Map,
            map_tasks,
            TaskSpec::new(SimDuration::from_secs(dur)),
        ));
    if reduce_tasks > 0 {
        builder = builder.stage(StageSpec::uniform(
            StageKind::Reduce,
            reduce_tasks,
            TaskSpec::new(SimDuration::from_secs(dur)).with_containers(2),
        ));
    }
    builder.build()
}

/// A workload gnarly enough to exercise failures, speculation, admission
/// queueing and multi-stage jobs at once.
fn workload() -> Vec<JobSpec> {
    vec![
        staged_job(0, 6, 8, 2),
        staged_job(1, 2, 3, 0),
        staged_job(5, 10, 5, 3),
        staged_job(9, 1, 20, 0),
        staged_job(12, 4, 4, 2),
    ]
}

fn build(scheduler: Rotor) -> Simulation<Rotor> {
    Simulation::builder()
        .cluster(ClusterConfig::new(3, 2))
        .admission_limit(3)
        .failures(FailureConfig::with_probability(0.15, 42))
        .speculation(SpeculationConfig::enabled(2, 1.5))
        .record_journal(true)
        .record_telemetry(true)
        .jobs(workload())
        .build(scheduler)
        .expect("valid setup")
}

/// Byte-level fingerprint of everything a run produces: the serialized
/// report (outcomes, stats, journal) plus both telemetry CSVs verbatim.
fn fingerprint(report: &SimulationReport) -> String {
    let mut out = serde_json::to_string(report).expect("report serializes");
    if let Some(tel) = report.telemetry() {
        out.push_str(&tel.samples_csv());
        out.push_str(&tel.decisions_csv());
    }
    out
}

#[test]
fn restore_after_json_roundtrip_is_byte_identical() {
    let baseline = fingerprint(&build(Rotor::new()).run());

    let mut sim = build(Rotor::new());
    let snap = sim.snapshot_at(SimTime::from_secs(15)).expect("mid-run");
    drop(sim); // the original is gone; only the snapshot survives
    let json = snap.to_json();
    let revived = lasmq_simulator::SimSnapshot::from_json(&json).expect("parses");
    let resumed = Simulation::restore(revived, Rotor::new()).expect("restores");
    assert_eq!(fingerprint(&resumed.run()), baseline);
}

#[test]
fn every_pause_point_resumes_to_the_same_report() {
    let baseline = fingerprint(&build(Rotor::new()).run());

    // Pause every 10 s of simulated time, snapshotting each pause point,
    // then let the same simulation finish.
    let mut sim = build(Rotor::new());
    let mut pauses = Vec::new();
    let mut until = SimTime::ZERO;
    loop {
        until += SimDuration::from_secs(10);
        if !sim.run_until(until) {
            break;
        }
        pauses.push(sim.snapshot().to_json());
    }
    assert_eq!(
        fingerprint(&sim.run()),
        baseline,
        "pausing perturbed the run"
    );
    assert!(!pauses.is_empty(), "the run never paused");

    for json in &pauses {
        let snap = lasmq_simulator::SimSnapshot::from_json(json).expect("parses");
        let resumed = Simulation::restore(snap, Rotor::new()).expect("restores");
        assert_eq!(fingerprint(&resumed.run()), baseline);
    }
}

#[test]
fn snapshot_accessors_describe_the_pause_point() {
    let mut sim = build(Rotor::new());
    let snap = sim.snapshot_at(SimTime::from_secs(15)).expect("mid-run");
    assert_eq!(snap.schema(), lasmq_simulator::SNAPSHOT_SCHEMA_VERSION);
    assert_eq!(snap.scheduler_name(), "rotor");
    assert!(snap.now() >= SimTime::from_secs(15));
    assert_eq!(snap.total_jobs(), 5);
    assert!(snap.finished_jobs() < 5);
    assert!(snap.pending_events() > 0);
}

#[test]
fn snapshot_at_returns_none_once_finished() {
    let mut sim = build(Rotor::new());
    assert!(sim.snapshot_at(SimTime::from_secs(1_000_000)).is_none());
}

#[test]
fn restore_rejects_wrong_scheduler_name() {
    struct Other;
    impl Scheduler for Other {
        fn name(&self) -> &str {
            "other"
        }
        fn allocate_into(&mut self, _ctx: &SchedContext<'_>, _plan: &mut AllocationPlan) {}
    }
    let mut sim = build(Rotor::new());
    let snap = sim.snapshot_at(SimTime::from_secs(15)).expect("mid-run");
    let err = Simulation::restore(snap, Other).unwrap_err();
    assert!(matches!(err, SimError::Snapshot(_)), "got {err:?}");
    assert!(
        err.to_string().contains("fork"),
        "message should point at fork: {err}"
    );
}

#[test]
fn from_json_rejects_garbage_and_future_schemas() {
    let snapshot_error = |json: &str| match lasmq_simulator::SimSnapshot::from_json(json) {
        Err(SimError::Snapshot(detail)) => detail,
        other => panic!("expected SimError::Snapshot, got {other:?}"),
    };
    assert!(snapshot_error("not json").contains("malformed"));
    assert!(snapshot_error("{not json").contains("malformed"));

    let mut sim = build(Rotor::new());
    let json = sim
        .snapshot_at(SimTime::from_secs(15))
        .expect("mid-run")
        .to_json();
    // A torn write: half a genuine snapshot.
    assert!(snapshot_error(&json[..json.len() / 2]).contains("malformed"));

    let current = format!("\"schema\":{}", lasmq_simulator::SNAPSHOT_SCHEMA_VERSION);
    let bumped = json.replacen(&current, "\"schema\":999", 1);
    assert_ne!(json, bumped, "schema field not found to corrupt");
    let detail = snapshot_error(&bumped);
    assert!(detail.contains("schema v999"), "got {detail}");
}

/// Schema v2 snapshots written before telemetry's decision log became a
/// journal of `SimEvent`s held a bare list of the older decision
/// vocabulary (`TaskPreempted`, `AdmissionAccepted`, ...). Such a file must
/// be refused with a structured error, never half-read.
#[test]
fn a_v2_snapshot_with_the_old_decision_log_is_rejected() {
    let fixture = include_str!("fixtures/snapshot_v2.json");
    let with_telemetry = |telemetry: &str| {
        let json = fixture.replacen("\"telemetry\":null", telemetry, 1);
        assert_ne!(json, fixture, "telemetry field not found to replace");
        lasmq_simulator::SimSnapshot::from_json(&json)
    };
    let old_log = r#""telemetry":{"samples":[],"decisions":[{"TaskPreempted":{"job":0,"task":1,"at":5000}},{"AdmissionAccepted":{"job":2,"waited":0,"at":6000}}]}"#;
    let err = with_telemetry(old_log).unwrap_err();
    assert!(matches!(err, SimError::Snapshot(_)), "got {err:?}");
    // An old variant name is refused even inside the current structure:
    // `TaskPreempted`, and `TaskKilled` since kill preemption was retired.
    for old in ["TaskPreempted", "TaskKilled"] {
        let old_name = format!(
            r#""telemetry":{{"samples":[],"decisions":{{"events":[{{"{old}":{{"job":0,"stage":0,"task":1,"at":5000}}}}]}}}}"#
        );
        let err = with_telemetry(&old_name).unwrap_err();
        assert!(matches!(err, SimError::Snapshot(_)), "got {err:?}");
        assert!(err.to_string().contains(old), "got {err}");
    }
    // The same entry in the current vocabulary loads.
    let current = r#""telemetry":{"samples":[],"decisions":{"events":[{"TaskFailed":{"job":0,"stage":0,"task":1,"at":5000}}]}}"#;
    assert!(with_telemetry(current).is_ok());
}

/// Kill preemption was retired: snapshots are written with
/// `"preemption":"Graceful"`, and a file naming `"Kill"` is refused with
/// a structured error that says why, never half-read.
#[test]
fn a_snapshot_naming_kill_preemption_is_rejected() {
    let mut sim = build(Rotor::new());
    let json = sim
        .snapshot_at(SimTime::from_secs(15))
        .expect("mid-run")
        .to_json();
    let kill = json.replacen("\"preemption\":\"Graceful\"", "\"preemption\":\"Kill\"", 1);
    assert_ne!(json, kill, "preemption field not found to replace");
    let err = lasmq_simulator::SimSnapshot::from_json(&kill).unwrap_err();
    assert!(matches!(err, SimError::Snapshot(_)), "got {err:?}");
    assert!(err.to_string().contains("Kill"), "got {err}");
}

/// The engine stops early only at `run_until`, and it writes every
/// snapshot with `"deadline":null`. A file that carries a deadline anyway
/// (hand-edited, or from an engine that could still honour one) parses,
/// but neither `restore` nor `fork` will continue it.
#[test]
fn a_snapshot_with_a_deadline_is_refused_by_restore_and_fork() {
    let mut sim = build(Rotor::new());
    let json = sim
        .snapshot_at(SimTime::from_secs(15))
        .expect("mid-run")
        .to_json();
    let with_deadline = json.replacen("\"deadline\":null", "\"deadline\":90000", 1);
    assert_ne!(json, with_deadline, "deadline field not found to replace");
    let snap = lasmq_simulator::SimSnapshot::from_json(&with_deadline).expect("parses");
    let restored = Simulation::restore(snap.clone(), Rotor::new());
    let forked = Simulation::fork(&snap, Rotor::new());
    for err in [restored.unwrap_err(), forked.unwrap_err()] {
        assert!(matches!(err, SimError::Snapshot(_)), "got {err:?}");
        assert!(err.to_string().contains("deadline"), "got {err}");
    }
}

#[test]
fn fork_switches_policy_and_still_completes_everything() {
    struct Greedy;
    impl Scheduler for Greedy {
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

    let mut sim = build(Rotor::new());
    let snap = sim.snapshot_at(SimTime::from_secs(15)).expect("mid-run");

    // Fork into a different policy: allowed, runs to completion.
    let forked = Simulation::fork(&snap, Greedy).expect("fork");
    assert_eq!(forked.scheduler_name(), "greedy");
    let report = forked.run();
    assert!(report.all_completed());
    assert_eq!(report.scheduler(), "greedy");

    // Forking into the *same* policy also works (it just re-plans at the
    // pause point rather than restoring scheduler state — fork is "take
    // over", not "resume", so it is NOT required to match restore's
    // trajectory). The snapshot's serialized state is still available for
    // callers that want to seed the new arm.
    assert!(snap.scheduler_state().is_some(), "rotor state was captured");
    let fork_same = Simulation::fork(&snap, Rotor::new())
        .expect("fork same policy")
        .run();
    assert!(fork_same.all_completed());
    let restored = Simulation::restore(snap, Rotor::new())
        .expect("restore")
        .run();
    assert!(restored.all_completed());
}

/// What a snapshot says about a job must not depend on the engine's
/// buffer-reuse pool, which no snapshot carries: a resumed run starts with
/// an empty pool where the uninterrupted run's filled up long ago, and the
/// two must still write the same bytes later on.
#[test]
fn later_snapshots_of_a_resumed_run_match_the_uninterrupted_runs() {
    // Far more jobs than the pool holds, all admitted up front (so none
    // is grafted a pooled buffer), finishing one after another.
    let build = || {
        Simulation::builder()
            .cluster(ClusterConfig::single_node(4))
            .jobs((0..700).map(|_| staged_job(0, 4, 2, 0)))
            .build(Rotor::new())
            .expect("valid setup")
    };
    let makespan = build().run().stats().makespan.as_millis();
    let late = SimTime::from_millis(makespan * 95 / 100);

    let mut straight = build();
    let mut first_half = build();
    let half = first_half
        .snapshot_at(SimTime::from_millis(makespan / 2))
        .expect("mid-run");
    let mut resumed = Simulation::restore(half, Rotor::new()).expect("restores");
    let a = straight.snapshot_at(late).expect("still running").to_json();
    let b = resumed.snapshot_at(late).expect("still running").to_json();
    assert!(a == b, "snapshot bytes diverged after a restore");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole invariant, property-tested: for random workloads,
    /// cluster shapes and snapshot times — with failures and speculation
    /// on — snapshot → serialize → restore → run equals the uninterrupted
    /// run byte-for-byte, telemetry included.
    #[test]
    fn snapshot_restore_run_is_byte_identical(
        jobs in prop::collection::vec(
            (1u32..=8, 1u64..=15, 0u32..=4, 0u64..40).prop_map(
                |(tasks, dur, reduce, arrival)| staged_job(arrival, tasks, dur, reduce),
            ),
            1..7,
        ),
        nodes in 1u32..=3,
        // Reduce tasks are 2 containers wide, so a node must fit 2.
        per_node in 2u32..=4,
        limit in 1usize..=6,
        fail_prob in 0.0f64..0.3,
        seed in 0u64..1_000,
        cut_secs in 1u64..120,
    ) {
        let build = || {
            Simulation::builder()
                .cluster(ClusterConfig::new(nodes, per_node))
                .admission_limit(limit)
                .failures(FailureConfig::with_probability(fail_prob, seed))
                .speculation(SpeculationConfig::enabled(2, 1.3))
                .record_journal(true)
                .record_telemetry(true)
                .jobs(jobs.clone())
                .build(Rotor::new())
                .expect("valid setup")
        };
        let baseline = fingerprint(&build().run());

        let mut sim = build();
        match sim.snapshot_at(SimTime::from_secs(cut_secs)) {
            None => {
                // Finished before the cut: nothing to restore, but the
                // partial run must still agree with the baseline.
                prop_assert_eq!(fingerprint(&sim.run()), baseline);
            }
            Some(snap) => {
                let json = snap.to_json();
                let revived = lasmq_simulator::SimSnapshot::from_json(&json)
                    .expect("snapshot JSON parses");
                let resumed = Simulation::restore(revived, Rotor::new()).expect("restores");
                prop_assert_eq!(fingerprint(&resumed.run()), baseline);
            }
        }
    }
}
