//! The committed schema-v2 `SimSnapshot` fixture: an engine snapshot
//! written by the commit *before* the job store gained its two derived
//! members (the running-attempt index and the per-job oracle size),
//! together with the report that commit went on to produce from it.
//!
//! Today's engine must restore the file, write it back byte for byte
//! before taking a step, and run it to the recorded report — which is what
//! makes those members derived state and lets `SNAPSHOT_SCHEMA_VERSION`
//! stay 2. The snapshot pauses [`fixture_run`] at [`PAUSE_AT`] with
//! attempts running (some doomed to fail), speculative copies in flight, a
//! failed task waiting in `requeued` and one job already finished.
//!
//! To write a fixture for a later schema, run `write_fixture` (ignored by
//! default) at the commit whose format is to be pinned.

use lasmq_simulator::{
    AllocationPlan, ClusterConfig, FailureConfig, JobSpec, JobView, SchedContext, Scheduler,
    SimDuration, SimSnapshot, SimTime, Simulation, SpeculationConfig, StageKind, StageSpec,
    TaskSpec,
};

const SNAPSHOT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/snapshot_v2.json"
);
const REPORT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/snapshot_v2.report.json"
);
const PAUSE_AT: SimTime = SimTime::from_secs(88);

/// Shortest remaining size first, read off the oracle: the cached
/// `total_size` decides every plan. Stateless, so the fixture pins the
/// engine's format and not a scheduler's.
struct Srtf;

impl Scheduler for Srtf {
    fn name(&self) -> &str {
        "fixture-srtf"
    }

    fn requires_oracle(&self) -> bool {
        true
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
        let mut order: Vec<_> = ctx.jobs().iter().collect();
        let remaining = |j: &JobView| j.oracle.expect("oracle exposed").remaining;
        order.sort_by(|a, b| remaining(a).total_cmp(&remaining(b)).then(a.id.cmp(&b.id)));
        let mut budget = ctx.total_containers();
        for job in order {
            let grant = job.max_useful_allocation().min(budget);
            plan.push(job.id, grant);
            budget -= grant;
        }
    }
}

/// PUMA-shaped jobs (a wave of one-container maps with a few stragglers,
/// then two-container reduces) on the paper's testbed: 4 nodes x 30
/// containers, at most 30 jobs admitted, 1 s quantum.
fn fixture_run() -> Simulation<Srtf> {
    let mut state = 0x2017_u64;
    let mut next = |bound: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % bound
    };
    let jobs: Vec<JobSpec> = (0..14)
        .map(|i| {
            let maps = (0..8 + next(40))
                .map(|_| {
                    let secs = if next(8) == 0 { 90 } else { 10 + next(20) };
                    TaskSpec::new(SimDuration::from_secs(secs))
                })
                .collect();
            let reduces = (0..1 + next(6))
                .map(|_| TaskSpec::new(SimDuration::from_secs(15 + next(30))).with_containers(2))
                .collect();
            JobSpec::builder()
                .arrival(SimTime::from_secs(i * 6 + next(5)))
                .stage(StageSpec::new(StageKind::Map, maps))
                .stage(StageSpec::new(StageKind::Reduce, reduces))
                .build()
        })
        .collect();
    Simulation::builder()
        .cluster(ClusterConfig::new(4, 30))
        .admission_limit(30)
        .failures(FailureConfig::with_probability(0.15, 11))
        .speculation(SpeculationConfig::enabled(3, 1.5))
        .check_invariants(true)
        .jobs(jobs)
        .build(Srtf)
        .expect("valid setup")
}

#[test]
fn parent_written_snapshot_restores_rewrites_and_finishes_identically() {
    let written = std::fs::read_to_string(SNAPSHOT).expect("fixture present");
    let recorded = std::fs::read_to_string(REPORT).expect("recorded report present");

    // The fixture covers what it claims to.
    assert!(written.contains(r#""schema":2,"#));
    assert!(written.contains(r#""expose_oracle":true"#));
    assert!(
        written.contains(r#""spec_copy":{"#),
        "no speculative copy in flight"
    );
    assert!(written.contains(r#""will_fail":true"#), "no doomed attempt");
    assert!(
        written
            .split(r#""requeued":["#)
            .any(|rest| rest.starts_with(|c: char| c.is_ascii_digit())),
        "no re-queued task"
    );

    // It is the run described above, and today's engine still gets there.
    let reached = fixture_run().snapshot_at(PAUSE_AT).expect("mid-run");
    assert!(
        reached.to_json() == written,
        "fixture_run no longer pauses in the state the fixture holds"
    );

    let snap = SimSnapshot::from_json(&written).expect("schema v2 still loads");
    let sim = Simulation::restore(snap, Srtf).expect("restores");
    assert!(
        sim.snapshot().to_json() == written,
        "a restored engine re-snapshots differently from the file it loaded"
    );

    let report = sim.run();
    assert!(report.all_completed());
    let inv = report
        .invariants()
        .expect("the fixture run checks invariants");
    assert!(inv.is_clean(), "{inv}");
    assert!(
        serde_json::to_string(&report).expect("report serializes") == recorded,
        "the restored run diverged from the report its writer recorded"
    );
}

#[test]
#[ignore = "writes the fixture; run at the commit whose format is to be pinned"]
fn write_fixture() {
    let mut sim = fixture_run();
    let snap = sim.snapshot_at(PAUSE_AT).expect("mid-run").to_json();
    std::fs::write(SNAPSHOT, snap).expect("fixture written");
    let report = serde_json::to_string(&sim.run()).expect("report serializes");
    std::fs::write(REPORT, report).expect("report written");
}
