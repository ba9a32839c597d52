//! The zoo-wide scheduler contract suite.
//!
//! Every [`SchedulerKind`] variant — the full 13-scheduler zoo — must
//! uphold the same engine contract, checked generically here so a new
//! scheduler cannot dodge coverage:
//!
//! 1. **Snapshot → restore byte-identity mid-run**: pausing a simulation,
//!    serializing the snapshot, restoring it into a *fresh* scheduler
//!    instance, and running to completion must reproduce the
//!    uninterrupted run's report byte-for-byte. This exercises every
//!    scheduler's `snapshot_state`/`restore_state` with real mid-run
//!    state, not hand-built fixtures.
//! 2. **A clean invariant report**: with the invariant checker armed
//!    (which audits every pass's views and plan — sanity, discipline, work
//!    conservation — calls `Scheduler::check_consistency` after every
//!    batch and byte-checks snapshot fidelity on a sample of them), a full
//!    run must report zero violations: on two traces, on PUMA, and on PUMA
//!    with task failures and speculative copies.
//! 3. **Thread-count determinism**: a campaign over the zoo produces
//!    byte-identical serialized reports on a 1-thread and a 3-thread
//!    worker pool.
//! 4. **Truthful declarations**: a kind that answers
//!    `Scheduler::reads_stage_progress` with `false` runs on views whose
//!    `stage_progress` is `0.0`; the same kind behind a wrapper that
//!    answers `true` runs on the computed counter. Both must write the
//!    same report, or the kind reads a field it disowned.
//!
//! Registration is enforced at compile time: `SchedulerKind::zoo()` and
//! `SchedulerKind::variant_index()` live next to the enum, where the
//! exhaustive match makes "added a variant, forgot the zoo" a compile
//! error, and the `zoo_covers_every_variant_exactly_once` unit test pins
//! the list to `VARIANT_COUNT`.

use lasmq_campaign::{
    Campaign, ExecOptions, RunCell, SchedulerKind, SimSetup, WorkloadSpec, VARIANT_COUNT,
};
use lasmq_simulator::testkit;
use lasmq_simulator::{
    AllocationPlan, EngineStats, FailureConfig, JobId, JobSpec, JobView, QueueDemotion,
    SchedContext, Scheduler, Service, SimSnapshot, SimTime, Simulation, SimulationReport,
    SpeculationConfig,
};
use lasmq_workload::{FacebookTrace, PumaWorkload};

fn fingerprint(report: &SimulationReport) -> String {
    serde_json::to_string(report).expect("report serializes")
}

/// The shared contract workload: big enough that every scheduler carries
/// non-trivial internal state at the pause point, small enough to keep
/// 13 × 3 runs cheap.
fn contract_jobs() -> Vec<JobSpec> {
    FacebookTrace::new().jobs(60).seed(5).generate()
}

/// The paper's testbed with the engine extensions the benchmark's PUMA
/// cells run: task failures and speculative copies.
fn faulty_testbed() -> SimSetup {
    SimSetup::testbed()
        .failures(FailureConfig::with_probability(0.02, 11))
        .speculation(SpeculationConfig::enabled(3, 1.5))
}

/// Forwards everything to the kind it wraps, except that it claims to read
/// `stage_progress` — so the engine computes the counter for a kind that
/// may have declared it unread.
struct ClaimsToReadProgress(Box<dyn Scheduler>);

impl Scheduler for ClaimsToReadProgress {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn requires_oracle(&self) -> bool {
        self.0.requires_oracle()
    }
    fn reads_stage_progress(&self) -> bool {
        true
    }
    fn on_job_admitted(&mut self, view: &JobView, now: SimTime) {
        self.0.on_job_admitted(view, now)
    }
    fn on_stage_completed(&mut self, job: JobId, new_stage_index: usize, now: SimTime) {
        self.0.on_stage_completed(job, new_stage_index, now)
    }
    fn on_job_completed(&mut self, job: JobId, now: SimTime) {
        self.0.on_job_completed(job, now)
    }
    fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
        self.0.allocate_into(ctx, plan)
    }
    fn queue_depths(&self) -> Option<Vec<u32>> {
        self.0.queue_depths()
    }
    fn drain_demotions(&mut self) -> Vec<QueueDemotion> {
        self.0.drain_demotions()
    }
    fn snapshot_state(&self) -> Option<String> {
        self.0.snapshot_state()
    }
    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        self.0.restore_state(state)
    }
    fn check_consistency(&self) -> Result<(), String> {
        self.0.check_consistency()
    }
}

fn assert_declaration_is_truthful(setup: &SimSetup, jobs: &[JobSpec], kind: &SchedulerKind) {
    let gated = setup.run(jobs.to_vec(), kind);
    let filled = setup
        .build_simulation_with(
            jobs.to_vec(),
            ClaimsToReadProgress(kind.build()),
            kind.requires_oracle(),
        )
        .run();
    assert!(gated.all_completed(), "{kind}: jobs left unfinished");
    assert_eq!(
        gated.stats(),
        filled.stats(),
        "{kind}: engine counters depend on stage_progress"
    );
    assert_eq!(
        fingerprint(&gated),
        fingerprint(&filled),
        "{kind}: declares stage_progress unread, yet its run depends on it"
    );
}

#[test]
fn no_kind_reads_the_stage_progress_it_declares_unread() {
    let trace = FacebookTrace::new().jobs(120).seed(6).generate();
    let setup = SimSetup::trace_sim().record_telemetry(true);
    for kind in SchedulerKind::zoo() {
        assert_declaration_is_truthful(&setup, &trace, &kind);
    }
    let puma = PumaWorkload::new().jobs(40).seed(6).generate();
    let setup = faulty_testbed().record_telemetry(true);
    for kind in SchedulerKind::paper_lineup_experiments() {
        assert_declaration_is_truthful(&setup, &puma, &kind);
    }
}

/// Speculation's memoised straggler threshold is not part of a snapshot: a
/// resumed run starts without it, and must neither report nor later
/// serialize anything the uninterrupted run does not.
#[test]
fn speculating_fair_run_resumes_to_the_same_report_and_later_snapshot() {
    let jobs = PumaWorkload::new().jobs(40).seed(6).generate();
    let setup = faulty_testbed();
    let kind = SchedulerKind::Fair;
    let uninterrupted = setup.run(jobs.clone(), &kind);
    let stats = uninterrupted.stats();
    assert!(stats.tasks_failed > 0, "{stats:?}");
    assert!(stats.speculative_launched > 0, "{stats:?}");
    let makespan = stats.makespan.as_millis();
    let late = SimTime::from_millis(makespan * 3 / 4);

    let mut straight = setup.build_simulation(jobs.clone(), &kind);
    let mut first_half = setup.build_simulation(jobs, &kind);
    let half = first_half
        .snapshot_at(SimTime::from_millis(makespan / 2))
        .expect("mid-run")
        .to_json();
    let half = SimSnapshot::from_json(&half).expect("snapshot JSON parses");
    let mut resumed = Simulation::restore(half, kind.build()).expect("restores");
    let a = straight.snapshot_at(late).expect("still running").to_json();
    let b = resumed.snapshot_at(late).expect("still running").to_json();
    assert!(a == b, "snapshot bytes diverged after a restore");
    assert_eq!(fingerprint(&resumed.run()), fingerprint(&uninterrupted));
    assert_eq!(fingerprint(&straight.run()), fingerprint(&uninterrupted));
}

/// The LAS_MQ state the commit before the queues kept themselves sorted
/// wrote for the run below at its pause point, verbatim: eleven jobs listed
/// in that code's live order — by `(remaining demand, seq)`, a derived key
/// the payload does not carry.
const LIVE_ORDER_LAS_MQ_PAYLOAD: &str = r#"{"queues":[[],[],[],[{"job":32,"seq":32,"max_effective":23749.40956751659},{"job":9,"seq":9,"max_effective":15503.96943462787},{"job":20,"seq":20,"max_effective":27001.217999999993},{"job":10,"seq":10,"max_effective":15873.144788969868},{"job":39,"seq":39,"max_effective":17419.89447368422},{"job":30,"seq":30,"max_effective":18643.85595516092},{"job":33,"seq":33,"max_effective":15734.80058601484},{"job":1,"seq":1,"max_effective":25857.085781302165},{"job":31,"seq":31,"max_effective":26414.617800000007},{"job":16,"seq":16,"max_effective":26859.475695652185},{"job":38,"seq":38,"max_effective":27473.43878461537}],[],[],[],[],[],[]],"next_seq":40,"demotions":[]}"#;

/// LAS_MQ's in-queue demand keys are not part of a snapshot either: under
/// the testbed configuration (queues ordered by remaining demand) a
/// snapshot lists each queue by arrival seq, and a restored instance holds
/// every job at an unknown demand until its first pass. Neither may show —
/// not in a snapshot taken before that pass, not in a later one — and an
/// old payload, listed in another order, must load to the very same state.
#[test]
fn demand_ordered_las_mq_snapshot_is_canonical_and_a_live_order_payload_loads() {
    let jobs = PumaWorkload::new().jobs(40).seed(6).generate();
    let setup = SimSetup::testbed();
    let kind = SchedulerKind::las_mq_experiments();
    let makespan = setup.run(jobs.clone(), &kind).stats().makespan.as_millis();
    let late = SimTime::from_millis(makespan * 3 / 4);

    let mut straight = setup.build_simulation(jobs, &kind);
    let half = straight
        .snapshot_at(SimTime::from_millis(makespan / 2))
        .expect("mid-run");
    let json_string = |text: &str| serde_json::to_string(text).expect("a string serializes");
    let written = json_string(half.scheduler_state().expect("LAS_MQ snapshots its state"));
    let half = half.to_json();
    assert_eq!(half.matches(&written).count(), 1);
    let old = half.replace(&written, &json_string(LIVE_ORDER_LAS_MQ_PAYLOAD));
    assert!(
        old != half && old.len() == half.len(),
        "same jobs, listed differently"
    );
    let later = straight.snapshot_at(late).expect("still running").to_json();
    let report = fingerprint(&straight.run());

    for json in [&half, &old] {
        let revived = SimSnapshot::from_json(json).expect("snapshot JSON parses");
        let mut resumed = Simulation::restore(revived, kind.build()).expect("restores");
        assert!(
            resumed.snapshot().to_json() == half,
            "restore is not canonical"
        );
        let resumed_later = resumed.snapshot_at(late).expect("still running").to_json();
        assert!(
            resumed_later == later,
            "snapshot bytes diverged after a restore"
        );
        assert_eq!(fingerprint(&resumed.run()), report);
    }
}

/// The same old code caught between a completion and the next pass — a
/// state the engine never snapshots, so this one is hand-driven: jobs 0-6
/// admitted, one pass on 25 containers (job 3, five tasks, sorted first),
/// job 3 completed and its slot taken by the swapped-in tail, leaving the
/// queue in neither demand nor seq order. It must load and make the
/// writer's next decision.
#[test]
fn swap_removed_las_mq_payload_loads_and_replays_the_writers_next_plan() {
    let old = r#"{"queues":[[{"job":2,"seq":2,"max_effective":0},{"job":1,"seq":1,"max_effective":0},{"job":4,"seq":4,"max_effective":0},{"job":0,"seq":0,"max_effective":0}],[{"job":5,"seq":5,"max_effective":150},{"job":6,"seq":6,"max_effective":150}],[],[],[],[],[],[],[],[]],"next_seq":7,"demotions":[{"job":5,"from_queue":0,"to_queue":1,"effective":150},{"job":6,"from_queue":0,"to_queue":1,"effective":150}]}"#;
    let mut fresh = SchedulerKind::las_mq_experiments().build();
    fresh.restore_state(old).unwrap();
    fresh.check_consistency().unwrap();
    let view = |(id, tasks, attained): (u32, u32, f64)| JobView {
        remaining_tasks: tasks,
        unstarted_tasks: tasks,
        attained: Service::from_container_secs(attained),
        attained_stage: Service::from_container_secs(attained),
        ..testkit::view(id)
    };
    let left = [
        (0, 40, 0.0),
        (1, 12, 0.0),
        (2, 55, 0.0),
        (4, 20, 0.0),
        (5, 9, 150.0),
        (6, 30, 150.0),
    ];
    let views: Vec<JobView> = left.into_iter().map(view).collect();
    let plan = fresh.allocate(&SchedContext::new(SimTime::from_secs(2), 25, &views));
    let next = [(1, 12), (4, 5), (5, 8)].map(|(job, n)| (JobId::new(job), n));
    assert_eq!(plan.entries(), next);
    fresh.check_consistency().unwrap();
    assert_eq!(
        fresh.drain_demotions().len(),
        2,
        "pending demotions survive"
    );
}

#[test]
fn every_kind_snapshot_restores_byte_identically_mid_run() {
    let jobs = contract_jobs();
    let setup = SimSetup::trace_sim().check_invariants(true);
    for kind in SchedulerKind::zoo() {
        let baseline = setup.run(jobs.clone(), &kind);
        assert!(
            baseline.all_completed(),
            "{kind}: baseline run left jobs unfinished"
        );
        let baseline_bytes = fingerprint(&baseline);

        let mut paused = setup.build_simulation(jobs.clone(), &kind);
        let snap = paused
            .snapshot_at(SimTime::from_secs(15))
            .unwrap_or_else(|| panic!("{kind}: simulation finished before the pause point"));

        // The snapshot itself must survive a JSON round-trip unchanged —
        // the same byte-identity the engine's sampled fidelity invariant
        // enforces, here asserted for every kind explicitly.
        let json = snap.to_json();
        let revived = SimSnapshot::from_json(&json)
            .unwrap_or_else(|e| panic!("{kind}: snapshot JSON does not parse: {e}"));
        assert_eq!(
            revived.to_json(),
            json,
            "{kind}: snapshot JSON round-trip is not byte-identical"
        );

        let resumed = Simulation::restore(revived, kind.build())
            .unwrap_or_else(|e| panic!("{kind}: restore rejected its own snapshot: {e}"))
            .run();
        assert_eq!(
            fingerprint(&resumed),
            baseline_bytes,
            "{kind}: resumed run diverges from the uninterrupted run"
        );
    }
}

fn assert_runs_clean(setup: &SimSetup, jobs: &[JobSpec], kind: &SchedulerKind) -> EngineStats {
    let setup = setup.clone().check_invariants(true);
    let report = setup.run(jobs.to_vec(), kind);
    assert!(report.all_completed(), "{kind}: jobs left unfinished");
    let invariants = report
        .invariants()
        .unwrap_or_else(|| panic!("{kind}: invariant checker was not armed"));
    assert!(
        invariants.is_clean(),
        "{kind}: invariant violations: {invariants}"
    );
    *report.stats()
}

#[test]
fn every_kind_is_consistency_clean_under_the_invariant_checker() {
    let four_by_thirty = SimSetup::trace_sim().cluster(SimSetup::testbed().cluster_config());
    let trace_400 = FacebookTrace::new().jobs(400).seed(8).generate();
    let puma = |jobs| PumaWorkload::new().jobs(jobs).seed(9).generate();
    // Twelve jobs keep the faulty runs cheap (an armed run's cost grows
    // with the square of the job count) and still see failed attempts and
    // speculative copies by the dozen.
    let inputs = [
        (SimSetup::trace_sim(), contract_jobs()),
        (SimSetup::trace_sim(), trace_400),
        (four_by_thirty, puma(25)),
        (faulty_testbed(), puma(12)),
    ];
    for (setup, jobs) in &inputs {
        for kind in SchedulerKind::zoo() {
            assert_runs_clean(setup, jobs, &kind);
        }
    }
    // The testbed's LAS_MQ is not the zoo's: stage-aware, and ordered by
    // remaining demand.
    let [.., (faulty, jobs)] = &inputs;
    for kind in SchedulerKind::paper_lineup_experiments() {
        let stats = assert_runs_clean(faulty, jobs, &kind);
        assert!(stats.tasks_failed > 0, "{kind}: {stats:?}");
        assert!(stats.speculative_launched > 0, "{kind}: {stats:?}");
    }
}

#[test]
fn zoo_campaign_is_thread_count_deterministic() {
    let mut campaign = Campaign::new("zoo-contract");
    for kind in SchedulerKind::zoo() {
        campaign.push(RunCell::new(
            format!("zoo/{kind}"),
            kind,
            WorkloadSpec::Facebook {
                jobs: 40,
                seed: 5,
                load: None,
            },
            SimSetup::trace_sim(),
        ));
    }
    assert_eq!(campaign.cells().len(), VARIANT_COUNT);
    let single = campaign.run(&ExecOptions::with_threads(1).no_cache());
    let pooled = campaign.run(&ExecOptions::with_threads(3).no_cache());
    for (kind, (a, b)) in SchedulerKind::zoo()
        .iter()
        .zip(single.reports.iter().zip(pooled.reports.iter()))
    {
        assert_eq!(
            fingerprint(a),
            fingerprint(b),
            "{kind}: 1-thread and 3-thread reports differ"
        );
    }
}
