//! The changed-jobs contract of the engine's incremental scheduling
//! passes: every job whose view changed since the previous pass is listed
//! in `SchedContext::changed` at its current slot.
//!
//! The scheduler below is deliberately adversarial about that contract: it
//! keeps its *own* persistent copy of every job view, refreshes that copy
//! only from `SchedContext::changed`, and on every pass asserts the copy
//! equals the live views. If the engine ever under-reports a changed view,
//! the cached copy goes stale and the assertion fires.

use proptest::prelude::*;

use lasmq_simulator::{
    AllocationPlan, ClusterConfig, FailureConfig, JobSpec, JobView, SchedContext, Scheduler,
    SimDuration, SimTime, Simulation, SimulationReport, SpeculationConfig, StageKind, StageSpec,
    TaskSpec,
};

/// A stateful scheduler that trusts the changed-jobs hint completely.
///
/// It mirrors the context's views into `cache`, patching just the listed
/// slots, and then plans exclusively from the mirror: a rotating cursor
/// (genuine cross-pass state) hands each cached job its useful demand in
/// turn.
struct Mirror {
    cache: Vec<JobView>,
    cursor: u64,
}

impl Mirror {
    fn new() -> Self {
        Mirror {
            cache: Vec::new(),
            cursor: 0,
        }
    }
}

impl Scheduler for Mirror {
    fn name(&self) -> &str {
        "mirror"
    }

    fn snapshot_state(&self) -> Option<String> {
        Some(self.cursor.to_string())
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        self.cursor = state
            .parse()
            .map_err(|e| format!("bad mirror cursor {state:?}: {e}"))?;
        self.cache.clear();
        Ok(())
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
        let views = ctx.jobs();
        let changed = ctx
            .changed()
            .expect("the engine hands every pass a changed-jobs hint");
        // The contract: every job whose view content changed is listed at
        // its current slot; unlisted jobs are unchanged in content but may
        // have shifted to a lower slot when completed jobs were compacted
        // out. Resync lengths, patch listed slots, then re-anchor shifted
        // survivors by id.
        self.cache.truncate(views.len());
        let mirrored = self.cache.len();
        self.cache.extend_from_slice(&views[mirrored..]);
        for &slot in changed {
            self.cache[slot] = views[slot].clone();
        }
        for (slot, view) in views.iter().enumerate() {
            if self.cache[slot].id != view.id {
                self.cache[slot] = view.clone();
            }
        }
        // The adversarial part: the cached copies must equal the live
        // views exactly, or the hint lied.
        for (slot, view) in views.iter().enumerate() {
            assert_eq!(
                &self.cache[slot], view,
                "changed-jobs hint under-reported slot {slot}"
            );
        }

        self.cursor += 1;
        let n = self.cache.len();
        let mut budget = ctx.total_containers();
        for i in 0..n {
            let job = &self.cache[(i + self.cursor as usize) % n];
            let grant = job.max_useful_allocation().min(budget);
            if grant > 0 {
                plan.push(job.id, grant);
                budget -= grant;
            }
        }
    }
}

fn staged_job(arrival: u64, map_tasks: u32, dur_ms: u64, reduce_tasks: u32) -> JobSpec {
    let mut builder = JobSpec::builder()
        .arrival(SimTime::from_millis(arrival))
        .stage(StageSpec::uniform(
            StageKind::Map,
            map_tasks,
            TaskSpec::new(SimDuration::from_millis(dur_ms)),
        ));
    if reduce_tasks > 0 {
        builder = builder.stage(StageSpec::uniform(
            StageKind::Reduce,
            reduce_tasks,
            TaskSpec::new(SimDuration::from_millis(dur_ms)).with_containers(2),
        ));
    }
    builder.build()
}

/// Failures, speculation, admission queueing, multi-stage jobs, and
/// same-millisecond ties all at once.
fn workload() -> Vec<JobSpec> {
    vec![
        staged_job(0, 6, 8_000, 2),
        staged_job(0, 2, 1, 0), // 1 ms tasks tie with the arrival batch
        staged_job(1_000, 2, 3_000, 0),
        staged_job(5_000, 10, 5_000, 3),
        staged_job(5_000, 1, 20_000, 0), // arrival tie
        staged_job(12_000, 4, 4_000, 2),
    ]
}

fn build() -> Simulation<Mirror> {
    Simulation::builder()
        .cluster(ClusterConfig::new(3, 2))
        .admission_limit(3)
        .failures(FailureConfig::with_probability(0.15, 42))
        .speculation(SpeculationConfig::enabled(2, 1.5))
        .record_journal(true)
        .record_telemetry(true)
        .check_invariants(true)
        .jobs(workload())
        .build(Mirror::new())
        .expect("valid setup")
}

/// Byte-level fingerprint of everything a run produces: the serialized
/// report (outcomes, stats, journal, invariants) plus both telemetry CSVs.
fn fingerprint(report: &SimulationReport) -> String {
    let mut out = serde_json::to_string(report).expect("report serializes");
    if let Some(tel) = report.telemetry() {
        out.push_str(&tel.samples_csv());
        out.push_str(&tel.decisions_csv());
    }
    out
}

#[test]
fn changed_hint_is_complete_under_failures_and_speculation() {
    let report = build().run();
    assert!(report.all_completed());
    assert!(report.invariants().is_some_and(|i| i.is_clean()));
}

#[test]
fn incremental_passes_snapshot_restore_byte_identically() {
    let baseline = fingerprint(&build().run());

    let mut sim = build();
    let snap = sim.snapshot_at(SimTime::from_secs(9)).expect("mid-run");
    let json = snap.to_json();
    let revived = lasmq_simulator::SimSnapshot::from_json(&json).expect("parses");
    let resumed = Simulation::restore(revived, Mirror::new()).expect("restores");
    assert_eq!(fingerprint(&resumed.run()), baseline);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The same guarantee, property-tested: for random workloads —
    /// including same-instant arrival ties and 1 ms tasks — with failures
    /// and speculation on, the hint never under-reports (the mirror's
    /// per-pass assertion) and the engine's own invariants hold.
    #[test]
    fn changed_hint_is_complete_on_random_workloads(
        jobs in prop::collection::vec(
            (1u32..=8, 1u64..=12_000, 0u32..=4, 0u64..30_000).prop_map(
                |(tasks, dur_ms, reduce, arrival_ms)| {
                    staged_job(arrival_ms, tasks, dur_ms, reduce)
                },
            ),
            1..7,
        ),
        nodes in 1u32..=3,
        // Reduce tasks are 2 containers wide, so a node must fit 2.
        per_node in 2u32..=4,
        limit in 1usize..=6,
        fail_prob in 0.0f64..0.3,
        seed in 0u64..1_000,
    ) {
        let report = Simulation::builder()
            .cluster(ClusterConfig::new(nodes, per_node))
            .admission_limit(limit)
            .failures(FailureConfig::with_probability(fail_prob, seed))
            .speculation(SpeculationConfig::enabled(2, 1.3))
            .check_invariants(true)
            .jobs(jobs)
            .build(Mirror::new())
            .expect("valid setup")
            .run();
        prop_assert!(report.all_completed());
        prop_assert!(report.invariants().is_some_and(|i| i.is_clean()));
    }
}
