//! Scheduler-state payloads written before the zoo collapsed onto shared
//! kernels (the commit before `hfsp.rs` was folded into `fsp.rs` and the
//! persisted estimate and admission-sequence tables were deleted).
//!
//! `SimSnapshot` carries a scheduler's state as an opaque string, so the
//! snapshot schema version did not move with that change; what protects an
//! old snapshot is each scheduler's own `restore_state`. Every literal
//! below is a verbatim `snapshot_state()` of the old code after the history
//! in [`run_to_snapshot`], together with the plan the instance that wrote
//! it produced next. For each, restore either succeeds and reproduces
//! that plan, or returns `Err` — which `Simulation::restore` surfaces as
//! a structured `SimError::Snapshot`. Never a silent mis-parse.

use lasmq_schedulers::{Backfill, EstimatedSjf, Fsp, LearnedScheduler, LinearPolicy};
use lasmq_simulator::testkit;
use lasmq_simulator::{JobId, JobView, OracleInfo, SchedContext, Scheduler, Service, SimTime};

fn view(id: u32, size: f64) -> JobView {
    JobView {
        remaining_tasks: 10,
        unstarted_tasks: 10,
        oracle: Some(OracleInfo {
            total_size: Service::from_container_secs(size),
            remaining: Service::from_container_secs(size),
        }),
        ..testkit::view(id)
    }
}

/// The views of the pass after which each fixture was written: three jobs
/// admitted at t = 0, job 1 running with observable progress by t = 2 s.
fn views_at_snapshot() -> Vec<JobView> {
    vec![
        view(0, 500.0),
        JobView {
            held: 4,
            unstarted_tasks: 6,
            attained: Service::from_container_secs(4.0),
            attained_stage: Service::from_container_secs(4.0),
            stage_progress: 0.4,
            ..view(1, 5.0)
        },
        view(2, 50.0),
    ]
}

/// The writer's history: a pass at t = 0 over the freshly admitted jobs,
/// then a pass at t = 2 s (25 containers throughout).
fn run_to_snapshot(sched: &mut dyn Scheduler) {
    let admitted = [view(0, 500.0), view(1, 5.0), view(2, 50.0)];
    sched.allocate(&SchedContext::new(SimTime::ZERO, 25, &admitted));
    sched.allocate(&SchedContext::new(
        SimTime::from_secs(2),
        25,
        &views_at_snapshot(),
    ));
}

fn plan(entries: &[(u32, u32)]) -> Vec<(JobId, u32)> {
    entries.iter().map(|&(j, n)| (JobId::new(j), n)).collect()
}

/// Restores `payload` into `fresh`, which must accept it and then make
/// the writer's next decision: the pass at t = 7 s.
fn assert_loads_and_replays(mut fresh: Box<dyn Scheduler>, payload: &str, next: &[(u32, u32)]) {
    fresh.restore_state(payload).unwrap();
    fresh.check_consistency().unwrap();
    let views = views_at_snapshot();
    let got = fresh.allocate(&SchedContext::new(SimTime::from_secs(7), 25, &views));
    assert_eq!(got.entries(), plan(next), "{} mis-parsed", fresh.name());
}

const ESTIMATES: &str = r#"{"estimates":[{"job":0,"size":292.4928216976348},{"job":1,"size":2.4710752986007782},{"job":2,"size":216.86880748936827}]}"#;
const SMALLEST_ESTIMATE_FIRST: &[(u32, u32)] = &[(1, 10), (2, 10), (0, 5)];

#[test]
fn persisted_estimate_tables_are_ignored_and_the_estimates_recomputed() {
    // SJF-est, WFP3 and UNICEF no longer snapshot anything: the table was
    // a memo of a pure function, so a restored instance redraws the same
    // bits and ranks as the writer did.
    let kinds: [fn() -> Box<dyn Scheduler>; 3] = [
        || Box::new(EstimatedSjf::new(1.0, 0.05, 7)),
        || Box::new(Backfill::wfp3(1.0, 7)),
        || Box::new(Backfill::unicef(1.0, 7)),
    ];
    for make in kinds {
        assert_loads_and_replays(make(), ESTIMATES, SMALLEST_ESTIMATE_FIRST);
        assert_eq!(make().snapshot_state(), None);
    }
}

#[test]
fn learned_payload_with_a_sequence_table_loads_under_the_same_policy_only() {
    let old = r#"{"weights":[0,-1,0,0,0,0,0,0,0,0,0,0],"seqs":[[0,0],[1,1],[2,2]],"next_seq":3}"#;
    let las_like = Box::new(LearnedScheduler::new(LinearPolicy::las_like()));
    assert_loads_and_replays(las_like, old, &[(0, 10), (2, 10), (1, 5)]);
    // The weights check is what the payload still carries.
    let mut other = LearnedScheduler::new(LinearPolicy::zeros());
    assert!(other.restore_state(old).is_err());
}

#[test]
fn fsp_payload_from_before_the_merge_is_rejected() {
    // The old FSP named its one estimate `estimate`; the merged core's
    // entries carry `initial_estimate`, `refined_estimate` and `waiting`.
    let old = r#"{"jobs":[{"job":0,"estimate":292.4928216976348,"virtual_remaining":268.7283593469352,"finished_rank":null,"departed":false},{"job":1,"estimate":2.4710752986007782,"virtual_remaining":0,"finished_rank":0,"departed":false},{"job":2,"estimate":216.86880748936827,"virtual_remaining":193.10434513866866,"finished_rank":null,"departed":false}],"advanced_to_ms":2000,"next_rank":1}"#;
    let err = Fsp::new(1.0, 7).restore_state(old).unwrap_err();
    assert!(err.contains("initial_estimate"), "{err}");
}

#[test]
fn hfsp_payload_from_before_the_merge_loads_and_replays() {
    let old = r#"{"jobs":[{"job":0,"initial_estimate":292.4928216976348,"refined_estimate":292.4928216976348,"virtual_remaining":268.7283593469352,"finished_rank":null,"departed":false,"waiting":true},{"job":1,"initial_estimate":2.4710752986007782,"refined_estimate":10,"virtual_remaining":0,"finished_rank":0,"departed":false,"waiting":false},{"job":2,"initial_estimate":216.86880748936827,"refined_estimate":216.86880748936827,"virtual_remaining":193.10434513866866,"finished_rank":null,"departed":false,"waiting":true}],"advanced_to_ms":2000,"next_rank":1}"#;
    assert_loads_and_replays(Box::new(Fsp::hfsp(1.0, 7)), old, SMALLEST_ESTIMATE_FIRST);
    // The merged core writes the same bytes for the same history.
    let mut replayed = Fsp::hfsp(1.0, 7);
    run_to_snapshot(&mut replayed);
    assert_eq!(replayed.snapshot_state().as_deref(), Some(old));
}

#[test]
fn hfsp_payload_carrying_a_finished_ghost_is_rejected() {
    // Written after job 1 really finished at t = 0 and virtually finished
    // by t = 4 s: the entry the old code never forgot. The merged core
    // drops such entries as they arise and refuses a state that holds one.
    let old = r#"{"jobs":[{"job":0,"initial_estimate":500,"refined_estimate":500,"virtual_remaining":452.5,"finished_rank":null,"departed":false,"waiting":true},{"job":1,"initial_estimate":5,"refined_estimate":5,"virtual_remaining":0,"finished_rank":0,"departed":true,"waiting":false},{"job":2,"initial_estimate":50,"refined_estimate":50,"virtual_remaining":2.5,"finished_rank":null,"departed":false,"waiting":true}],"advanced_to_ms":4000,"next_rank":1}"#;
    let err = Fsp::hfsp(0.0, 0).restore_state(old).unwrap_err();
    assert!(err.contains("departed"), "{err}");
}
