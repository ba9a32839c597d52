//! The warm fork point that [`ext_warmstart`](crate::ext_warmstart),
//! [`ext_train`](crate::ext_train) and the `snapshot_restore` bench share.
//!
//! A [`DONOR`] run is warmed to the median job arrival and snapshotted:
//! half the workload is in (warm cluster, real backlog), half is still to
//! come, so every scheduler forked from the snapshot has work to differ
//! on. Arrival times are workload data, so the fork point is
//! deterministic and costs no probe run. The snapshot is round-tripped
//! through JSON, so forks start from the exact bytes a snapshot file
//! would hold. [`run_forks`] is the one way an experiment runs arms from
//! it.

use lasmq_campaign::{map_parallel, ExecOptions, SchedulerKind, SimSetup, WorkloadSpec};
use lasmq_simulator::{SimError, SimSnapshot, SimTime, Simulation, SimulationReport};

/// The policy that warms the cluster. FIFO favours no arm forked from it.
pub const DONOR: SchedulerKind = SchedulerKind::Fifo;

/// Runs `workload` under [`DONOR`] to its median arrival and returns the
/// JSON-round-tripped snapshot there. Its [`now`](SimSnapshot::now) is
/// the fork point.
///
/// # Panics
///
/// Panics if the workload is empty.
pub fn donor_snapshot(setup: &SimSetup, workload: &WorkloadSpec) -> SimSnapshot {
    let jobs = workload.generate();
    let mut arrivals: Vec<SimTime> = jobs.iter().map(|j| j.arrival()).collect();
    arrivals.sort();
    let fork_at = arrivals[arrivals.len() / 2];
    let snapshot = setup
        .build_simulation(jobs, &DONOR)
        .snapshot_at(fork_at)
        .expect("workload extends past its median arrival");
    SimSnapshot::from_json(&snapshot.to_json()).expect("snapshot JSON round-trips")
}

/// Mean response (s) over the jobs that finished after `fork_at`: the
/// jobs whose fate the forked policy could still influence, since earlier
/// completions are the donor's doing. `None` if no job did.
pub fn post_fork_mean_response(report: &SimulationReport, fork_at: SimTime) -> Option<f64> {
    report.mean_response_secs_where(|o| o.finish.is_some_and(|f| f > fork_at))
}

/// Forks `snapshot` into every scheduler in `kinds` and runs each arm to
/// completion, in parallel on [`ExecOptions::resolved_threads`] workers.
/// Reports come back in `kinds` order and are bit-identical for any
/// worker count: a [`SimSnapshot`] is plain data, so each worker
/// rebuilds its own engine.
///
/// # Errors
///
/// Returns the first fork error (schema mismatch, corrupt snapshot).
pub fn run_forks(
    snapshot: &SimSnapshot,
    kinds: &[SchedulerKind],
    exec: &ExecOptions,
) -> Result<Vec<SimulationReport>, SimError> {
    map_parallel(exec.resolved_threads(kinds.len()), kinds.len(), |i| {
        Ok(Simulation::fork(snapshot, kinds[i].build())?.run())
    })
    .into_iter()
    .collect()
}
