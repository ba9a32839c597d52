//! Isolated running time: how long a job takes alone on the full cluster.
//!
//! The slowdown metric (§V-A) divides a job's response time by "the time it
//! takes to finish when the job is scheduled to the cluster alone". That
//! baseline is computed here by list-scheduling each stage's tasks, in task
//! order, onto the cluster's container pool — exactly what the engine does
//! for a lone job under any work-conserving scheduler, so `slowdown ≈ 1`
//! for unimpeded jobs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::job::{JobSpec, StageSpec};
use crate::time::{SimDuration, SimTime};

/// Computes the isolated (alone-on-the-cluster) running time of `job` on a
/// cluster of `total_containers` containers.
///
/// Stages run strictly in sequence; within a stage, tasks are assigned in
/// order to the earliest-available slot group (each task occupies
/// `containers_per_task` containers, so a stage runs on
/// `total_containers / containers_per_task` parallel lanes).
///
/// # Panics
///
/// Panics if the job fails [`JobSpec::validate`] for this cluster size; call
/// `validate` first for untrusted specs.
///
/// # Examples
///
/// ```
/// use lasmq_simulator::isolated::isolated_runtime;
/// use lasmq_simulator::{JobSpec, SimDuration, StageKind, StageSpec, TaskSpec};
///
/// // 8 tasks of 10 s on 4 containers = 2 waves of 10 s.
/// let job = JobSpec::builder()
///     .stage(StageSpec::uniform(StageKind::Map, 8, TaskSpec::new(SimDuration::from_secs(10))))
///     .build();
/// assert_eq!(isolated_runtime(&job, 4), SimDuration::from_secs(20));
/// ```
pub fn isolated_runtime(job: &JobSpec, total_containers: u32) -> SimDuration {
    job.validate(total_containers)
        .unwrap_or_else(|reason| panic!("isolated_runtime on invalid job: {reason}"));
    let mut clock = SimTime::ZERO;
    for stage in job.stages() {
        let width = stage.containers_per_task();
        let lanes = (total_containers / width).max(1) as usize;
        clock = clock + stage.start_delay() + stage_makespan(stage, lanes);
    }
    clock.saturating_since(SimTime::ZERO)
}

/// Makespan of list-scheduling `stage`'s tasks, in order, on `lanes`
/// identical lanes.
fn stage_makespan(stage: &StageSpec, lanes: usize) -> SimDuration {
    // Lanes beyond the task count never host a task; dropping them keeps
    // the heap proportional to the work, not the cluster.
    let count = stage.task_count() as usize;
    let lanes = lanes.min(count).max(1);
    // Identical tasks (every trace generator's stage) run in exact waves:
    // list scheduling gives every lane at most ⌈n/L⌉ tasks. A validated
    // stage's tasks share one width, so any other stage has differing
    // durations.
    if let [task] = stage.stored_tasks() {
        let waves = count.div_ceil(lanes) as u64;
        return SimDuration::from_millis(task.duration().as_millis() * waves);
    }
    let durations = stage.tasks().map(|t| t.duration());
    if lanes >= count {
        // Single wave: every task gets its own lane.
        return durations.max().unwrap_or(SimDuration::ZERO);
    }
    if lanes == 1 {
        return durations.fold(SimDuration::ZERO, |acc, d| acc + d);
    }
    // Min-heap of lane available times.
    let mut heap: BinaryHeap<Reverse<SimDuration>> = BinaryHeap::with_capacity(lanes);
    for _ in 0..lanes {
        heap.push(Reverse(SimDuration::ZERO));
    }
    let mut makespan = SimDuration::ZERO;
    for dur in durations {
        let Reverse(free_at) = heap.pop().expect("at least one lane");
        let finish = free_at + dur;
        if finish > makespan {
            makespan = finish;
        }
        heap.push(Reverse(finish));
    }
    makespan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{StageKind, StageSpec, TaskSpec};

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn single_wave() {
        let job = JobSpec::builder()
            .stage(StageSpec::uniform(
                StageKind::Map,
                4,
                TaskSpec::new(secs(10)),
            ))
            .build();
        assert_eq!(isolated_runtime(&job, 4), secs(10));
        assert_eq!(isolated_runtime(&job, 100), secs(10));
    }

    #[test]
    fn partial_last_wave() {
        // 5 tasks on 4 lanes: 10 s + 10 s for the straggling fifth.
        let job = JobSpec::builder()
            .stage(StageSpec::uniform(
                StageKind::Map,
                5,
                TaskSpec::new(secs(10)),
            ))
            .build();
        assert_eq!(isolated_runtime(&job, 4), secs(20));
    }

    #[test]
    fn stages_are_sequential() {
        let job = JobSpec::builder()
            .stage(StageSpec::uniform(
                StageKind::Map,
                4,
                TaskSpec::new(secs(10)),
            ))
            .stage(StageSpec::uniform(
                StageKind::Reduce,
                2,
                TaskSpec::new(secs(30)).with_containers(2),
            ))
            .build();
        // Map: one wave of 10 s. Reduce: 4 containers / 2 per task = 2
        // lanes, one wave of 30 s.
        assert_eq!(isolated_runtime(&job, 4), secs(40));
    }

    #[test]
    fn wide_tasks_reduce_parallelism() {
        // 4 reduce tasks of 10 s, 2 containers each, on 4 containers: 2
        // lanes, 2 waves.
        let job = JobSpec::builder()
            .stage(StageSpec::uniform(
                StageKind::Reduce,
                4,
                TaskSpec::new(secs(10)).with_containers(2),
            ))
            .build();
        assert_eq!(isolated_runtime(&job, 4), secs(20));
    }

    #[test]
    fn heterogeneous_durations_list_schedule() {
        // Tasks 10, 1, 1, 1 on 2 lanes, in order:
        // lane A: 10 → busy till 10; lane B: 1, 1, 1 → till 3. Makespan 10.
        let stage = StageSpec::new(
            StageKind::Map,
            vec![
                TaskSpec::new(secs(10)),
                TaskSpec::new(secs(1)),
                TaskSpec::new(secs(1)),
                TaskSpec::new(secs(1)),
            ],
        );
        let job = JobSpec::builder().stage(stage).build();
        assert_eq!(isolated_runtime(&job, 2), secs(10));
    }

    #[test]
    fn stage_start_delays_add_up() {
        let job = JobSpec::builder()
            .stage(StageSpec::uniform(
                StageKind::Map,
                2,
                TaskSpec::new(secs(10)),
            ))
            .stage(
                StageSpec::uniform(StageKind::Reduce, 2, TaskSpec::new(secs(5)))
                    .with_start_delay(secs(30)),
            )
            .build();
        // 10 s of maps, 30 s of shuffle transfer, 5 s of reduces.
        assert_eq!(isolated_runtime(&job, 4), secs(45));
    }

    #[test]
    #[should_panic(expected = "invalid job")]
    fn invalid_job_panics() {
        let job = JobSpec::builder().build();
        let _ = isolated_runtime(&job, 4);
    }
}
