//! Static job descriptions: what a job looks like *before* it runs.
//!
//! A [`JobSpec`] is a sequence of [`StageSpec`]s executed strictly one after
//! another (the paper does not consider stage overlap, §I footnote 1). Each
//! stage is a set of [`TaskSpec`]s that may run in parallel; a stage
//! completes when all of its tasks have completed, and only then does the
//! next stage become ready — this models the map → reduce dependency of
//! Hadoop and the stage DAG chains of Spark.
//!
//! Task durations in a spec are the *true* durations the simulator will use.
//! Schedulers never see them (see [`JobView`](crate::JobView)); they are the
//! ground truth that "no prior information" schedulers must do without.

use serde::{Deserialize, Serialize};

use crate::time::{Service, SimDuration, SimTime};

/// The role of a stage, mirroring the Hadoop/Spark stage types the paper
/// discusses. Purely descriptive — the engine treats all stages identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum StageKind {
    /// A map-like stage reading input splits.
    Map,
    /// A reduce-like stage consuming shuffled intermediate data. The paper's
    /// YARN implementation allocates two containers per reduce task.
    Reduce,
    /// Any other stage (e.g. a Spark stage in a longer chain).
    #[default]
    Generic,
}

/// One task of a stage: its true running time and how many containers it
/// occupies while running.
///
/// # Examples
///
/// ```
/// use lasmq_simulator::{SimDuration, TaskSpec};
///
/// let map_task = TaskSpec::new(SimDuration::from_secs(30));
/// assert_eq!(map_task.containers(), 1);
/// let reduce_task = TaskSpec::new(SimDuration::from_secs(90)).with_containers(2);
/// assert_eq!(reduce_task.containers(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TaskSpec {
    duration: SimDuration,
    containers: u32,
}

impl TaskSpec {
    /// Creates a task occupying one container for `duration`.
    pub fn new(duration: SimDuration) -> Self {
        TaskSpec {
            duration,
            containers: 1,
        }
    }

    /// Sets the number of containers the task occupies while running
    /// (the paper's implementation uses 2 for reduce tasks, §IV).
    ///
    /// # Panics
    ///
    /// Panics if `containers` is zero.
    pub fn with_containers(mut self, containers: u32) -> Self {
        assert!(containers > 0, "a task must occupy at least one container");
        self.containers = containers;
        self
    }

    /// The true running time of the task.
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// Containers occupied while the task runs.
    pub fn containers(&self) -> u32 {
        self.containers
    }

    /// Service consumed by one complete run of this task
    /// (containers × duration).
    pub fn service(&self) -> Service {
        Service::accrued(self.containers, self.duration)
    }
}

/// A stage's tasks, in one of two canonical forms so that equal stages
/// compare equal whichever constructor built them. Serialized as the full
/// task array either way.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Tasks {
    /// `count ≥ 1` identical tasks: every trace generator's stage, one
    /// task and a count however many tasks it has.
    Compact { task: TaskSpec, count: u32 },
    /// No tasks, or at least two that are not all equal (PUMA's skewed
    /// stages), held exactly sized.
    Listed(Box<[TaskSpec]>),
}

impl Tasks {
    fn from_vec(tasks: Vec<TaskSpec>) -> Self {
        match tasks.first() {
            Some(&task) if tasks.iter().all(|t| *t == task) => Tasks::Compact {
                task,
                count: tasks.len() as u32,
            },
            _ => Tasks::Listed(tasks.into_boxed_slice()),
        }
    }

    fn uniform(count: u32, task: TaskSpec) -> Self {
        if count == 0 {
            Tasks::Listed(Box::default())
        } else {
            Tasks::Compact { task, count }
        }
    }
}

impl Serialize for Tasks {
    fn write_json(&self, out: &mut String) {
        match self {
            Tasks::Compact { task, count } => {
                // Write the task once, then copy its text for the rest.
                out.push('[');
                let start = out.len();
                task.write_json(out);
                let end = out.len();
                for _ in 1..*count {
                    out.push(',');
                    out.extend_from_within(start..end);
                }
                out.push(']');
            }
            Tasks::Listed(tasks) => tasks.write_json(out),
        }
    }
}

impl Deserialize for Tasks {
    fn read_json(lex: &mut serde::codec::Lexer<'_>) -> Result<Self, serde::codec::ReadError> {
        Vec::<TaskSpec>::read_json(lex).map(Tasks::from_vec)
    }
}

/// A stage: tasks that can run in parallel once the previous stage finishes
/// (and, optionally, a data-transfer delay has elapsed).
///
/// A stage of identical tasks costs the same whatever its width: it is
/// stored as one task and a count. Readers go through
/// [`task`](Self::task) and [`tasks`](Self::tasks), which see the same
/// tasks either way.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageSpec {
    kind: StageKind,
    tasks: Tasks,
    #[serde(default)]
    start_delay: SimDuration,
}

impl StageSpec {
    /// Creates a stage from its tasks.
    ///
    /// Empty stages are permitted at construction but rejected when the job
    /// is submitted to a simulation (see
    /// [`JobSpec::validate`]).
    pub fn new(kind: StageKind, tasks: Vec<TaskSpec>) -> Self {
        StageSpec {
            kind,
            tasks: Tasks::from_vec(tasks),
            start_delay: SimDuration::ZERO,
        }
    }

    /// A stage of `count` identical tasks, stored as one task and the
    /// count.
    pub fn uniform(kind: StageKind, count: u32, task: TaskSpec) -> Self {
        StageSpec {
            kind,
            tasks: Tasks::uniform(count, task),
            start_delay: SimDuration::ZERO,
        }
    }

    /// Delays the stage's tasks by `delay` after the stage becomes current
    /// — modelling a data transfer that must complete first, such as an
    /// inter-datacenter shuffle in geo-distributed analytics (the paper's
    /// §VII: "the network transfer times could be comparable or even
    /// larger than the CPU times of the jobs"). The stage consumes no
    /// containers while it waits.
    pub fn with_start_delay(mut self, delay: SimDuration) -> Self {
        self.start_delay = delay;
        self
    }

    /// The stage's pre-execution transfer delay.
    pub fn start_delay(&self) -> SimDuration {
        self.start_delay
    }

    /// The stage's role.
    pub fn kind(&self) -> StageKind {
        self.kind
    }

    /// Task `i` of the stage.
    ///
    /// # Panics
    ///
    /// Panics if `i >= task_count()`.
    pub fn task(&self, i: usize) -> TaskSpec {
        match &self.tasks {
            Tasks::Compact { task, count } => {
                assert!(i < *count as usize, "task {i} of a {count}-task stage");
                *task
            }
            Tasks::Listed(tasks) => tasks[i],
        }
    }

    /// The stage's tasks, in order.
    pub fn tasks(&self) -> impl ExactSizeIterator<Item = TaskSpec> + Clone + '_ {
        (0..self.task_count() as usize).map(|i| self.task(i))
    }

    /// The tasks as stored: all of them for a stage of differing tasks, or
    /// the one task that every task of a compact stage equals — so a
    /// one-task slice means every task of the stage is that task. Task `j`
    /// of the slice is task `j` of the stage, and a check over the slice is
    /// a check over every distinct task.
    pub(crate) fn stored_tasks(&self) -> &[TaskSpec] {
        match &self.tasks {
            Tasks::Compact { task, .. } => std::slice::from_ref(task),
            Tasks::Listed(tasks) => tasks,
        }
    }

    /// Number of tasks in the stage.
    pub fn task_count(&self) -> u32 {
        match &self.tasks {
            Tasks::Compact { count, .. } => *count,
            Tasks::Listed(tasks) => tasks.len() as u32,
        }
    }

    /// Total service the stage consumes when every task runs exactly once.
    ///
    /// A left fold of one addition per task even for a compact stage:
    /// `count × service` is not bit-equal to that sum in `f64`.
    pub fn total_service(&self) -> Service {
        self.tasks().map(|t| t.service()).sum()
    }

    /// Containers per task. The engine requires all tasks of a stage to
    /// occupy the same number of containers (as in the paper: all maps take
    /// one container, all reduces two); this returns the width of the first
    /// task.
    ///
    /// # Panics
    ///
    /// Panics if the stage is empty.
    pub fn containers_per_task(&self) -> u32 {
        self.stored_tasks()
            .first()
            .expect("containers_per_task on an empty stage")
            .containers()
    }
}

/// A complete job: arrival time, priority, and its chain of stages.
///
/// Construct with [`JobSpec::builder`].
///
/// # Examples
///
/// ```
/// use lasmq_simulator::{JobSpec, SimDuration, SimTime, StageKind, StageSpec, TaskSpec};
///
/// let job = JobSpec::builder()
///     .arrival(SimTime::from_secs(10))
///     .priority(3)
///     .label("wordcount")
///     .bin(4)
///     .stage(StageSpec::uniform(
///         StageKind::Map,
///         100,
///         TaskSpec::new(SimDuration::from_secs(30)),
///     ))
///     .stage(StageSpec::uniform(
///         StageKind::Reduce,
///         10,
///         TaskSpec::new(SimDuration::from_secs(60)).with_containers(2),
///     ))
///     .build();
/// assert_eq!(job.stage_count(), 2);
/// assert_eq!(job.total_service().as_container_secs(), 100.0 * 30.0 + 10.0 * 60.0 * 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    arrival: SimTime,
    priority: u8,
    label: String,
    bin: u8,
    /// Exactly sized: most jobs have one or two stages, and a `Vec`'s
    /// first growth step reserves four.
    stages: Box<[StageSpec]>,
}

impl JobSpec {
    /// The most stages a job may have: stages are numbered by a `u16`
    /// [`StageId`](crate::StageId), so a later stage could not be told
    /// apart from an earlier one.
    pub const MAX_STAGES: usize = 1 << 16;

    /// Starts building a job. Defaults: arrival at time zero, priority 1,
    /// empty label, bin 0, no stages.
    pub fn builder() -> JobSpecBuilder {
        JobSpecBuilder::default()
    }

    /// When the job is submitted to the cluster.
    pub fn arrival(&self) -> SimTime {
        self.arrival
    }

    /// The same spec re-stamped with a different arrival time. Used by
    /// live submission ([`Simulation::submit`](crate::Simulation::submit))
    /// to clamp arrivals forward to the current clock.
    pub fn with_arrival(mut self, arrival: SimTime) -> Self {
        self.arrival = arrival;
        self
    }

    /// The job's priority (the paper's Fair baseline weighs jobs by a random
    /// priority in 1..=5).
    pub fn priority(&self) -> u8 {
        self.priority
    }

    /// Human-readable label (e.g. the PUMA template name).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Moves the label out, leaving it empty: for the final report, which
    /// outlives the spec.
    pub(crate) fn take_label(&mut self) -> String {
        std::mem::take(&mut self.label)
    }

    /// The workload bin the job belongs to (Table I groups jobs into bins
    /// 1–4 by input size); 0 if unbinned.
    pub fn bin(&self) -> u8 {
        self.bin
    }

    /// The job's stages in execution order.
    pub fn stages(&self) -> &[StageSpec] {
        &self.stages
    }

    /// Number of stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// The true total size of the job in container-seconds — the quantity
    /// LAS_MQ must operate *without*. Exposed only to schedulers that
    /// declare [`requires_oracle`](crate::Scheduler::requires_oracle).
    pub fn total_service(&self) -> Service {
        self.stages.iter().map(StageSpec::total_service).sum()
    }

    /// Checks the spec against a cluster of `total_containers` containers.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason if the job has no stages or more
    /// than [`MAX_STAGES`](Self::MAX_STAGES), a stage has no tasks, tasks
    /// within a stage disagree on container width, a task has zero
    /// duration, or a task is wider than the whole cluster.
    pub fn validate(&self, total_containers: u32) -> Result<(), String> {
        if self.stages.is_empty() {
            return Err("job has no stages".into());
        }
        if self.stages.len() > Self::MAX_STAGES {
            return Err(format!(
                "job has {} stages, more than the limit of {}",
                self.stages.len(),
                Self::MAX_STAGES
            ));
        }
        if self.priority == 0 || self.priority > 5 {
            return Err(format!("priority {} outside 1..=5", self.priority));
        }
        for (i, stage) in self.stages.iter().enumerate() {
            if stage.task_count() == 0 {
                return Err(format!("stage {i} has no tasks"));
            }
            let width = stage.containers_per_task();
            // A compact stage stores one task for all of them: checking it
            // checks the stage.
            for (j, task) in stage.stored_tasks().iter().enumerate() {
                if task.containers() != width {
                    return Err(format!(
                        "stage {i} mixes container widths ({} vs {} at task {j})",
                        width,
                        task.containers()
                    ));
                }
                if task.duration().is_zero() {
                    return Err(format!("stage {i} task {j} has zero duration"));
                }
                if task.containers() > total_containers {
                    return Err(format!(
                        "stage {i} task {j} needs {} containers but the cluster has {}",
                        task.containers(),
                        total_containers
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Builder for [`JobSpec`] (non-consuming terminal per the builder pattern
/// would not help here; the builder is consumed by [`build`](Self::build)).
#[derive(Debug, Clone, Default)]
pub struct JobSpecBuilder {
    arrival: SimTime,
    priority: Option<u8>,
    label: String,
    bin: u8,
    stages: Vec<StageSpec>,
}

impl JobSpecBuilder {
    /// Sets the arrival (submission) time.
    pub fn arrival(mut self, arrival: SimTime) -> Self {
        self.arrival = arrival;
        self
    }

    /// Sets the priority (1..=5). Defaults to 1.
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = Some(priority);
        self
    }

    /// Sets the human-readable label.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Sets the workload bin (Table I of the paper).
    pub fn bin(mut self, bin: u8) -> Self {
        self.bin = bin;
        self
    }

    /// Appends a stage. Stages are reserved exactly, so
    /// [`build`](Self::build) hands the list over without trimming it.
    pub fn stage(mut self, stage: StageSpec) -> Self {
        self.stages.reserve_exact(1);
        self.stages.push(stage);
        self
    }

    /// Appends several stages.
    pub fn stages(mut self, stages: impl IntoIterator<Item = StageSpec>) -> Self {
        let stages = stages.into_iter();
        self.stages.reserve_exact(stages.size_hint().0);
        self.stages.extend(stages);
        self
    }

    /// Finishes the job. Structural validation happens at submission time
    /// (see [`JobSpec::validate`]), not here, so specs can be built and
    /// serialized freely.
    pub fn build(self) -> JobSpec {
        JobSpec {
            arrival: self.arrival,
            priority: self.priority.unwrap_or(1),
            label: self.label,
            bin: self.bin,
            stages: self.stages.into_boxed_slice(),
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn two_stage_job() -> JobSpec {
        JobSpec::builder()
            .stage(StageSpec::uniform(
                StageKind::Map,
                4,
                TaskSpec::new(SimDuration::from_secs(10)),
            ))
            .stage(StageSpec::uniform(
                StageKind::Reduce,
                2,
                TaskSpec::new(SimDuration::from_secs(20)).with_containers(2),
            ))
            .build()
    }

    #[test]
    fn total_service_sums_stages() {
        let job = two_stage_job();
        // 4 maps × 10 s × 1 + 2 reduces × 20 s × 2 = 40 + 80.
        assert_eq!(job.total_service().as_container_secs(), 120.0);
    }

    #[test]
    fn validate_accepts_well_formed_job() {
        assert_eq!(two_stage_job().validate(10), Ok(()));
    }

    #[test]
    fn validate_rejects_empty_job() {
        let job = JobSpec::builder().build();
        assert!(job.validate(10).unwrap_err().contains("no stages"));
    }

    #[test]
    fn validate_rejects_empty_stage() {
        let job = JobSpec::builder()
            .stage(StageSpec::new(StageKind::Map, vec![]))
            .build();
        assert!(job.validate(10).unwrap_err().contains("no tasks"));
    }

    #[test]
    fn validate_rejects_mixed_widths() {
        let stage = StageSpec::new(
            StageKind::Reduce,
            vec![
                TaskSpec::new(SimDuration::from_secs(1)),
                TaskSpec::new(SimDuration::from_secs(1)).with_containers(2),
            ],
        );
        let job = JobSpec::builder().stage(stage).build();
        assert!(job
            .validate(10)
            .unwrap_err()
            .contains("mixes container widths"));
    }

    #[test]
    fn validate_rejects_oversized_task() {
        let stage = StageSpec::uniform(
            StageKind::Map,
            1,
            TaskSpec::new(SimDuration::from_secs(1)).with_containers(8),
        );
        let job = JobSpec::builder().stage(stage).build();
        assert!(job.validate(4).unwrap_err().contains("needs 8 containers"));
    }

    #[test]
    fn validate_rejects_zero_duration() {
        let stage = StageSpec::uniform(StageKind::Map, 1, TaskSpec::new(SimDuration::ZERO));
        let job = JobSpec::builder().stage(stage).build();
        assert!(job.validate(4).unwrap_err().contains("zero duration"));
    }

    #[test]
    fn validate_rejects_bad_priority() {
        let job = JobSpec::builder()
            .priority(6)
            .stage(StageSpec::uniform(
                StageKind::Map,
                1,
                TaskSpec::new(SimDuration::from_secs(1)),
            ))
            .build();
        assert!(job.validate(4).unwrap_err().contains("priority"));
    }

    #[test]
    #[should_panic(expected = "at least one container")]
    fn zero_container_task_panics() {
        let _ = TaskSpec::new(SimDuration::from_secs(1)).with_containers(0);
    }

    #[test]
    fn serde_roundtrip() {
        let job = two_stage_job();
        let json = serde_json::to_string(&job).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(job, back);
    }

    #[test]
    fn validate_rejects_more_stages_than_stage_ids_number() {
        let stage = StageSpec::uniform(StageKind::Map, 1, TaskSpec::new(SimDuration::from_secs(1)));
        let over = JobSpec::builder()
            .stages(vec![stage; JobSpec::MAX_STAGES + 1])
            .build();
        let reason = over.validate(1).unwrap_err();
        assert!(reason.contains("limit of 65536"), "{reason}");
    }

    /// The builder reserves stages exactly, so `build` hands its list to
    /// the spec without a shrinking reallocation.
    #[test]
    fn builder_reserves_stages_exactly() {
        let stage = StageSpec::uniform(StageKind::Map, 1, TaskSpec::new(SimDuration::from_secs(1)));
        let builder = JobSpec::builder().stage(stage.clone());
        assert_eq!(builder.stages.capacity(), 1);
        let builder = builder.stage(stage.clone()).stages(vec![stage.clone(); 3]);
        assert_eq!(builder.stages.capacity(), 5);
        assert_eq!(builder.build().stage_count(), 5);
    }

    #[test]
    fn huge_compact_stage_answers_at_once() {
        let task = TaskSpec::new(SimDuration::from_secs(1));
        let stage = StageSpec::uniform(StageKind::Map, u32::MAX, task);
        assert_eq!(stage.task_count(), u32::MAX);
        assert_eq!(stage.task(u32::MAX as usize - 1), task);
        assert_eq!(stage.tasks().len(), u32::MAX as usize);
    }

    #[test]
    #[should_panic(expected = "task 3 of a 3-task stage")]
    fn compact_stage_bounds_checks_task_index() {
        let stage = StageSpec::uniform(StageKind::Map, 3, TaskSpec::new(SimDuration::from_secs(1)));
        let _ = stage.task(3);
    }

    /// `StageSpec`'s fields with the tasks held as a plain vector: the
    /// serialized form the compact representation must reproduce.
    #[derive(Serialize)]
    struct PlainStage {
        kind: StageKind,
        tasks: Vec<TaskSpec>,
        start_delay: SimDuration,
    }

    /// Tasks from a small domain (three durations that are not exact in
    /// binary, widths 1–2), so mixed lists are sometimes all-equal too.
    fn task_strategy() -> impl Strategy<Value = TaskSpec> {
        (1u64..=3, 1u32..=2).prop_map(|(k, width)| {
            TaskSpec::new(SimDuration::from_millis(k * 333)).with_containers(width)
        })
    }

    fn task_list_strategy() -> impl Strategy<Value = Vec<TaskSpec>> {
        prop_oneof![
            (task_strategy(), 0usize..40).prop_map(|(task, n)| vec![task; n]),
            prop::collection::vec(task_strategy(), 0..12),
            task_strategy().prop_map(|task| vec![task]),
            Just(Vec::new()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whichever form a stage is stored in, every reader, the service
        /// sum and the serialized bytes see the task list it was built
        /// from.
        #[test]
        fn stage_representation_is_invisible(
            tasks in task_list_strategy(),
            delay in 0u64..3,
        ) {
            let delay = SimDuration::from_secs(delay);
            let stage = StageSpec::new(StageKind::Reduce, tasks.clone()).with_start_delay(delay);
            prop_assert_eq!(stage.task_count() as usize, tasks.len());
            prop_assert_eq!(stage.tasks().len(), tasks.len());
            prop_assert_eq!(stage.tasks().collect::<Vec<_>>(), tasks.clone());
            for (i, task) in tasks.iter().enumerate() {
                prop_assert_eq!(stage.task(i), *task);
            }
            let folded = tasks.iter().fold(Service::ZERO, |acc, t| acc + t.service());
            prop_assert_eq!(
                stage.total_service().as_container_secs().to_bits(),
                folded.as_container_secs().to_bits()
            );
            let json = serde_json::to_string(&stage).unwrap();
            let plain = PlainStage { kind: StageKind::Reduce, tasks, start_delay: delay };
            prop_assert_eq!(&json, &serde_json::to_string(&plain).unwrap());
            let back: StageSpec = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(back, stage);
        }

        /// `uniform` and `new` over the same identical tasks build equal
        /// stages, the empty stage included.
        #[test]
        fn uniform_equals_new_over_identical_tasks(task in task_strategy(), n in 0u32..40) {
            prop_assert_eq!(
                StageSpec::new(StageKind::Map, vec![task; n as usize]),
                StageSpec::uniform(StageKind::Map, n, task)
            );
        }
    }
}
