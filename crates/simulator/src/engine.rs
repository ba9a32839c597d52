//! The discrete-event simulation engine.
//!
//! The engine owns the cluster, the jobs and the event queue, and drives a
//! pluggable [`Scheduler`] the way YARN drives a plug-in scheduler:
//!
//! * **Full scheduling passes** run on job arrival, stage completion, job
//!   completion, and once per scheduling quantum. A pass snapshots every
//!   admitted job into a [`JobView`], asks the scheduler for an
//!   [`AllocationPlan`] (per-job container targets in priority order), and
//!   reconciles the cluster toward those targets.
//! * **Between passes**, individual task completions are handled in
//!   O(log n): freed containers first refill the same job toward its target,
//!   then flow down the plan order (a cursor tracks the first job that may
//!   still be under target), so the plan's priorities keep holding without
//!   re-invoking the scheduler.
//! * **Rebalancing is graceful**: running tasks are never killed; a job
//!   over its target simply is not refilled as its tasks finish. This
//!   matches the paper's YARN implementation, which adjusts queue capacities
//!   on the fly (§IV) and never kills a container.
//!
//! Everything is deterministic: no randomness, and ties in event time are
//! broken by insertion order.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::admission::AdmissionController;
use crate::cluster::{ClusterConfig, ClusterState};
use crate::error::SimError;
use crate::event::{Event, EventEntry, EventQueue};
use crate::ids::{JobId, NodeId, StageId, TaskId};
use crate::invariant::{InvariantKind, InvariantReport};
use crate::isolated::isolated_runtime;
use crate::job::{JobSpec, StageSpec};
use crate::journal::{Journal, SimEvent};
use crate::metrics::{EngineStats, JobOutcome, SimulationReport};
use crate::sched::{AllocationPlan, JobView, OracleInfo, SchedContext, Scheduler};
use crate::snapshot::{SimSnapshot, SNAPSHOT_SCHEMA_VERSION};
use crate::telemetry::{Telemetry, TelemetrySample};
use crate::time::{Service, SimDuration, SimTime};
use crate::views::ViewCache;

/// How the engine reclaims containers from jobs whose allocation target
/// dropped: always [`Graceful`](Self::Graceful), the engine's only
/// preemption.
///
/// The type survives only as a serialized marker: `SimSetup`'s JSON (which
/// the campaign result cache fingerprints) and [`SimSnapshot`] carry
/// `"preemption":"Graceful"`, so existing setups, cache entries and
/// snapshots keep their bytes. Snapshots write it and restore does not read
/// it; JSON naming any other policy (the retired `"Kill"`) fails to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum PreemptionPolicy {
    /// Never kill running tasks; over-target jobs shrink as their tasks
    /// finish (the paper's deployment behaviour).
    #[default]
    Graceful,
}

/// Configuration for speculative execution (an engine extension modelling
/// the work-conservation clause of Algorithm 2: leftover containers "launch
/// a few speculative tasks that may further improve the performance").
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SpeculationConfig {
    enabled: bool,
    min_completed: u32,
    lateness_factor: f64,
}

impl SpeculationConfig {
    /// Speculation off (the default — keeps baseline comparisons clean).
    pub fn disabled() -> Self {
        SpeculationConfig {
            enabled: false,
            min_completed: 3,
            lateness_factor: 1.0,
        }
    }

    /// Speculation on: once a stage has at least `min_completed` finished
    /// tasks, a running task whose elapsed time exceeds
    /// `lateness_factor ×` the median completed duration is eligible for a
    /// speculative copy. The copy runs for the median duration (modelling a
    /// restart on a healthy node); the task completes when either attempt
    /// finishes.
    ///
    /// # Panics
    ///
    /// Panics if `lateness_factor` is not positive or `min_completed` is 0.
    pub fn enabled(min_completed: u32, lateness_factor: f64) -> Self {
        assert!(min_completed > 0, "min_completed must be positive");
        assert!(
            lateness_factor > 0.0 && lateness_factor.is_finite(),
            "lateness_factor must be positive and finite"
        );
        SpeculationConfig {
            enabled: true,
            min_completed,
            lateness_factor,
        }
    }

    /// Whether speculation is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        SpeculationConfig::disabled()
    }
}

/// Task-failure injection (an engine extension).
///
/// §IV of the paper builds machinery to "filter out those unsuccessfully
/// finished tasks and count the number of successful tasks" — i.e. real
/// clusters lose task attempts. This model fails each task attempt
/// independently with a fixed probability; a failed attempt burns part of
/// its duration (and the containers it held), then is re-queued and re-run.
/// Failures are drawn from a deterministic per-attempt hash, so runs remain
/// bit-reproducible.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FailureConfig {
    probability: f64,
    seed: u64,
}

impl FailureConfig {
    /// No failures (the default).
    pub fn disabled() -> Self {
        FailureConfig {
            probability: 0.0,
            seed: 0,
        }
    }

    /// Fail each task attempt with `probability`, deterministically per
    /// `(seed, job, task, attempt)`.
    ///
    /// # Panics
    ///
    /// Panics unless `probability` is in `[0, 0.9]` (above that, retry
    /// storms dominate and runs may take unboundedly long).
    pub fn with_probability(probability: f64, seed: u64) -> Self {
        assert!(
            (0.0..=0.9).contains(&probability),
            "failure probability must be in [0, 0.9]"
        );
        FailureConfig { probability, seed }
    }

    /// Whether any failures will be injected.
    pub fn is_enabled(&self) -> bool {
        self.probability > 0.0
    }

    /// Decides one attempt's fate. Returns `None` for success, or
    /// `Some(fraction)` of the attempt's duration consumed before failing.
    fn roll(&self, job: JobId, task: usize, attempt: u32) -> Option<f64> {
        if !self.is_enabled() {
            return None;
        }
        let mut h = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        for v in [u32::from(job) as u64, task as u64, attempt as u64] {
            h = splitmix64(h ^ v);
        }
        let fail = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < self.probability;
        if fail {
            let h2 = splitmix64(h);
            let frac = 0.05 + 0.9 * ((h2 >> 11) as f64 * (1.0 / (1u64 << 53) as f64));
            Some(frac)
        } else {
            None
        }
    }
}

impl Default for FailureConfig {
    fn default() -> Self {
        FailureConfig::disabled()
    }
}

/// SplitMix64: a tiny, high-quality deterministic mixer (public domain
/// constants), used for reproducible failure draws without an RNG stream.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub(crate) struct SpecCopy {
    node: NodeId,
    containers: u32,
}

#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct RunningTask {
    task_idx: usize,
    attempt: u32,
    node: NodeId,
    containers: u32,
    started: SimTime,
    finish: SimTime,
    will_fail: bool,
    spec_copy: Option<SpecCopy>,
}

#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct StageRt {
    total: u32,
    next_unstarted: usize,
    completed: u32,
    running: Vec<RunningTask>,
    requeued: Vec<usize>,
    completed_durations: Vec<SimDuration>,
    /// Tasks may start only from this instant (stage transfer delay).
    ready_at: SimTime,
}

impl StageRt {
    fn new(stage: &StageSpec, becomes_current_at: SimTime) -> Self {
        StageRt {
            total: stage.task_count(),
            next_unstarted: 0,
            completed: 0,
            running: Vec::new(),
            requeued: Vec::new(),
            completed_durations: Vec::new(),
            ready_at: becomes_current_at + stage.start_delay(),
        }
    }

    /// Re-points this slot at `stage` in place, keeping the allocated
    /// capacity of the task buffers (a stage advance never re-allocates).
    fn reset_for(&mut self, stage: &StageSpec, becomes_current_at: SimTime) {
        debug_assert!(self.running.is_empty() && self.requeued.is_empty());
        self.total = stage.task_count();
        self.next_unstarted = 0;
        self.completed = 0;
        self.completed_durations.clear();
        self.ready_at = becomes_current_at + stage.start_delay();
    }

    fn unstarted(&self) -> u32 {
        (self.total as usize - self.next_unstarted + self.requeued.len()) as u32
    }

    /// Tasks the engine may start *now*: zero while the stage's transfer
    /// delay is still running.
    fn startable(&self, now: SimTime) -> u32 {
        if now < self.ready_at {
            0
        } else {
            self.unstarted()
        }
    }

    fn remaining(&self) -> u32 {
        self.total - self.completed
    }

    /// Fraction of this stage completed, counting running tasks by the
    /// elapsed fraction of their expected duration.
    ///
    /// One addition per attempt, in vector order — that order fixes the
    /// floating-point sum, which feeds demotion thresholds and learned
    /// features, so it is never replaced by a closed form. What is saved is
    /// the three divisions behind each term: the term depends only on
    /// `(started, finish)`, which attempts launched by one pass share, so it
    /// is recomputed only when that pair differs from the previous
    /// attempt's. A zero-span attempt adds `0.0`, which leaves the bits of
    /// the non-negative sum alone.
    fn progress(&self, now: SimTime) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        let mut units = self.completed as f64;
        let mut term_of = None;
        let mut term = 0.0;
        for r in &self.running {
            if term_of != Some((r.started, r.finish)) {
                term_of = Some((r.started, r.finish));
                let span = r.finish.saturating_since(r.started).as_secs_f64();
                term = if span > 0.0 {
                    let elapsed = now.saturating_since(r.started).as_secs_f64();
                    (elapsed / span).min(1.0)
                } else {
                    0.0
                };
            }
            units += term;
        }
        (units / self.total as f64).min(1.0)
    }
}

/// Serialized per-job state. At runtime the engine keeps this data in
/// [`JobStore`]'s parallel arrays; this struct survives purely as the
/// snapshot interchange form, so the JSON layout (field names and order)
/// of existing snapshots is preserved byte-for-byte.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct Job {
    spec: JobSpec,
    stage_index: usize,
    stage: StageRt,
    held: u32,
    target: u32,
    plan_epoch: u64,
    attained: Service,
    attained_stage: Service,
    completed_service: Service,
    last_accrual: SimTime,
    attempt_counter: u32,
    admitted_at: Option<SimTime>,
    first_alloc: Option<SimTime>,
    finished_at: Option<SimTime>,
}

/// The hot, fixed-size slice of a job's runtime state: everything the
/// per-event paths touch, separated from the cold [`JobSpec`] and the
/// task-level [`StageRt`] so a scheduling pass walks tightly packed
/// plain-old-data.
#[derive(Debug, Clone, Copy)]
struct JobCore {
    stage_index: usize,
    held: u32,
    target: u32,
    attempt_counter: u32,
    plan_epoch: u64,
    attained: Service,
    attained_stage: Service,
    completed_service: Service,
    last_accrual: SimTime,
    admitted_at: Option<SimTime>,
    first_alloc: Option<SimTime>,
    finished_at: Option<SimTime>,
}

impl JobCore {
    fn new() -> Self {
        JobCore {
            stage_index: 0,
            held: 0,
            target: 0,
            attempt_counter: 0,
            plan_epoch: 0,
            attained: Service::ZERO,
            attained_stage: Service::ZERO,
            completed_service: Service::ZERO,
            last_accrual: SimTime::ZERO,
            admitted_at: None,
            first_alloc: None,
            finished_at: None,
        }
    }

    fn admitted(&self) -> bool {
        self.admitted_at.is_some()
    }

    fn finished(&self) -> bool {
        self.finished_at.is_some()
    }

    fn active(&self) -> bool {
        self.admitted() && !self.finished()
    }

    fn accrue(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_accrual);
        if !dt.is_zero() && self.held > 0 {
            let s = Service::accrued(self.held, dt);
            self.attained += s;
            self.attained_stage += s;
        }
        self.last_accrual = now;
    }
}

/// Why a job is on the engine's dirty list: what its view needs at the next
/// pass. Derived from the job's state and never serialized; a restored or
/// forked engine lists every active job as [`Rebuild`](Dirty::Rebuild).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dirty {
    /// Not listed: the cached view is current.
    Clean,
    /// Listed only because running attempts accrue service since the view
    /// was last built.
    Accruing,
    /// A discrete change since the view was last built, or a stage whose
    /// transfer delay has not yet run out: the view is rebuilt.
    Rebuild,
}

/// Hasher for [`JobStore::running_at`]'s packed `(job, task)` keys: one
/// multiply, rotated so the well-mixed high bits land where the table takes
/// its bucket index. The keys are engine-assigned dense ids, never outside
/// input, and SipHash would cost more than the rest of a 250 ns event.
#[derive(Debug, Default)]
struct AttemptKeyHasher(u64);

impl Hasher for AttemptKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("attempt keys are hashed as one u64");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }
}

/// [`JobStore::running_at`]'s table.
type AttemptIndex = HashMap<u64, u32, BuildHasherDefault<AttemptKeyHasher>>;

/// The attempt index is sized for the whole cluster up front, but a
/// cluster size is a number a command line or a snapshot file supplies:
/// beyond a million containers (125 times the widest cluster this
/// repository runs) the table starts at this size and grows on demand like
/// any map, instead of demanding gigabytes before the first event.
const ATTEMPT_INDEX_PRESIZE_CAP: usize = 1 << 20;

/// One job's slot in [`JobStore::median_memo`]: the upper median of the
/// `len` task durations the job had completed in stage `stage` when it was
/// last asked for. Within a stage `completed_durations` only grows, and a
/// stage advance moves `stage_index` on, so the pair identifies the
/// vector's contents: a slot whose pair still matches is current, and any
/// change to the vector (task finish, stage advance, harvest) outdates it
/// without anyone having to say so.
#[derive(Debug, Clone, Copy)]
struct MedianMemo {
    stage: u32,
    len: u32,
    median: SimDuration,
}

impl MedianMemo {
    /// Matches no query: the median is only asked of a non-empty vector.
    const EMPTY: MedianMemo = MedianMemo {
        stage: 0,
        len: 0,
        median: SimDuration::ZERO,
    };
}

/// Struct-of-arrays job storage, indexed by `JobId::index()`: the
/// immutable specs, the hot scalar state ([`JobCore`]) and the
/// current-stage task state ([`StageRt`]) live in three parallel arrays,
/// so each engine path touches only the array it needs. Three further
/// members are derived from those three and never serialized.
#[derive(Debug)]
pub(crate) struct JobStore {
    specs: Vec<JobSpec>,
    core: Vec<JobCore>,
    stage: Vec<StageRt>,
    /// `(job, current-stage task)` → position of that task's attempt in the
    /// job's [`StageRt::running`], for every running attempt of every job
    /// (a task has at most one entry there; a speculative copy rides inside
    /// it). An attempt holds at least one container, so live entries never
    /// exceed the cluster's container count, which sizes the table once
    /// (up to [`ATTEMPT_INDEX_PRESIZE_CAP`]). Kept in step by
    /// [`push_running`](Self::push_running) and
    /// [`swap_remove_running`](Self::swap_remove_running), the only code
    /// that may change a `running` vector's membership.
    running_at: AttemptIndex,
    /// [`JobSpec::total_service`] per job — a sum over every task of every
    /// stage, so it is taken once, not once per refreshed view. `Some`
    /// exactly when the scheduler [`requires_oracle`](Scheduler::requires_oracle)
    /// (this is where the engine keeps that answer); blind runs pay nothing.
    oracle_size: Option<Vec<Service>>,
    /// Speculation's straggler threshold per job, so a pass re-selects a
    /// median only for jobs that finished a task since the last one. Only
    /// [`completed_median`](Self::completed_median) touches it, and only
    /// speculation calls that: without speculation this never allocates.
    /// Empty after a restore, which is why a slot may never decide
    /// anything a recomputation would not.
    median_memo: Vec<MedianMemo>,
}

impl JobStore {
    fn with_capacity(jobs: usize, total_containers: u32, oracle: bool) -> Self {
        JobStore {
            specs: Vec::with_capacity(jobs),
            core: Vec::with_capacity(jobs),
            stage: Vec::with_capacity(jobs),
            running_at: Self::attempt_index(total_containers),
            oracle_size: oracle.then(|| Vec::with_capacity(jobs)),
            median_memo: Vec::new(),
        }
    }

    /// An empty [`running_at`](Self::running_at), sized for the cluster.
    fn attempt_index(total_containers: u32) -> AttemptIndex {
        HashMap::with_capacity_and_hasher(
            (total_containers as usize).min(ATTEMPT_INDEX_PRESIZE_CAP),
            BuildHasherDefault::default(),
        )
    }

    /// A store over the caller's specs, kept where they are: copying them
    /// into a second vector would hold both at once.
    fn from_specs(specs: Vec<JobSpec>, total_containers: u32, oracle: bool) -> Self {
        JobStore {
            stage: specs.iter().map(Self::first_stage_rt).collect(),
            core: vec![JobCore::new(); specs.len()],
            running_at: Self::attempt_index(total_containers),
            oracle_size: oracle.then(|| specs.iter().map(JobSpec::total_service).collect()),
            median_memo: Vec::new(),
            specs,
        }
    }

    /// A new job's stage row. The first stage's delay is re-anchored at
    /// admission time.
    fn first_stage_rt(spec: &JobSpec) -> StageRt {
        StageRt::new(&spec.stages()[0], SimTime::ZERO)
    }

    fn push_spec(&mut self, spec: JobSpec) {
        self.stage.push(Self::first_stage_rt(&spec));
        self.core.push(JobCore::new());
        if let Some(sizes) = &mut self.oracle_size {
            sizes.push(spec.total_service());
        }
        self.specs.push(spec);
    }

    fn len(&self) -> usize {
        self.specs.len()
    }

    /// Simultaneous disjoint borrows of one job's three slices.
    fn split_mut(&mut self, i: usize) -> (&JobSpec, &mut JobCore, &mut StageRt) {
        (&self.specs[i], &mut self.core[i], &mut self.stage[i])
    }

    fn current_stage(&self, i: usize) -> &StageSpec {
        &self.specs[i].stages()[self.core[i].stage_index]
    }

    fn attempt_key(job: usize, task_idx: usize) -> u64 {
        (job as u64) << 32 | task_idx as u64
    }

    /// Appends a running attempt to job `i`.
    fn push_running(&mut self, i: usize, attempt: RunningTask) {
        let running = &mut self.stage[i].running;
        let displaced = self
            .running_at
            .insert(Self::attempt_key(i, attempt.task_idx), running.len() as u32);
        debug_assert!(displaced.is_none(), "task already has a running attempt");
        running.push(attempt);
    }

    /// `swap_remove`s the attempt at `pos` of job `i`: the vector order
    /// that results is read by `progress` and speculation's candidate
    /// order, so it stays exactly `swap_remove`'s.
    fn swap_remove_running(&mut self, i: usize, pos: usize) -> RunningTask {
        let running = &mut self.stage[i].running;
        let removed = running.swap_remove(pos);
        self.running_at
            .remove(&Self::attempt_key(i, removed.task_idx));
        if let Some(moved) = running.get(pos) {
            self.running_at
                .insert(Self::attempt_key(i, moved.task_idx), pos as u32);
        }
        removed
    }

    /// Where `attempt` of `task_idx` sits in job `i`'s `running`, or `None`
    /// if that attempt no longer runs — its finish event is stale (a
    /// speculative copy superseded it and the task has since completed).
    /// The attempt filter is a fault check: a task never runs again after
    /// a superseded attempt, so an indexed entry with another attempt
    /// number would mean an attempt was renumbered without its event.
    fn running_position(&self, i: usize, task_idx: usize, attempt: u32) -> Option<usize> {
        let running = &self.stage[i].running;
        let found = self
            .running_at
            .get(&Self::attempt_key(i, task_idx))
            .map(|&pos| pos as usize)
            .filter(|&pos| running[pos].attempt == attempt);
        debug_assert_eq!(
            found,
            running
                .iter()
                .position(|r| r.task_idx == task_idx && r.attempt == attempt),
            "attempt index disagrees with a scan of job {i}'s running set"
        );
        found
    }

    /// The upper median of the durations job `i` has completed in its
    /// current stage (which must not be empty), selected afresh only if
    /// that vector changed since the last call for `i`.
    fn completed_median(&mut self, i: usize, scratch: &mut Vec<SimDuration>) -> SimDuration {
        if self.median_memo.len() < self.specs.len() {
            self.median_memo.resize(self.specs.len(), MedianMemo::EMPTY);
        }
        let durations = &self.stage[i].completed_durations;
        let (stage, len) = (self.core[i].stage_index as u32, durations.len() as u32);
        let memo = &mut self.median_memo[i];
        if (memo.stage, memo.len) != (stage, len) {
            *memo = MedianMemo {
                stage,
                len,
                median: median_duration(scratch, durations),
            };
        }
        debug_assert_eq!(
            memo.median,
            median_duration(scratch, durations),
            "stale median memo for job {i}"
        );
        memo.median
    }

    /// Every job's final outcome, built from the specs and cores alone:
    /// the stage rows, the attempt index and the derived columns are
    /// dropped first, and each label moves out of its spec.
    fn into_outcomes(self, total_containers: u32) -> Vec<JobOutcome> {
        let JobStore {
            specs,
            core,
            stage,
            running_at,
            oracle_size,
            median_memo,
        } = self;
        drop((stage, running_at, oracle_size, median_memo));
        specs
            .into_iter()
            .zip(core)
            .enumerate()
            .map(|(i, (mut spec, core))| {
                let label = spec.take_label();
                assemble_outcome(i, &spec, label, &core, total_containers)
            })
            .collect()
    }

    /// Materializes the snapshot interchange form.
    fn to_jobs(&self) -> Vec<Job> {
        (0..self.len())
            .map(|i| {
                let c = self.core[i];
                Job {
                    spec: self.specs[i].clone(),
                    stage_index: c.stage_index,
                    stage: self.stage[i].clone(),
                    held: c.held,
                    target: c.target,
                    plan_epoch: c.plan_epoch,
                    attained: c.attained,
                    attained_stage: c.attained_stage,
                    completed_service: c.completed_service,
                    last_accrual: c.last_accrual,
                    attempt_counter: c.attempt_counter,
                    admitted_at: c.admitted_at,
                    first_alloc: c.first_alloc,
                    finished_at: c.finished_at,
                }
            })
            .collect()
    }

    fn from_jobs(jobs: Vec<Job>, total_containers: u32, oracle: bool) -> Self {
        let mut store = JobStore::with_capacity(jobs.len(), total_containers, oracle);
        for (i, job) in jobs.into_iter().enumerate() {
            store.core.push(JobCore {
                stage_index: job.stage_index,
                held: job.held,
                target: job.target,
                attempt_counter: job.attempt_counter,
                plan_epoch: job.plan_epoch,
                attained: job.attained,
                attained_stage: job.attained_stage,
                completed_service: job.completed_service,
                last_accrual: job.last_accrual,
                admitted_at: job.admitted_at,
                first_alloc: job.first_alloc,
                finished_at: job.finished_at,
            });
            for (pos, r) in job.stage.running.iter().enumerate() {
                store
                    .running_at
                    .insert(Self::attempt_key(i, r.task_idx), pos as u32);
            }
            store.stage.push(job.stage);
            if let Some(sizes) = &mut store.oracle_size {
                sizes.push(job.spec.total_service());
            }
            store.specs.push(job.spec);
        }
        store
    }
}

/// The reuse pool keeps at most this many sets of retired stage buffers;
/// sets harvested while it is full go back to the allocator. Only the
/// buffers' fate depends on the pool: the finished job is emptied either
/// way, because the pool is not part of a snapshot (it is empty after a
/// restore) and so must never decide what a job serializes as.
const STAGE_BUF_POOL_CAP: usize = 256;

/// The most bytes a pooled stage buffer may hold room for (8,192
/// completed durations, 1,170 running attempts); a larger one is freed at
/// harvest instead of pooled. Without a bound, buffers only grow as they
/// cycle through the pool, so a long-lived daemon's pool converges to 256
/// copies of its widest-ever stage: the 20,000-job ScaleTrace run peaked
/// at 43 MiB instead of 26. Measured on the benchmark's traces with
/// pooling off, so each buffer grows only to its own job's need, this
/// bound frees 0.01 % of the 250,000 Facebook-trace jobs' duration
/// buffers, 0.6 % of the ScaleTrace jobs' running buffers and 0.07 % of
/// their duration buffers, and none of the uniform workload's. A tighter
/// bound costs more than it saves: at 16 KiB the ScaleTrace run frees 2 %
/// of its running buffers, and re-growing them mid-run fragmented the heap
/// enough that 12 s of back-to-back runs peaked at 100 MiB, against
/// 36 MiB at this bound.
const STAGE_BUF_POOLED_BYTES: usize = 64 << 10;

/// `buf` if its capacity is small enough to pool, else an empty vector.
fn pooled<T>(buf: Vec<T>) -> Vec<T> {
    if buf.capacity() * std::mem::size_of::<T>() > STAGE_BUF_POOLED_BYTES {
        Vec::new()
    } else {
        buf
    }
}

/// Recycled buffers for the engine's steady state, so passes and stage
/// advances stop allocating once warmed up.
#[derive(Debug, Default)]
struct JobScratch {
    /// Selection buffer for `median_duration`.
    median: Vec<SimDuration>,
    /// Speculative-copy candidate positions for the job being examined.
    candidates: Vec<usize>,
    /// Final plan target per view slot, for the armed pass audit.
    final_targets: Vec<u32>,
    /// Stage buffers harvested from finished jobs, regrafted into newly
    /// admitted ones.
    stage_bufs: Vec<(Vec<RunningTask>, Vec<usize>, Vec<SimDuration>)>,
}

impl JobScratch {
    /// Takes a finished job's stage buffers, into the pool while it has
    /// room. The job is done — nothing reads these again — so emptying
    /// them only trims the serialized form of dead state.
    fn harvest(&mut self, st: &mut StageRt) {
        let running = pooled(std::mem::take(&mut st.running));
        let requeued = pooled(std::mem::take(&mut st.requeued));
        let mut durations = pooled(std::mem::take(&mut st.completed_durations));
        debug_assert!(running.is_empty() && requeued.is_empty());
        if self.stage_bufs.len() >= STAGE_BUF_POOL_CAP
            || running.capacity() + requeued.capacity() + durations.capacity() == 0
        {
            return;
        }
        durations.clear();
        self.stage_bufs.push((running, requeued, durations));
    }

    /// Grafts pooled buffers into a job about to be admitted.
    fn graft(&mut self, st: &mut StageRt) {
        if let Some((running, requeued, durations)) = self.stage_bufs.pop() {
            st.running = running;
            st.requeued = requeued;
            st.completed_durations = durations;
        }
    }
}

/// Builder for a [`Simulation`] (see the crate-level quickstart).
///
/// Defaults: the paper's 4×30-container cluster, a 1 s scheduling quantum,
/// unlimited admission, speculation and failures off, no journal,
/// telemetry or invariant checks. Views carry true sizes exactly when the
/// scheduler [`requires_oracle`](Scheduler::requires_oracle).
#[derive(Debug, Clone)]
pub struct SimulationBuilder {
    cluster: ClusterConfig,
    quantum: SimDuration,
    admission_limit: Option<usize>,
    speculation: SpeculationConfig,
    failures: FailureConfig,
    record_journal: bool,
    record_telemetry: bool,
    check_invariants: bool,
    jobs: Vec<JobSpec>,
}

impl Default for SimulationBuilder {
    fn default() -> Self {
        SimulationBuilder {
            cluster: ClusterConfig::default(),
            quantum: SimDuration::from_secs(1),
            admission_limit: None,
            speculation: SpeculationConfig::disabled(),
            failures: FailureConfig::disabled(),
            record_journal: false,
            record_telemetry: false,
            check_invariants: false,
            jobs: Vec::new(),
        }
    }
}

impl SimulationBuilder {
    /// Starts from the defaults.
    pub fn new() -> Self {
        SimulationBuilder::default()
    }

    /// Sets the cluster shape.
    pub fn cluster(mut self, cluster: ClusterConfig) -> Self {
        self.cluster = cluster;
        self
    }

    /// Sets the scheduling quantum (how often a full pass runs without
    /// other triggers).
    pub fn quantum(mut self, quantum: SimDuration) -> Self {
        self.quantum = quantum;
        self
    }

    /// Caps concurrently running jobs (the paper's experiments use 30).
    pub fn admission_limit(mut self, max_running: usize) -> Self {
        self.admission_limit = Some(max_running);
        self
    }

    /// Configures speculative execution.
    pub fn speculation(mut self, config: SpeculationConfig) -> Self {
        self.speculation = config;
        self
    }

    /// Configures task-failure injection.
    pub fn failures(mut self, config: FailureConfig) -> Self {
        self.failures = config;
        self
    }

    /// Records a [`Journal`] of every lifecycle event for the report.
    /// Off by default — long traces produce millions of events.
    pub fn record_journal(mut self, record: bool) -> Self {
        self.record_journal = record;
        self
    }

    /// Records [`Telemetry`]: one scheduler-state sample per full pass plus
    /// a log of decision events (demotions, speculative copies, admission
    /// verdicts). Off by default and zero-cost when off.
    pub fn record_telemetry(mut self, record: bool) -> Self {
        self.record_telemetry = record;
        self
    }

    /// Enables the runtime invariant checker: after every event batch the
    /// engine audits container conservation (cluster-wide and per node),
    /// event-clock monotonicity, per-job task accounting, the scheduler's
    /// own queue consistency ([`Scheduler::check_consistency`]) and —
    /// sampled — snapshot round-trip fidelity. Breaches are recorded as
    /// structured [`InvariantViolation`](crate::InvariantViolation)s in
    /// [`SimulationReport::invariants`](crate::SimulationReport::invariants)
    /// instead of panicking. Off by default and zero-cost when off.
    pub fn check_invariants(mut self, check: bool) -> Self {
        self.check_invariants = check;
        self
    }

    /// Adds one job.
    pub fn job(mut self, spec: JobSpec) -> Self {
        self.jobs.push(spec);
        self
    }

    /// Adds many jobs.
    pub fn jobs(mut self, specs: impl IntoIterator<Item = JobSpec>) -> Self {
        if self.jobs.is_empty() {
            // Collecting a `Vec`'s own iterator keeps its buffer: the specs
            // are not copied.
            self.jobs = specs.into_iter().collect();
        } else {
            self.jobs.extend(specs);
        }
        self
    }

    /// Validates everything and produces a runnable [`Simulation`].
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidCluster`] / [`SimError::InvalidConfig`] for
    ///   degenerate cluster or quantum settings,
    /// * [`SimError::InvalidJob`] for the first malformed job spec.
    pub fn build<S: Scheduler>(self, scheduler: S) -> Result<Simulation<S>, SimError> {
        self.cluster.validate()?;
        if self.quantum.is_zero() {
            return Err(SimError::InvalidConfig(
                "scheduling quantum must be positive".into(),
            ));
        }
        let total = self.cluster.total_containers();
        for (i, spec) in self.jobs.iter().enumerate() {
            spec.validate(total)
                .map_err(|reason| SimError::InvalidJob {
                    job_index: i,
                    reason,
                })?;
        }

        // Stable sort by arrival: JobIds are dense in arrival order.
        let mut specs = self.jobs;
        specs.sort_by_key(JobSpec::arrival);
        let mut events = EventQueue::new();
        for (i, spec) in specs.iter().enumerate() {
            events.push(
                spec.arrival(),
                Event::JobArrival {
                    job: JobId::new(i as u32),
                },
            );
        }
        let jobs = JobStore::from_specs(specs, total, scheduler.requires_oracle());
        let admission = match self.admission_limit {
            Some(cap) => AdmissionController::with_limit(cap),
            None => AdmissionController::unlimited(),
        };

        Ok(Simulation {
            fills_stage_progress: scheduler.reads_stage_progress(),
            scheduler,
            cluster: ClusterState::new(self.cluster),
            admission,
            quantum: self.quantum,
            speculation: self.speculation,
            failures: self.failures,
            journal: if self.record_journal {
                Some(Journal::new())
            } else {
                None
            },
            telemetry: if self.record_telemetry {
                Some(Telemetry::new())
            } else {
                None
            },
            invariants: if self.check_invariants {
                Some(InvariantReport::default())
            } else {
                None
            },
            dirty: vec![Dirty::Clean; jobs.len()],
            jobs,
            events,
            admitted: Vec::new(),
            finished_in_admitted: 0,
            views: ViewCache::default(),
            dirty_list: Vec::new(),
            plan_buf: AllocationPlan::new(),
            event_scratch: Vec::new(),
            scratch: JobScratch::default(),
            plan_order: Vec::new(),
            refill_cursor: 0,
            needs_pass: false,
            tick_scheduled: false,
            finished_count: 0,
            stats: EngineStats::default(),
            util_integral: 0.0,
            last_util_update: SimTime::ZERO,
            now: SimTime::ZERO,
        })
    }
}

/// A fully-configured simulation, ready to [`run`](Simulation::run).
///
/// # Examples
///
/// ```
/// use lasmq_simulator::testkit::BudgetedGreedy;
/// use lasmq_simulator::{
///     ClusterConfig, JobSpec, SimDuration, Simulation, StageKind, StageSpec, TaskSpec,
/// };
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let job = JobSpec::builder()
///     .stage(StageSpec::uniform(StageKind::Map, 8, TaskSpec::new(SimDuration::from_secs(10))))
///     .build();
/// let report = Simulation::builder()
///     .cluster(ClusterConfig::single_node(4))
///     .job(job)
///     .build(BudgetedGreedy)? // first come, first served
///     .run();
/// assert!(report.all_completed());
/// // 8 tasks on 4 containers: two 10-second waves.
/// assert_eq!(report.outcomes()[0].response().unwrap().as_secs_f64(), 20.0);
/// # Ok(())
/// # }
/// ```
pub struct Simulation<S: Scheduler> {
    scheduler: S,
    /// [`Scheduler::reads_stage_progress`], asked once at `build` /
    /// `restore`: whether the scheduler's views carry a computed
    /// [`JobView::stage_progress`] or `0.0`.
    fills_stage_progress: bool,
    cluster: ClusterState,
    admission: AdmissionController,
    quantum: SimDuration,
    speculation: SpeculationConfig,
    failures: FailureConfig,
    journal: Option<Journal>,
    telemetry: Option<Telemetry>,
    invariants: Option<InvariantReport>,
    jobs: JobStore,
    events: EventQueue,
    admitted: Vec<JobId>,
    finished_in_admitted: usize,
    /// One [`JobView`] per active admitted job, in admission order. Between
    /// passes only *dirty* jobs (whose progress, holdings or stage changed)
    /// are re-derived; the rest are reused verbatim — a clean job's view is
    /// a pure function of its unchanged state, so the cached copy is
    /// bit-identical to a fresh rebuild.
    views: ViewCache,
    /// Job index → why the job is on `dirty_list`, if it is.
    dirty: Vec<Dirty>,
    /// Jobs whose views must be re-derived at the next pass. Jobs with
    /// running tasks (or a pending stage-readiness deadline) stay listed:
    /// their views vary with time even without discrete events.
    dirty_list: Vec<JobId>,
    /// Recycled allocation-plan buffer, handed to the scheduler empty on
    /// each pass.
    plan_buf: AllocationPlan,
    /// Recycled buffer for the sampled snapshot-fidelity check.
    event_scratch: Vec<EventEntry>,
    /// Reusable per-pass buffers and the retired-stage-buffer pool.
    scratch: JobScratch,
    plan_order: Vec<JobId>,
    refill_cursor: usize,
    needs_pass: bool,
    tick_scheduled: bool,
    finished_count: usize,
    stats: EngineStats,
    util_integral: f64,
    last_util_update: SimTime,
    now: SimTime,
}

impl<S: Scheduler> std::fmt::Debug for Simulation<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("scheduler", &self.scheduler.name())
            .field("now", &self.now)
            .field("jobs", &self.jobs.len())
            .field("finished", &self.finished_count)
            .finish_non_exhaustive()
    }
}

impl Simulation<Box<dyn Scheduler>> {
    /// Starts building a simulation. The builder is not tied to this
    /// scheduler type: [`SimulationBuilder::build`] takes any scheduler.
    pub fn builder() -> SimulationBuilder {
        SimulationBuilder::new()
    }
}

impl<S: Scheduler> Simulation<S> {
    /// The scheduler's reported name.
    pub fn scheduler_name(&self) -> &str {
        self.scheduler.name()
    }

    /// The current simulated time (the timestamp of the last processed
    /// event batch).
    pub fn now(&self) -> SimTime {
        self.now
    }

    #[cfg(test)]
    pub(crate) fn view_cache(&self) -> &ViewCache {
        &self.views
    }

    /// Runs the simulation to completion and reports per-job outcomes. To
    /// stop early, [`run_until`](Simulation::run_until) a time and then
    /// [`into_report`](Simulation::into_report).
    pub fn run(mut self) -> SimulationReport {
        self.advance(None);
        self.into_report()
    }

    /// Advances the simulation by whole timestamp batches. With
    /// `until = Some(t)`, stops before the first batch later than `t` and
    /// returns `true` if such a batch is pending; with `None`, runs to
    /// completion and returns `false`.
    ///
    /// Stopping only *between* batches keeps the paused state canonical:
    /// every event at the current timestamp has been handled and the
    /// coalesced full pass (if any) has run, so a snapshot taken here
    /// resumes bit-identically.
    fn advance(&mut self, until: Option<SimTime>) -> bool {
        self.advance_inner(until, u64::MAX).1
    }

    /// The one batch loop every caller funnels through — sim-time runs
    /// ([`run`](Simulation::run) / [`run_until`](Simulation::run_until))
    /// and batch-by-batch stepping ([`step_batch`](Simulation::step_batch))
    /// alike — so pausing, stepping and running to completion are the same
    /// code path batch-for-batch. Processes at most `max_batches` timestamp
    /// batches; returns how many were processed and whether a batch beyond
    /// `until` (or the `max_batches` budget) is still pending.
    fn advance_inner(&mut self, until: Option<SimTime>, max_batches: u64) -> (u64, bool) {
        let mut batches = 0u64;
        while let Some(t) = self.events.peek_time() {
            if let Some(limit) = until {
                if t > limit {
                    return (batches, true);
                }
            }
            if batches == max_batches {
                return (batches, true);
            }
            batches += 1;
            if let Some(report) = &mut self.invariants {
                if t < self.now {
                    report.record(
                        InvariantKind::ClockMonotonicity,
                        t.as_millis(),
                        format!(
                            "event batch at {t} is earlier than the current clock {}",
                            self.now
                        ),
                    );
                }
            }
            self.now = t;
            // Drain every event at this timestamp, then run at most one
            // coalesced full pass.
            while self.events.peek_time() == Some(t) {
                let (_, event) = self.events.pop().expect("peeked event");
                self.stats.events_processed += 1;
                self.handle(event);
            }
            if self.needs_pass {
                self.needs_pass = false;
                self.full_pass();
            }
            if self.invariants.is_some() {
                self.run_invariant_checks();
            }
        }
        (batches, false)
    }

    /// One audit pass over the engine's entire state. Only ever called when
    /// the simulation was built with `check_invariants(true)`; records each
    /// breach as a structured violation instead of aborting the run.
    fn run_invariant_checks(&mut self) {
        let Some(mut report) = self.invariants.take() else {
            return;
        };
        report.checks_run += 1;
        let at = self.now.as_millis();

        // Container conservation, cluster-wide: every used container is
        // held by exactly one job, and holdings never exceed capacity.
        let used = self.cluster.used_containers() as u64;
        let held_sum: u64 = self.jobs.core.iter().map(|c| c.held as u64).sum();
        if used != held_sum {
            report.record(
                InvariantKind::ContainerConservation,
                at,
                format!("cluster reports {used} containers used but jobs hold {held_sum}"),
            );
        }

        // Container conservation, per node: recompute each node's load from
        // the running attempts and compare with the cluster's free counts.
        let per_node_cap = self.cluster.config().containers_per_node() as u64;
        let mut used_per_node = vec![0u64; self.cluster.config().nodes() as usize];
        for st in &self.jobs.stage {
            for r in &st.running {
                used_per_node[r.node.index()] += r.containers as u64;
                if let Some(copy) = r.spec_copy {
                    used_per_node[copy.node.index()] += copy.containers as u64;
                }
            }
        }
        for (i, (&expected, &free)) in used_per_node
            .iter()
            .zip(self.cluster.free_per_node())
            .enumerate()
        {
            let actual = per_node_cap - free as u64;
            if expected != actual {
                report.record(
                    InvariantKind::ContainerConservation,
                    at,
                    format!(
                        "node {i}: running attempts occupy {expected} containers \
                         but the cluster accounts {actual} as used"
                    ),
                );
            }
        }

        // Task accounting: per active job, every issued task is in exactly
        // one of {completed, running, requeued}, and holdings match the
        // widths of running attempts.
        let mut finished = 0usize;
        let mut active = 0usize;
        for i in 0..self.jobs.len() {
            let core = &self.jobs.core[i];
            let st = &self.jobs.stage[i];
            if core.finished() {
                finished += 1;
                if core.held != 0 || !st.running.is_empty() {
                    report.record(
                        InvariantKind::TaskAccounting,
                        at,
                        format!(
                            "finished job {i} still holds {} container(s) and {} running task(s)",
                            core.held,
                            st.running.len()
                        ),
                    );
                }
                continue;
            }
            if core.active() {
                active += 1;
            }
            let accounted =
                st.completed as usize + st.running.len() + st.requeued.len() + st.total as usize
                    - st.next_unstarted;
            if accounted != st.total as usize {
                report.record(
                    InvariantKind::TaskAccounting,
                    at,
                    format!(
                        "job {i} stage {}: completed {} + running {} + requeued {} + \
                         never-started {} != {} total tasks",
                        core.stage_index,
                        st.completed,
                        st.running.len(),
                        st.requeued.len(),
                        st.total as usize - st.next_unstarted,
                        st.total
                    ),
                );
            }
            let held_by_attempts: u64 = st
                .running
                .iter()
                .map(|r| r.containers as u64 + r.spec_copy.map_or(0, |c| c.containers as u64))
                .sum();
            if core.held as u64 != held_by_attempts {
                report.record(
                    InvariantKind::TaskAccounting,
                    at,
                    format!(
                        "job {i} holds {} container(s) but its running attempts occupy {}",
                        core.held, held_by_attempts
                    ),
                );
            }
        }
        // The attempt index is derived from the `running` vectors: every
        // running attempt is indexed at its own position, and the index
        // holds nothing else.
        let mut running_attempts = 0usize;
        for (i, st) in self.jobs.stage.iter().enumerate() {
            for (pos, r) in st.running.iter().enumerate() {
                running_attempts += 1;
                let indexed = self
                    .jobs
                    .running_at
                    .get(&JobStore::attempt_key(i, r.task_idx));
                if indexed != Some(&(pos as u32)) {
                    report.record(
                        InvariantKind::TaskAccounting,
                        at,
                        format!(
                            "job {i} task {} runs at position {pos} but the attempt \
                             index says {indexed:?}",
                            r.task_idx
                        ),
                    );
                }
            }
        }
        if self.jobs.running_at.len() != running_attempts {
            report.record(
                InvariantKind::TaskAccounting,
                at,
                format!(
                    "attempt index holds {} entries for {running_attempts} running attempt(s)",
                    self.jobs.running_at.len()
                ),
            );
        }
        if finished != self.finished_count {
            report.record(
                InvariantKind::TaskAccounting,
                at,
                format!(
                    "finished_count {} disagrees with {} jobs marked finished",
                    self.finished_count, finished
                ),
            );
        }
        if active != self.admission.running() {
            report.record(
                InvariantKind::TaskAccounting,
                at,
                format!(
                    "admission reports {} running job(s) but {} are admitted and unfinished",
                    self.admission.running(),
                    active
                ),
            );
        }

        // Scheduler-internal structures (for LAS_MQ: the multilevel queue's
        // membership uniqueness and back-pointers).
        if let Err(detail) = self.scheduler.check_consistency() {
            report.record(InvariantKind::QueueConsistency, at, detail);
        }

        // Snapshot fidelity is the one expensive check (it serializes the
        // whole engine), so it is sampled rather than run per batch, and the
        // event-queue staging buffer is recycled across samples.
        if report.checks_run % 64 == 1 {
            let scratch = std::mem::take(&mut self.event_scratch);
            let snap = self.snapshot_with_event_buf(scratch);
            let json = snap.to_json();
            self.event_scratch = snap.events;
            match SimSnapshot::from_json(&json) {
                Ok(back) => {
                    if back.to_json() != json {
                        report.record(
                            InvariantKind::SnapshotFidelity,
                            at,
                            "snapshot JSON does not round-trip bit-identically".to_string(),
                        );
                    }
                }
                Err(e) => {
                    report.record(
                        InvariantKind::SnapshotFidelity,
                        at,
                        format!("live snapshot failed to re-parse: {e}"),
                    );
                }
            }
        }

        self.invariants = Some(report);
    }

    /// Runs forward until simulated time `until` (inclusive), pausing at a
    /// batch boundary. Returns `true` if the simulation still has events to
    /// process (i.e. it paused rather than finished). Pair with
    /// [`snapshot`](Simulation::snapshot) to capture the paused state,
    /// then keep calling `run_until` / [`run`](Simulation::run) to
    /// continue.
    pub fn run_until(&mut self, until: SimTime) -> bool {
        self.advance(Some(until))
    }

    /// Processes exactly one pending timestamp batch (every event at the
    /// next timestamp plus the coalesced scheduling pass, if one is due),
    /// provided that batch is at or before `limit`. Returns `true` if a
    /// batch was processed, `false` if the next batch lies beyond `limit`
    /// or the queue is drained.
    ///
    /// This is the entry point for callers that pace the engine themselves
    /// (the `lasmq-serve` daemon steps it against a wall clock): it funnels
    /// into the same core loop as [`run`](Simulation::run) /
    /// [`run_until`](Simulation::run_until), so a stepped run processes
    /// batches in exactly the same order as a sim-time run, and the paused
    /// state between calls is always a canonical batch boundary where
    /// [`snapshot`](Simulation::snapshot) is well-defined.
    pub fn step_batch(&mut self, limit: SimTime) -> bool {
        self.advance_inner(Some(limit), 1).0 > 0
    }

    /// Injects a job into a *live* simulation — the streaming-admission
    /// entry point for the wall-clock daemon. The spec's arrival time is
    /// clamped forward to the current clock if it lies in the past (the
    /// engine cannot deliver events before `now`), the spec is validated
    /// against the cluster, and a [`JobId`] is assigned continuing the
    /// dense index sequence.
    ///
    /// Submitting the same specs up-front via
    /// [`SimulationBuilder::jobs`] or live (in arrival order, before
    /// running) yields byte-identical runs.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidJob`] if the spec fails validation against this
    /// cluster (e.g. a task wider than the whole cluster).
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobId, SimError> {
        let spec = if spec.arrival() < self.now {
            spec.with_arrival(self.now)
        } else {
            spec
        };
        spec.validate(self.cluster.config().total_containers())
            .map_err(|reason| SimError::InvalidJob {
                job_index: self.jobs.len(),
                reason,
            })?;
        let id = JobId::new(self.jobs.len() as u32);
        self.events
            .push(spec.arrival(), Event::JobArrival { job: id });
        self.jobs.push_spec(spec);
        self.dirty.push(Dirty::Clean);
        Ok(id)
    }

    /// Engine counters accumulated so far (passes, events, allocations).
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Total jobs known to the simulation, finished or not.
    pub fn total_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Jobs that have run to completion.
    pub fn finished_jobs(&self) -> usize {
        self.finished_count
    }

    /// Jobs currently admitted and not yet finished.
    pub fn running_jobs(&self) -> usize {
        self.admission.running()
    }

    /// Jobs parked in the admission queue.
    pub fn waiting_jobs(&self) -> usize {
        self.admission.waiting()
    }

    /// Containers currently occupied by running tasks.
    pub fn used_containers(&self) -> u32 {
        self.cluster.used_containers()
    }

    /// Total container capacity of the cluster.
    pub fn total_containers(&self) -> u32 {
        self.cluster.config().total_containers()
    }

    /// Timestamp of the next pending event batch, or `None` when drained.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Events still pending in the queue.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// The outcome recorded for `id` so far (arrival/admission/finish
    /// timestamps and derived metrics). `None` for an out-of-range id.
    pub fn job_outcome(&self, id: JobId) -> Option<JobOutcome> {
        let i = id.index();
        let spec = self.jobs.specs.get(i)?;
        let total_containers = self.cluster.config().total_containers();
        Some(assemble_outcome(
            i,
            spec,
            spec.label().to_string(),
            &self.jobs.core[i],
            total_containers,
        ))
    }

    /// Consumes the simulation, drained or paused, and reports per-job
    /// outcomes — [`run`](Simulation::run) is `advance-to-completion` +
    /// `into_report`, and [`run_until`](Simulation::run_until) +
    /// `into_report` is the one way to stop a run early (jobs unfinished
    /// at the pause report `finish = None`).
    ///
    /// The outcomes are built after the rest of the engine is dropped, and
    /// each takes its label from its spec instead of copying it, so the
    /// report does not add to the run's peak memory.
    pub fn into_report(mut self) -> SimulationReport {
        self.close_stats();
        let (report, jobs, total_containers) = self.into_report_parts();
        report.with_outcomes(jobs.into_outcomes(total_containers))
    }

    /// Runs forward to (at most) `t` and captures the state there. Returns
    /// `None` if the simulation finished before `t` (there is nothing left
    /// to snapshot — [`run`](Simulation::run) it for the report instead).
    pub fn snapshot_at(&mut self, t: SimTime) -> Option<SimSnapshot> {
        if self.run_until(t) {
            Some(self.snapshot())
        } else {
            None
        }
    }

    /// Captures the complete engine state — clock, event queue, cluster
    /// occupancy, admission queue, per-job task progress, accumulated
    /// journal/telemetry — plus the scheduler's
    /// [`snapshot_state`](Scheduler::snapshot_state), as a serializable
    /// [`SimSnapshot`].
    ///
    /// Snapshots are only well-defined at batch boundaries, which is where
    /// [`run_until`](Simulation::run_until) pauses; restoring one and
    /// running to completion yields a byte-identical report to the
    /// uninterrupted run.
    pub fn snapshot(&self) -> SimSnapshot {
        self.snapshot_with_event_buf(Vec::new())
    }

    /// [`snapshot`](Self::snapshot) writing the event-queue section into a
    /// recycled buffer — the sampled snapshot-fidelity invariant check
    /// snapshots repeatedly and reclaims the buffer afterwards.
    fn snapshot_with_event_buf(&self, mut events: Vec<EventEntry>) -> SimSnapshot {
        self.events.snapshot_entries_into(&mut events);
        SimSnapshot {
            schema: SNAPSHOT_SCHEMA_VERSION,
            scheduler_name: self.scheduler.name().to_string(),
            scheduler_state: self.scheduler.snapshot_state(),
            cluster: *self.cluster.config(),
            free_per_node: self.cluster.free_per_node().to_vec(),
            quantum: self.quantum,
            admission_limit: self.admission.limit(),
            admission_running: self.admission.running(),
            admission_waiting: self.admission.waiting_jobs(),
            preemption: PreemptionPolicy::Graceful,
            speculation: self.speculation,
            failures: self.failures,
            expose_oracle: self.jobs.oracle_size.is_some(),
            deadline: None,
            journal: self.journal.clone(),
            telemetry: self.telemetry.clone(),
            invariants: self.invariants.clone(),
            jobs: self.jobs.to_jobs(),
            events,
            events_next_seq: self.events.next_seq(),
            admitted: self.admitted.clone(),
            finished_in_admitted: self.finished_in_admitted,
            plan_order: self.plan_order.clone(),
            refill_cursor: self.refill_cursor,
            needs_pass: self.needs_pass,
            tick_scheduled: self.tick_scheduled,
            finished_count: self.finished_count,
            stats: self.stats,
            util_integral: self.util_integral,
            last_util_update: self.last_util_update,
            now: self.now,
        }
    }

    /// Rebuilds a paused simulation from a snapshot, continuing under the
    /// *same* scheduling policy (the scheduler's internal state is restored
    /// via [`restore_state`](Scheduler::restore_state)). Running the result
    /// to completion produces a byte-identical report to the uninterrupted
    /// run the snapshot was taken from.
    ///
    /// # Errors
    ///
    /// [`SimError::Snapshot`] if the schema version or scheduler name does
    /// not match, the snapshot carries a deadline, or the scheduler rejects
    /// its serialized state.
    pub fn restore(snapshot: SimSnapshot, mut scheduler: S) -> Result<Self, SimError> {
        snapshot.check_loadable()?;
        if scheduler.name() != snapshot.scheduler_name {
            return Err(SimError::Snapshot(format!(
                "snapshot was taken under scheduler '{}', cannot restore into '{}' \
                 (use fork to switch policies)",
                snapshot.scheduler_name,
                scheduler.name()
            )));
        }
        if let Some(state) = &snapshot.scheduler_state {
            scheduler
                .restore_state(state)
                .map_err(|e| SimError::Snapshot(format!("scheduler state rejected: {e}")))?;
        }
        Ok(Self::rebuild(snapshot, scheduler))
    }

    /// Forks a snapshot into a *different* scheduling policy: the cluster,
    /// jobs and event queue continue exactly where the snapshot paused, but
    /// `scheduler` starts fresh — it is introduced to every active job (in
    /// admission order) and an immediate re-plan is scheduled, so the new
    /// policy takes over from the inherited allocation gracefully.
    ///
    /// This is the warm-start primitive: snapshot one warmed-up run, then
    /// fork it across scheduler arms for variance-reduced paired
    /// comparisons that share identical warm-up history. A scheduler that
    /// [`requires_oracle`](Scheduler::requires_oracle) sees true sizes
    /// (taken from the snapshot's job specs) whatever the donor policy was.
    ///
    /// # Errors
    ///
    /// [`SimError::Snapshot`] if the schema version does not match or the
    /// snapshot carries a deadline.
    pub fn fork(snapshot: &SimSnapshot, scheduler: S) -> Result<Self, SimError> {
        snapshot.check_loadable()?;
        let mut sim = Self::rebuild(snapshot.clone(), scheduler);
        for i in 0..sim.admitted.len() {
            let id = sim.admitted[i];
            if sim.jobs.core[id.index()].active() {
                let view = sim.build_view(id);
                sim.scheduler.on_job_admitted(&view, sim.now);
            }
        }
        // Stale targets from the donor policy are overwritten before any
        // refill can read them: the Resched below is strictly the earliest
        // pending event (all others are later than `now`).
        sim.events.push(sim.now, Event::Resched);
        Ok(sim)
    }

    fn rebuild(snapshot: SimSnapshot, scheduler: S) -> Self {
        let oracle = scheduler.requires_oracle();
        let mut sim = Simulation {
            fills_stage_progress: scheduler.reads_stage_progress(),
            scheduler,
            cluster: ClusterState::from_snapshot(snapshot.cluster, snapshot.free_per_node),
            admission: AdmissionController::from_snapshot(
                snapshot.admission_limit,
                snapshot.admission_running,
                snapshot.admission_waiting,
            ),
            quantum: snapshot.quantum,
            speculation: snapshot.speculation,
            failures: snapshot.failures,
            journal: snapshot.journal,
            telemetry: snapshot.telemetry,
            invariants: snapshot.invariants,
            dirty: vec![Dirty::Clean; snapshot.jobs.len()],
            jobs: JobStore::from_jobs(snapshot.jobs, snapshot.cluster.total_containers(), oracle),
            events: EventQueue::from_snapshot(snapshot.events, snapshot.events_next_seq),
            admitted: snapshot.admitted,
            finished_in_admitted: snapshot.finished_in_admitted,
            views: ViewCache::default(),
            dirty_list: Vec::new(),
            plan_buf: AllocationPlan::new(),
            event_scratch: Vec::new(),
            scratch: JobScratch::default(),
            plan_order: snapshot.plan_order,
            refill_cursor: snapshot.refill_cursor,
            needs_pass: snapshot.needs_pass,
            tick_scheduled: snapshot.tick_scheduled,
            finished_count: snapshot.finished_count,
            stats: snapshot.stats,
            util_integral: snapshot.util_integral,
            last_util_update: snapshot.last_util_update,
            now: snapshot.now,
        };
        // Seed the view cache for every active job, all dirty: the first
        // pass re-derives each view at pass time, which is exactly what the
        // uninterrupted run's cache would contain (clean views are pure
        // functions of unchanged job state, so "refresh everything" and
        // "refresh the subset that changed" produce identical buffers).
        for i in 0..sim.admitted.len() {
            let id = sim.admitted[i];
            if sim.jobs.core[id.index()].active() {
                let view = sim.build_view(id);
                sim.views.admit(view);
                sim.mark_dirty(id);
            }
        }
        sim
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::JobArrival { job } => self.handle_arrival(job),
            Event::TaskFinish {
                job,
                stage,
                task,
                attempt,
            } => self.handle_task_finish(job, stage, task, attempt),
            Event::Tick => {
                self.tick_scheduled = false;
                if self.admission.running() > 0 {
                    self.needs_pass = true;
                    self.ensure_tick();
                }
            }
            Event::Resched => self.needs_pass = true,
        }
    }

    fn handle_arrival(&mut self, job: JobId) {
        self.record(SimEvent::JobSubmitted { job, at: self.now });
        if self.admission.offer(job).is_some() {
            self.admit(job);
        } else {
            self.record(SimEvent::AdmissionDeferred { job, at: self.now });
        }
    }

    fn admit(&mut self, id: JobId) {
        let now = self.now;
        {
            let (spec, core, stage) = self.jobs.split_mut(id.index());
            debug_assert!(!core.admitted(), "{id} admitted twice");
            core.admitted_at = Some(now);
            core.last_accrual = now;
            // Re-anchor the first stage's transfer delay at admission
            // time, reusing retired stage buffers where available.
            self.scratch.graft(stage);
            stage.reset_for(&spec.stages()[0], now);
            let ready_at = stage.ready_at;
            if ready_at > now {
                self.events.push(ready_at, Event::Resched);
            }
        }
        self.admitted.push(id);
        self.record(SimEvent::JobAdmitted {
            job: id,
            waited: now.saturating_since(self.jobs.specs[id.index()].arrival()),
            at: now,
        });
        let view = self.build_view(id);
        self.scheduler.on_job_admitted(&view, now);
        // Enter the view cache dirty: the view is re-derived at pass time,
        // when accruals and stage readiness may differ from admission time.
        self.views.admit(view);
        self.mark_dirty(id);
        self.ensure_tick();
        self.needs_pass = true;
    }

    /// Lists `id` for a full view rebuild at the next pass: every discrete
    /// change to a job's state calls this.
    fn mark_dirty(&mut self, id: JobId) {
        let dirty = &mut self.dirty[id.index()];
        if *dirty == Dirty::Clean {
            self.dirty_list.push(id);
        }
        *dirty = Dirty::Rebuild;
    }

    fn ensure_tick(&mut self) {
        if !self.tick_scheduled {
            self.events.push(self.now + self.quantum, Event::Tick);
            self.tick_scheduled = true;
        }
    }

    fn handle_task_finish(&mut self, id: JobId, stage: StageId, task: TaskId, attempt: u32) {
        let i = id.index();
        let core = &self.jobs.core[i];
        if core.finished() || core.stage_index != stage.index() {
            return; // stale: the job moved on to a later stage or finished
        }
        let Some(pos) = self.jobs.running_position(i, task.index(), attempt) else {
            return; // stale: superseded by a speculative copy
        };

        self.accrue_job(id);
        self.update_util();
        self.mark_dirty(id);
        // Failed attempt: give back the containers, re-queue the task.
        if self.jobs.stage[i].running[pos].will_fail {
            let failed = self.jobs.swap_remove_running(i, pos);
            let (_, core, st) = self.jobs.split_mut(i);
            core.held -= failed.containers;
            self.cluster.release(failed.node, failed.containers);
            if let Some(copy) = failed.spec_copy {
                core.held -= copy.containers;
                self.cluster.release(copy.node, copy.containers);
            }
            let failed_task = TaskId::new(failed.task_idx as u32);
            st.requeued.push(failed.task_idx);
            self.stats.tasks_failed += 1;
            self.record(SimEvent::TaskFailed {
                job: id,
                stage,
                task: failed_task,
                at: self.now,
            });
            if !self.needs_pass {
                self.refill_after_completion(id);
            }
            return;
        }
        let stage_done;
        {
            let running = self.jobs.swap_remove_running(i, pos);
            let (spec, core, st) = self.jobs.split_mut(i);
            core.held -= running.containers;
            self.cluster.release(running.node, running.containers);
            if let Some(copy) = running.spec_copy {
                core.held -= copy.containers;
                self.cluster.release(copy.node, copy.containers);
            }
            let spec_task = spec.stages()[core.stage_index].task(running.task_idx);
            st.completed += 1;
            st.completed_durations.push(spec_task.duration());
            core.completed_service += spec_task.service();
            stage_done = st.completed == st.total;
            let finished_task = TaskId::new(running.task_idx as u32);
            let finished_attempt = running.attempt;
            self.record(SimEvent::TaskFinished {
                job: id,
                stage,
                task: finished_task,
                attempt: finished_attempt,
                at: self.now,
            });
        }

        if stage_done {
            self.advance_stage_or_finish(id);
        } else if !self.needs_pass {
            self.refill_after_completion(id);
        }
    }

    fn advance_stage_or_finish(&mut self, id: JobId) {
        let now = self.now;
        let (spec, core, st) = self.jobs.split_mut(id.index());
        debug_assert!(st.running.is_empty());
        debug_assert_eq!(
            core.held, 0,
            "{id} finished a stage while holding containers"
        );
        if core.stage_index + 1 < spec.stage_count() {
            core.stage_index += 1;
            st.reset_for(&spec.stages()[core.stage_index], now);
            core.attained_stage = Service::ZERO;
            let ready_at = st.ready_at;
            let new_stage = core.stage_index;
            if ready_at > now {
                self.events.push(ready_at, Event::Resched);
            }
            self.record(SimEvent::StageCompleted {
                job: id,
                stage: StageId::new((new_stage - 1) as u16),
                at: now,
            });
            self.scheduler.on_stage_completed(id, new_stage, now);
        } else {
            core.finished_at = Some(now);
            // The job is done: retire its stage buffers for reuse.
            self.scratch.harvest(st);
            self.finished_count += 1;
            self.finished_in_admitted += 1;
            self.views.retire(id);
            self.record(SimEvent::JobCompleted { job: id, at: now });
            self.scheduler.on_job_completed(id, now);
            if let Some(next) = self.admission.on_completion(id) {
                self.admit(next);
            }
        }
        self.needs_pass = true;
    }

    /// O(plan) refill between full passes: top up the job whose task just
    /// finished, then pour leftovers down the plan order from the cursor.
    fn refill_after_completion(&mut self, id: JobId) {
        {
            let now = self.now;
            let i = id.index();
            let target = self.effective_target(&self.jobs.core[i]);
            if self.jobs.stage[i].startable(now) > 0 && self.jobs.core[i].held < target {
                while self.jobs.core[i].held < target && self.jobs.stage[i].startable(now) > 0 {
                    if !self.try_start_task(id) {
                        break;
                    }
                }
            }
        }
        self.advance_refill_cursor();
    }

    fn advance_refill_cursor(&mut self) {
        while self.cluster.free_containers() > 0 && self.refill_cursor < self.plan_order.len() {
            let cand = self.plan_order[self.refill_cursor];
            let core = &self.jobs.core[cand.index()];
            if core.finished()
                || self.jobs.stage[cand.index()].startable(self.now) == 0
                || core.held >= self.effective_target(core)
            {
                self.refill_cursor += 1;
                continue;
            }
            if !self.try_start_task(cand) {
                break; // fragmentation: retry on the next completion/pass
            }
        }
    }

    /// Starts one task of `id`'s current stage. Returns `false` if nothing
    /// is startable (no unstarted task, or no node can host it).
    fn try_start_task(&mut self, id: JobId) -> bool {
        let now = self.now;
        let i = id.index();
        let (task_idx, from_requeue) = {
            let st = &mut self.jobs.stage[i];
            if st.startable(now) == 0 {
                return false;
            }
            if let Some(idx) = st.requeued.pop() {
                (idx, true)
            } else if st.next_unstarted < st.total as usize {
                let idx = st.next_unstarted;
                st.next_unstarted += 1;
                (idx, false)
            } else {
                return false;
            }
        };
        let spec_task = self.jobs.current_stage(i).task(task_idx);
        self.update_util();
        let Some(node) = self.cluster.allocate(spec_task.containers()) else {
            // Roll the reservation back.
            let st = &mut self.jobs.stage[i];
            if from_requeue {
                st.requeued.push(task_idx);
            } else {
                st.next_unstarted -= 1;
            }
            return false;
        };
        self.accrue_job(id);
        // Slow nodes stretch the attempt; failure rolls truncate it.
        let speed = self.cluster.config().speed_factor(node);
        let mut duration = if speed > 1.0 {
            SimDuration::from_secs_f64(spec_task.duration().as_secs_f64() * speed)
        } else {
            spec_task.duration()
        };
        let core = &mut self.jobs.core[i];
        let attempt = core.attempt_counter;
        core.attempt_counter += 1;
        let failure = self.failures.roll(id, task_idx, attempt);
        if let Some(fraction) = failure {
            duration = SimDuration::from_millis(
                ((duration.as_millis() as f64 * fraction).round() as u64).max(1),
            );
        }
        let finish = now + duration;
        core.held += spec_task.containers();
        if core.first_alloc.is_none() {
            core.first_alloc = Some(now);
        }
        let stage = StageId::new(core.stage_index as u16);
        let containers = spec_task.containers();
        self.jobs.push_running(
            i,
            RunningTask {
                task_idx,
                attempt,
                node,
                containers,
                started: now,
                finish,
                will_fail: failure.is_some(),
                spec_copy: None,
            },
        );
        self.events.push(
            finish,
            Event::TaskFinish {
                job: id,
                stage,
                task: TaskId::new(task_idx as u32),
                attempt,
            },
        );
        self.record(SimEvent::TaskStarted {
            job: id,
            stage,
            task: TaskId::new(task_idx as u32),
            attempt,
            node,
            containers,
            at: now,
        });
        self.mark_dirty(id);
        true
    }

    fn accrue_job(&mut self, id: JobId) {
        self.jobs.core[id.index()].accrue(self.now);
    }

    /// The engine's one event sink: every transition goes to the journal
    /// and, if it is a decision, to telemetry's decision log.
    fn record(&mut self, event: SimEvent) {
        if let Some(journal) = &mut self.journal {
            journal.push(event);
        }
        if let Some(tel) = &mut self.telemetry {
            tel.record(event);
        }
    }

    fn update_util(&mut self) {
        if self.now == self.last_util_update {
            return; // every call after the first in an event batch
        }
        let dt = self
            .now
            .saturating_since(self.last_util_update)
            .as_secs_f64();
        if dt > 0.0 {
            self.util_integral += self.cluster.used_containers() as f64 * dt;
        }
        self.last_util_update = self.now;
    }

    /// The view of `id` at the current clock, as its scheduler sees it:
    /// `stage_progress` is computed only for a scheduler that reads it.
    fn build_view(&self, id: JobId) -> JobView {
        let i = id.index();
        let spec = &self.jobs.specs[i];
        let core = &self.jobs.core[i];
        let st = &self.jobs.stage[i];
        let now = self.now;
        let stage = &spec.stages()[core.stage_index];
        let oracle = self.jobs.oracle_size.as_ref().map(|sizes| {
            let total_size = sizes[i];
            debug_assert_eq!(total_size, spec.total_service());
            let mut done = core.completed_service;
            for r in &st.running {
                let elapsed = now.saturating_since(r.started);
                done += Service::accrued(r.containers, elapsed);
            }
            OracleInfo {
                total_size,
                remaining: total_size - done,
            }
        });
        JobView {
            id,
            arrival: spec.arrival(),
            admitted_at: core.admitted_at.unwrap_or(spec.arrival()),
            priority: spec.priority(),
            attained: core.attained,
            attained_stage: core.attained_stage,
            stage_index: core.stage_index,
            stage_count: spec.stage_count(),
            stage_progress: if self.fills_stage_progress {
                st.progress(now)
            } else {
                0.0
            },
            remaining_tasks: st.remaining(),
            unstarted_tasks: st.startable(now),
            containers_per_task: stage.containers_per_task(),
            held: core.held,
            oracle,
        }
    }

    fn compact_admitted(&mut self) {
        if self.finished_in_admitted * 2 > self.admitted.len() {
            let core = &self.jobs.core;
            self.admitted.retain(|id| !core[id.index()].finished());
            self.finished_in_admitted = 0;
        }
    }

    /// Re-derives the views of dirty jobs in place and records which slots
    /// changed. Jobs whose views vary with time even without discrete
    /// events — running tasks accrue service and progress; a stage-transfer
    /// delay unlocks `unstarted_tasks` when it expires — stay dirty; the
    /// rest leave the list until the next mutation. Accrual piggy-backs
    /// here, gated on nonzero holdings: a container-less job accrues no
    /// service and `try_start_task` re-anchors `last_accrual` before
    /// holdings ever become nonzero, so skipping it changes nothing — and
    /// keeps `last_accrual` independent of *when* a view was refreshed,
    /// which is what makes restored and uninterrupted runs snapshot
    /// identically.
    ///
    /// A job listed only for its running attempts ([`Dirty::Accruing`])
    /// has `attained` and `attained_stage` as the only time-varying fields
    /// of its view unless the scheduler reads stage progress or oracle
    /// sizes, so then those two fields are all it gets.
    fn refresh_dirty_views(&mut self) {
        self.views.begin_refresh();
        let now = self.now;
        let service_only = !self.fills_stage_progress && self.jobs.oracle_size.is_none();
        let mut i = 0;
        while i < self.dirty_list.len() {
            let id = self.dirty_list[i];
            let j = id.index();
            if self.jobs.core[j].finished() {
                self.dirty[j] = Dirty::Clean;
                self.dirty_list.swap_remove(i);
                continue;
            }
            if self.jobs.core[j].held > 0 {
                self.accrue_job(id);
            }
            if service_only && self.dirty[j] == Dirty::Accruing {
                let core = &self.jobs.core[j];
                self.views.accrue(id, core.attained, core.attained_stage);
                i += 1;
                continue;
            }
            let view = self.build_view(id);
            self.views.refresh(view);
            let st = &self.jobs.stage[j];
            if now < st.ready_at {
                i += 1;
            } else if !st.running.is_empty() {
                self.dirty[j] = Dirty::Accruing;
                i += 1;
            } else {
                self.dirty[j] = Dirty::Clean;
                self.dirty_list.swap_remove(i);
            }
        }
        self.views.finish_refresh();
    }

    /// Safety net for the incremental path: every cached view a pass is
    /// about to hand the scheduler must match a from-scratch rebuild, and
    /// the cache must mirror the active jobs in admission order. Debug
    /// builds and this crate's tests run it on every pass.
    #[cfg(any(debug_assertions, test))]
    fn assert_view_cache_fresh(&self) {
        let live = self.views.live();
        let mut expect = 0;
        for &id in &self.admitted {
            if self.jobs.core[id.index()].finished() {
                assert_eq!(self.views.slot(id), None, "finished {id} kept a view");
                continue;
            }
            assert_eq!(
                self.views.slot(id),
                Some(expect),
                "view cache out of admission order"
            );
            assert_eq!(live[expect].id, id, "view slot holds the wrong job");
            assert_eq!(
                live[expect],
                self.build_view(id),
                "stale cached view for {id} — a mutation path missed mark_dirty"
            );
            expect += 1;
        }
        assert_eq!(live.len(), expect, "view cache has extra slots");
    }

    /// The container target the plan currently assigns `job` — zero unless
    /// the job appeared in the *latest* pass's plan. Epoch-tagging targets
    /// replaces the old per-pass sweep that wrote zero into every admitted
    /// job before applying the plan.
    fn effective_target(&self, core: &JobCore) -> u32 {
        if core.plan_epoch == self.stats.scheduling_passes {
            core.target
        } else {
            0
        }
    }

    fn full_pass(&mut self) {
        self.stats.scheduling_passes += 1;
        self.compact_admitted();
        self.refresh_dirty_views();
        #[cfg(any(debug_assertions, test))]
        self.assert_view_cache_fresh();

        let ctx = SchedContext::new(
            self.now,
            self.cluster.config().total_containers(),
            self.views.live(),
        )
        .with_changed(self.views.changed());
        let mut plan = std::mem::take(&mut self.plan_buf);
        plan.clear();
        self.scheduler.allocate_into(&ctx, &mut plan);
        if let Some(report) = &mut self.invariants {
            report.audit_pass(
                &ctx,
                &plan,
                |id| self.views.slot(id),
                &mut self.scratch.final_targets,
            );
        }
        let active_jobs = ctx.jobs().len() as u32;

        // Always drain so schedulers that buffer demotions never accumulate
        // them unboundedly; recording them is the cheap part.
        for d in self.scheduler.drain_demotions() {
            self.record(SimEvent::JobDemoted {
                job: d.job,
                from_queue: d.from_queue,
                to_queue: d.to_queue,
                effective: d.effective,
                at: self.now,
            });
        }

        // Apply the plan (last entry wins; clamp to useful demand, which
        // the pass's own view of the job holds). Jobs the plan skips are
        // implicitly at target zero via their stale `plan_epoch` (see
        // `effective_target`).
        let epoch = self.stats.scheduling_passes;
        self.plan_order.clear();
        for &(id, target) in plan.entries() {
            let Some(view) = self.views.view_of(id) else {
                continue; // tolerate stale plan entries: no live view
            };
            let core = &mut self.jobs.core[id.index()];
            core.target = target.min(view.max_useful_allocation());
            if core.plan_epoch != epoch {
                core.plan_epoch = epoch;
                self.plan_order.push(id);
            }
        }
        self.plan_buf = plan;

        self.refill_cursor = 0;
        self.advance_refill_cursor();

        if self.speculation.is_enabled() && self.cluster.free_containers() > 0 {
            self.launch_speculative_copies();
        }

        if self.telemetry.is_some() {
            let queue_depths = self.scheduler.queue_depths().unwrap_or_default();
            let sample = TelemetrySample {
                at: self.now,
                running_jobs: active_jobs,
                waiting_jobs: self.admission.waiting() as u32,
                used_containers: self.cluster.used_containers(),
                total_containers: self.cluster.config().total_containers(),
                queue_depths,
            };
            if let Some(tel) = &mut self.telemetry {
                tel.push_sample(sample);
            }
        }
    }

    fn launch_speculative_copies(&mut self) {
        let now = self.now;
        let mut candidates = std::mem::take(&mut self.scratch.candidates);
        'outer: for i in 0..self.plan_order.len() {
            let id = self.plan_order[i];
            let ji = id.index();
            if self.jobs.core[ji].finished()
                || self.jobs.stage[ji].completed_durations.len()
                    < self.speculation.min_completed as usize
            {
                continue;
            }
            let median = self.jobs.completed_median(ji, &mut self.scratch.median);
            let st = &self.jobs.stage[ji];
            let late_after =
                SimDuration::from_secs_f64(median.as_secs_f64() * self.speculation.lateness_factor);
            candidates.clear();
            candidates.extend(
                st.running
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| {
                        r.spec_copy.is_none() && now.saturating_since(r.started) >= late_after
                    })
                    .map(|(idx, _)| idx),
            );
            for &pos in &candidates {
                let containers = self.jobs.stage[ji].running[pos].containers;
                if self.cluster.free_containers() < containers {
                    break 'outer;
                }
                self.update_util();
                let Some(node) = self.cluster.allocate(containers) else {
                    break 'outer;
                };
                self.accrue_job(id);
                self.mark_dirty(id);
                let (_, core, st) = self.jobs.split_mut(ji);
                let running = &mut st.running[pos];
                running.spec_copy = Some(SpecCopy { node, containers });
                core.held += containers;
                self.stats.speculative_launched += 1;
                let stage = StageId::new(core.stage_index as u16);
                let task = TaskId::new(running.task_idx as u32);
                let copy_finish = now + median;
                let won = copy_finish < running.finish;
                if won {
                    // The restarted copy wins: supersede the original
                    // attempt and finish earlier.
                    let attempt = core.attempt_counter;
                    core.attempt_counter += 1;
                    running.attempt = attempt;
                    running.finish = copy_finish;
                    running.will_fail = false;
                    self.events.push(
                        copy_finish,
                        Event::TaskFinish {
                            job: id,
                            stage,
                            task,
                            attempt,
                        },
                    );
                    self.stats.speculative_won += 1;
                }
                self.record(SimEvent::SpeculativeLaunched {
                    job: id,
                    stage,
                    task,
                    at: now,
                });
                if won {
                    self.record(SimEvent::SpeculativeWon {
                        job: id,
                        stage,
                        task,
                        at: now,
                    });
                }
            }
        }
        self.scratch.candidates = candidates;
    }

    /// Settles the run-wide counters the report carries.
    fn close_stats(&mut self) {
        // Flush the pending utilization accrual: `update_util` integrates
        // lazily up to `last_util_update`, so without this final call the
        // window between the last cluster change and the last processed
        // event would be dropped from `mean_utilization` (it matters when
        // the cluster goes idle before the final completion or tick).
        self.update_util();
        self.stats.makespan = self.now;
        let capacity = self.cluster.config().total_containers() as f64;
        let span = self.now.as_secs_f64();
        self.stats.mean_utilization = if span > 0.0 {
            self.util_integral / (span * capacity)
        } else {
            0.0
        };
    }

    /// The report without its outcomes, the job store they are built from
    /// and the cluster's size. Everything else — the scheduler, the event
    /// queue, the view cache and every pass buffer — is dropped when this
    /// returns.
    fn into_report_parts(self) -> (SimulationReport, JobStore, u32) {
        let total_containers = self.cluster.config().total_containers();
        let mut report =
            SimulationReport::new(self.scheduler.name().to_string(), Vec::new(), self.stats);
        if let Some(journal) = self.journal {
            report = report.with_journal(journal);
        }
        if let Some(telemetry) = self.telemetry {
            report = report.with_telemetry(telemetry);
        }
        if let Some(invariants) = self.invariants {
            report = report.with_invariants(invariants);
        }
        (report, self.jobs, total_containers)
    }
}

/// The one place a [`JobOutcome`] is assembled, for
/// [`Simulation::job_outcome`] and the final report alike: job `i`'s
/// outcome from its spec, its label and its core.
fn assemble_outcome(
    i: usize,
    spec: &JobSpec,
    label: String,
    core: &JobCore,
    total_containers: u32,
) -> JobOutcome {
    JobOutcome {
        id: JobId::new(i as u32),
        label,
        bin: spec.bin(),
        priority: spec.priority(),
        arrival: spec.arrival(),
        admitted_at: core.admitted_at,
        first_allocation: core.first_alloc,
        finish: core.finished_at,
        true_size: spec.total_service(),
        isolated: isolated_runtime(spec, total_containers),
    }
}

impl<T: Scheduler + ?Sized> Scheduler for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn requires_oracle(&self) -> bool {
        (**self).requires_oracle()
    }

    fn reads_stage_progress(&self) -> bool {
        (**self).reads_stage_progress()
    }

    fn on_job_admitted(&mut self, view: &JobView, now: SimTime) {
        (**self).on_job_admitted(view, now)
    }

    fn on_stage_completed(&mut self, job: JobId, new_stage_index: usize, now: SimTime) {
        (**self).on_stage_completed(job, new_stage_index, now)
    }

    fn on_job_completed(&mut self, job: JobId, now: SimTime) {
        (**self).on_job_completed(job, now)
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut crate::sched::AllocationPlan) {
        (**self).allocate_into(ctx, plan)
    }

    fn queue_depths(&self) -> Option<Vec<u32>> {
        (**self).queue_depths()
    }

    fn drain_demotions(&mut self) -> Vec<crate::telemetry::QueueDemotion> {
        (**self).drain_demotions()
    }

    fn snapshot_state(&self) -> Option<String> {
        (**self).snapshot_state()
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        (**self).restore_state(state)
    }

    fn check_consistency(&self) -> Result<(), String> {
        (**self).check_consistency()
    }
}

fn median_duration(scratch: &mut Vec<SimDuration>, durations: &[SimDuration]) -> SimDuration {
    debug_assert!(!durations.is_empty());
    scratch.clear();
    scratch.extend_from_slice(durations);
    let mid = scratch.len() / 2;
    // Selection, not a full sort: the upper-median element is all we need.
    *scratch.select_nth_unstable(mid).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{StageKind, TaskSpec};
    use crate::sched::AllocationPlan;
    // Jobs served in admission order, within the cluster's capacity: the
    // one helper here whose plans need no clamping (`EvenSplit` and
    // `NeedsOracle` are merely tolerated).
    use crate::testkit::BudgetedGreedy as Greedy;

    /// Splits capacity evenly among jobs every pass (a crude fair share).
    struct EvenSplit;

    impl Scheduler for EvenSplit {
        fn name(&self) -> &str {
            "even"
        }

        fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
            let n = ctx.jobs().len().max(1) as u32;
            let share = ctx.total_containers() / n;
            plan.extend(ctx.jobs().iter().map(|j| (j.id, share)));
        }
    }

    struct NeedsOracle;

    impl Scheduler for NeedsOracle {
        fn name(&self) -> &str {
            "oracle-test"
        }

        fn requires_oracle(&self) -> bool {
            true
        }

        fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
            for j in ctx.jobs() {
                assert!(j.oracle.is_some(), "oracle missing despite requires_oracle");
            }
            plan.extend(ctx.jobs().iter().map(|j| (j.id, j.max_useful_allocation())));
        }
    }

    /// Grants like `Greedy`, logging per pass whether the plan arrived
    /// empty and how many entries it left in it.
    struct EmptyPlanProbe(std::rc::Rc<std::cell::RefCell<Vec<(bool, usize)>>>);

    impl Scheduler for EmptyPlanProbe {
        fn name(&self) -> &str {
            "empty-plan-probe"
        }

        fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
            let arrived_empty = plan.is_empty();
            Greedy.allocate_into(ctx, plan);
            self.0
                .borrow_mut()
                .push((arrived_empty, plan.entries().len()));
        }
    }

    fn map_job(arrival: u64, tasks: u32, dur_secs: u64) -> JobSpec {
        JobSpec::builder()
            .arrival(SimTime::from_secs(arrival))
            .stage(StageSpec::uniform(
                StageKind::Map,
                tasks,
                TaskSpec::new(SimDuration::from_secs(dur_secs)),
            ))
            .build()
    }

    fn two_stage_job(arrival: u64) -> JobSpec {
        JobSpec::builder()
            .arrival(SimTime::from_secs(arrival))
            .stage(StageSpec::uniform(
                StageKind::Map,
                4,
                TaskSpec::new(SimDuration::from_secs(10)),
            ))
            .stage(StageSpec::uniform(
                StageKind::Reduce,
                2,
                TaskSpec::new(SimDuration::from_secs(10)).with_containers(2),
            ))
            .build()
    }

    #[test]
    fn every_pass_hands_the_scheduler_an_empty_plan() {
        // Overlapping jobs keep the plan non-empty pass after pass, so a
        // recycled buffer that was not cleared would arrive full.
        let log = std::rc::Rc::default();
        let report = Simulation::builder()
            .cluster(ClusterConfig::single_node(4))
            .jobs(vec![map_job(0, 6, 5), map_job(1, 6, 5), map_job(3, 3, 5)])
            .build(EmptyPlanProbe(std::rc::Rc::clone(&log)))
            .unwrap()
            .run();
        assert!(report.all_completed());
        let log = log.borrow();
        assert_eq!(log.len() as u64, report.stats().scheduling_passes);
        let refilled = log.windows(2).filter(|w| w[0].1 > 0).count();
        assert!(
            refilled >= 3,
            "too few passes follow a non-empty plan: {log:?}"
        );
        assert!(
            log.iter().all(|&(arrived_empty, _)| arrived_empty),
            "a plan arrived with the previous pass's entries: {log:?}"
        );
    }

    #[test]
    fn lone_job_matches_isolated_runtime() {
        let report = Simulation::builder()
            .cluster(ClusterConfig::single_node(4))
            .job(two_stage_job(0))
            .build(Greedy)
            .unwrap()
            .run();
        let o = &report.outcomes()[0];
        assert!(report.all_completed());
        assert_eq!(o.response().unwrap(), o.isolated);
        assert_eq!(o.slowdown().unwrap(), 1.0);
    }

    #[test]
    fn reduce_waits_for_all_maps() {
        // 4 maps of 10 s on 8 containers finish together at t=10; reduces
        // (2 × 10 s, width 2) then run in parallel: makespan 20 s.
        let report = Simulation::builder()
            .cluster(ClusterConfig::single_node(8))
            .job(two_stage_job(0))
            .build(Greedy)
            .unwrap()
            .run();
        assert_eq!(
            report.outcomes()[0].response().unwrap(),
            SimDuration::from_secs(20)
        );
    }

    #[test]
    fn greedy_serializes_competing_jobs() {
        // Two 4-task jobs on 4 containers: FIFO finishes them at 10 and 20 s.
        let report = Simulation::builder()
            .cluster(ClusterConfig::single_node(4))
            .jobs(vec![map_job(0, 4, 10), map_job(0, 4, 10)])
            .build(Greedy)
            .unwrap()
            .run();
        let responses: Vec<f64> = report
            .outcomes()
            .iter()
            .map(|o| o.response().unwrap().as_secs_f64())
            .collect();
        assert_eq!(responses, vec![10.0, 20.0]);
    }

    #[test]
    fn even_split_shares_cluster() {
        // Two 8-task jobs on 4 containers under an even split: each runs 2
        // containers, 8 tasks × 10 s / 2 = 40 s for both.
        let report = Simulation::builder()
            .cluster(ClusterConfig::single_node(4))
            .jobs(vec![map_job(0, 8, 10), map_job(0, 8, 10)])
            .build(EvenSplit)
            .unwrap()
            .run();
        for o in report.outcomes() {
            assert_eq!(o.response().unwrap().as_secs_f64(), 40.0);
        }
    }

    #[test]
    fn admission_limit_defers_jobs() {
        let report = Simulation::builder()
            .cluster(ClusterConfig::single_node(4))
            .admission_limit(1)
            .jobs(vec![map_job(0, 4, 10), map_job(0, 4, 10)])
            .build(Greedy)
            .unwrap()
            .run();
        let second = &report.outcomes()[1];
        // Admitted only when the first finished at t=10.
        assert_eq!(second.admitted_at.unwrap(), SimTime::from_secs(10));
        assert_eq!(second.finish.unwrap(), SimTime::from_secs(20));
    }

    #[test]
    fn utilization_integral_matches_work_done() {
        let report = Simulation::builder()
            .cluster(ClusterConfig::single_node(4))
            .jobs(vec![map_job(0, 4, 10), map_job(5, 8, 5)])
            .build(Greedy)
            .unwrap()
            .run();
        let stats = report.stats();
        let total_work: f64 = report
            .outcomes()
            .iter()
            .map(|o| o.true_size.as_container_secs())
            .sum();
        let integral = stats.mean_utilization * stats.makespan.as_secs_f64() * 4.0;
        assert!(
            (integral - total_work).abs() < 1e-6,
            "{integral} vs {total_work}"
        );
    }

    #[test]
    fn determinism_same_inputs_same_outcomes() {
        let jobs = vec![map_job(0, 5, 7), map_job(3, 2, 13), map_job(4, 9, 3)];
        let run = || {
            Simulation::builder()
                .cluster(ClusterConfig::new(2, 3))
                .jobs(jobs.clone())
                .build(EvenSplit)
                .unwrap()
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.outcomes(), b.outcomes());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn deadline_truncates_run() {
        let mut sim = Simulation::builder()
            .cluster(ClusterConfig::single_node(1))
            .jobs(vec![map_job(0, 10, 10)]) // needs 100 s alone
            .build(Greedy)
            .unwrap();
        sim.run_until(SimTime::from_secs(15));
        let report = sim.into_report();
        assert!(!report.all_completed());
        assert_eq!(report.completed_count(), 0);
    }

    #[test]
    fn oracle_gating_enforced() {
        // The scheduler's declaration is the only switch: `NeedsOracle`
        // sees sizes (its `allocate_into` asserts so) without any option,
        // and a scheduler that does not declare it keeps none to show.
        let build = || Simulation::builder().job(map_job(0, 1, 1));
        assert!(build().build(NeedsOracle).unwrap().run().all_completed());
        assert!(build().build(Greedy).unwrap().jobs.oracle_size.is_none());
    }

    #[test]
    fn invalid_job_rejected_at_build() {
        let bad = JobSpec::builder().build();
        let err = Simulation::builder().job(bad).build(Greedy).unwrap_err();
        assert!(matches!(err, SimError::InvalidJob { job_index: 0, .. }));
    }

    /// Stage ids are `u16`: a job with one stage more than they can number
    /// is refused, and a job with exactly as many runs to completion.
    #[test]
    fn stage_count_is_capped_at_what_stage_ids_number() {
        let stage = StageSpec::uniform(
            StageKind::Map,
            1,
            TaskSpec::new(SimDuration::from_millis(1)),
        );
        let job = |stages: usize| {
            JobSpec::builder()
                .stages(vec![stage.clone(); stages])
                .build()
        };
        let err = Simulation::builder()
            .job(job(JobSpec::MAX_STAGES + 1))
            .build(Greedy)
            .unwrap_err();
        assert!(
            matches!(&err, SimError::InvalidJob { job_index: 0, reason } if reason.contains("limit of 65536")),
            "{err}"
        );
        let mut sim = Simulation::builder()
            .cluster(ClusterConfig::single_node(1))
            .job(job(JobSpec::MAX_STAGES))
            .build(Greedy)
            .unwrap();
        sim.run_until(SimTime::from_secs(3_600));
        assert!(sim.into_report().all_completed());
    }

    #[test]
    fn zero_quantum_rejected() {
        let err = Simulation::builder()
            .quantum(SimDuration::ZERO)
            .build(Greedy)
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
    }

    #[test]
    fn speculation_rescues_straggler() {
        // 3 fast tasks (10 s) + 1 straggler (100 s) on a roomy cluster.
        let stage = StageSpec::new(
            StageKind::Map,
            vec![
                TaskSpec::new(SimDuration::from_secs(10)),
                TaskSpec::new(SimDuration::from_secs(10)),
                TaskSpec::new(SimDuration::from_secs(10)),
                TaskSpec::new(SimDuration::from_secs(100)),
            ],
        );
        let job = JobSpec::builder().stage(stage).build();
        let base = Simulation::builder()
            .cluster(ClusterConfig::single_node(8))
            .job(job.clone())
            .build(Greedy)
            .unwrap()
            .run();
        assert_eq!(
            base.outcomes()[0].response().unwrap(),
            SimDuration::from_secs(100)
        );

        let spec = Simulation::builder()
            .cluster(ClusterConfig::single_node(8))
            .speculation(SpeculationConfig::enabled(3, 1.5))
            .job(job)
            .build(Greedy)
            .unwrap()
            .run();
        assert!(spec.stats().speculative_launched >= 1);
        assert!(spec.stats().speculative_won >= 1);
        let rescued = spec.outcomes()[0].response().unwrap();
        assert!(
            rescued < SimDuration::from_secs(100),
            "speculation should beat the straggler, got {rescued}"
        );
    }

    #[test]
    fn stage_transfer_delays_gate_task_starts() {
        // Map 10 s, then a 30 s inter-DC shuffle, then reduce 5 s.
        let job = JobSpec::builder()
            .stage(StageSpec::uniform(
                StageKind::Map,
                2,
                TaskSpec::new(SimDuration::from_secs(10)),
            ))
            .stage(
                StageSpec::uniform(
                    StageKind::Reduce,
                    2,
                    TaskSpec::new(SimDuration::from_secs(5)),
                )
                .with_start_delay(SimDuration::from_secs(30)),
            )
            .build();
        let report = Simulation::builder()
            .cluster(ClusterConfig::single_node(4))
            .job(job)
            .build(Greedy)
            .unwrap()
            .run();
        let o = &report.outcomes()[0];
        assert_eq!(o.response().unwrap(), SimDuration::from_secs(45));
        // The delay is part of the isolated runtime too, so slowdown = 1.
        assert_eq!(o.slowdown().unwrap(), 1.0);
    }

    #[test]
    fn delayed_stage_frees_the_cluster_for_others() {
        // Job 0 enters its 100 s transfer at t=10; job 1 (arriving at 5)
        // must use the idle cluster meanwhile, not wait behind the barrier.
        let delayed = JobSpec::builder()
            .stage(StageSpec::uniform(
                StageKind::Map,
                2,
                TaskSpec::new(SimDuration::from_secs(10)),
            ))
            .stage(
                StageSpec::uniform(
                    StageKind::Reduce,
                    2,
                    TaskSpec::new(SimDuration::from_secs(5)),
                )
                .with_start_delay(SimDuration::from_secs(100)),
            )
            .build();
        let compact = JobSpec::builder()
            .arrival(SimTime::from_secs(5))
            .stage(StageSpec::uniform(
                StageKind::Map,
                2,
                TaskSpec::new(SimDuration::from_secs(10)),
            ))
            .build();
        let report = Simulation::builder()
            .cluster(ClusterConfig::single_node(2))
            .jobs(vec![delayed, compact])
            .build(Greedy)
            .unwrap()
            .run();
        // Job 1 runs inside job 0's transfer window: 10 (wait for maps) +
        // 10 (own wave) = finishes at 20, long before job 0's 115.
        assert_eq!(report.outcomes()[1].finish.unwrap(), SimTime::from_secs(20));
        assert_eq!(
            report.outcomes()[0].finish.unwrap(),
            SimTime::from_secs(115)
        );
    }

    #[test]
    fn failure_injection_retries_until_success() {
        let jobs = vec![map_job(0, 10, 10)];
        let clean = Simulation::builder()
            .cluster(ClusterConfig::single_node(4))
            .jobs(jobs.clone())
            .build(Greedy)
            .unwrap()
            .run();
        let flaky = Simulation::builder()
            .cluster(ClusterConfig::single_node(4))
            .failures(FailureConfig::with_probability(0.3, 99))
            .jobs(jobs)
            .build(Greedy)
            .unwrap()
            .run();
        assert!(flaky.all_completed(), "failures must not lose jobs");
        assert!(
            flaky.stats().tasks_failed > 0,
            "0.3 over 10+ attempts should fail some"
        );
        assert!(
            flaky.outcomes()[0].response().unwrap() >= clean.outcomes()[0].response().unwrap(),
            "retries cannot speed a job up"
        );
        // Same seed, same failures: bit-identical reruns.
        let again = Simulation::builder()
            .cluster(ClusterConfig::single_node(4))
            .failures(FailureConfig::with_probability(0.3, 99))
            .jobs(vec![map_job(0, 10, 10)])
            .build(Greedy)
            .unwrap()
            .run();
        assert_eq!(flaky.outcomes(), again.outcomes());
        assert_eq!(flaky.stats(), again.stats());
    }

    #[test]
    fn failure_probability_validated() {
        assert!(std::panic::catch_unwind(|| FailureConfig::with_probability(0.95, 0)).is_err());
        assert!(!FailureConfig::disabled().is_enabled());
        assert!(FailureConfig::with_probability(0.1, 0).is_enabled());
    }

    #[test]
    fn slow_nodes_stretch_task_durations() {
        // One node, marked slow by 3×: a 10 s task takes 30 s.
        let report = Simulation::builder()
            .cluster(ClusterConfig::new(1, 4).with_heterogeneity(1, 3.0))
            .job(map_job(0, 4, 10))
            .build(Greedy)
            .unwrap()
            .run();
        assert_eq!(
            report.outcomes()[0].response().unwrap(),
            SimDuration::from_secs(30)
        );
        // Slowdown is measured against the nominal-speed isolated runtime.
        assert_eq!(report.outcomes()[0].slowdown().unwrap(), 3.0);
    }

    #[test]
    fn heterogeneous_cluster_mixes_speeds() {
        // Two nodes (2 containers each), second node 2× slower; 4 tasks of
        // 10 s run in one wave: two finish at 10 s, two at 20 s.
        let report = Simulation::builder()
            .cluster(ClusterConfig::new(2, 2).with_heterogeneity(1, 2.0))
            .job(map_job(0, 4, 10))
            .build(Greedy)
            .unwrap()
            .run();
        assert_eq!(
            report.outcomes()[0].response().unwrap(),
            SimDuration::from_secs(20)
        );
    }

    #[test]
    fn speculation_can_rescue_slow_node_stragglers() {
        // 8 tasks over 9 fast + 3 slow (5×) containers: tasks landing on
        // the slow node tail out; speculation may re-run them on fast
        // slots and must never make things worse.
        let job = JobSpec::builder()
            .stage(StageSpec::uniform(
                StageKind::Map,
                8,
                TaskSpec::new(SimDuration::from_secs(10)),
            ))
            .build();
        let cluster = ClusterConfig::new(4, 3).with_heterogeneity(1, 5.0);
        let base = Simulation::builder()
            .cluster(cluster)
            .job(job.clone())
            .build(Greedy)
            .unwrap()
            .run();
        let spec = Simulation::builder()
            .cluster(cluster)
            .speculation(SpeculationConfig::enabled(3, 1.5))
            .job(job)
            .build(Greedy)
            .unwrap()
            .run();
        assert!(
            spec.outcomes()[0].response().unwrap() <= base.outcomes()[0].response().unwrap(),
            "speculation must not hurt the straggling job"
        );
    }

    #[test]
    fn boxed_scheduler_works() {
        let boxed: Box<dyn Scheduler> = Box::new(Greedy);
        let report = Simulation::builder()
            .cluster(ClusterConfig::single_node(2))
            .job(map_job(0, 2, 5))
            .build(boxed)
            .unwrap()
            .run();
        assert!(report.all_completed());
        assert_eq!(report.scheduler(), "greedy");
    }

    #[test]
    fn journal_records_the_full_lifecycle() {
        let report = Simulation::builder()
            .cluster(ClusterConfig::single_node(4))
            .record_journal(true)
            .jobs(vec![two_stage_job(0), map_job(3, 2, 5)])
            .build(Greedy)
            .unwrap()
            .run();
        let journal = report.journal().expect("journal was requested");
        use crate::journal::SimEvent as E;
        let count = |pred: fn(&E) -> bool| journal.count_where(pred);
        assert_eq!(count(|e| matches!(e, E::JobSubmitted { .. })), 2);
        assert_eq!(count(|e| matches!(e, E::JobAdmitted { .. })), 2);
        assert_eq!(count(|e| matches!(e, E::JobCompleted { .. })), 2);
        // two_stage_job: 4 maps + 2 reduces; map_job: 2 tasks.
        assert_eq!(count(|e| matches!(e, E::TaskStarted { .. })), 8);
        assert_eq!(count(|e| matches!(e, E::TaskFinished { .. })), 8);
        // One stage boundary (map -> reduce) for the two-stage job.
        assert_eq!(count(|e| matches!(e, E::StageCompleted { .. })), 1);
        // Events are chronological.
        for pair in journal.events().windows(2) {
            assert!(pair[0].at() <= pair[1].at());
        }
    }

    #[test]
    fn journal_is_off_by_default() {
        let report = Simulation::builder()
            .cluster(ClusterConfig::single_node(2))
            .job(map_job(0, 1, 1))
            .build(Greedy)
            .unwrap()
            .run();
        assert!(report.journal().is_none());
    }

    #[test]
    fn journal_captures_failures() {
        let report = Simulation::builder()
            .cluster(ClusterConfig::single_node(4))
            .record_journal(true)
            .failures(FailureConfig::with_probability(0.4, 7))
            .jobs(vec![map_job(0, 8, 10)])
            .build(Greedy)
            .unwrap()
            .run();
        let journal = report.journal().unwrap();
        use crate::journal::SimEvent as E;
        let failed = journal.count_where(|e| matches!(e, E::TaskFailed { .. }));
        assert_eq!(failed as u64, report.stats().tasks_failed);
        assert!(failed > 0);
        // Starts = successes + failures (every attempt started once).
        let started = journal.count_where(|e| matches!(e, E::TaskStarted { .. }));
        let finished = journal.count_where(|e| matches!(e, E::TaskFinished { .. }));
        assert_eq!(started, finished + failed);
    }

    #[test]
    fn mean_utilization_counts_idle_tail() {
        // Job 0 saturates the cluster until t=10, then the cluster idles
        // until job 1 arrives at t=100 and runs one container for 10 s.
        // The utilization integral must cover the idle window and the tail
        // up to the end of the run, not just up to the last accrual.
        let report = Simulation::builder()
            .cluster(ClusterConfig::single_node(4))
            .jobs(vec![map_job(0, 4, 10), map_job(100, 1, 10)])
            .build(Greedy)
            .unwrap()
            .run();
        let stats = report.stats();
        assert!(stats.makespan >= SimTime::from_secs(110));
        let total_work: f64 = report
            .outcomes()
            .iter()
            .map(|o| o.true_size.as_container_secs())
            .sum();
        let integral = stats.mean_utilization * stats.makespan.as_secs_f64() * 4.0;
        assert!(
            (integral - total_work).abs() < 1e-6,
            "{integral} vs {total_work}"
        );
    }

    #[test]
    fn telemetry_is_off_by_default() {
        let report = Simulation::builder()
            .cluster(ClusterConfig::single_node(2))
            .job(map_job(0, 1, 1))
            .build(Greedy)
            .unwrap()
            .run();
        assert!(report.telemetry().is_none());
    }

    #[test]
    fn telemetry_records_samples_and_admission_decisions() {
        use crate::journal::SimEvent as E;
        let report = Simulation::builder()
            .cluster(ClusterConfig::single_node(4))
            .admission_limit(1)
            .record_telemetry(true)
            .jobs(vec![map_job(0, 4, 10), map_job(0, 4, 10)])
            .build(Greedy)
            .unwrap()
            .run();
        let tel = report.telemetry().expect("telemetry was requested");
        assert!(!tel.samples().is_empty());
        for pair in tel.samples().windows(2) {
            assert!(pair[0].at < pair[1].at, "one sample per timestamp");
        }
        for s in tel.samples() {
            assert_eq!(s.total_containers, 4);
            assert!(s.used_containers <= s.total_containers);
            assert!((0.0..=1.0).contains(&s.utilization()));
        }
        // Job 1 is deferred behind the admission cap, then admitted when
        // job 0 finishes at t=10.
        let decisions = tel.decisions();
        assert_eq!(
            decisions.count_where(|d| matches!(d, E::AdmissionDeferred { .. })),
            1
        );
        assert_eq!(
            decisions.count_where(|d| matches!(d, E::JobAdmitted { .. })),
            2
        );
        let waited: Vec<SimDuration> = decisions
            .into_iter()
            .filter_map(|d| match *d {
                E::JobAdmitted { waited, .. } => Some(waited),
                _ => None,
            })
            .collect();
        assert_eq!(waited, vec![SimDuration::ZERO, SimDuration::from_secs(10)]);
        // Some sample observed the backlog.
        assert!(tel.samples().iter().any(|s| s.waiting_jobs == 1));
    }

    #[test]
    fn telemetry_counts_speculation() {
        use crate::journal::SimEvent as E;
        let stage = StageSpec::new(
            StageKind::Map,
            vec![
                TaskSpec::new(SimDuration::from_secs(10)),
                TaskSpec::new(SimDuration::from_secs(10)),
                TaskSpec::new(SimDuration::from_secs(10)),
                TaskSpec::new(SimDuration::from_secs(100)),
            ],
        );
        let report = Simulation::builder()
            .cluster(ClusterConfig::single_node(8))
            .speculation(SpeculationConfig::enabled(3, 1.5))
            .record_telemetry(true)
            .job(JobSpec::builder().stage(stage).build())
            .build(Greedy)
            .unwrap()
            .run();
        let tel = report.telemetry().unwrap();
        let decisions = tel.decisions();
        let launched = decisions.count_where(|d| matches!(d, E::SpeculativeLaunched { .. }));
        let won = decisions.count_where(|d| matches!(d, E::SpeculativeWon { .. }));
        assert_eq!(launched as u64, report.stats().speculative_launched);
        assert_eq!(won as u64, report.stats().speculative_won);
        assert!(won >= 1);
    }

    #[test]
    fn telemetry_plumbs_scheduler_queue_state() {
        use crate::journal::SimEvent as E;
        use crate::telemetry::QueueDemotion;
        /// Greedy allocation plus a fake two-queue structure that demotes
        /// every job once, to exercise the trait plumbing end to end.
        struct FakeMlq {
            demoted: Vec<JobId>,
            pending: Vec<QueueDemotion>,
            jobs: u32,
        }
        impl Scheduler for FakeMlq {
            fn name(&self) -> &str {
                "fake-mlq"
            }
            fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
                self.jobs = ctx.jobs().len() as u32;
                for j in ctx.jobs() {
                    if !self.demoted.contains(&j.id) {
                        self.demoted.push(j.id);
                        self.pending.push(QueueDemotion {
                            job: j.id,
                            from_queue: 0,
                            to_queue: 1,
                            effective: j.attained,
                        });
                    }
                }
                plan.extend(ctx.jobs().iter().map(|j| (j.id, j.max_useful_allocation())));
            }
            fn queue_depths(&self) -> Option<Vec<u32>> {
                Some(vec![0, self.jobs])
            }
            fn drain_demotions(&mut self) -> Vec<QueueDemotion> {
                std::mem::take(&mut self.pending)
            }
        }
        let report = Simulation::builder()
            .cluster(ClusterConfig::single_node(4))
            .record_telemetry(true)
            .jobs(vec![map_job(0, 2, 5), map_job(1, 2, 5)])
            .build(FakeMlq {
                demoted: Vec::new(),
                pending: Vec::new(),
                jobs: 0,
            })
            .unwrap()
            .run();
        let tel = report.telemetry().unwrap();
        assert_eq!(
            tel.decisions()
                .count_where(|d| matches!(d, E::JobDemoted { .. })),
            2
        );
        assert!(tel.samples().iter().all(|s| s.queue_depths.len() == 2));
        assert_eq!(tel.queue_columns(), 2);
    }

    #[test]
    fn telemetry_decisions_are_the_journal_filtered_by_tag() {
        use crate::journal::SimEvent as E;
        use crate::telemetry::QueueDemotion;
        /// First-come first-served, demoting every job once, the first
        /// time it sees it.
        struct DemotingGreedy {
            seen: Vec<JobId>,
            pending: Vec<QueueDemotion>,
        }
        impl Scheduler for DemotingGreedy {
            fn name(&self) -> &str {
                "demoting-greedy"
            }
            fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
                for j in ctx.jobs() {
                    if !self.seen.contains(&j.id) {
                        self.seen.push(j.id);
                        self.pending.push(QueueDemotion {
                            job: j.id,
                            from_queue: 0,
                            to_queue: 1,
                            effective: j.attained,
                        });
                    }
                }
                Greedy.allocate_into(ctx, plan)
            }
            fn drain_demotions(&mut self) -> Vec<QueueDemotion> {
                std::mem::take(&mut self.pending)
            }
        }
        // Job 0's last task straggles (speculation), job 2 waits behind
        // the cap of two (admission).
        let straggler = JobSpec::builder()
            .stage(StageSpec::new(
                StageKind::Map,
                [10, 10, 10, 100]
                    .map(|secs| TaskSpec::new(SimDuration::from_secs(secs)))
                    .to_vec(),
            ))
            .build();
        let report = Simulation::builder()
            .cluster(ClusterConfig::single_node(8))
            .admission_limit(2)
            .speculation(SpeculationConfig::enabled(3, 1.5))
            .record_journal(true)
            .record_telemetry(true)
            .jobs(vec![straggler, map_job(20, 2, 5), map_job(21, 2, 5)])
            .build(DemotingGreedy {
                seen: Vec::new(),
                pending: Vec::new(),
            })
            .unwrap()
            .run();
        assert!(report.all_completed());
        let journal = report.journal().unwrap();
        let decisions = report.telemetry().unwrap().decisions();
        let filtered: Vec<E> = journal
            .into_iter()
            .filter(|e| e.decision_tag().is_some())
            .copied()
            .collect();
        assert_eq!(decisions.events(), filtered.as_slice());
        let mut tags: Vec<&str> = decisions.into_iter().filter_map(E::decision_tag).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(
            tags,
            [
                "admission_accept",
                "admission_defer",
                "demote",
                "spec_launch",
                "spec_win"
            ],
            "the run must exercise every decision kind"
        );
    }

    #[test]
    fn invariant_checker_is_off_by_default() {
        let report = Simulation::builder()
            .cluster(ClusterConfig::single_node(2))
            .job(map_job(0, 1, 1))
            .build(Greedy)
            .unwrap()
            .run();
        assert!(report.invariants().is_none());
    }

    #[test]
    fn clean_run_reports_no_violations() {
        let report = Simulation::builder()
            .cluster(ClusterConfig::new(2, 2))
            .check_invariants(true)
            .jobs(vec![two_stage_job(0), map_job(3, 5, 7), map_job(4, 2, 13)])
            .build(Greedy)
            .unwrap()
            .run();
        let inv = report.invariants().expect("checking was enabled");
        assert!(inv.is_clean(), "unexpected violations: {inv}");
        assert!(inv.checks_run > 0);
    }

    #[test]
    fn invariant_checking_does_not_perturb_outcomes() {
        let jobs = vec![map_job(0, 5, 7), map_job(3, 2, 13), map_job(4, 9, 3)];
        let run = |check: bool| {
            Simulation::builder()
                .cluster(ClusterConfig::new(2, 3))
                .check_invariants(check)
                .jobs(jobs.clone())
                .build(EvenSplit)
                .unwrap()
                .run()
        };
        let plain = run(false);
        let checked = run(true);
        assert_eq!(plain.outcomes(), checked.outcomes());
        assert_eq!(plain.stats(), checked.stats());
    }

    #[test]
    fn mutation_corrupted_holdings_are_caught() {
        // Mutation test for the oracle itself: inject an accounting bug
        // mid-run (a phantom container holding, the kind of bug a botched
        // refactor of the refill path would introduce) and require the
        // checker to flag it as a structured violation, not a panic.
        let mut sim = Simulation::builder()
            .cluster(ClusterConfig::single_node(4))
            .check_invariants(true)
            .jobs(vec![map_job(0, 8, 10), map_job(2, 8, 10)])
            .build(Greedy)
            .unwrap();
        assert!(sim.run_until(SimTime::from_secs(5)), "run must be mid-way");
        let clean = sim.invariants.clone().expect("checking was enabled");
        assert_eq!(clean.violations_total, 0, "run was clean before injection");
        sim.jobs.core[0].held += 1; // the injected bug
        sim.run_invariant_checks();
        let inv = sim.invariants.as_ref().unwrap();
        assert!(!inv.is_clean(), "injected bug went undetected");
        assert!(inv.violations.iter().any(|v| matches!(
            v.kind,
            InvariantKind::ContainerConservation | InvariantKind::TaskAccounting
        )));
    }

    #[test]
    fn mutation_corrupted_task_counts_are_caught() {
        let mut sim = Simulation::builder()
            .cluster(ClusterConfig::single_node(4))
            .check_invariants(true)
            .jobs(vec![map_job(0, 8, 10)])
            .build(Greedy)
            .unwrap();
        assert!(sim.run_until(SimTime::from_secs(5)));
        sim.jobs.stage[0].completed += 1; // a lost task completion
        sim.run_invariant_checks();
        let inv = sim.invariants.as_ref().unwrap();
        assert!(inv
            .violations
            .iter()
            .any(|v| v.kind == InvariantKind::TaskAccounting));
    }

    #[test]
    fn mutation_corrupted_attempt_index_is_caught() {
        let mid_run = || {
            let mut sim = Simulation::builder()
                .cluster(ClusterConfig::single_node(4))
                .check_invariants(true)
                .jobs(vec![map_job(0, 8, 10)])
                .build(Greedy)
                .unwrap();
            assert!(sim.run_until(SimTime::from_secs(5)));
            assert!(sim.invariants.as_ref().unwrap().is_clean());
            assert_eq!(sim.jobs.running_at.len(), 4);
            sim
        };
        let index_violations = |sim: &Simulation<Greedy>| {
            let inv = sim.invariants.as_ref().unwrap();
            inv.violations
                .iter()
                .filter(|v| {
                    v.kind == InvariantKind::TaskAccounting && v.detail.contains("attempt index")
                })
                .count()
        };

        // An entry re-pointed at another attempt's position.
        let mut sim = mid_run();
        let key = JobStore::attempt_key(0, sim.jobs.stage[0].running[0].task_idx);
        sim.jobs.running_at.insert(key, 1);
        sim.run_invariant_checks();
        assert_eq!(index_violations(&sim), 1);

        // An entry for an attempt that does not run.
        let mut sim = mid_run();
        sim.jobs.running_at.insert(JobStore::attempt_key(0, 7), 0);
        sim.run_invariant_checks();
        assert_eq!(index_violations(&sim), 1);
    }

    #[test]
    fn mutation_corrupted_serialized_float_is_caught() {
        // `util_integral` is engine state only a snapshot carries: no
        // per-check invariant reads it. NaN serializes as JSON `null`, so
        // the sampled snapshot-fidelity check's re-parse must fail.
        let mut sim = Simulation::builder()
            .cluster(ClusterConfig::single_node(4))
            .check_invariants(true)
            .jobs(vec![map_job(0, 8, 10)])
            .build(Greedy)
            .unwrap();
        assert!(sim.run_until(SimTime::from_secs(5)));
        sim.util_integral = f64::NAN;
        // Every 64th check samples, the first included: run the checks up
        // to the next sample, which must be the one that notices.
        let checks_run = |sim: &Simulation<Greedy>| sim.invariants.as_ref().unwrap().checks_run;
        while !checks_run(&sim).is_multiple_of(64) {
            sim.run_invariant_checks();
        }
        assert!(sim.invariants.as_ref().unwrap().is_clean());
        sim.run_invariant_checks();
        let inv = sim.invariants.as_ref().unwrap();
        assert!(
            inv.violations
                .iter()
                .any(|v| v.kind == InvariantKind::SnapshotFidelity
                    && v.detail.contains("failed to re-parse")),
            "unexpected report: {inv}"
        );
    }

    /// `sim`'s live views audited as a pass audits them: after `corrupt`,
    /// answered with `plan`, each job at the slot `slot_of` gives. Returns
    /// the view-sanity, plan-discipline and work-conservation violations.
    fn audit_live_views(
        sim: &Simulation<Greedy>,
        corrupt: impl Fn(&mut [JobView]),
        plan: &[(u32, u32)],
        slot_of: impl Fn(JobId) -> Option<usize>,
    ) -> [usize; 3] {
        let mut views = sim.views.live().to_vec();
        corrupt(&mut views);
        let ctx = SchedContext::new(sim.now, sim.cluster.config().total_containers(), &views);
        let plan = plan.iter().map(|&(job, n)| (JobId::new(job), n)).collect();
        let mut report = InvariantReport::default();
        report.audit_pass(&ctx, &plan, slot_of, &mut Vec::new());
        [
            InvariantKind::ViewSanity,
            InvariantKind::PlanDiscipline,
            InvariantKind::WorkConservation,
        ]
        .map(|kind| report.violations.iter().filter(|v| v.kind == kind).count())
    }

    /// Two jobs five seconds into a four-container run — job 0 holds the
    /// cluster, job 1 could use eight containers — audited by
    /// [`audit_live_views`] with the cache's own slots.
    fn audit_mid_run(corrupt: impl Fn(&mut [JobView]), plan: &[(u32, u32)]) -> [usize; 3] {
        let mut sim = Simulation::builder()
            .cluster(ClusterConfig::single_node(4))
            .jobs(vec![two_stage_job(0), map_job(0, 8, 10)])
            .build(Greedy)
            .unwrap();
        assert!(sim.run_until(SimTime::from_secs(5)), "run must be mid-way");
        audit_live_views(&sim, corrupt, plan, |id| sim.views.slot(id))
    }

    #[test]
    fn mutation_slot_map_off_by_the_head_is_caught() {
        // Job 0 finishes at 10 s, first of three, so its view retires from
        // the front and leaves a dead prefix; job 1 then holds the cluster.
        let mut sim = Simulation::builder()
            .cluster(ClusterConfig::single_node(4))
            .jobs([2, 8, 8].map(|tasks| map_job(0, tasks, 10)))
            .build(Greedy)
            .unwrap();
        assert!(sim.run_until(SimTime::from_secs(15)), "run must be mid-way");
        assert!(sim.views.has_dead_prefix(), "job 0 retired from the front");
        let plan = [(1, 4)];
        let live_slots = audit_live_views(&sim, |_| {}, &plan, |id| sim.views.slot(id));
        assert_eq!(live_slots, [0, 0, 0]);
        // Positions in the whole buffer put both live jobs one slot late.
        let off_by_head = audit_live_views(&sim, |_| {}, &plan, |id| sim.views.buffer_position(id));
        assert_eq!(off_by_head, [2, 0, 0]);
    }

    #[test]
    fn mutation_corrupted_view_is_caught() {
        let audit = |corrupt: &dyn Fn(&mut [JobView])| audit_mid_run(corrupt, &[(0, 4)]);
        assert_eq!(audit(&|_| {}), [0, 0, 0]);
        assert_eq!(audit(&|v| v[0].stage_progress = 1.5), [1, 0, 0]);
        assert_eq!(audit(&|v| v[0].stage_progress = f64::NAN), [1, 0, 0]);
        assert_eq!(audit(&|v| v[1].remaining_tasks = 0), [1, 0, 0]);
        let much = Service::from_container_secs(1e6);
        assert_eq!(audit(&|v| v[0].attained_stage = much), [1, 0, 0]);
        assert_eq!(audit(&|v| v[0].stage_index = 2), [1, 0, 0]);
        assert_eq!(audit(&|v| v[0].held = 5), [1, 0, 0]);
        // A second view of job 0, in job 1's slot.
        let second = |v: &mut [JobView]| {
            v[1] = JobView {
                held: 0,
                ..v[0].clone()
            }
        };
        assert_eq!(audit(&second), [1, 0, 0]);
    }

    #[test]
    fn mutation_undisciplined_plan_is_caught() {
        let audit = |plan| audit_mid_run(|_| {}, plan);
        // Every job its full demand: each within what it can use, the sum
        // three times the cluster.
        assert_eq!(audit(&[(0, 4), (1, 8)]), [0, 1, 0]);
        assert_eq!(audit(&[(0, 4), (7, 0)]), [0, 1, 0], "an unknown job");
        assert_eq!(audit(&[(0, 5)]), [0, 2, 0], "past demand and capacity");
        assert_eq!(audit(&[(0, 9), (0, 4)]), [0, 0, 0], "the last entry wins");
        // And from inside a run, under the scheduler that plans like the
        // first: `NeedsOracle` hands every job its full demand.
        let report = Simulation::builder()
            .cluster(ClusterConfig::single_node(4))
            .check_invariants(true)
            .jobs(vec![map_job(0, 8, 10), map_job(0, 8, 10)])
            .build(NeedsOracle)
            .unwrap()
            .run();
        let inv = report.invariants().expect("checking was enabled");
        assert!(!inv.is_clean());
        assert!(inv.violations.iter().all(|v| {
            v.kind == InvariantKind::PlanDiscipline && v.detail.contains("of 4 containers")
        }));
    }

    #[test]
    fn mutation_lazy_plan_is_caught_as_laziness_only() {
        assert_eq!(audit_mid_run(|_| {}, &[]), [0, 0, 1]);
        assert_eq!(audit_mid_run(|_| {}, &[(0, 3)]), [0, 0, 1]);
    }

    /// Hands the whole cluster to a different job every few passes, so the
    /// holdings of every job keep shrinking and regrowing.
    struct Rotating {
        cursor: usize,
    }

    impl Scheduler for Rotating {
        fn name(&self) -> &str {
            "rotating"
        }
        /// Declared so the oracle's running-attempt accrual is covered too.
        fn requires_oracle(&self) -> bool {
            true
        }
        fn snapshot_state(&self) -> Option<String> {
            Some(self.cursor.to_string())
        }
        fn restore_state(&mut self, state: &str) -> Result<(), String> {
            self.cursor = state.parse().map_err(|e| format!("bad cursor: {e}"))?;
            Ok(())
        }
        fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
            self.cursor += 1;
            let jobs = ctx.jobs();
            let mut budget = ctx.total_containers();
            for k in 0..jobs.len() {
                let job = &jobs[(k + self.cursor / 4) % jobs.len()];
                let grant = job.max_useful_allocation().min(budget);
                plan.push(job.id, grant);
                budget -= grant;
            }
        }
    }

    #[test]
    fn attempt_index_survives_every_removal_path_and_a_restore() {
        // Failures, completions and speculative supersession all edit
        // `running`; the run is also cut mid-flight, so the index is
        // rebuilt from a snapshot with attempts of every kind in it.
        let straggly = |arrival: u64, tasks: usize| {
            let mut specs = vec![TaskSpec::new(SimDuration::from_secs(4)); tasks];
            specs[tasks - 1] = TaskSpec::new(SimDuration::from_secs(60));
            JobSpec::builder()
                .arrival(SimTime::from_secs(arrival))
                .stage(StageSpec::new(StageKind::Map, specs))
                .stage(StageSpec::uniform(
                    StageKind::Reduce,
                    2,
                    TaskSpec::new(SimDuration::from_secs(6)).with_containers(2),
                ))
                .build()
        };
        let build = || {
            Simulation::builder()
                .cluster(ClusterConfig::new(2, 4))
                .failures(FailureConfig::with_probability(0.2, 7))
                .speculation(SpeculationConfig::enabled(2, 1.5))
                .check_invariants(true)
                .record_journal(true)
                .jobs(vec![
                    straggly(0, 9),
                    straggly(1, 5),
                    straggly(3, 12),
                    straggly(20, 6),
                ])
                .build(Rotating { cursor: 0 })
                .unwrap()
        };
        let uninterrupted = build().run();
        let stats = uninterrupted.stats();
        assert!(stats.tasks_failed > 0, "{stats:?}");
        assert!(stats.speculative_won > 0, "{stats:?}");
        assert!(uninterrupted.all_completed());
        let inv = uninterrupted.invariants().unwrap();
        assert!(inv.is_clean(), "{inv}");

        let mut cuts = 0;
        for cut in [5, 12, 30, 55] {
            let mut sim = build();
            assert!(sim.run_until(SimTime::from_secs(cut)));
            cuts += sim.jobs.running_at.len();
            assert!(sim.jobs.oracle_size.is_some());
            let snap = SimSnapshot::from_json(&sim.snapshot().to_json()).unwrap();
            let resumed = Simulation::restore(snap, Rotating { cursor: 0 }).unwrap();
            assert_eq!(resumed.jobs.running_at, sim.jobs.running_at);
            assert_eq!(resumed.jobs.oracle_size, sim.jobs.oracle_size);
            let resumed = resumed.run();
            assert_eq!(
                serde_json::to_string(&resumed).unwrap(),
                serde_json::to_string(&uninterrupted).unwrap(),
                "cut at {cut} s"
            );
        }
        assert!(cuts > 0, "no cut caught an attempt in flight");
    }

    #[test]
    fn median_memo_agrees_with_reselection_through_every_change() {
        // Unequal durations, so the median moves as tasks finish; two
        // stages, so the vector is cleared mid-job — and the second job's
        // reduce stage is first asked at the length its map stage was last
        // asked at, with other contents; failures, so batches pass in
        // which a job's tasks end without the vector changing.
        const MIN_COMPLETED: u32 = 4;
        let job = |arrival: u64, maps: u64, reduces: u32| {
            let maps = (0..maps)
                .map(|k| TaskSpec::new(SimDuration::from_secs(2 + (k * 7 + arrival) % 9)))
                .collect();
            JobSpec::builder()
                .arrival(SimTime::from_secs(arrival))
                .stage(StageSpec::new(StageKind::Map, maps))
                .stage(StageSpec::uniform(
                    StageKind::Reduce,
                    reduces,
                    TaskSpec::new(SimDuration::from_secs(5)).with_containers(2),
                ))
                .build()
        };
        let build = |speculation| {
            Simulation::builder()
                .cluster(ClusterConfig::new(2, 4))
                .failures(FailureConfig::with_probability(0.25, 3))
                .speculation(speculation)
                .jobs(vec![job(0, 14, 3), job(2, 5, 8), job(3, 11, 3)])
                .build(EvenSplit)
                .unwrap()
        };

        let mut sim = build(SpeculationConfig::enabled(MIN_COMPLETED, 1.2));
        let horizon = SimTime::from_millis(u64::MAX);
        let mut scratch = Vec::new();
        let (mut reused, mut reselected, mut stage_advances) = (0, 0, 0);
        let mut last_stage = vec![0; sim.jobs.len()];
        while sim.step_batch(horizon) {
            for (i, last) in last_stage.iter_mut().enumerate() {
                let stage = sim.jobs.core[i].stage_index;
                stage_advances += usize::from(stage != *last);
                *last = stage;
                let durations = sim.jobs.stage[i].completed_durations.clone();
                if sim.jobs.core[i].finished() {
                    assert!(durations.is_empty(), "job {i} kept durations past its end");
                    continue;
                }
                // Ask when speculation would.
                if durations.len() < MIN_COMPLETED as usize {
                    continue;
                }
                let before = sim.jobs.median_memo.get(i).copied();
                let got = sim.jobs.completed_median(i, &mut scratch);
                assert_eq!(got, median_duration(&mut scratch, &durations), "job {i}");
                match before {
                    Some(m) if (m.stage, m.len) == (stage as u32, durations.len() as u32) => {
                        reused += 1
                    }
                    _ => reselected += 1,
                }
            }
        }
        assert!(reused > 0 && reselected > 0, "{reused} / {reselected}");
        assert_eq!(stage_advances, 3);
        assert_eq!(sim.finished_jobs(), 3);
        let stats = *sim.stats();
        assert!(stats.tasks_failed > 0, "{stats:?}");
        assert!(stats.speculative_launched > 0, "{stats:?}");

        // A restore starts from an empty table, and a run that never
        // speculates never allocates one.
        let mut paused = build(SpeculationConfig::enabled(MIN_COMPLETED, 1.2));
        assert!(paused.run_until(SimTime::from_secs(20)));
        assert!(!paused.jobs.median_memo.is_empty());
        let resumed = Simulation::restore(paused.snapshot(), EvenSplit).unwrap();
        assert!(resumed.jobs.median_memo.is_empty());
        let mut plain = build(SpeculationConfig::disabled());
        while plain.step_batch(horizon) {}
        assert_eq!(plain.jobs.median_memo.capacity(), 0);
    }

    /// `StageRt::progress` as it was before terms were reused: one term
    /// computed per attempt. The model the memoized body is held to.
    fn plain_progress(st: &StageRt, now: SimTime) -> f64 {
        if st.total == 0 {
            return 1.0;
        }
        let mut units = st.completed as f64;
        for r in &st.running {
            let span = r.finish.saturating_since(r.started).as_secs_f64();
            if span > 0.0 {
                let elapsed = now.saturating_since(r.started).as_secs_f64();
                units += (elapsed / span).min(1.0);
            }
        }
        (units / st.total as f64).min(1.0)
    }

    #[test]
    fn progress_term_reuse_is_bit_exact() {
        let mut state = 0x5eed_u64;
        let mut next = |bound: u64| {
            state = splitmix64(state);
            state % bound
        };
        for case in 0..400 {
            // A few launch waves — attempts of one wave share `(started,
            // finish)` — drawn from a coarse grid so that distinct waves
            // often share one of the two, with zero-span attempts mixed in.
            let waves: Vec<(u64, u64)> = (0..1 + next(5))
                .map(|_| {
                    let started = next(4) * 9_000;
                    let finish = started.max(next(6) * 9_000) + next(2) * next(7_000);
                    (started, finish)
                })
                .collect();
            let mut running: Vec<RunningTask> = Vec::new();
            for _ in 0..next(60) {
                // Runs of equal pairs, as one pass launches them, or
                // interleaved ones, as refills between passes do.
                let (started, finish) = waves[next(waves.len() as u64) as usize];
                for _ in 0..1 + next(8) * (case % 2) {
                    running.push(RunningTask {
                        task_idx: running.len(),
                        attempt: 0,
                        node: NodeId::new(0),
                        containers: 1,
                        started: SimTime::from_millis(started),
                        finish: SimTime::from_millis(finish),
                        will_fail: false,
                        spec_copy: None,
                    });
                }
            }
            // The orders `swap_remove` leaves behind.
            for _ in 0..next(20) {
                if !running.is_empty() {
                    running.swap_remove(next(running.len() as u64) as usize);
                }
            }
            let completed = next(40) as u32;
            let total = match case % 7 {
                0 => 0,
                _ => completed + running.len() as u32 + next(30) as u32,
            };
            let st = StageRt {
                total,
                next_unstarted: 0,
                completed,
                running,
                requeued: Vec::new(),
                completed_durations: Vec::new(),
                ready_at: SimTime::ZERO,
            };
            // Before, between, exactly at and past the waves' bounds.
            let mut nows: Vec<u64> = (0..12).map(|_| next(70_000)).collect();
            nows.extend(waves.iter().flat_map(|&(s, f)| [s, f, f + 1]));
            for now in nows {
                let now = SimTime::from_millis(now);
                assert_eq!(
                    st.progress(now).to_bits(),
                    plain_progress(&st, now).to_bits(),
                    "case {case} at {now}: {:?}",
                    st.running
                        .iter()
                        .map(|r| (r.started, r.finish))
                        .collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn scheduler_consistency_errors_become_violations() {
        /// Greedy allocation plus an always-failing self check.
        struct BrokenQueues;
        impl Scheduler for BrokenQueues {
            fn name(&self) -> &str {
                "broken-queues"
            }
            fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
                plan.extend(ctx.jobs().iter().map(|j| (j.id, j.max_useful_allocation())));
            }
            fn check_consistency(&self) -> Result<(), String> {
                Err("job 3 appears in two queues".to_string())
            }
        }
        let report = Simulation::builder()
            .cluster(ClusterConfig::single_node(2))
            .check_invariants(true)
            .job(map_job(0, 2, 5))
            .build(BrokenQueues)
            .unwrap()
            .run();
        let inv = report.invariants().expect("checking was enabled");
        assert!(!inv.is_clean());
        assert!(inv
            .violations
            .iter()
            .any(|v| v.kind == InvariantKind::QueueConsistency && v.detail.contains("two queues")));
    }

    #[test]
    fn invariant_state_survives_snapshot_restore() {
        let jobs = vec![map_job(0, 6, 9), map_job(2, 3, 4)];
        let uninterrupted = Simulation::builder()
            .cluster(ClusterConfig::single_node(3))
            .check_invariants(true)
            .jobs(jobs.clone())
            .build(Greedy)
            .unwrap()
            .run();
        let mut first = Simulation::builder()
            .cluster(ClusterConfig::single_node(3))
            .check_invariants(true)
            .jobs(jobs)
            .build(Greedy)
            .unwrap();
        assert!(first.run_until(SimTime::from_secs(6)));
        let snap = SimSnapshot::from_json(&first.snapshot().to_json()).unwrap();
        let resumed = Simulation::restore(snap, Greedy).unwrap().run();
        let a = uninterrupted.invariants().unwrap();
        let b = resumed.invariants().unwrap();
        assert_eq!(a.checks_run, b.checks_run);
        assert_eq!(a.violations_total, b.violations_total);
        assert_eq!(uninterrupted.outcomes(), resumed.outcomes());
    }

    #[test]
    fn jobs_sorted_by_arrival_get_dense_ids() {
        let report = Simulation::builder()
            .cluster(ClusterConfig::single_node(4))
            .jobs(vec![map_job(20, 1, 1), map_job(0, 1, 1), map_job(10, 1, 1)])
            .build(Greedy)
            .unwrap()
            .run();
        let arrivals: Vec<u64> = report
            .outcomes()
            .iter()
            .map(|o| o.arrival.as_millis())
            .collect();
        assert_eq!(arrivals, vec![0, 10_000, 20_000]);
    }

    /// Six two-stage jobs three seconds apart: enough overlap on a 2×4
    /// cluster that arrivals land while earlier jobs still run.
    fn staggered_jobs() -> Vec<JobSpec> {
        (0..6)
            .map(|i| {
                JobSpec::builder()
                    .arrival(SimTime::from_secs(i * 3))
                    .stage(StageSpec::uniform(
                        StageKind::Map,
                        4,
                        TaskSpec::new(SimDuration::from_secs(7 + i)),
                    ))
                    .stage(StageSpec::uniform(
                        StageKind::Reduce,
                        2,
                        TaskSpec::new(SimDuration::from_secs(5)),
                    ))
                    .build()
            })
            .collect()
    }

    /// `into_report` builds its outcomes after the rest of the engine is
    /// dropped, moving each label out of its spec: every outcome must
    /// equal what `job_outcome` reported just before, drained or paused.
    #[test]
    fn report_outcomes_equal_job_outcome_drained_and_paused() {
        for pause in [None, Some(SimTime::from_secs(10))] {
            let specs = staggered_jobs().into_iter().enumerate().map(|(i, spec)| {
                JobSpec::builder()
                    .arrival(spec.arrival())
                    .priority(1 + i as u8 % 5)
                    .label(format!("job-{i}"))
                    .bin(i as u8)
                    .stages(spec.stages().iter().cloned())
                    .build()
            });
            let mut sim = Simulation::builder()
                .cluster(ClusterConfig::new(2, 4))
                .jobs(specs)
                .build(Greedy)
                .unwrap();
            match pause {
                Some(t) => assert!(sim.run_until(t)),
                None => while sim.step_batch(SimTime::from_millis(u64::MAX)) {},
            }
            let before: Vec<JobOutcome> = (0..sim.total_jobs())
                .map(|i| sim.job_outcome(JobId::new(i as u32)).unwrap())
                .collect();
            assert_eq!(before.iter().all(|o| o.finish.is_some()), pause.is_none());
            assert_eq!(before[5].label, "job-5");
            assert_eq!(sim.into_report().outcomes(), &before[..], "pause {pause:?}");
        }
    }

    /// The stage-buffer pool keeps its set count, keeps reusing buffers
    /// within its cap, and never pools one that holds room for more than
    /// `STAGE_BUF_POOLED_BYTES`, whatever stage it comes from.
    #[test]
    fn harvest_never_pools_a_buffer_above_its_cap() {
        let stage = StageSpec::uniform(StageKind::Map, 1, TaskSpec::new(SimDuration::from_secs(1)));
        for len in [1, 7, 1_170, 1_171, 8_192, 8_193, 100_000] {
            let mut scratch = JobScratch::default();
            for _ in 0..=STAGE_BUF_POOL_CAP {
                let mut st = StageRt::new(&stage, SimTime::ZERO);
                st.running.reserve_exact(len);
                st.requeued.reserve_exact(len);
                st.completed_durations = vec![SimDuration::from_secs(1); len];
                scratch.harvest(&mut st);
                assert!(st.running.capacity() + st.completed_durations.capacity() == 0);
            }
            // A set is pooled while any of its buffers is: the 8-byte ones
            // fit longest.
            let pooled_sets = if len * 8 <= STAGE_BUF_POOLED_BYTES {
                STAGE_BUF_POOL_CAP
            } else {
                0
            };
            assert_eq!(scratch.stage_bufs.len(), pooled_sets, "len {len}");
            for (running, requeued, durations) in &scratch.stage_bufs {
                assert!(durations.is_empty());
                for (capacity, size) in [
                    (running.capacity(), std::mem::size_of::<RunningTask>()),
                    (requeued.capacity(), std::mem::size_of::<usize>()),
                    (durations.capacity(), std::mem::size_of::<SimDuration>()),
                ] {
                    let fits = len * size <= STAGE_BUF_POOLED_BYTES;
                    assert_eq!(capacity, if fits { len } else { 0 }, "len {len}, {size} B");
                }
            }
        }
    }

    #[test]
    fn live_submission_matches_upfront_jobs_byte_for_byte() {
        let upfront = Simulation::builder()
            .cluster(ClusterConfig::new(2, 4))
            .jobs(staggered_jobs())
            .build(Greedy)
            .unwrap()
            .run();
        let mut live = Simulation::builder()
            .cluster(ClusterConfig::new(2, 4))
            .build(Greedy)
            .unwrap();
        // Submitted in arrival order before running, the jobs get the
        // dense ids `build` would have assigned.
        for spec in staggered_jobs() {
            live.submit(spec).unwrap();
        }
        assert_eq!(
            serde_json::to_string(&upfront).unwrap(),
            serde_json::to_string(&live.run()).unwrap()
        );
    }

    #[test]
    fn mid_run_submission_is_clamped_forward_and_finishes() {
        let mut sim = Simulation::builder()
            .cluster(ClusterConfig::new(2, 4))
            .jobs(staggered_jobs())
            .build(Greedy)
            .unwrap();
        assert!(sim.run_until(SimTime::from_secs(4)));
        let paused = sim.now();
        assert!(paused > SimTime::from_secs(1), "paused at {paused:?}");
        // An arrival before the paused clock is moved forward to it, not
        // delivered retroactively.
        let id = sim.submit(map_job(1, 2, 2)).unwrap();
        assert_eq!(id.index(), 6);
        assert_eq!(sim.job_outcome(id).unwrap().arrival, paused);
        let report = sim.run();
        assert!(report.all_completed());
        let late = &report.outcomes()[6];
        assert_eq!(late.arrival, paused);
        assert!(late.finish.is_some());
    }

    /// Least attained service first, greedily within capacity: LAS_MQ's
    /// read of the views (accrued service orders the jobs) without its
    /// queues. `hinted`, it keeps each job's attained service by id and
    /// re-reads only the views a pass lists as changed, as LAS_MQ does;
    /// otherwise it reads every view. `progress` makes it declare
    /// `reads_stage_progress`, which takes the engine off the service-only
    /// refresh.
    #[derive(Default)]
    struct LeastAttained {
        hinted: bool,
        progress: bool,
        seen: Vec<f64>,
    }

    impl Scheduler for LeastAttained {
        fn name(&self) -> &str {
            "least-attained"
        }

        fn reads_stage_progress(&self) -> bool {
            self.progress
        }

        fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
            let jobs = ctx.jobs();
            let mut note = |view: &JobView| {
                let i = view.id.index();
                if i >= self.seen.len() {
                    self.seen.resize(i + 1, 0.0);
                }
                self.seen[i] = view.attained.as_container_secs();
            };
            match ctx.changed().filter(|_| self.hinted) {
                Some(changed) => changed.iter().for_each(|&slot| note(&jobs[slot])),
                None => jobs.iter().for_each(note),
            }
            let mut order: Vec<&JobView> = jobs.iter().collect();
            order.sort_by(|a, b| {
                let key = |v: &JobView| self.seen[v.id.index()];
                key(a).total_cmp(&key(b)).then(a.id.cmp(&b.id))
            });
            let mut budget = ctx.total_containers();
            for view in order {
                let grant = view.max_useful_allocation().min(budget);
                if grant > 0 {
                    plan.push(view.id, grant);
                    budget -= grant;
                }
            }
        }
    }

    /// A ScaleTrace-like slice: `n` jobs arriving 0–2 s apart, each of one
    /// to three stages of 1–10 tasks of 1–15 s on one or two containers.
    /// With `delays`, later stages (and every third job's first) wait
    /// 1–4 s on a transfer delay; `stragglers` makes every seventh task
    /// eight times longer.
    fn scale_slice(n: u64, delays: bool, stragglers: bool) -> Vec<JobSpec> {
        let mut state = 0x5eed;
        let mut draw = |bound: u64| {
            state = splitmix64(state);
            state % bound
        };
        let mut arrival = 0;
        (0..n)
            .map(|job| {
                arrival += draw(3);
                let stages = (0..1 + draw(3)).map(|stage| {
                    let containers = 1 + draw(2) as u32;
                    let tasks = (0..1 + draw(10))
                        .map(|task| {
                            let mut secs = 1 + draw(15);
                            if stragglers && task % 7 == 6 {
                                secs *= 8;
                            }
                            TaskSpec::new(SimDuration::from_secs(secs)).with_containers(containers)
                        })
                        .collect();
                    let spec = StageSpec::new(StageKind::Map, tasks);
                    if delays && (stage > 0 || job % 3 == 0) {
                        spec.with_start_delay(SimDuration::from_secs(1 + draw(4)))
                    } else {
                        spec
                    }
                });
                JobSpec::builder()
                    .arrival(SimTime::from_secs(arrival))
                    .stages(stages)
                    .build()
            })
            .collect()
    }

    /// Steps `sim` batch by batch, to `until` or to the end. Every pass of
    /// a test build has already compared each live view with `build_view`
    /// (`assert_view_cache_fresh`); after each batch with a pass this also
    /// asserts that every view not awaiting a rebuild is still current.
    /// Returns whether a batch is left.
    fn step_checked<S: Scheduler>(sim: &mut Simulation<S>, until: SimTime) -> bool {
        loop {
            let passes = sim.stats.scheduling_passes;
            if !sim.step_batch(until) {
                return sim.next_event_time().is_some();
            }
            if sim.stats.scheduling_passes == passes {
                continue;
            }
            for view in sim.views.live() {
                if sim.dirty[view.id.index()] != Dirty::Rebuild {
                    assert_eq!(*view, sim.build_view(view.id), "at {}", sim.now);
                }
            }
        }
    }

    /// The service-only refresh writes two fields of a running job's view
    /// and the full refresh rebuilds it; either way, the views a pass hands
    /// its scheduler equal a from-scratch rebuild. Driven over the runs
    /// where the two paths meet: a multi-node slice (service-only), stages
    /// waiting on a transfer delay, failures with speculation, a scheduler
    /// that reads stage progress and one that reads oracle sizes (both
    /// rebuild every listed view), and runs restored and forked mid-way.
    #[test]
    fn view_cache_matches_a_rebuild_on_every_pass() {
        const END: SimTime = SimTime::from_millis(u64::MAX);
        let build = |delays: bool, faults: bool, sched: Box<dyn Scheduler>| {
            let mut builder = Simulation::builder()
                .cluster(ClusterConfig::new(6, 4))
                .jobs(scale_slice(48, delays, faults));
            if faults {
                builder = builder
                    .failures(FailureConfig::with_probability(0.15, 11))
                    .speculation(SpeculationConfig::enabled(2, 1.5));
            }
            builder.build(sched).unwrap()
        };
        let las = |hinted| -> Box<dyn Scheduler> {
            Box::new(LeastAttained {
                hinted,
                ..LeastAttained::default()
            })
        };
        let progress = || -> Box<dyn Scheduler> {
            Box::new(LeastAttained {
                hinted: true,
                progress: true,
                ..LeastAttained::default()
            })
        };
        let report_json = |sim: Simulation<Box<dyn Scheduler>>| {
            serde_json::to_string(&sim.into_report()).unwrap()
        };
        for (delays, faults) in [(false, false), (true, false), (false, true), (true, true)] {
            let name = format!("delays {delays}, faults {faults}");
            // Service-only path, and the change list it leaves: a
            // scheduler that re-reads only listed views plans as one that
            // reads them all.
            let mut hinted = build(delays, faults, las(true));
            assert!(!step_checked(&mut hinted, END));
            assert!(hinted.views.accrued > 0, "{name}: no service-only refresh");
            assert!(hinted.views.rebuilt > 0, "{name}");
            if faults {
                assert!(hinted.stats.tasks_failed > 0, "{name}");
                assert!(hinted.stats.speculative_launched > 0, "{name}");
            }
            let uninterrupted = report_json(hinted);
            let mut blind = build(delays, faults, las(false));
            assert!(!step_checked(&mut blind, END));
            assert_eq!(report_json(blind), uninterrupted, "{name}");

            // Full path: stage progress, oracle sizes.
            for sched in [progress(), Box::new(Rotating { cursor: 0 })] {
                let mut full = build(delays, faults, sched);
                assert!(!step_checked(&mut full, END));
                assert_eq!(full.views.accrued, 0, "{name}: {}", full.scheduler_name());
                assert!(full.views.rebuilt > 0, "{name}");
            }

            // Restored mid-way: every active job is rebuilt on the first
            // pass, and the rest of the run is the uninterrupted one.
            let mut sim = build(delays, faults, las(true));
            assert!(step_checked(&mut sim, SimTime::from_secs(40)));
            let snap = SimSnapshot::from_json(&sim.snapshot().to_json()).unwrap();
            let mut resumed = Simulation::restore(snap.clone(), las(true)).unwrap();
            assert!(!step_checked(&mut resumed, END));
            assert!(resumed.views.accrued > 0, "{name}");
            assert_eq!(report_json(resumed), uninterrupted, "{name}");

            // Forked mid-way, onto each path from the other.
            let mut onto_full = Simulation::fork(&snap, progress()).unwrap();
            assert!(!step_checked(&mut onto_full, END));
            assert_eq!(onto_full.views.accrued, 0, "{name}");
            let mut sim = build(delays, faults, progress());
            assert!(step_checked(&mut sim, SimTime::from_secs(40)));
            let mut onto_service = Simulation::fork(&sim.snapshot(), las(true)).unwrap();
            assert!(!step_checked(&mut onto_service, END));
            assert!(onto_service.views.accrued > 0, "{name}");
        }
    }

    /// Which refresh each pass gave each job, as `(clock s, service-only,
    /// rebuilt)` per batch.
    fn refresh_counts<S: Scheduler>(sim: &mut Simulation<S>, batches: usize) -> Vec<(u64, u64, u64)> {
        (0..batches)
            .map(|_| {
                let (accrued, rebuilt) = (sim.views.accrued, sim.views.rebuilt);
                assert!(sim.step_batch(SimTime::from_millis(u64::MAX)));
                (
                    sim.now.as_millis() / 1000,
                    sim.views.accrued - accrued,
                    sim.views.rebuilt - rebuilt,
                )
            })
            .collect()
    }

    #[test]
    fn a_running_job_with_no_discrete_change_is_refreshed_service_only() {
        // Job 0 runs a 4 s and a 9 s task from 0 s; job 1 arrives at 2 s
        // and runs one 20 s task. One pass per second (the quantum), under
        // a scheduler that reads neither stage progress nor sizes.
        let job0 = JobSpec::builder()
            .stage(StageSpec::new(
                StageKind::Map,
                vec![
                    TaskSpec::new(SimDuration::from_secs(4)),
                    TaskSpec::new(SimDuration::from_secs(9)),
                ],
            ))
            .build();
        let build = || {
            Simulation::builder()
                .cluster(ClusterConfig::single_node(4))
                .jobs([job0.clone(), map_job(2, 1, 20)])
                .build(LeastAttained::default())
                .unwrap()
        };
        let mut sim = build();
        assert_eq!(
            refresh_counts(&mut sim, 6),
            [
                // Admission, then its task starts: rebuilds.
                (0, 0, 1),
                (1, 0, 1),
                // Job 0 only accrues; job 1 is admitted.
                (2, 1, 1),
                // Job 1's task started after the last pass.
                (3, 1, 1),
                // Job 0's first task finished.
                (4, 1, 1),
                (5, 2, 0),
            ]
        );
        // Any mark_dirty forces a rebuild.
        sim.mark_dirty(JobId::new(1));
        assert_eq!(refresh_counts(&mut sim, 1), [(6, 1, 1)]);
        // A restored engine rebuilds every active job on its first pass.
        let snap = SimSnapshot::from_json(&sim.snapshot().to_json()).unwrap();
        let mut resumed = Simulation::restore(snap, LeastAttained::default()).unwrap();
        assert_eq!(refresh_counts(&mut resumed, 2), [(7, 0, 2), (8, 2, 0)]);
        assert_eq!(refresh_counts(&mut sim, 2), [(7, 2, 0), (8, 2, 0)]);
    }
}
