//! A deliberately naive reference executor.
//!
//! This module re-implements the admission + container-assignment
//! semantics of [`lasmq_simulator::Simulation`] with the simplest data
//! structures that can express them: the event queue is an unsorted `Vec`
//! scanned linearly for the minimum `(time, seq)` pair, node placement
//! re-scans every node on every allocation, and nothing is cached between
//! passes. Where the optimized engine earns its keep with a calendar
//! queue, cached job views, a refill cursor, and epoch-deduplicated plan
//! orders, the reference executor just does the obvious O(n²) thing.
//!
//! The two implementations share *semantics*, not code: the only engine
//! types reused here are the public workload/scheduler vocabulary
//! ([`JobSpec`], [`Scheduler`], [`JobView`]). Because scheduler decisions
//! depend on float-valued attained service, the reference mirrors the
//! engine's accrual call sites exactly — same instants, same summation
//! order — so a matched run produces a bit-identical decision sequence
//! and therefore an identical completion trace.
//!
//! Scope: the reference models the *default* engine regime — graceful
//! preemption, no failure injection, no speculative execution, uniform
//! node speed. [`ReferenceConfig`] cannot express anything else, so the
//! differential harness can never feed it an out-of-domain cell.

use lasmq_simulator::{
    JobId, JobSpec, JobView, OracleInfo, SchedContext, Scheduler, Service, SimDuration, SimTime,
    StageSpec,
};
use std::collections::VecDeque;

/// Cluster/engine knobs the reference executor understands.
#[derive(Debug, Clone, Copy)]
pub struct ReferenceConfig {
    /// Number of identical nodes.
    pub nodes: u32,
    /// Containers hosted per node.
    pub containers_per_node: u32,
    /// Scheduling quantum (the engine defaults to 1 s).
    pub quantum: SimDuration,
    /// FIFO admission cap (`None` = unlimited).
    pub admission_limit: Option<usize>,
}

impl Default for ReferenceConfig {
    fn default() -> Self {
        ReferenceConfig {
            nodes: 4,
            containers_per_node: 30,
            quantum: SimDuration::from_secs(1),
            admission_limit: None,
        }
    }
}

/// What the reference executor records about one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefOutcome {
    /// The job (dense ids in arrival order, matching the engine).
    pub id: JobId,
    /// Submission time.
    pub arrival: SimTime,
    /// When admission let the job in.
    pub admitted_at: Option<SimTime>,
    /// When the job received its first container.
    pub first_alloc: Option<SimTime>,
    /// When the job completed.
    pub finish: Option<SimTime>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefEvent {
    Arrival {
        job: usize,
    },
    TaskFinish {
        job: usize,
        stage: usize,
        task: usize,
        attempt: u32,
    },
    Tick,
    Resched,
}

#[derive(Debug, Clone, Copy)]
struct RefEntry {
    at: SimTime,
    seq: u64,
    event: RefEvent,
}

#[derive(Debug, Clone, Copy)]
struct RefRunning {
    task_idx: usize,
    attempt: u32,
    node: usize,
    containers: u32,
    started: SimTime,
    finish: SimTime,
}

#[derive(Debug, Clone)]
struct RefStage {
    total: u32,
    next_unstarted: usize,
    completed: u32,
    running: Vec<RefRunning>,
    requeued: Vec<usize>,
    ready_at: SimTime,
}

impl RefStage {
    fn new(stage: &StageSpec, becomes_current_at: SimTime) -> Self {
        RefStage {
            total: stage.task_count(),
            next_unstarted: 0,
            completed: 0,
            running: Vec::new(),
            requeued: Vec::new(),
            ready_at: becomes_current_at + stage.start_delay(),
        }
    }

    fn unstarted(&self) -> u32 {
        (self.total as usize - self.next_unstarted + self.requeued.len()) as u32
    }

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
}

#[derive(Debug, Clone)]
struct RefJob {
    spec: JobSpec,
    stage_index: usize,
    stage: RefStage,
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

impl RefJob {
    fn new(spec: JobSpec) -> Self {
        let stage = RefStage::new(&spec.stages()[0], SimTime::ZERO);
        RefJob {
            spec,
            stage_index: 0,
            stage,
            held: 0,
            target: 0,
            plan_epoch: 0,
            attained: Service::ZERO,
            attained_stage: Service::ZERO,
            completed_service: Service::ZERO,
            last_accrual: SimTime::ZERO,
            attempt_counter: 0,
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

    fn current_stage(&self) -> &StageSpec {
        &self.spec.stages()[self.stage_index]
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

    fn stage_progress(&self, now: SimTime) -> f64 {
        if self.stage.total == 0 {
            return 1.0;
        }
        let mut units = self.stage.completed as f64;
        for r in &self.stage.running {
            let span = r.finish.saturating_since(r.started).as_secs_f64();
            if span > 0.0 {
                let elapsed = now.saturating_since(r.started).as_secs_f64();
                units += (elapsed / span).min(1.0);
            }
        }
        (units / self.stage.total as f64).min(1.0)
    }
}

struct ReferenceSimulation {
    scheduler: Box<dyn Scheduler>,
    free_per_node: Vec<u32>,
    total_containers: u32,
    quantum: SimDuration,
    admission_cap: Option<usize>,
    admission_running: usize,
    admission_waiting: VecDeque<usize>,
    /// The scheduler's [`Scheduler::requires_oracle`], asked once: whether
    /// views carry true sizes.
    oracle: bool,
    jobs: Vec<RefJob>,
    events: Vec<RefEntry>,
    next_seq: u64,
    admitted: Vec<usize>,
    finished_in_admitted: usize,
    plan_order: Vec<usize>,
    refill_cursor: usize,
    needs_pass: bool,
    tick_scheduled: bool,
    passes: u64,
    now: SimTime,
}

/// Runs `jobs` under `scheduler` on the naive executor and returns per-job
/// outcomes in dense-id (arrival) order.
///
/// # Panics
///
/// Panics on degenerate configs (zero nodes/containers) or jobs that do
/// not validate against the cluster — the differential harness validates
/// cells before handing them over.
pub fn run_reference(
    jobs: Vec<JobSpec>,
    scheduler: Box<dyn Scheduler>,
    config: &ReferenceConfig,
) -> Vec<RefOutcome> {
    assert!(
        config.nodes > 0 && config.containers_per_node > 0,
        "degenerate cluster"
    );
    assert!(!config.quantum.is_zero(), "quantum must be positive");
    let total = config.nodes * config.containers_per_node;
    for spec in &jobs {
        spec.validate(total).expect("job fits the cluster");
    }

    let mut specs = jobs;
    specs.sort_by_key(JobSpec::arrival);
    let mut sim = ReferenceSimulation {
        oracle: scheduler.requires_oracle(),
        scheduler,
        free_per_node: vec![config.containers_per_node; config.nodes as usize],
        total_containers: total,
        quantum: config.quantum,
        admission_cap: config.admission_limit,
        admission_running: 0,
        admission_waiting: VecDeque::new(),
        jobs: Vec::new(),
        events: Vec::new(),
        next_seq: 0,
        admitted: Vec::new(),
        finished_in_admitted: 0,
        plan_order: Vec::new(),
        refill_cursor: 0,
        needs_pass: false,
        tick_scheduled: false,
        passes: 0,
        now: SimTime::ZERO,
    };
    for (i, spec) in specs.iter().enumerate() {
        sim.push_event(spec.arrival(), RefEvent::Arrival { job: i });
    }
    sim.jobs = specs.into_iter().map(RefJob::new).collect();
    sim.run();
    sim.jobs
        .iter()
        .enumerate()
        .map(|(i, j)| RefOutcome {
            id: JobId::new(i as u32),
            arrival: j.spec.arrival(),
            admitted_at: j.admitted_at,
            first_alloc: j.first_alloc,
            finish: j.finished_at,
        })
        .collect()
}

impl ReferenceSimulation {
    fn push_event(&mut self, at: SimTime, event: RefEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(RefEntry { at, seq, event });
    }

    /// Index of the earliest pending event (ties broken by insertion
    /// order), found by a full linear scan.
    fn earliest(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, e) in self.events.iter().enumerate() {
            let better = match best {
                None => true,
                Some(b) => {
                    let cur = &self.events[b];
                    (e.at, e.seq) < (cur.at, cur.seq)
                }
            };
            if better {
                best = Some(i);
            }
        }
        best
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.earliest().map(|i| self.events[i].at)
    }

    fn pop(&mut self) -> Option<RefEntry> {
        let i = self.earliest()?;
        Some(self.events.swap_remove(i))
    }

    fn free_total(&self) -> u32 {
        self.free_per_node.iter().sum()
    }

    /// Same placement rule as the engine: the node with strictly the most
    /// free containers that still fits the request, first index on ties.
    fn allocate(&mut self, containers: u32) -> Option<usize> {
        if containers == 0 || containers > self.free_total() {
            return None;
        }
        let mut best: Option<(usize, u32)> = None;
        for (idx, &free) in self.free_per_node.iter().enumerate() {
            if free >= containers {
                let better = match best {
                    None => true,
                    Some((_, best_free)) => free > best_free,
                };
                if better {
                    best = Some((idx, free));
                }
            }
        }
        let (idx, _) = best?;
        self.free_per_node[idx] -= containers;
        Some(idx)
    }

    fn release(&mut self, node: usize, containers: u32) {
        self.free_per_node[node] += containers;
    }

    fn run(&mut self) {
        while let Some(t) = self.peek_time() {
            self.now = t;
            while self.peek_time() == Some(t) {
                let entry = self.pop().expect("peeked event");
                self.handle(entry.event);
            }
            if self.needs_pass {
                self.needs_pass = false;
                self.full_pass();
            }
        }
    }

    fn handle(&mut self, event: RefEvent) {
        match event {
            RefEvent::Arrival { job } => self.handle_arrival(job),
            RefEvent::TaskFinish {
                job,
                stage,
                task,
                attempt,
            } => self.handle_task_finish(job, stage, task, attempt),
            RefEvent::Tick => {
                self.tick_scheduled = false;
                if self.admission_running > 0 {
                    self.needs_pass = true;
                    self.ensure_tick();
                }
            }
            RefEvent::Resched => self.needs_pass = true,
        }
    }

    fn admission_has_headroom(&self) -> bool {
        match self.admission_cap {
            Some(cap) => self.admission_running < cap,
            None => true,
        }
    }

    fn handle_arrival(&mut self, job: usize) {
        if self.admission_has_headroom() {
            self.admission_running += 1;
            self.admit(job);
        } else {
            self.admission_waiting.push_back(job);
        }
    }

    fn admit(&mut self, id: usize) {
        let now = self.now;
        {
            let job = &mut self.jobs[id];
            job.admitted_at = Some(now);
            job.last_accrual = now;
            job.stage = RefStage::new(&job.spec.stages()[0], now);
            let ready_at = job.stage.ready_at;
            if ready_at > now {
                self.push_event(ready_at, RefEvent::Resched);
            }
        }
        self.admitted.push(id);
        let view = self.build_view(id);
        self.scheduler.on_job_admitted(&view, now);
        self.ensure_tick();
        self.needs_pass = true;
    }

    fn ensure_tick(&mut self) {
        if !self.tick_scheduled {
            self.push_event(self.now + self.quantum, RefEvent::Tick);
            self.tick_scheduled = true;
        }
    }

    fn handle_task_finish(&mut self, id: usize, stage: usize, task: usize, attempt: u32) {
        let job = &self.jobs[id];
        if job.finished() || job.stage_index != stage {
            return;
        }
        let Some(pos) = job
            .stage
            .running
            .iter()
            .position(|r| r.task_idx == task && r.attempt == attempt)
        else {
            return;
        };

        self.jobs[id].accrue(self.now);
        let stage_done;
        {
            let job = &mut self.jobs[id];
            let running = job.stage.running.swap_remove(pos);
            job.held -= running.containers;
            let spec_task = job.spec.stages()[job.stage_index].task(running.task_idx);
            job.stage.completed += 1;
            job.completed_service += spec_task.service();
            stage_done = job.stage.completed == job.stage.total;
            self.release(running.node, running.containers);
        }

        if stage_done {
            self.advance_stage_or_finish(id);
        } else if !self.needs_pass {
            self.refill_after_completion(id);
        }
    }

    fn advance_stage_or_finish(&mut self, id: usize) {
        let now = self.now;
        let job = &mut self.jobs[id];
        if job.stage_index + 1 < job.spec.stage_count() {
            job.stage_index += 1;
            job.stage = RefStage::new(&job.spec.stages()[job.stage_index], now);
            job.attained_stage = Service::ZERO;
            let ready_at = job.stage.ready_at;
            let new_stage = job.stage_index;
            if ready_at > now {
                self.push_event(ready_at, RefEvent::Resched);
            }
            self.scheduler
                .on_stage_completed(JobId::new(id as u32), new_stage, now);
        } else {
            job.finished_at = Some(now);
            self.finished_in_admitted += 1;
            self.scheduler.on_job_completed(JobId::new(id as u32), now);
            self.admission_running -= 1;
            if self.admission_has_headroom() {
                if let Some(next) = self.admission_waiting.pop_front() {
                    self.admission_running += 1;
                    self.admit(next);
                }
            }
        }
        self.needs_pass = true;
    }

    fn refill_after_completion(&mut self, id: usize) {
        {
            let now = self.now;
            let job = &self.jobs[id];
            let target = job.target;
            if job.stage.startable(now) > 0 && job.held < target {
                while self.jobs[id].held < target && self.jobs[id].stage.startable(now) > 0 {
                    if !self.try_start_task(id) {
                        break;
                    }
                }
            }
        }
        self.advance_refill_cursor();
    }

    fn advance_refill_cursor(&mut self) {
        while self.free_total() > 0 && self.refill_cursor < self.plan_order.len() {
            let cand = self.plan_order[self.refill_cursor];
            let job = &self.jobs[cand];
            if job.finished() || job.stage.startable(self.now) == 0 || job.held >= job.target {
                self.refill_cursor += 1;
                continue;
            }
            if !self.try_start_task(cand) {
                break;
            }
        }
    }

    fn try_start_task(&mut self, id: usize) -> bool {
        let now = self.now;
        let (task_idx, from_requeue) = {
            let job = &mut self.jobs[id];
            if job.stage.startable(now) == 0 {
                return false;
            }
            if let Some(idx) = job.stage.requeued.pop() {
                (idx, true)
            } else if job.stage.next_unstarted < job.stage.total as usize {
                let idx = job.stage.next_unstarted;
                job.stage.next_unstarted += 1;
                (idx, false)
            } else {
                return false;
            }
        };
        let spec_task = self.jobs[id].current_stage().task(task_idx);
        let Some(node) = self.allocate(spec_task.containers()) else {
            let job = &mut self.jobs[id];
            if from_requeue {
                job.stage.requeued.push(task_idx);
            } else {
                job.stage.next_unstarted -= 1;
            }
            return false;
        };
        self.jobs[id].accrue(now);
        let finish = now + spec_task.duration();
        let job = &mut self.jobs[id];
        let attempt = job.attempt_counter;
        job.attempt_counter += 1;
        job.stage.running.push(RefRunning {
            task_idx,
            attempt,
            node,
            containers: spec_task.containers(),
            started: now,
            finish,
        });
        job.held += spec_task.containers();
        if job.first_alloc.is_none() {
            job.first_alloc = Some(now);
        }
        let stage = job.stage_index;
        self.push_event(
            finish,
            RefEvent::TaskFinish {
                job: id,
                stage,
                task: task_idx,
                attempt,
            },
        );
        true
    }

    fn build_view(&self, id: usize) -> JobView {
        let job = &self.jobs[id];
        let now = self.now;
        let stage = job.current_stage();
        let oracle = if self.oracle {
            let total_size = job.spec.total_service();
            let mut done = job.completed_service;
            for r in &job.stage.running {
                let elapsed = now.saturating_since(r.started);
                done += Service::accrued(r.containers, elapsed);
            }
            Some(OracleInfo {
                total_size,
                remaining: total_size - done,
            })
        } else {
            None
        };
        JobView {
            id: JobId::new(id as u32),
            arrival: job.spec.arrival(),
            admitted_at: job.admitted_at.unwrap_or(job.spec.arrival()),
            priority: job.spec.priority(),
            attained: job.attained,
            attained_stage: job.attained_stage,
            stage_index: job.stage_index,
            stage_count: job.spec.stage_count(),
            stage_progress: job.stage_progress(now),
            remaining_tasks: job.stage.remaining(),
            unstarted_tasks: job.stage.startable(now),
            containers_per_task: stage.containers_per_task(),
            held: job.held,
            oracle,
        }
    }

    fn compact_admitted(&mut self) {
        if self.finished_in_admitted * 2 > self.admitted.len() {
            let jobs = &self.jobs;
            self.admitted.retain(|&id| !jobs[id].finished());
            self.finished_in_admitted = 0;
        }
    }

    fn full_pass(&mut self) {
        self.passes += 1;
        self.compact_admitted();

        for i in 0..self.admitted.len() {
            let id = self.admitted[i];
            if !self.jobs[id].finished() {
                self.jobs[id].accrue(self.now);
            }
        }

        let views: Vec<JobView> = self
            .admitted
            .iter()
            .filter(|&&id| !self.jobs[id].finished())
            .map(|&id| self.build_view(id))
            .collect();
        let ctx = SchedContext::new(self.now, self.total_containers, &views);
        let plan = self.scheduler.allocate(&ctx);
        let _ = self.scheduler.drain_demotions();

        for &id in &self.admitted {
            self.jobs[id].target = 0;
        }
        let epoch = self.passes;
        self.plan_order.clear();
        for &(id, target) in plan.entries() {
            let Some(job) = self.jobs.get_mut(id.index()) else {
                continue;
            };
            if !job.active() {
                continue;
            }
            let unstarted_demand = job
                .stage
                .startable(self.now)
                .saturating_mul(job.current_stage().containers_per_task());
            job.target = target.min(job.held + unstarted_demand);
            if job.plan_epoch != epoch {
                job.plan_epoch = epoch;
                self.plan_order.push(id.index());
            }
        }

        self.refill_cursor = 0;
        self.advance_refill_cursor();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasmq_simulator::{AllocationPlan, StageKind, TaskSpec};

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

    fn job(arrival: u64, tasks: u32, dur_secs: u64) -> JobSpec {
        JobSpec::builder()
            .arrival(SimTime::from_secs(arrival))
            .stage(StageSpec::uniform(
                StageKind::Generic,
                tasks,
                TaskSpec::new(SimDuration::from_secs(dur_secs)),
            ))
            .build()
    }

    #[test]
    fn lone_job_runs_in_one_wave() {
        let outcomes = run_reference(
            vec![job(0, 8, 10)],
            Box::new(EvenSplit),
            &ReferenceConfig::default(),
        );
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].finish, Some(SimTime::from_secs(10)));
        assert_eq!(outcomes[0].first_alloc, Some(SimTime::ZERO));
    }

    #[test]
    fn admission_cap_defers_the_second_job() {
        let config = ReferenceConfig {
            admission_limit: Some(1),
            ..ReferenceConfig::default()
        };
        let outcomes = run_reference(
            vec![job(0, 8, 10), job(1, 8, 10)],
            Box::new(EvenSplit),
            &config,
        );
        // The second job is admitted only when the first finishes.
        assert_eq!(outcomes[1].admitted_at, outcomes[0].finish);
    }
}
