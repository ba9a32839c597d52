//! The three engine workloads: one LAS_MQ simulation per rep, timed from
//! outside through `SimSetup`, plus the traced pass that splits a rep into
//! `sched`, `event`, `cluster` and residual engine time.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use lasmq_campaign::{SchedulerKind, SimSetup};
use lasmq_simulator::event::{Event, EventQueue};
use lasmq_simulator::{
    ClusterState, JobId, JobSpec, NodeId, Scheduler, SimDuration, SimEvent, SimTime, Simulation,
    SimulationReport, StageId, TaskId,
};
use lasmq_workload::{FacebookTrace, ScaleTrace, UniformWorkload};

use crate::metrics::{RepFigures, RunResult};
use crate::spans::SpanLog;
use crate::stats::{median, percentile_sorted, Fnv};
use crate::timed::TimedScheduler;
use crate::Config;

/// How many engine events the journal-replay window covers.
const REPLAY_WINDOW_EVENTS: u64 = 1_000_000;

/// Timed replays of the window; the median is reported.
const REPLAY_REPS: usize = 3;

/// One engine workload: a trace generator and the environment it runs on.
#[derive(Debug, Clone, Copy)]
pub struct EngineWorkload {
    /// Workload name.
    pub name: &'static str,
    jobs: usize,
    quick_jobs: usize,
    generate: fn(usize, u64) -> Vec<JobSpec>,
    setup: fn() -> SimSetup,
    /// The setup's scheduling quantum. `SimSetup` does not expose it, and the
    /// journal rep has to build its simulation through
    /// `Simulation::builder()` (the only place `record_journal` lives);
    /// `tests/forwarding.rs` checks the two builds stay equivalent.
    quantum: SimDuration,
}

/// `fb_narrow`: event-bound (few jobs and few changed views per pass).
pub const FB_NARROW: EngineWorkload = EngineWorkload {
    name: "fb_narrow",
    jobs: 250_000,
    quick_jobs: 20_000,
    generate: |jobs, seed| FacebookTrace::new().jobs(jobs).seed(seed).generate(),
    setup: SimSetup::trace_sim,
    quantum: SimDuration::from_secs(1),
};

/// `scale_wide`: placement/refresh-bound (1000 nodes × 8 containers).
pub const SCALE_WIDE: EngineWorkload = EngineWorkload {
    name: "scale_wide",
    jobs: 20_000,
    quick_jobs: 10_000,
    generate: |jobs, seed| ScaleTrace::new().jobs(jobs).seed(seed).generate(),
    setup: || SimSetup::scale_sim(1000, 8),
    quantum: SimDuration::from_secs(1),
};

/// `uniform_batch`: scheduler-bound (thousands of jobs per `allocate`).
pub const UNIFORM_BATCH: EngineWorkload = EngineWorkload {
    name: "uniform_batch",
    jobs: 6_000,
    quick_jobs: 1_000,
    generate: |jobs, seed| UniformWorkload::new().jobs(jobs).seed(seed).generate(),
    setup: SimSetup::uniform_sim,
    quantum: SimDuration::from_secs(10),
};

impl EngineWorkload {
    /// The scheduler every engine workload runs.
    pub fn kind() -> SchedulerKind {
        SchedulerKind::las_mq_simulations()
    }

    /// The job count for this run mode.
    pub fn job_count(&self, quick: bool) -> usize {
        if quick {
            self.quick_jobs
        } else {
            self.jobs
        }
    }

    /// Generates the trace for `seed`.
    pub fn generate(&self, jobs: usize, seed: u64) -> Vec<JobSpec> {
        (self.generate)(jobs, seed)
    }

    /// The environment the trace runs on.
    pub fn setup(&self) -> SimSetup {
        (self.setup)()
    }

    /// The same environment built directly on the engine's builder with the
    /// journal on — the only way to obtain a journal from outside.
    pub fn journal_simulation(&self, jobs: Vec<JobSpec>) -> Simulation<Box<dyn Scheduler>> {
        Simulation::builder()
            .cluster(self.setup().cluster_config())
            .quantum(self.quantum)
            .record_journal(true)
            .jobs(jobs)
            .build(Self::kind().build())
            .expect("engine workload setups are valid")
    }
}

/// What must be identical across every rep of one (workload, seed).
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Jobs in the report.
    pub jobs: usize,
    /// Jobs that completed.
    pub completed: usize,
    /// `EngineStats::events_processed`.
    pub events: u64,
    /// `EngineStats::scheduling_passes`.
    pub passes: u64,
    /// `SimulationReport::mean_response_secs()`, as bits.
    pub mean_response_bits: u64,
    /// Digest of every outcome and every engine counter.
    pub digest: u64,
}

impl Fingerprint {
    /// Fingerprints a finished report.
    pub fn of(report: &SimulationReport) -> Self {
        let stats = report.stats();
        Fingerprint {
            jobs: report.outcomes().len(),
            completed: report.completed_count(),
            events: stats.events_processed,
            passes: stats.scheduling_passes,
            mean_response_bits: report.mean_response_secs().unwrap_or(f64::NAN).to_bits(),
            digest: report_digest(report),
        }
    }

    /// The mean response time in simulated seconds.
    pub fn mean_response_s(&self) -> f64 {
        f64::from_bits(self.mean_response_bits)
    }

    /// Files the fingerprint under `result.exact`.
    pub fn export(&self, result: &mut RunResult) {
        result.exact("jobs", self.jobs);
        result.exact("events", self.events);
        result.exact("passes", self.passes);
        result.exact(
            "mean_response_bits",
            format!("{:016x}", self.mean_response_bits),
        );
        result.exact("digest", format!("{:016x}", self.digest));
    }
}

/// FNV-1a over a canonical field stream of the report: scheduler name,
/// every outcome field and every engine counter. (Serialising a 250,000-job
/// report through the JSON shim's owned value tree would cost more memory
/// than the simulation itself and pollute `peak_rss_mb`.)
pub fn report_digest(report: &SimulationReport) -> u64 {
    let opt = |t: Option<SimTime>| t.map_or(u64::MAX, SimTime::as_millis);
    let mut h = Fnv::default();
    h.bytes(report.scheduler().as_bytes());
    for o in report.outcomes() {
        h.u64(u64::from(o.id.index() as u32));
        h.bytes(o.label.as_bytes());
        h.u64(u64::from(o.bin) << 8 | u64::from(o.priority));
        h.u64(o.arrival.as_millis());
        h.u64(opt(o.admitted_at));
        h.u64(opt(o.first_allocation));
        h.u64(opt(o.finish));
        h.u64(o.true_size.as_container_secs().to_bits());
        h.u64(o.isolated.as_millis());
    }
    let s = report.stats();
    for v in [
        s.scheduling_passes,
        s.tasks_killed,
        s.tasks_failed,
        s.speculative_launched,
        s.speculative_won,
        s.events_processed,
        s.makespan.as_millis(),
        s.mean_utilization.to_bits(),
    ] {
        h.u64(v);
    }
    h.finish()
}

/// One timed rep: generate, build, drive to completion.
struct Rep {
    gen_s: f64,
    build_s: f64,
    run_s: f64,
    /// Wall time of every timestamp batch, ns, ascending.
    batches_ns: Vec<u32>,
    fingerprint: Fingerprint,
}

impl Rep {
    fn figures(&self) -> RepFigures {
        RepFigures {
            work_per_s: self.fingerprint.events as f64 / self.run_s,
            op_p50_us: f64::from(percentile_sorted(&self.batches_ns, 50.0)) / 1e3,
            op_p90_us: f64::from(percentile_sorted(&self.batches_ns, 90.0)) / 1e3,
            setup_s: self.gen_s + self.build_s,
        }
    }
}

/// Drives a simulation to completion one timestamp batch at a time — every
/// event of one simulated instant plus the scheduling pass they trigger, the
/// unit the daemon's driver steps by — stamping the clock once per batch.
/// `Simulation::run` is this loop without the return between batches; the
/// stamp costs about 1 % of the cheapest workload's batch.
fn drive<S: Scheduler>(mut sim: Simulation<S>) -> (SimulationReport, Vec<u32>, f64) {
    let horizon = SimTime::from_millis(u64::MAX);
    let mut batches_ns = Vec::with_capacity(1 << 20);
    let start = Instant::now();
    let mut previous = start;
    while sim.step_batch(horizon) {
        let now = Instant::now();
        batches_ns.push(u32::try_from((now - previous).as_nanos()).unwrap_or(u32::MAX));
        previous = now;
    }
    let report = black_box(sim.into_report());
    let run_s = start.elapsed().as_secs_f64();
    batches_ns.sort_unstable();
    (report, batches_ns, run_s)
}

fn untraced_rep(w: &EngineWorkload, jobs: usize, seed: u64) -> Rep {
    let setup = w.setup();
    let t0 = Instant::now();
    let specs = w.generate(jobs, seed);
    let t1 = Instant::now();
    let sim = setup.build_simulation(specs, &EngineWorkload::kind());
    let t2 = Instant::now();
    let (report, batches_ns, run_s) = drive(sim);
    Rep {
        gen_s: (t1 - t0).as_secs_f64(),
        build_s: (t2 - t1).as_secs_f64(),
        run_s,
        batches_ns,
        fingerprint: Fingerprint::of(&report),
    }
}

/// Compares a rep's fingerprint with the first rep's; a mismatch is a hard
/// failure that prints both values.
fn gate(first: &Fingerprint, other: &Fingerprint, what: &str) -> bool {
    if first == other {
        return true;
    }
    eprintln!("determinism gate FAILED ({what}):\n  first: {first:?}\n  other: {other:?}");
    false
}

/// The warm-up rep runs a tenth of the trace: enough to page the code in and
/// grow the allocator's arenas, cheap enough not to eat the time cap.
fn warm_up(w: &EngineWorkload, jobs: usize, seed: u64) {
    let _ = untraced_rep(w, (jobs / 10).max(100), seed);
}

/// The untraced run: timed reps of `build_simulation` + [`drive`].
pub fn run(w: &EngineWorkload, cfg: &Config) -> RunResult {
    let jobs = w.job_count(cfg.quick);
    warm_up(w, jobs, cfg.seed);

    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut correct = true;
    let mut last_rep = Duration::ZERO;
    while cfg.another_rep(reps.len(), started, last_rep) {
        let rep_start = Instant::now();
        let rep = untraced_rep(w, jobs, cfg.seed);
        last_rep = rep_start.elapsed();
        if let Some(first) = reps.first() {
            correct &= gate(&first.fingerprint, &rep.fingerprint, "rep vs first rep");
        }
        reps.push(rep);
    }

    let fp = reps[0].fingerprint.clone();
    correct &= fp.completed == fp.jobs && fp.jobs == jobs;
    let figures: Vec<RepFigures> = reps.iter().map(Rep::figures).collect();

    let mut result = RunResult {
        correct,
        attempted: fp.jobs as u64,
        failed: (fp.jobs - fp.completed) as u64,
        ..RunResult::default()
    };
    fp.export(&mut result);
    result.metrics.set_best_of(&figures);
    eprintln!(
        "{}: {} reps, {} jobs, {} events, {} passes, mean_response_s {}, digest {:016x}",
        w.name,
        reps.len(),
        fp.jobs,
        fp.events,
        fp.passes,
        fp.mean_response_s(),
        fp.digest
    );
    result
}

/// The traced run: untraced and decorated reps in alternation (their ratio
/// is the tracing overhead), then one journal rep whose first
/// [`REPLAY_WINDOW_EVENTS`] events are replayed into `EventQueue` and
/// `ClusterState` on their own.
pub fn run_traced(w: &EngineWorkload, cfg: &Config, log: &mut SpanLog) -> RunResult {
    let jobs = w.job_count(cfg.quick);
    let kind = EngineWorkload::kind();
    let setup = w.setup();
    warm_up(w, jobs, cfg.seed);

    let started = Instant::now();
    let mut last_pair = Duration::ZERO;
    let mut untraced_runs = Vec::new();
    let mut traced_runs = Vec::new();
    let mut gen_s = Vec::new();
    let mut build_s = Vec::new();
    let mut first: Option<Fingerprint> = None;
    let mut correct = true;
    let mut last_traced = None;
    let mut rep = 0u32;
    // The journal rep and the replays after this loop take about as long as
    // one more pair, so the pairs get the measuring time less that.
    while rep == 0 || (!cfg.quick && cfg.fits(started, last_pair * 2)) {
        let pair_start = Instant::now();
        let plain = untraced_rep(w, jobs, cfg.seed);
        untraced_runs.push(plain.run_s);
        let expected = first.get_or_insert(plain.fingerprint.clone()).clone();
        correct &= gate(&expected, &plain.fingerprint, "untraced rep vs first rep");

        let (specs, g) = log.time("workload.generate", None, rep, || {
            w.generate(jobs, cfg.seed)
        });
        let (timed, timings) = TimedScheduler::new(kind.build(), log.epoch());
        let (sim, b) = log.time("engine.build", None, rep, || {
            setup.build_simulation_with(specs, timed, kind.requires_oracle())
        });
        let run_start = Instant::now();
        let (report, _, _) = drive(sim);
        let run_end = Instant::now();
        let run_span = log.record("engine.run", None, rep, run_start, run_end);
        gen_s.push(g);
        build_s.push(b);
        traced_runs.push((run_end - run_start).as_secs_f64());
        correct &= gate(
            &expected,
            &Fingerprint::of(&report),
            "decorated rep vs untraced rep",
        );
        drop(report);
        let timings = std::rc::Rc::try_unwrap(timings)
            .expect("the simulation dropped its scheduler")
            .into_inner();
        log.add_calls("sched.allocate", run_span, rep, &timings.allocate);
        log.add_calls("sched.hook", run_span, rep, &timings.hooks);
        last_traced = Some((run_span, timings));
        last_pair = pair_start.elapsed();
        rep += 1;
    }
    let fp = first.expect("at least one rep ran");
    let (run_span, timings) = last_traced.expect("at least one rep ran");

    let untraced_s = median(&untraced_runs);
    let traced_s = median(&traced_runs);
    let events = fp.events as f64;
    let calls = timings.allocate.count().max(1) as f64;
    let alloc_busy = timings.allocate.busy_secs();
    let hooks_busy = timings.hooks.busy_secs();
    let sched_busy = alloc_busy + hooks_busy;
    // Shares are taken within the one rep whose calls were timed, so that
    // sched.share + engine.self_share = 1 by construction.
    let this_run_s = log.self_secs(run_span, 0.0);
    let self_s = log.self_secs(run_span, sched_busy);

    let mut result = RunResult {
        correct: correct && fp.completed == fp.jobs && fp.jobs == jobs,
        attempted: fp.jobs as u64,
        failed: (fp.jobs - fp.completed) as u64,
        ..RunResult::default()
    };
    fp.export(&mut result);
    let m = &mut result.metrics;
    m.set("sim.jobs", fp.jobs as f64);
    m.set("sim.mean_response_s", fp.mean_response_s());
    m.set("workload.gen_s", median(&gen_s));
    m.set("engine.build_s", median(&build_s));
    m.set("engine.events", events);
    m.set("engine.passes", fp.passes as f64);
    m.set("engine.events_per_pass", events / (fp.passes.max(1)) as f64);
    m.set("engine.run_s", traced_s);
    m.set("engine.untraced_run_s", untraced_s);
    m.set("trace.overhead_share", traced_s / untraced_s - 1.0);
    m.set("sched.allocate_calls", timings.allocate.count() as f64);
    m.set("sched.jobs_per_call", timings.jobs_seen as f64 / calls);
    m.set(
        "sched.changed_per_call",
        timings.changed_seen as f64 / calls,
    );
    m.set(
        "sched.plan_entries_per_call",
        timings.plan_entries as f64 / calls,
    );
    m.set("sched.allocate_busy_s", alloc_busy);
    m.set("sched.allocate_ns_per_call", alloc_busy * 1e9 / calls);
    m.set("sched.hooks_busy_s", hooks_busy);
    m.set("sched.share", sched_busy / this_run_s);
    m.set("engine.self_ns_per_event", self_s * 1e9 / events);
    m.set("engine.self_share", self_s / this_run_s);
    result.exact("allocate_calls", timings.allocate.count());
    result.exact("jobs_seen", timings.jobs_seen);
    result.exact("changed_seen", timings.changed_seen);
    result.exact("plan_entries", timings.plan_entries);

    let replay = replay_window(w, jobs, cfg.seed, log, rep);
    let per_event = |total_ns: f64| total_ns / replay.window_events as f64;
    let untraced_ns_per_event = untraced_s * 1e9 / events;
    let event_ns = per_event(replay.event_ns);
    let cluster_ns = per_event(replay.cluster_ns);
    let m = &mut result.metrics;
    m.set("event.replay_ops", replay.event_ops as f64);
    m.set("event.pending_mean", replay.pending_mean);
    m.set(
        "event.replay_ns_per_op",
        replay.event_ns / replay.event_ops.max(1) as f64,
    );
    m.set("event.share_est", event_ns / untraced_ns_per_event);
    m.set("cluster.replay_ops", replay.cluster_ops as f64);
    m.set(
        "cluster.replay_ns_per_op",
        replay.cluster_ns / replay.cluster_ops.max(1) as f64,
    );
    m.set("cluster.share_est", cluster_ns / untraced_ns_per_event);
    m.set(
        "engine.residual_ns_per_event",
        self_s * 1e9 / events - event_ns - cluster_ns,
    );
    result.exact("event_replay_ops", replay.event_ops);
    result.exact("cluster_replay_ops", replay.cluster_ops);
    result.exact(
        "pending_mean_bits",
        format!("{:016x}", replay.pending_mean.to_bits()),
    );
    result
}

/// Replay of the journal window into the two data-structure layers.
struct Replay {
    window_events: u64,
    event_ops: u64,
    event_ns: f64,
    pending_mean: f64,
    cluster_ops: u64,
    cluster_ns: f64,
}

enum QueueOp {
    Push(SimTime, Event),
    Pop,
}

enum ClusterOp {
    Allocate { containers: u32, slot: usize },
    Release { slot: usize },
}

/// Steps a journal-recording simulation until it has processed the window,
/// compiles the journal into `EventQueue` and `ClusterState` operation
/// lists (so the timed loops do no journal decoding), and times each list.
fn replay_window(
    w: &EngineWorkload,
    jobs: usize,
    seed: u64,
    log: &mut SpanLog,
    rep: u32,
) -> Replay {
    let specs = w.generate(jobs, seed);
    let arrivals: Vec<SimTime> = specs.iter().map(JobSpec::arrival).collect();
    let mut sim = w.journal_simulation(specs);
    let horizon = SimTime::from_millis(u64::MAX);
    while sim.stats().events_processed < REPLAY_WINDOW_EVENTS && sim.step_batch(horizon) {}
    let window_events = sim.stats().events_processed;
    let report = sim.into_report();
    let journal = report.journal().expect("journal was requested").events();

    // Finish time of every attempt that finished inside the window; an
    // attempt still running when the window closes is left out of both
    // replays (its finish time is unknown).
    type Attempt = (JobId, StageId, TaskId, u32);
    let mut finish_at: HashMap<Attempt, SimTime> = HashMap::new();
    for e in journal {
        if let SimEvent::TaskFinished {
            job,
            stage,
            task,
            attempt,
            at,
        } = *e
        {
            finish_at.insert((job, stage, task, attempt), at);
        }
    }

    // The engine pushes every arrival at build time and pops one event per
    // journal entry it then acts on.
    let mut queue_ops: Vec<QueueOp> = Vec::with_capacity(journal.len() * 2);
    let mut cluster_ops: Vec<ClusterOp> = Vec::with_capacity(journal.len() * 2);
    let mut slot_of: HashMap<Attempt, usize> = HashMap::new();
    let mut submitted = 0usize;
    for e in journal {
        match *e {
            SimEvent::JobSubmitted { .. } => {
                submitted += 1;
                queue_ops.push(QueueOp::Pop);
            }
            SimEvent::TaskStarted {
                job,
                stage,
                task,
                attempt,
                containers,
                ..
            } => {
                let key = (job, stage, task, attempt);
                if let Some(&at) = finish_at.get(&key) {
                    queue_ops.push(QueueOp::Push(
                        at,
                        Event::TaskFinish {
                            job,
                            stage,
                            task,
                            attempt,
                        },
                    ));
                    let slot = slot_of.len();
                    slot_of.insert(key, slot);
                    cluster_ops.push(ClusterOp::Allocate { containers, slot });
                }
            }
            SimEvent::TaskFinished {
                job,
                stage,
                task,
                attempt,
                ..
            } => {
                let key = (job, stage, task, attempt);
                if let Some(&slot) = slot_of.get(&key) {
                    queue_ops.push(QueueOp::Pop);
                    cluster_ops.push(ClusterOp::Release { slot });
                }
            }
            _ => {}
        }
    }
    let slots = slot_of.len();
    drop(slot_of);
    drop(finish_at);

    let cluster_config = w.setup().cluster_config();
    let mut event_ns = Vec::with_capacity(REPLAY_REPS);
    let mut cluster_ns = Vec::with_capacity(REPLAY_REPS);
    let mut pending_mean = 0.0;
    for _ in 0..REPLAY_REPS {
        let mut queue = EventQueue::new();
        for (i, &at) in arrivals.iter().take(submitted).enumerate() {
            queue.push(
                at,
                Event::JobArrival {
                    job: JobId::new(i as u32),
                },
            );
        }
        let mut pending = submitted as u64;
        let mut pending_sum = 0u64;
        let start = Instant::now();
        for op in &queue_ops {
            match *op {
                QueueOp::Push(at, event) => {
                    queue.push(at, event);
                    pending += 1;
                }
                QueueOp::Pop => {
                    black_box(queue.pop());
                    pending -= 1;
                }
            }
            pending_sum += pending;
        }
        let end = Instant::now();
        log.record("event.replay", None, rep, start, end);
        event_ns.push((end - start).as_nanos() as f64);
        pending_mean = pending_sum as f64 / queue_ops.len().max(1) as f64;

        let mut cluster = ClusterState::new(cluster_config);
        let mut placed: Vec<(NodeId, u32)> = vec![(NodeId::new(0), 0); slots];
        let start = Instant::now();
        for op in &cluster_ops {
            match *op {
                ClusterOp::Allocate { containers, slot } => {
                    let node = cluster
                        .allocate(containers)
                        .expect("the journal only records placements that fitted");
                    placed[slot] = (node, containers);
                }
                ClusterOp::Release { slot } => {
                    let (node, containers) = placed[slot];
                    cluster.release(node, containers);
                }
            }
        }
        let end = Instant::now();
        black_box(cluster.free_containers());
        log.record("cluster.replay", None, rep, start, end);
        cluster_ns.push((end - start).as_nanos() as f64);
    }

    Replay {
        window_events,
        event_ops: queue_ops.len() as u64,
        event_ns: median(&event_ns),
        pending_mean,
        cluster_ops: cluster_ops.len() as u64,
        cluster_ns: median(&cluster_ns),
    }
}
