//! A forwarding [`Scheduler`] decorator that times every call the engine
//! makes into the policy — the harness-side boundary between the `engine`
//! and `sched` layers.
//!
//! The wrapper must forward *every* trait method, including the ones with
//! default bodies: a method left to its default would silently change the
//! simulation (an oracle kind would stop seeing sizes, LAS_MQ snapshots
//! would lose their state). `tests/forwarding.rs` proves wrapped and
//! unwrapped runs produce byte-identical reports.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use lasmq_simulator::{
    AllocationPlan, JobId, JobView, QueueDemotion, SchedContext, Scheduler, SimTime,
};

use crate::spans::CallLog;

/// What the decorator measured over one run.
#[derive(Debug, Default)]
pub struct SchedTimings {
    /// Every `allocate` / `allocate_into` call.
    pub allocate: CallLog,
    /// Every lifecycle hook call (`on_job_admitted`, `on_stage_completed`,
    /// `on_job_completed`).
    pub hooks: CallLog,
    /// Sum over calls of the jobs visible in the pass.
    pub jobs_seen: u64,
    /// Sum over calls of the changed-view hint length (all jobs when the
    /// engine gave no hint).
    pub changed_seen: u64,
    /// Sum over calls of the plan entries the policy returned.
    pub plan_entries: u64,
}

/// Shared handle to the timings: the simulation consumes its scheduler, so
/// the harness keeps this side to read the numbers after `run`.
pub type TimingsHandle = Rc<RefCell<SchedTimings>>;

/// Times every call into `inner` and forwards it unchanged.
#[derive(Debug)]
pub struct TimedScheduler<S> {
    inner: S,
    epoch: Instant,
    timings: TimingsHandle,
}

impl<S: Scheduler> TimedScheduler<S> {
    /// Wraps `inner`; span start times are measured from `epoch`.
    pub fn new(inner: S, epoch: Instant) -> (Self, TimingsHandle) {
        let timings = TimingsHandle::default();
        let wrapper = TimedScheduler {
            inner,
            epoch,
            timings: Rc::clone(&timings),
        };
        (wrapper, timings)
    }

    #[inline]
    fn hook(&mut self, f: impl FnOnce(&mut S)) {
        let start = Instant::now();
        f(&mut self.inner);
        let dur = start.elapsed().as_nanos() as u64;
        let start_ns = (start - self.epoch).as_nanos() as u64;
        self.timings.borrow_mut().hooks.record(start_ns, dur);
    }

    #[inline]
    fn record_allocate(&mut self, start: Instant, ctx: &SchedContext<'_>, entries: usize) {
        let dur = start.elapsed().as_nanos() as u64;
        let start_ns = (start - self.epoch).as_nanos() as u64;
        let jobs = ctx.jobs().len();
        let mut t = self.timings.borrow_mut();
        t.allocate.record(start_ns, dur);
        t.jobs_seen += jobs as u64;
        t.changed_seen += ctx.changed().map_or(jobs, <[usize]>::len) as u64;
        t.plan_entries += entries as u64;
    }
}

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn requires_oracle(&self) -> bool {
        self.inner.requires_oracle()
    }

    fn on_job_admitted(&mut self, view: &JobView, now: SimTime) {
        self.hook(|s| s.on_job_admitted(view, now));
    }

    fn on_stage_completed(&mut self, job: JobId, new_stage_index: usize, now: SimTime) {
        self.hook(|s| s.on_stage_completed(job, new_stage_index, now));
    }

    fn on_job_completed(&mut self, job: JobId, now: SimTime) {
        self.hook(|s| s.on_job_completed(job, now));
    }

    fn allocate(&mut self, ctx: &SchedContext<'_>) -> AllocationPlan {
        let start = Instant::now();
        let plan = self.inner.allocate(ctx);
        self.record_allocate(start, ctx, plan.entries().len());
        plan
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
        let start = Instant::now();
        self.inner.allocate_into(ctx, plan);
        self.record_allocate(start, ctx, plan.entries().len());
    }

    fn queue_depths(&self) -> Option<Vec<u32>> {
        self.inner.queue_depths()
    }

    fn drain_demotions(&mut self) -> Vec<QueueDemotion> {
        self.inner.drain_demotions()
    }

    fn snapshot_state(&self) -> Option<String> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        self.inner.restore_state(state)
    }

    fn check_consistency(&self) -> Result<(), String> {
        self.inner.check_consistency()
    }
}
