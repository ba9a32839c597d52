//! Wall-clock pacing for a [`Simulation`] driven batch-by-batch.
//!
//! [`Simulation::run`] fast-forwards through simulated time as quickly as
//! the host CPU allows — the right thing for repro campaigns. A *live*
//! scheduler service instead has to pace the engine against the wall
//! clock: a batch stamped `t=80s` must not run until the (possibly
//! time-compressed) wall clock reaches 80 simulated seconds, because new
//! jobs may still stream in before then.
//!
//! A [`Driver`] repeatedly asks its [`CompressedWallClock`] how far
//! simulated time may advance and funnels every due batch through
//! [`Simulation::step_batch`] — the same `advance_inner` path
//! `run`/`run_until` use — so a driver-paced run processes byte-identical
//! batches in byte-identical order to a sim-time run of the same workload.
//! The only difference is *when* (in wall time) each batch executes.
//!
//! ```
//! use lasmq_simulator::{
//!     driver::{CompressedWallClock, Driver},
//!     AllocationPlan, ClusterConfig, JobSpec, SchedContext, Scheduler, SimDuration,
//!     Simulation, StageKind, StageSpec, TaskSpec,
//! };
//!
//! struct Greedy;
//! impl Scheduler for Greedy {
//!     fn name(&self) -> &str {
//!         "greedy"
//!     }
//!     fn allocate(&mut self, ctx: &SchedContext<'_>) -> AllocationPlan {
//!         ctx.jobs().iter().map(|j| (j.id, j.max_useful_allocation())).collect()
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let job = JobSpec::builder()
//!     .stage(StageSpec::uniform(StageKind::Map, 4, TaskSpec::new(SimDuration::from_secs(5))))
//!     .build();
//! let mut sim = Simulation::builder()
//!     .cluster(ClusterConfig::single_node(4))
//!     .job(job)
//!     .build(Greedy)?;
//! // 10,000 simulated seconds per wall second: the 5 s job is due after
//! // half a wall millisecond.
//! let mut driver = Driver::new(CompressedWallClock::new(10_000.0));
//! driver.run_to_completion(&mut sim);
//! assert!(sim.is_drained());
//! # Ok(())
//! # }
//! ```

use std::time::{Duration, Instant};

use crate::engine::Simulation;
use crate::sched::Scheduler;
use crate::time::SimTime;

/// Wall-clock pacing with time compression: `compression` simulated
/// seconds elapse per wall second. `compression = 1.0` is real time;
/// the daemon's trace replays typically run at 100–10000×.
///
/// The mapping is anchored at construction: simulated time
/// `base + (wall_now - epoch) * compression`. Restart/resume re-anchors at
/// the snapshot's sim clock ([`CompressedWallClock::resumed_at`]), so a
/// resumed daemon continues pacing from where the snapshot paused rather
/// than replaying the wall time lost while it was down.
#[derive(Debug, Clone)]
pub struct CompressedWallClock {
    epoch: Instant,
    base: SimTime,
    compression: f64,
}

impl CompressedWallClock {
    /// A clock starting now at simulated time zero.
    ///
    /// # Panics
    ///
    /// Panics unless `compression` is finite and positive.
    pub fn new(compression: f64) -> Self {
        Self::resumed_at(SimTime::ZERO, compression)
    }

    /// A clock starting now at simulated time `base` — the resume path:
    /// anchor at the restored snapshot's [`Simulation::now`].
    ///
    /// # Panics
    ///
    /// Panics unless `compression` is finite and positive.
    pub fn resumed_at(base: SimTime, compression: f64) -> Self {
        assert!(
            compression.is_finite() && compression > 0.0,
            "time compression must be finite and positive, got {compression}"
        );
        CompressedWallClock {
            epoch: Instant::now(),
            base,
            compression,
        }
    }

    /// The configured sim-seconds-per-wall-second factor.
    pub fn compression(&self) -> f64 {
        self.compression
    }

    /// The current simulated time under this clock's mapping.
    pub fn now_sim(&self) -> SimTime {
        let wall = self.epoch.elapsed().as_secs_f64();
        let sim_ms = (wall * self.compression * 1000.0).floor() as u64;
        SimTime::from_millis(self.base.as_millis().saturating_add(sim_ms))
    }

    /// How long (wall time) until simulated time `t` comes due, or `None`
    /// if it is already due.
    pub fn wait_for(&self, t: SimTime) -> Option<Duration> {
        let now = self.now_sim();
        if t <= now {
            return None;
        }
        let sim_ms = t.as_millis() - now.as_millis();
        let wall_secs = sim_ms as f64 / 1000.0 / self.compression;
        Some(Duration::from_secs_f64(wall_secs))
    }
}

/// What one [`Driver::step`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverStep {
    /// One timestamp batch was processed; `passes` is how many scheduling
    /// passes it ran (0 or 1 — batches coalesce into at most one pass).
    Worked {
        /// Scheduling passes the batch ran.
        passes: u64,
    },
    /// The next batch is not due yet; wait this long (wall time) before
    /// stepping again — or sooner, if new work (a submission) arrives.
    Wait(Duration),
    /// Nothing left to do: the event queue is drained.
    Drained,
}

/// Drives a [`Simulation`] batch-by-batch under a
/// [`CompressedWallClock`]'s pacing.
#[derive(Debug, Clone)]
pub struct Driver {
    clock: CompressedWallClock,
}

impl Driver {
    /// A driver pacing against `clock`.
    pub fn new(clock: CompressedWallClock) -> Self {
        Driver { clock }
    }

    /// The underlying clock.
    pub fn clock(&self) -> &CompressedWallClock {
        &self.clock
    }

    /// Advances the simulation by at most one timestamp batch, if one is
    /// due under the clock. Call in a loop; interleave
    /// [`Simulation::submit`] calls freely between steps (the paused state
    /// between batches is a canonical boundary).
    pub fn step<S: Scheduler>(&mut self, sim: &mut Simulation<S>) -> DriverStep {
        let Some(next) = sim.next_event_time() else {
            return DriverStep::Drained;
        };
        if let Some(wait) = self.clock.wait_for(next) {
            return DriverStep::Wait(wait);
        }
        let before = sim.stats().scheduling_passes;
        let stepped = sim.step_batch(next);
        debug_assert!(stepped, "a due batch at the head of the queue always runs");
        DriverStep::Worked {
            passes: sim.stats().scheduling_passes - before,
        }
    }

    /// Steps until [`DriverStep::Drained`], sleeping out any
    /// [`DriverStep::Wait`] pauses. Only sensible for finite workloads;
    /// the daemon uses [`step`](Driver::step) directly so it can interleave
    /// submissions.
    pub fn run_to_completion<S: Scheduler>(&mut self, sim: &mut Simulation<S>) {
        loop {
            match self.step(sim) {
                DriverStep::Worked { .. } => {}
                DriverStep::Wait(d) => std::thread::sleep(d),
                DriverStep::Drained => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::job::{JobSpec, StageKind, StageSpec, TaskSpec};
    use crate::sched::{AllocationPlan, SchedContext};
    use crate::time::SimDuration;

    struct Greedy;
    impl Scheduler for Greedy {
        fn name(&self) -> &str {
            "greedy"
        }
        fn allocate(&mut self, ctx: &SchedContext<'_>) -> AllocationPlan {
            ctx.jobs()
                .iter()
                .map(|j| (j.id, j.max_useful_allocation()))
                .collect()
        }
    }

    fn workload() -> Vec<JobSpec> {
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

    fn sim() -> Simulation<Greedy> {
        Simulation::builder()
            .cluster(ClusterConfig::new(2, 4))
            .jobs(workload())
            .build(Greedy)
            .unwrap()
    }

    #[test]
    fn compressed_wall_driver_matches_run_byte_for_byte() {
        let baseline = sim().run();
        let mut stepped = sim();
        // Extreme compression: the whole workload is due within the first
        // wall millisecond, so the test does not actually sleep.
        let mut driver = Driver::new(CompressedWallClock::new(1e9));
        driver.run_to_completion(&mut stepped);
        let report = stepped.into_report();
        assert_eq!(
            serde_json::to_string(&baseline).unwrap(),
            serde_json::to_string(&report).unwrap()
        );
    }

    #[test]
    fn live_submission_matches_upfront_jobs_byte_for_byte() {
        let baseline = sim().run();
        let mut live = Simulation::builder()
            .cluster(ClusterConfig::new(2, 4))
            .build(Greedy)
            .unwrap();
        // Submit in arrival order before running: JobIds continue the dense
        // sequence exactly as build() would have assigned them.
        for spec in workload() {
            live.submit(spec).unwrap();
        }
        Driver::new(CompressedWallClock::new(1e9)).run_to_completion(&mut live);
        assert_eq!(
            serde_json::to_string(&baseline).unwrap(),
            serde_json::to_string(&live.into_report()).unwrap()
        );
    }

    #[test]
    fn mid_run_submission_is_scheduled_and_finishes() {
        let mut sim = sim();
        assert!(sim.run_until(SimTime::from_secs(4)));
        let late = JobSpec::builder()
            // In the past relative to the paused clock: must be clamped
            // forward, not delivered retroactively.
            .arrival(SimTime::from_secs(1))
            .stage(StageSpec::uniform(
                StageKind::Map,
                2,
                TaskSpec::new(SimDuration::from_secs(2)),
            ))
            .build();
        let id = sim.submit(late).unwrap();
        assert_eq!(id.index(), 6);
        Driver::new(CompressedWallClock::new(1e9)).run_to_completion(&mut sim);
        let outcome = sim.job_outcome(id).unwrap();
        assert_eq!(outcome.arrival, sim.now().min(SimTime::from_secs(4)));
        assert!(outcome.finish.is_some());
        let report = sim.into_report();
        assert!(report.all_completed());
    }

    #[test]
    fn wall_clock_waits_then_comes_due() {
        let clock = CompressedWallClock::new(1000.0);
        // 10 sim-seconds out at 1000x is 10ms of wall time: a wait now...
        let far = SimTime::from_secs(10);
        let wait = clock.wait_for(far).expect("not due yet");
        assert!(wait <= Duration::from_millis(11));
        std::thread::sleep(wait + Duration::from_millis(2));
        // ...and due after sleeping it out.
        assert!(clock.wait_for(far).is_none());
        assert!(clock.now_sim() >= far);
    }

    #[test]
    fn resumed_clock_anchors_at_base() {
        let clock = CompressedWallClock::resumed_at(SimTime::from_secs(500), 1000.0);
        assert!(clock.now_sim() >= SimTime::from_secs(500));
        assert_eq!(clock.compression(), 1000.0);
    }

    #[test]
    fn kill_resume_cycles_replay_byte_identically_under_wall_pacing() {
        // The daemon's crash-restart path: run a few batches under wall
        // pacing, snapshot ("kill"), restore into a fresh engine, and
        // re-anchor a fresh clock at the snapshot's sim time. Repeating
        // the cycle must neither drop nor double-process any batch — the
        // final report stays byte-identical to an uninterrupted run.
        let baseline = sim().run();
        let compression = 1e9;
        let mut live = sim();
        let mut driver = Driver::new(CompressedWallClock::new(compression));
        let mut cycles = 0u32;
        'replay: loop {
            for _ in 0..3 {
                match driver.step(&mut live) {
                    DriverStep::Worked { .. } => {}
                    DriverStep::Wait(d) => std::thread::sleep(d),
                    DriverStep::Drained => break 'replay,
                }
            }
            let paused_at = live.now();
            let snap = live.snapshot();
            live = Simulation::restore(snap, Greedy).unwrap();
            assert_eq!(live.now(), paused_at, "restore moved the sim clock");
            driver = Driver::new(CompressedWallClock::resumed_at(live.now(), compression));
            cycles += 1;
        }
        assert!(
            cycles >= 2,
            "workload drained in {cycles} cycles; too few to exercise resume"
        );
        assert_eq!(
            serde_json::to_string(&baseline).unwrap(),
            serde_json::to_string(&live.into_report()).unwrap()
        );
    }

    #[test]
    fn resume_reanchors_without_replaying_downtime() {
        // Wall time that passes while the daemon is down must not be
        // converted into simulated time on resume: the resumed clock
        // starts at the snapshot's reading, not at "where the old clock
        // would be by now".
        let compression = 1000.0;
        let clock = CompressedWallClock::new(compression);
        std::thread::sleep(Duration::from_millis(5));
        let killed_at = clock.now_sim();
        // 100ms of downtime is 100 sim-seconds at 1000x — an unmissable
        // jump if the resume path replayed it.
        std::thread::sleep(Duration::from_millis(100));
        let resumed = CompressedWallClock::resumed_at(killed_at, compression);
        let now = resumed.now_sim();
        assert!(now >= killed_at, "resumed clock went backwards");
        let jump_ms = now.as_millis() - killed_at.as_millis();
        assert!(
            jump_ms < 50_000,
            "resume replayed downtime: jumped {jump_ms} sim-ms past the kill point"
        );
    }

    #[test]
    fn repeated_resume_cycles_accumulate_no_drift() {
        // Chained kill→resume at high compression: each cycle re-anchors
        // at the predecessor's reading. Any per-cycle gain would compound;
        // the total advance must stay bounded by the wall time actually
        // spent (× compression).
        let compression = 10_000.0;
        let start = Instant::now();
        let mut clock = CompressedWallClock::new(compression);
        for _ in 0..8 {
            std::thread::sleep(Duration::from_millis(1));
            let reading = clock.now_sim();
            clock = CompressedWallClock::resumed_at(reading, compression);
            assert!(clock.now_sim() >= reading, "resume went backwards");
        }
        let advanced_ms = clock.now_sim().as_millis();
        let wall_budget_ms = (start.elapsed().as_secs_f64() * compression * 1000.0) as u64;
        assert!(
            advanced_ms <= wall_budget_ms + 1,
            "clock advanced {advanced_ms} sim-ms over a wall budget of {wall_budget_ms}"
        );
    }
}
