//! Seeded adversarial trace fuzzer for oracle-driven testing.
//!
//! Where the other generators model *plausible* clusters, this one models
//! hostile ones: arrival patterns and job shapes chosen to stress the
//! engine's batching, admission, refill, and accounting machinery at its
//! edges. Every trace is a pure function of `(scenario, seed)`, so a
//! divergence found by the differential harness (`lasmq-verify`) replays
//! from two small integers.
//!
//! Scenarios:
//!
//! * [`Bursty`](AdversarialScenario::Bursty) — arrivals clumped into
//!   same-millisecond bursts, forcing many jobs through one event batch.
//! * [`SingleTaskFlood`](AdversarialScenario::SingleTaskFlood) — a flood
//!   of one-task jobs, maximising admission/completion churn per unit of
//!   simulated time.
//! * [`TinyTasks`](AdversarialScenario::TinyTasks) — 1 ms tasks (the
//!   engine rejects true zero-duration tasks), so task finishes land in
//!   the same batches as arrivals and ticks.
//! * [`FullWidth`](AdversarialScenario::FullWidth) — tasks as wide as a
//!   whole node, exercising fragmentation and the refill cursor's
//!   blocked-head handling.
//! * [`Mixed`](AdversarialScenario::Mixed) — a seeded blend of all of the
//!   above plus multi-stage jobs with start delays.

use lasmq_simulator::{JobSpec, SimDuration, SimTime, StageKind, StageSpec, TaskSpec};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The stress pattern an [`AdversarialWorkload`] generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdversarialScenario {
    /// Same-instant arrival clumps.
    Bursty,
    /// Many one-task jobs.
    SingleTaskFlood,
    /// 1 ms tasks.
    TinyTasks,
    /// Node-wide tasks.
    FullWidth,
    /// A seeded blend of every scenario.
    Mixed,
}

impl AdversarialScenario {
    /// Every scenario, for exhaustive sweeps.
    pub const ALL: [AdversarialScenario; 5] = [
        AdversarialScenario::Bursty,
        AdversarialScenario::SingleTaskFlood,
        AdversarialScenario::TinyTasks,
        AdversarialScenario::FullWidth,
        AdversarialScenario::Mixed,
    ];

    /// Stable lowercase name (used as the job label).
    pub fn name(&self) -> &'static str {
        match self {
            AdversarialScenario::Bursty => "bursty",
            AdversarialScenario::SingleTaskFlood => "single-task-flood",
            AdversarialScenario::TinyTasks => "tiny-tasks",
            AdversarialScenario::FullWidth => "full-width",
            AdversarialScenario::Mixed => "mixed",
        }
    }
}

/// Generator for adversarial traces.
///
/// # Examples
///
/// ```
/// use lasmq_workload::adversarial::{AdversarialScenario, AdversarialWorkload};
///
/// let jobs = AdversarialWorkload::new(AdversarialScenario::Bursty)
///     .jobs(40)
///     .seed(7)
///     .generate();
/// assert_eq!(jobs.len(), 40);
/// assert!(jobs.iter().all(|j| j.validate(120).is_ok()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdversarialWorkload {
    scenario: AdversarialScenario,
    jobs: usize,
    seed: u64,
    max_width: u32,
}

impl AdversarialWorkload {
    /// A generator for `scenario` with 50 jobs, seed 0, and tasks no wider
    /// than 30 containers (one default node).
    pub fn new(scenario: AdversarialScenario) -> Self {
        AdversarialWorkload {
            scenario,
            jobs: 50,
            seed: 0,
            max_width: 30,
        }
    }

    /// Sets the number of jobs.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps task width (use the target cluster's per-node capacity so
    /// full-width tasks stay placeable).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn max_width(mut self, width: u32) -> Self {
        assert!(width > 0, "tasks need at least one container");
        self.max_width = width;
        self
    }

    /// Generates the trace, sorted by arrival time.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero.
    pub fn generate(&self) -> Vec<JobSpec> {
        assert!(self.jobs > 0, "workload needs at least one job");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut jobs: Vec<JobSpec> = (0..self.jobs).map(|i| self.job(i, &mut rng)).collect();
        jobs.sort_by_key(JobSpec::arrival);
        jobs
    }

    fn job(&self, index: usize, rng: &mut StdRng) -> JobSpec {
        match self.scenario {
            AdversarialScenario::Bursty => self.bursty_job(index, rng),
            AdversarialScenario::SingleTaskFlood => self.flood_job(index, rng),
            AdversarialScenario::TinyTasks => self.tiny_job(index, rng),
            AdversarialScenario::FullWidth => self.full_width_job(index, rng),
            AdversarialScenario::Mixed => match rng.next_u64() % 5 {
                0 => self.bursty_job(index, rng),
                1 => self.flood_job(index, rng),
                2 => self.tiny_job(index, rng),
                3 => self.full_width_job(index, rng),
                _ => self.staged_job(index, rng),
            },
        }
    }

    /// Arrivals clump: jobs land in groups of up to eight sharing one
    /// millisecond, with seconds-long gaps between groups.
    fn bursty_job(&self, index: usize, rng: &mut StdRng) -> JobSpec {
        let burst = index / 8;
        let gap_ms = 1 + (rng.next_u64() % 5_000);
        let arrival = SimTime::from_millis(burst as u64 * gap_ms);
        let tasks = 1 + (rng.next_u64() % 20) as u32;
        let dur = SimDuration::from_millis(50 + rng.next_u64() % 10_000);
        self.build(arrival, tasks, dur, 1, index)
    }

    /// One-task jobs arriving every few milliseconds.
    fn flood_job(&self, index: usize, rng: &mut StdRng) -> JobSpec {
        let arrival = SimTime::from_millis(index as u64 * (1 + rng.next_u64() % 4));
        let dur = SimDuration::from_millis(1 + rng.next_u64() % 2_000);
        self.build(arrival, 1, dur, 1, index)
    }

    /// Many 1 ms tasks: finishes collide with arrivals and ticks in the
    /// same event batches.
    fn tiny_job(&self, index: usize, rng: &mut StdRng) -> JobSpec {
        let arrival = SimTime::from_millis(index as u64 * (rng.next_u64() % 10));
        let tasks = 1 + (rng.next_u64() % 50) as u32;
        self.build(arrival, tasks, SimDuration::from_millis(1), 1, index)
    }

    /// Tasks that each demand a whole node's worth of containers.
    fn full_width_job(&self, index: usize, rng: &mut StdRng) -> JobSpec {
        let arrival = SimTime::from_millis(index as u64 * (rng.next_u64() % 500));
        let tasks = 1 + (rng.next_u64() % 4) as u32;
        let dur = SimDuration::from_millis(100 + rng.next_u64() % 5_000);
        self.build(arrival, tasks, dur, self.max_width, index)
    }

    /// Multi-stage job with a start delay on the second stage.
    fn staged_job(&self, index: usize, rng: &mut StdRng) -> JobSpec {
        let arrival = SimTime::from_millis(index as u64 * (rng.next_u64() % 1_000));
        let tasks = 1 + (rng.next_u64() % 10) as u32;
        let dur = SimDuration::from_millis(10 + rng.next_u64() % 3_000);
        let delay = SimDuration::from_millis(rng.next_u64() % 2_000);
        JobSpec::builder()
            .arrival(arrival)
            .priority(self.priority(rng))
            .label(self.scenario.name())
            .bin(self.bin(index))
            .stage(StageSpec::uniform(
                StageKind::Map,
                tasks,
                TaskSpec::new(dur),
            ))
            .stage(
                StageSpec::uniform(StageKind::Reduce, 1 + tasks / 2, TaskSpec::new(dur))
                    .with_start_delay(delay),
            )
            .build()
    }

    fn build(
        &self,
        arrival: SimTime,
        tasks: u32,
        dur: SimDuration,
        width: u32,
        index: usize,
    ) -> JobSpec {
        JobSpec::builder()
            .arrival(arrival)
            .priority(1 + (index % 5) as u8)
            .label(self.scenario.name())
            .bin(self.bin(index))
            .stage(StageSpec::uniform(
                StageKind::Generic,
                tasks,
                TaskSpec::new(dur).with_containers(width.min(self.max_width)),
            ))
            .build()
    }

    fn priority(&self, rng: &mut StdRng) -> u8 {
        1 + (rng.next_u64() % 5) as u8
    }

    fn bin(&self, index: usize) -> u8 {
        1 + (index % 9) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        for scenario in AdversarialScenario::ALL {
            let a = AdversarialWorkload::new(scenario)
                .jobs(60)
                .seed(9)
                .generate();
            let b = AdversarialWorkload::new(scenario)
                .jobs(60)
                .seed(9)
                .generate();
            assert_eq!(a, b, "{scenario:?} not deterministic");
            let c = AdversarialWorkload::new(scenario)
                .jobs(60)
                .seed(10)
                .generate();
            assert_ne!(a, c, "{scenario:?} ignores its seed");
        }
    }

    #[test]
    fn all_traces_validate_and_sort() {
        for scenario in AdversarialScenario::ALL {
            for seed in 0..5 {
                let jobs = AdversarialWorkload::new(scenario)
                    .jobs(80)
                    .seed(seed)
                    .max_width(30)
                    .generate();
                assert_eq!(jobs.len(), 80);
                for pair in jobs.windows(2) {
                    assert!(pair[0].arrival() <= pair[1].arrival());
                }
                for j in &jobs {
                    assert_eq!(j.validate(120), Ok(()), "{scenario:?} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn bursty_traces_share_arrival_instants() {
        let jobs = AdversarialWorkload::new(AdversarialScenario::Bursty)
            .jobs(64)
            .seed(3)
            .generate();
        let mut counts = std::collections::HashMap::new();
        for j in &jobs {
            *counts.entry(j.arrival()).or_insert(0u32) += 1;
        }
        assert!(
            counts.values().any(|&c| c >= 4),
            "no same-instant arrival clump generated"
        );
    }

    #[test]
    fn full_width_respects_cap() {
        let jobs = AdversarialWorkload::new(AdversarialScenario::FullWidth)
            .jobs(30)
            .seed(1)
            .max_width(12)
            .generate();
        assert!(jobs
            .iter()
            .all(|j| j.stages()[0].containers_per_task() == 12));
    }

    #[test]
    fn tiny_tasks_are_one_millisecond() {
        let jobs = AdversarialWorkload::new(AdversarialScenario::TinyTasks)
            .jobs(30)
            .seed(2)
            .generate();
        assert!(jobs.iter().all(|j| {
            j.stages()[0]
                .tasks()
                .all(|t| t.duration() == SimDuration::from_millis(1))
        }));
    }
}
