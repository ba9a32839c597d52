//! A synthetic stand-in for the Facebook 2010 production trace.
//!
//! The paper's heavy-tailed simulation replays a 24,443-job trace collected
//! from a Facebook cluster in 2010 (Chen et al., PVLDB 2012), with job
//! sizes computed from bytes processed and *normalized by the system load*
//! (set to 0.9); the normalized mean is ≈ 20 units (§V-C2 notes the "mean
//! normalized size of jobs in the trace is around 20") and no job exceeds
//! the fifth-queue threshold of 10⁴ (§V-C2's Fig. 8(a) discussion). The raw
//! trace is not redistributable, so this module *synthesizes* a trace with
//! the same statistical shape: bounded-Pareto sizes on `[1, 10⁴]` with tail
//! index 0.8 (mean ≈ 21), Poisson arrivals at a rate that produces the
//! target load.
//!
//! Each job is a single stage of unit-duration tasks — the paper's trace
//! simulator models jobs as pure `(size, attained service)` entities with
//! no Hadoop stage structure, which is also why the trace experiments run
//! LAS_MQ with [`LasMqConfig::paper_simulations`]: stage awareness and
//! task-count-based in-queue ordering are Hadoop-specific features
//! (evaluated on the testbed workload in Figs. 3, 5 and 6) that a
//! stage-less trace job cannot express. Replaying these jobs with the
//! testbed config would let LAS_MQ order jobs by their remaining task
//! count — a covert SRPT oracle on single-stage jobs — and overstate it.
//!
//! [`LasMqConfig::paper_simulations`]: ../../lasmq_core/struct.LasMqConfig.html#method.paper_simulations

use rand::SeedableRng;

use lasmq_simulator::{JobSpec, SimDuration, StageKind, StageSpec, TaskSpec};

use crate::arrivals::PoissonArrivals;
use crate::dist::{uniform01, BoundedPareto, Sample};

/// Number of jobs in the original Facebook 2010 trace.
pub const FACEBOOK_JOB_COUNT: usize = 24_443;

/// Generator for the synthetic heavy-tailed trace.
///
/// # Examples
///
/// A scaled-down trace for tests:
///
/// ```
/// use lasmq_workload::facebook::FacebookTrace;
///
/// let jobs = FacebookTrace::new().jobs(500).seed(1).generate();
/// assert_eq!(jobs.len(), 500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FacebookTrace {
    jobs: usize,
    load: f64,
    capacity: u32,
    /// Service units per task: 1 here, 0.5 for [`ScaleTrace`](crate::ScaleTrace).
    pub(crate) task_secs: f64,
    /// The label every generated job carries.
    pub(crate) label: &'static str,
    seed: u64,
}

impl FacebookTrace {
    /// The paper's setup: 24,443 jobs, load 0.9 on a 100-container cluster,
    /// sizes on `[1, 10⁴]` with mean ≈ 20 units.
    pub fn new() -> Self {
        FacebookTrace {
            jobs: FACEBOOK_JOB_COUNT,
            load: 0.9,
            capacity: 100,
            task_secs: 1.0,
            label: "facebook",
            seed: 0,
        }
    }

    /// Sets the number of jobs (for scaled-down runs).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the target system load ρ = arrival rate × mean size / capacity.
    ///
    /// # Panics
    ///
    /// Panics if `load` is not in `(0, 1]`.
    pub fn load(mut self, load: f64) -> Self {
        assert!(load > 0.0 && load <= 1.0, "load must be in (0, 1]");
        self.load = load;
        self
    }

    /// The cluster capacity the load is computed against. The simulation
    /// must use the same number of containers for the load to be accurate.
    pub fn capacity(mut self, containers: u32) -> Self {
        assert!(containers > 0, "capacity must be positive");
        self.capacity = containers;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the trace: job sizes first, then arrivals at the rate that
    /// realizes the configured load given the *empirical* mean size.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero.
    pub fn generate(&self) -> Vec<JobSpec> {
        assert!(self.jobs > 0, "trace needs at least one job");
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);

        // Sizes in service units (1 unit = 1 container-second here).
        let dist = BoundedPareto::new(0.8, 1.0, 1e4);
        let sizes: Vec<f64> = (0..self.jobs).map(|_| dist.sample(&mut rng)).collect();
        let mean_size = sizes.iter().sum::<f64>() / sizes.len() as f64;

        // ρ = λ · E[S] / C  =>  λ = ρ C / E[S].
        let rate = self.load * self.capacity as f64 / mean_size;
        let arrivals = PoissonArrivals::with_rate(rate).take(&mut rng, self.jobs);

        sizes
            .into_iter()
            .zip(arrivals)
            .map(|(size, arrival)| {
                let priority = 1 + (uniform01(&mut rng) * 5.0).min(4.0) as u8;
                let tasks = (size / self.task_secs).round().max(1.0) as u32;
                // Dividing the size over the rounded task count keeps the
                // job's total service equal to its drawn size.
                let task_secs = size / tasks as f64;
                JobSpec::builder()
                    .arrival(arrival)
                    .priority(priority)
                    .label(self.label)
                    .bin(size_bin(size))
                    .stage(StageSpec::uniform(
                        StageKind::Generic,
                        tasks,
                        TaskSpec::new(SimDuration::from_secs_f64(task_secs)),
                    ))
                    .build()
            })
            .collect()
    }
}

impl Default for FacebookTrace {
    fn default() -> Self {
        FacebookTrace::new()
    }
}

/// Buckets a normalized size into decade bins 1–4 (`<10`, `<10²`, `<10³`,
/// `≥10³`) for per-bin reporting.
pub fn size_bin(size: f64) -> u8 {
    if size < 10.0 {
        1
    } else if size < 100.0 {
        2
    } else if size < 1_000.0 {
        3
    } else {
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_scale() {
        let t = FacebookTrace::new();
        assert_eq!(t.jobs, FACEBOOK_JOB_COUNT);
        assert_eq!(t.load, 0.9);
    }

    #[test]
    fn sizes_are_heavy_tailed_with_mean_near_20() {
        let jobs = FacebookTrace::new().jobs(20_000).seed(2).generate();
        let sizes: Vec<f64> = jobs
            .iter()
            .map(|j| j.total_service().as_container_secs())
            .collect();
        let mean = sizes.iter().sum::<f64>() / sizes.len() as f64;
        assert!((12.0..32.0).contains(&mean), "mean {mean}");
        let max = sizes.iter().cloned().fold(0.0, f64::max);
        assert!(max <= 1e4 + 1.0, "max {max}");
        assert!(max > 1_000.0, "tail missing, max {max}");
    }

    #[test]
    fn arrival_rate_realizes_load() {
        let jobs = FacebookTrace::new()
            .jobs(20_000)
            .load(0.9)
            .capacity(100)
            .seed(3)
            .generate();
        let total_work: f64 = jobs
            .iter()
            .map(|j| j.total_service().as_container_secs())
            .sum();
        let span = jobs
            .iter()
            .map(|j| j.arrival())
            .max()
            .unwrap()
            .as_secs_f64();
        let offered_load = total_work / (span * 100.0);
        assert!((offered_load - 0.9).abs() < 0.12, "load {offered_load}");
    }

    #[test]
    fn jobs_are_single_stage_unit_width() {
        let jobs = FacebookTrace::new().jobs(300).seed(4).generate();
        for j in &jobs {
            assert_eq!(
                j.stage_count(),
                1,
                "trace jobs are stage-less size entities"
            );
            assert_eq!(j.validate(100), Ok(()));
            assert_eq!(j.stages()[0].containers_per_task(), 1);
        }
    }

    #[test]
    fn job_total_service_stays_within_size_bounds() {
        // Rounding size into unit tasks must preserve the drawn size.
        let jobs = FacebookTrace::new().jobs(500).seed(5).generate();
        for j in &jobs {
            let total = j.total_service().as_container_secs();
            assert!(total >= 0.9, "job below the size floor: {total}");
            assert!(total <= 1e4 * 1.01, "job above the cap: {total}");
            // size/tasks × tasks == size: task durations are uniform.
            let stage = &j.stages()[0];
            let per_task = stage.task(0).duration();
            assert!(stage.tasks().all(|t| t.duration() == per_task));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = FacebookTrace::new().jobs(200).seed(5).generate();
        let b = FacebookTrace::new().jobs(200).seed(5).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn size_bins_are_decades() {
        assert_eq!(size_bin(1.0), 1);
        assert_eq!(size_bin(9.9), 1);
        assert_eq!(size_bin(10.0), 2);
        assert_eq!(size_bin(999.0), 3);
        assert_eq!(size_bin(5_000.0), 4);
    }

    #[test]
    #[should_panic(expected = "load must be in")]
    fn silly_load_rejected() {
        let _ = FacebookTrace::new().load(1.5);
    }
}
