//! The light-tailed (uniform) workload of Fig. 7(b).
//!
//! "For the case of light-tailed distribution, we generate 10,000 jobs, all
//! with the size of 10,000" (§V-A). All jobs are submitted together, which
//! is exactly the regime where Fair scheduling and LAS collapse to
//! processor sharing while FIFO and LAS_MQ serialize jobs and halve the
//! mean response time.
//!
//! Each job is one stage of `tasks_per_job` equal tasks. The default 1,000
//! tasks of 10 s make a size-10,000 job need ten full waves of a
//! 100-container cluster, so schedulers genuinely choose between
//! time-slicing jobs (processor sharing) and serializing them — a job must
//! not fit in a single wave or every policy degenerates to FIFO.

use lasmq_simulator::{JobSpec, SimDuration, StageKind, StageSpec, TaskSpec};

/// Generator for the uniform batch workload.
///
/// # Examples
///
/// ```
/// use lasmq_workload::uniform::UniformWorkload;
///
/// let jobs = UniformWorkload::new().jobs(50).generate();
/// assert!(jobs.iter().all(|j| j.total_service().as_container_secs() == 10_000.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformWorkload {
    jobs: usize,
    size_units: f64,
    tasks_per_job: u32,
    seed: u64,
    load: Option<f64>,
}

impl UniformWorkload {
    /// The paper's setup: 10,000 jobs of size 10,000 container-seconds.
    pub fn new() -> Self {
        UniformWorkload {
            jobs: 10_000,
            size_units: 10_000.0,
            tasks_per_job: 1_000,
            seed: 0,
            load: None,
        }
    }

    /// Sets the number of jobs.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets every job's size in container-seconds.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not positive and finite.
    pub fn size_units(mut self, size: f64) -> Self {
        assert!(size.is_finite() && size > 0.0, "size must be positive");
        self.size_units = size;
        self
    }

    /// Sets how many tasks each job splits into (task duration =
    /// size / tasks).
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is zero.
    pub fn tasks_per_job(mut self, tasks: u32) -> Self {
        assert!(tasks > 0, "jobs need at least one task");
        self.tasks_per_job = tasks;
        self
    }

    /// Sets the RNG seed (reserved; the uniform batch is fully
    /// deterministic).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Spreads arrivals to a target system load ρ on a 100-container
    /// cluster instead of the paper's time-zero batch: jobs arrive with
    /// deterministic spacing `size / (ρ × 100)` seconds, so the offered
    /// load is exactly ρ. The robustness campaign uses this to sweep the
    /// uniform trace across the same load axis as the Facebook trace.
    ///
    /// # Panics
    ///
    /// Panics if `load` is not in `(0, 1]`.
    pub fn load(mut self, load: f64) -> Self {
        assert!(load > 0.0 && load <= 1.0, "load must be in (0, 1]");
        self.load = Some(load);
        self
    }

    /// Generates the batch: all jobs arrive at time zero (or with
    /// constant-rate spacing when [`load`](Self::load) is set).
    ///
    /// Every job carries priority 1 — the uniform simulation exercises
    /// *identical* featureless jobs, so weighted fair sharing must behave
    /// as pure processor sharing (the regime Fig. 7(b) demonstrates).
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero.
    pub fn generate(&self) -> Vec<JobSpec> {
        assert!(self.jobs > 0, "workload needs at least one job");
        let task_secs = self.size_units / self.tasks_per_job as f64;
        // With a load target, job i arrives at i × (size / (ρ × 100)) s;
        // without one, every interval is zero (the paper's batch).
        let interval_secs = self.load.map_or(0.0, |rho| self.size_units / (rho * 100.0));
        (0..self.jobs)
            .map(|i| {
                JobSpec::builder()
                    .priority(1)
                    .label("uniform")
                    .bin(1)
                    .arrival(lasmq_simulator::SimTime::from_secs_f64(
                        i as f64 * interval_secs,
                    ))
                    .stage(StageSpec::uniform(
                        StageKind::Generic,
                        self.tasks_per_job,
                        TaskSpec::new(SimDuration::from_secs_f64(task_secs)),
                    ))
                    .build()
            })
            .collect()
    }
}

impl Default for UniformWorkload {
    fn default() -> Self {
        UniformWorkload::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasmq_simulator::SimTime;

    #[test]
    fn defaults_match_paper() {
        let w = UniformWorkload::new();
        assert_eq!(w.jobs, 10_000);
        assert_eq!(w.size_units, 10_000.0);
    }

    #[test]
    fn all_jobs_identical_size_batch_arrival() {
        let jobs = UniformWorkload::new().jobs(20).generate();
        for j in &jobs {
            assert_eq!(j.arrival(), SimTime::ZERO);
            assert_eq!(j.total_service().as_container_secs(), 10_000.0);
            assert_eq!(j.stage_count(), 1);
            assert_eq!(j.validate(100), Ok(()));
        }
    }

    #[test]
    fn task_split_controls_granularity() {
        let jobs = UniformWorkload::new().jobs(1).tasks_per_job(10).generate();
        let stage = &jobs[0].stages()[0];
        assert_eq!(stage.task_count(), 10);
        assert_eq!(stage.task(0).duration(), SimDuration::from_secs(1_000));
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn zero_tasks_rejected() {
        let _ = UniformWorkload::new().tasks_per_job(0);
    }

    #[test]
    fn load_spreads_arrivals_at_the_configured_rate() {
        let jobs = UniformWorkload::new()
            .jobs(10)
            .size_units(1_000.0)
            .tasks_per_job(10)
            .load(0.5)
            .generate();
        // interval = 1000 / (0.5 × 100) = 20 s per job.
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.arrival(), SimTime::from_secs(20 * i as u64));
        }
        // Offered load over the arrival span is ρ by construction:
        // work/interval = 1000 c·s / 20 s = 50 containers = 0.5 × 100.
    }

    #[test]
    #[should_panic(expected = "load must be in")]
    fn out_of_range_load_rejected() {
        let _ = UniformWorkload::new().load(1.5);
    }
}
