//! Million-job scale workload: the trace-simulation shape at cluster scale.
//!
//! The paper's trace experiments (§V-C) replay 24,443 jobs against a flat
//! 100-container pool. This module stretches that shape by two orders of
//! magnitude — millions of heavy-tailed jobs against thousand-node
//! clusters — to exercise the engine's scaling behaviour (calendar-queue
//! event dispatch, struct-of-arrays job state, O(log n) container
//! placement) rather than a paper figure. The statistical shape matches
//! [`facebook`](crate::facebook): bounded-Pareto sizes on `[1, 10⁴]` with
//! tail index 0.8, Poisson arrivals at the rate realizing load 0.9,
//! priorities uniform on 1–5.
//!
//! Tasks are half a service unit each (versus the trace's unit tasks).
//! The grain is the lever that trades event volume against concurrency:
//! finer tasks emit more task-finish events per job, but each job drains
//! its cluster share sooner, so far fewer jobs are simultaneously active
//! — and the number of active jobs is what every scheduling pass pays
//! for. At 0.5 units a million-job trace yields roughly forty million
//! events over a couple hundred concurrently-active jobs.
//!
//! # Examples
//!
//! A scaled-down smoke run:
//!
//! ```
//! use lasmq_workload::scale::ScaleTrace;
//!
//! let trace = ScaleTrace::new().jobs(2_000).seed(7);
//! let jobs = trace.generate();
//! assert_eq!(jobs.len(), 2_000);
//! // Deterministic per seed, bit for bit.
//! assert_eq!(jobs, trace.generate());
//! ```

use lasmq_simulator::{ClusterConfig, JobSpec};

use crate::facebook::FacebookTrace;

/// Default job count: a full million.
pub const SCALE_JOB_COUNT: usize = 1_000_000;

/// Default cluster: 1,000 nodes × 8 containers.
pub const SCALE_NODES: u32 = 1_000;

/// Containers hosted by each node of the default scale cluster.
pub const SCALE_CONTAINERS_PER_NODE: u32 = 8;

/// Generator for the million-job, thousand-node workload: a
/// [`FacebookTrace`] labelled `"scale"`, sized for a node × container
/// cluster, with half-unit tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleTrace {
    trace: FacebookTrace,
    nodes: u32,
    containers_per_node: u32,
}

impl ScaleTrace {
    /// The default scale setup: one million jobs at load 0.9 on a
    /// 1,000-node × 8-container cluster, sizes on `[1, 10⁴]`.
    pub fn new() -> Self {
        let mut trace = FacebookTrace::new()
            .jobs(SCALE_JOB_COUNT)
            .capacity(SCALE_NODES * SCALE_CONTAINERS_PER_NODE);
        trace.label = "scale";
        trace.task_secs = 0.5;
        ScaleTrace {
            trace,
            nodes: SCALE_NODES,
            containers_per_node: SCALE_CONTAINERS_PER_NODE,
        }
    }

    /// Sets the number of jobs (for scaled-down runs).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.trace = self.trace.jobs(jobs);
        self
    }

    /// Sets the cluster shape the load is computed against. The simulation
    /// must run on [`cluster`](Self::cluster) for the load to be accurate.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn nodes(mut self, nodes: u32, containers_per_node: u32) -> Self {
        assert!(
            nodes > 0 && containers_per_node > 0,
            "cluster dimensions must be positive"
        );
        self.nodes = nodes;
        self.containers_per_node = containers_per_node;
        self.trace = self.trace.capacity(self.cluster().total_containers());
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.trace = self.trace.seed(seed);
        self
    }

    /// The cluster this trace is sized for.
    pub fn cluster(&self) -> ClusterConfig {
        ClusterConfig::new(self.nodes, self.containers_per_node)
    }

    /// Generates the trace: heavy-tailed sizes, then Poisson arrivals at
    /// the rate that realizes the configured load given the empirical mean
    /// size.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero.
    pub fn generate(&self) -> Vec<JobSpec> {
        self.trace.generate()
    }
}

impl Default for ScaleTrace {
    fn default() -> Self {
        ScaleTrace::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_million_scale() {
        let t = ScaleTrace::new();
        assert_eq!(t, t.jobs(SCALE_JOB_COUNT));
        assert_ne!(t, t.jobs(SCALE_JOB_COUNT - 1));
        assert_eq!(t.cluster().total_containers(), 8_000);
    }

    #[test]
    fn sizes_are_heavy_tailed_with_mean_near_20() {
        let jobs = ScaleTrace::new().jobs(20_000).seed(2).generate();
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
    fn jobs_validate_against_the_scale_cluster() {
        let trace = ScaleTrace::new().jobs(500).seed(4);
        let capacity = trace.cluster().total_containers();
        for j in trace.generate() {
            assert_eq!(j.stage_count(), 1);
            assert_eq!(j.validate(capacity), Ok(()));
        }
    }

    #[test]
    fn tasks_carry_about_half_a_unit_each() {
        // The grain bounds per-pass cost (see the module docs); a changed
        // default silently re-shapes the committed BENCH_7 baseline.
        let jobs = ScaleTrace::new().jobs(5_000).seed(5).generate();
        let tasks: usize = jobs
            .iter()
            .map(|j| j.stages()[0].task_count() as usize)
            .sum();
        let service: f64 = jobs
            .iter()
            .map(|j| j.total_service().as_container_secs())
            .sum();
        let grain = service / tasks as f64;
        assert!((0.3..0.7).contains(&grain), "mean task grain {grain}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ScaleTrace::new().jobs(300).seed(6).generate();
        let b = ScaleTrace::new().jobs(300).seed(6).generate();
        assert_eq!(a, b);
        let c = ScaleTrace::new().jobs(300).seed(7).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn arrival_rate_realizes_load() {
        let trace = ScaleTrace::new().jobs(20_000).seed(3);
        let jobs = trace.generate();
        let capacity = trace.cluster().total_containers() as f64;
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
        let offered_load = total_work / (span * capacity);
        assert!((offered_load - 0.9).abs() < 0.12, "load {offered_load}");
    }

    #[test]
    #[should_panic(expected = "cluster dimensions")]
    fn zero_nodes_rejected() {
        let _ = ScaleTrace::new().nodes(0, 8);
    }
}
