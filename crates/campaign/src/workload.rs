//! Declarative workload descriptions for campaign cells.
//!
//! A [`WorkloadSpec`] names one of the workspace's generators plus its
//! full parameterization, so a campaign cell is pure data: the jobs are
//! generated inside the worker that executes the cell, and the spec's
//! serialized form participates in the cell's content address. Two cells
//! with the same spec (and scheduler and setup) are the same run, no
//! matter which experiment declared them.

use lasmq_simulator::JobSpec;
use lasmq_workload::{FacebookTrace, PumaWorkload, ScaleTrace, UniformWorkload};
use serde::{Deserialize, Serialize};

/// Which workload a cell runs, with every generator knob pinned.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// The PUMA benchmark mix (Table I) with Poisson arrivals.
    Puma {
        /// Number of jobs.
        jobs: usize,
        /// Mean inter-arrival time in seconds.
        mean_interval_secs: f64,
        /// Generator seed.
        seed: u64,
        /// Inter-datacenter shuffle bandwidth (MB/s); `None` = co-located.
        #[serde(default)]
        geo_bandwidth_mb_per_s: Option<f64>,
    },
    /// The Facebook heavy-tailed trace (§V-C).
    Facebook {
        /// Number of jobs.
        jobs: usize,
        /// Generator seed.
        seed: u64,
        /// Offered load ρ; `None` = the generator's default.
        #[serde(default)]
        load: Option<f64>,
    },
    /// The million-job scaling workload: the Facebook trace shape on a
    /// thousand-node cluster (see `lasmq_workload::scale`). Run it with
    /// [`SimSetup::scale_sim`](crate::SimSetup::scale_sim) so the load
    /// calculation and the simulated cluster agree.
    Scale {
        /// Number of jobs.
        jobs: usize,
        /// Cluster nodes the load is computed against.
        nodes: u32,
        /// Containers per node.
        containers_per_node: u32,
        /// Generator seed.
        seed: u64,
    },
    /// The uniform batch of Fig. 7(b).
    Uniform {
        /// Number of jobs.
        jobs: usize,
        /// Tasks per job.
        tasks_per_job: u32,
        /// Generator seed.
        seed: u64,
        /// Offered load ρ via constant-rate arrivals; `None` = the
        /// paper's time-zero batch.
        #[serde(default)]
        load: Option<f64>,
    },
    /// A pre-materialized job list (for workloads no named generator
    /// covers). The jobs themselves are hashed into the cell's content
    /// address.
    Explicit {
        /// A display name for the job list.
        name: String,
        /// The jobs, verbatim.
        jobs: Vec<JobSpec>,
    },
}

impl WorkloadSpec {
    /// Materializes the job list.
    pub fn generate(&self) -> Vec<JobSpec> {
        match self {
            WorkloadSpec::Puma {
                jobs,
                mean_interval_secs,
                seed,
                geo_bandwidth_mb_per_s,
            } => {
                let mut workload = PumaWorkload::new()
                    .jobs(*jobs)
                    .mean_interval_secs(*mean_interval_secs)
                    .seed(*seed);
                if let Some(bw) = geo_bandwidth_mb_per_s {
                    workload = workload.geo_bandwidth_mb_per_s(*bw);
                }
                workload.generate()
            }
            WorkloadSpec::Facebook { jobs, seed, load } => {
                let mut workload = FacebookTrace::new().jobs(*jobs).seed(*seed);
                if let Some(rho) = load {
                    workload = workload.load(*rho);
                }
                workload.generate()
            }
            WorkloadSpec::Scale {
                jobs,
                nodes,
                containers_per_node,
                seed,
            } => ScaleTrace::new()
                .jobs(*jobs)
                .nodes(*nodes, *containers_per_node)
                .seed(*seed)
                .generate(),
            WorkloadSpec::Uniform {
                jobs,
                tasks_per_job,
                seed,
                load,
            } => {
                let mut workload = UniformWorkload::new()
                    .jobs(*jobs)
                    .tasks_per_job(*tasks_per_job)
                    .seed(*seed);
                if let Some(rho) = load {
                    workload = workload.load(*rho);
                }
                workload.generate()
            }
            WorkloadSpec::Explicit { jobs, .. } => jobs.clone(),
        }
    }

    /// A short human label for telemetry.
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Puma { jobs, .. } => format!("puma×{jobs}"),
            WorkloadSpec::Facebook { jobs, .. } => format!("facebook×{jobs}"),
            WorkloadSpec::Scale { jobs, nodes, .. } => format!("scale×{jobs}@{nodes}n"),
            WorkloadSpec::Uniform { jobs, .. } => format!("uniform×{jobs}"),
            WorkloadSpec::Explicit { name, jobs } => format!("{name}×{}", jobs.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_specs_match_direct_generator_calls() {
        let spec = WorkloadSpec::Facebook {
            jobs: 50,
            seed: 7,
            load: None,
        };
        let direct = FacebookTrace::new().jobs(50).seed(7).generate();
        assert_eq!(spec.generate(), direct);

        let spec = WorkloadSpec::Puma {
            jobs: 20,
            mean_interval_secs: 50.0,
            seed: 3,
            geo_bandwidth_mb_per_s: None,
        };
        let direct = PumaWorkload::new()
            .jobs(20)
            .mean_interval_secs(50.0)
            .seed(3)
            .generate();
        assert_eq!(spec.generate(), direct);

        let spec = WorkloadSpec::Uniform {
            jobs: 10,
            tasks_per_job: 40,
            seed: 9,
            load: None,
        };
        let direct = UniformWorkload::new()
            .jobs(10)
            .tasks_per_job(40)
            .seed(9)
            .generate();
        assert_eq!(spec.generate(), direct);

        let spec = WorkloadSpec::Uniform {
            jobs: 10,
            tasks_per_job: 40,
            seed: 9,
            load: Some(0.7),
        };
        let direct = UniformWorkload::new()
            .jobs(10)
            .tasks_per_job(40)
            .seed(9)
            .load(0.7)
            .generate();
        assert_eq!(spec.generate(), direct);

        let spec = WorkloadSpec::Scale {
            jobs: 30,
            nodes: 16,
            containers_per_node: 4,
            seed: 11,
        };
        let direct = ScaleTrace::new().jobs(30).nodes(16, 4).seed(11).generate();
        assert_eq!(spec.generate(), direct);
    }

    #[test]
    fn specs_serialize_round_trip() {
        let spec = WorkloadSpec::Facebook {
            jobs: 12,
            seed: 5,
            load: Some(0.9),
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn explicit_specs_return_their_jobs() {
        let jobs = UniformWorkload::new()
            .jobs(3)
            .tasks_per_job(5)
            .seed(1)
            .generate();
        let spec = WorkloadSpec::Explicit {
            name: "custom".into(),
            jobs: jobs.clone(),
        };
        assert_eq!(spec.generate(), jobs);
        assert_eq!(spec.label(), "custom×3");
    }
}
