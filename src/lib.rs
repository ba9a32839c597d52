//! **lasmq** — a from-scratch Rust reproduction of *Job Scheduling without
//! Prior Information in Big Data Processing Systems* (Hu, Li, Qin, Goh —
//! ICDCS 2017).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`simulator`] — a discrete-event YARN-like container-cluster
//!   simulator: jobs → stages → tasks, pluggable schedulers behind an
//!   information-hiding [`simulator::JobView`], admission control,
//!   service accounting and response-time/slowdown metrics.
//! * [`core`] — **LAS_MQ**, the paper's contribution: a multilevel
//!   feedback queue that mimics shortest-job-first without knowing job
//!   sizes, with stage-aware service estimation and demand-based in-queue
//!   ordering.
//! * [`schedulers`] — the baselines: FIFO, priority-weighted Fair, LAS,
//!   equal-share PS, the SJF/SRTF oracles, and a [`schedulers::LearnedScheduler`]
//!   scoring jobs with a trained linear policy.
//! * [`workload`] — the paper's workloads: the PUMA mix of Table I, a
//!   synthetic Facebook-2010-like heavy-tailed trace, and the uniform
//!   batch.
//! * [`yarn`] — the paper's Fig. 4 deployment layer: an emulated YARN
//!   capacity scheduler driven by LAS_MQ as a capacity-updating
//!   controller.
//! * [`experiments`] — runners regenerating every table and figure of the
//!   paper's evaluation (also available as the `repro` binary), plus the
//!   extensions, among them the cross-entropy trainer of the learned
//!   policy (`repro train`), which scores candidates as forks of one warm
//!   snapshot.
//! * [`serve`] — a real-time scheduler daemon (`lasmq-serve`): streaming
//!   job admission over newline-delimited JSON TCP, wall-clock pacing at
//!   configurable time compression, admission backpressure, and
//!   snapshot-based kill → restart durability, plus the `lasmq-loadgen`
//!   open-loop trace replayer.
//!
//! # Quickstart
//!
//! Compare LAS_MQ against the Fair scheduler on the paper's testbed
//! workload:
//!
//! ```
//! use lasmq::core::{LasMq, LasMqConfig};
//! use lasmq::schedulers::Fair;
//! use lasmq::simulator::{ClusterConfig, Simulation};
//! use lasmq::workload::PumaWorkload;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let jobs = PumaWorkload::new().jobs(20).mean_interval_secs(50.0).seed(7).generate();
//!
//! let fair = Simulation::builder()
//!     .cluster(ClusterConfig::new(4, 30))
//!     .admission_limit(30)
//!     .jobs(jobs.clone())
//!     .build(Fair::new())?
//!     .run();
//! let las_mq = Simulation::builder()
//!     .cluster(ClusterConfig::new(4, 30))
//!     .admission_limit(30)
//!     .jobs(jobs)
//!     .build(LasMq::new(LasMqConfig::paper_experiments()))?
//!     .run();
//!
//! println!(
//!     "mean response — Fair: {:.0}s, LAS_MQ: {:.0}s",
//!     fair.mean_response_secs().unwrap(),
//!     las_mq.mean_response_secs().unwrap(),
//! );
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable scenarios and `DESIGN.md`/`EXPERIMENTS.md`
//! for the reproduction methodology and measured-vs-paper results.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use lasmq_analysis as analysis;
pub use lasmq_campaign as campaign;
pub use lasmq_core as core;
pub use lasmq_experiments as experiments;
pub use lasmq_schedulers as schedulers;
pub use lasmq_serve as serve;
pub use lasmq_simulator as simulator;
pub use lasmq_workload as workload;
pub use lasmq_yarn as yarn;
