//! A discrete-event simulator of a YARN-like container cluster, built as the
//! substrate for reproducing *Job Scheduling without Prior Information in
//! Big Data Processing Systems* (ICDCS 2017).
//!
//! The simulator models exactly the abstractions the paper's YARN
//! implementation relies on:
//!
//! * a cluster of **containers** (1 vcore + 2 GB each) spread over nodes,
//! * **jobs** made of sequential **stages** (map → reduce) whose **tasks**
//!   occupy containers for their duration — reduce tasks may be wider than
//!   map tasks, and a stage only becomes ready when its predecessor
//!   finishes,
//! * a pluggable [`Scheduler`] invoked on job arrival, task/stage/job
//!   completion and once per scheduling quantum, which sees only what a
//!   real scheduler can observe (attained service, stage progress,
//!   remaining tasks — never true job sizes) and answers with per-job
//!   container targets,
//! * FIFO **admission control** with a cap on concurrent jobs,
//! * per-job metrics: response time, isolated runtime and slowdown.
//!
//! # Quickstart
//!
//! ```
//! use lasmq_simulator::{
//!     AllocationPlan, ClusterConfig, JobSpec, SchedContext, Scheduler, SimDuration,
//!     Simulation, StageKind, StageSpec, TaskSpec,
//! };
//!
//! /// First-come-first-served: every job gets its full demand, in order.
//! struct Fifo;
//!
//! impl Scheduler for Fifo {
//!     fn name(&self) -> &str {
//!         "fifo"
//!     }
//!
//!     fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
//!         plan.extend(ctx.jobs().iter().map(|j| (j.id, j.max_useful_allocation())));
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let jobs = (0..3).map(|i| {
//!     JobSpec::builder()
//!         .arrival(lasmq_simulator::SimTime::from_secs(i * 5))
//!         .stage(StageSpec::uniform(
//!             StageKind::Map,
//!             8,
//!             TaskSpec::new(SimDuration::from_secs(10)),
//!         ))
//!         .build()
//! });
//!
//! let report = Simulation::builder()
//!     .cluster(ClusterConfig::new(4, 30)) // the paper's 120-container testbed
//!     .jobs(jobs)
//!     .build(Fifo)?
//!     .run();
//!
//! assert!(report.all_completed());
//! println!("mean response: {:.1}s", report.mean_response_secs().unwrap());
//! # Ok(())
//! # }
//! ```
//!
//! # Information hiding
//!
//! The paper's whole premise is scheduling *without prior information*, so
//! the scheduler-facing [`JobView`] exposes only runtime-observable signals.
//! True sizes reach exactly the schedulers whose
//! [`Scheduler::requires_oracle`] is `true` (the SJF/SRTF-style oracle
//! baselines); the engine asks at build, restore and fork, and no option
//! widens or narrows that.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod cluster;
pub mod engine;
pub mod error;
pub mod event;
pub mod ids;
pub mod invariant;
pub mod isolated;
pub mod job;
pub mod journal;
pub mod metrics;
pub mod sched;
pub mod snapshot;
pub mod telemetry;
pub mod testkit;
pub mod time;
mod views;

pub use cluster::{ClusterConfig, ClusterState};
pub use engine::{
    FailureConfig, PreemptionPolicy, Simulation, SimulationBuilder, SpeculationConfig,
};
pub use error::SimError;
pub use ids::{JobId, NodeId, StageId, TaskId};
pub use invariant::{InvariantKind, InvariantReport, InvariantViolation};
pub use job::{JobSpec, JobSpecBuilder, StageKind, StageSpec, TaskSpec};
pub use journal::{Journal, SimEvent};
pub use metrics::{EngineStats, JobOutcome, SimulationReport};
pub use sched::{AllocationPlan, JobView, OracleInfo, SchedContext, Scheduler};
pub use snapshot::{SimSnapshot, SNAPSHOT_SCHEMA_VERSION};
pub use telemetry::{QueueDemotion, Telemetry, TelemetrySample};
pub use time::{Service, SimDuration, SimTime};
