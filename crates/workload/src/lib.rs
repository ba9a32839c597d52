//! Workload generation for the LAS_MQ reproduction (ICDCS 2017).
//!
//! Three workload families drive the paper's evaluation, all reproduced
//! here as seeded, deterministic generators:
//!
//! * [`puma`] — the testbed workload of Table I: 100 Hadoop jobs over eight
//!   PUMA benchmark templates in four size bins, Poisson arrivals
//!   (Figs. 3, 5 and 6),
//! * [`facebook`] — a synthetic stand-in for the heavy-tailed Facebook 2010
//!   trace: 24,443 jobs, bounded-Pareto sizes with normalized mean ≈ 20,
//!   load 0.9 (Figs. 7(a) and 8),
//! * [`uniform`] — the light-tailed batch: 10,000 jobs of size 10,000
//!   (Fig. 7(b)).
//!
//! Supporting modules: [`dist`] (first-principles distributions),
//! [`arrivals`] (Poisson/batch arrival processes), [`skew`] (map/reduce
//! data-skew models, §II of the paper), [`trace`] (a JSON trace format
//! for freezing and replaying workloads) and [`adversarial`]
//! (seeded hostile traces for the `lasmq-verify` differential oracle).
//! The [`scale`] module stretches the trace shape to millions of jobs on
//! thousand-node clusters for engine scaling benchmarks.
//!
//! # Examples
//!
//! ```
//! use lasmq_workload::puma::PumaWorkload;
//!
//! // The Fig. 6 workload: 100 jobs, mean arrival interval 50 s.
//! let jobs = PumaWorkload::new().jobs(100).mean_interval_secs(50.0).seed(42).generate();
//! assert_eq!(jobs.len(), 100);
//! // Same seed, same workload — bit for bit.
//! let again = PumaWorkload::new().jobs(100).mean_interval_secs(50.0).seed(42).generate();
//! assert_eq!(jobs, again);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod adversarial;
pub mod arrivals;
pub mod dist;
pub mod facebook;
pub mod puma;
pub mod scale;
pub mod skew;
pub mod trace;
pub mod uniform;

pub use adversarial::{AdversarialScenario, AdversarialWorkload};
pub use facebook::FacebookTrace;
pub use puma::PumaWorkload;
pub use scale::ScaleTrace;
pub use trace::{Trace, TraceError, TraceSummary};
pub use uniform::UniformWorkload;
