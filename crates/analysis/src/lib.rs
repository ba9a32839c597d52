//! Statistical analysis for simulation campaigns.
//!
//! Scheduling results on seeded workloads need more than a bare mean:
//!
//! * [`try_summarize`] — mean, standard deviation and a Student-t 95 %
//!   confidence interval (small-sample-correct, for the 3-seed campaigns
//!   the paper's testbed experiments use);
//! * [`try_bootstrap_ci`] — seeded percentile bootstrap for statistics the
//!   normal theory does not cover (p99s of heavy-tailed responses);
//! * [`try_paired_compare`] — per-seed paired differences between two
//!   schedulers, the variance-cancelling way to claim "A beats B";
//! * [`TelemetrySummary`] — headline numbers (peak queue depth, demotions
//!   per level, speculation and admission tallies) reduced from a run's
//!   telemetry series.
//!
//! Everything is fully deterministic (the bootstrap uses an explicit seed).
//! Each statistic returns `None` on empty or non-finite samples instead of
//! panicking — the shapes that occur legitimately in pipeline code, e.g. a
//! size bin no job landed in.
//!
//! # Examples
//!
//! ```
//! use lasmq_analysis::{try_paired_compare, try_summarize};
//!
//! let las_mq = [822.0, 871.0, 760.0];
//! let fair = [1406.0, 1380.0, 1295.0];
//! println!("LAS_MQ mean response: {}", try_summarize(&las_mq).unwrap());
//! let cmp = try_paired_compare(&las_mq, &fair).unwrap();
//! assert!(cmp.improvement_pct() > 30.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod bootstrap;
pub mod compare;
pub mod summary;
pub mod telemetry;

pub use bootstrap::{try_bootstrap_ci, BootstrapCi};
pub use compare::{try_paired_compare, PairedComparison};
pub use summary::{try_summarize, SampleSummary};
pub use telemetry::TelemetrySummary;
