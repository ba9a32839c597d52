//! Evaluation harness reproducing every table and figure of *Job
//! Scheduling without Prior Information in Big Data Processing Systems*
//! (ICDCS 2017).
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`table1`] | Table I — the PUMA workload composition |
//! | [`fig3`] | Fig. 3 — ablation of stage awareness × in-queue ordering |
//! | [`fig56`] | Figs. 5 & 6 — testbed workload at 80 s / 50 s arrival intervals |
//! | [`fig7`] | Fig. 7 — heavy-tailed vs uniform size distributions |
//! | [`fig8`] | Fig. 8 — sensitivity to queue count and first threshold |
//!
//! Extension experiments go beyond the paper's figures:
//! [`ext_estimation`] (the price of bad size estimates, §II),
//! [`ext_robustness`] (failures and slow nodes, plus the
//! estimation-error campaign: the full scheduler zoo swept across
//! size-noise sigma × offered load — `repro robustness`), [`ext_fairness`]
//! (the §VII fairness knob), [`ext_geo`] (the §VII geo-distributed
//! direction: inter-datacenter shuffle transfers), [`ext_load`] (load
//! and admission-cap sweeps), [`ext_warmstart`] (warm-state what-if
//! forking: one snapshot, every lineup scheduler) and [`ext_train`] (the
//! cross-entropy policy trainer — `repro train`). The last two fork from
//! the same [`warm_fork`] snapshot.
//!
//! Each module that simulates exposes one `run(&Scale, &ExecOptions) ->
//! …Result` (plus its own knobs, such as Fig. 5/6's arrival interval)
//! returning plain data plus paper-style [`table::TextTable`]s;
//! [`table1`], which simulates nothing, takes only the scale. Every
//! simulation a `run` starts runs under that
//! [`ExecOptions`](lasmq_campaign::ExecOptions): full episodes as
//! [`Campaign`](lasmq_campaign::Campaign) cells, warm forks through
//! [`warm_fork::run_forks`]. The `repro` binary drives them all and writes
//! CSVs alongside the printed tables.
//!
//! # Examples
//!
//! ```no_run
//! use lasmq_campaign::ExecOptions;
//! use lasmq_experiments::{fig7, Scale};
//!
//! let result = fig7::run(&Scale::paper(), &ExecOptions::default());
//! for table in result.tables() {
//!     println!("{table}");
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod ext_estimation;
pub mod ext_fairness;
pub mod ext_geo;
pub mod ext_load;
pub mod ext_robustness;
pub mod ext_train;
pub mod ext_warmstart;
pub mod fig3;
pub mod fig56;
pub mod fig7;
pub mod fig8;
pub mod scale;
pub mod stats;
pub mod table;
pub mod table1;
pub mod warm_fork;

pub use scale::Scale;
