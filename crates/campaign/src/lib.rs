//! Declarative experiment campaigns for the LAS_MQ reproduction.
//!
//! An experiment here is a *campaign*: a named grid of [`RunCell`]s,
//! each pinning a [`SchedulerKind`], a [`WorkloadSpec`] and a
//! [`SimSetup`]. The [`Campaign`] executor runs the grid on a
//! work-stealing thread pool with:
//!
//! * a **content-addressed result cache** — every cell hashes its full
//!   run description ([`RunCell::fingerprint`]) and stores its
//!   [`SimulationReport`](lasmq_simulator::SimulationReport) as JSON
//!   under `target/campaign-cache/`, so repeated and overlapping
//!   campaigns re-simulate nothing;
//! * a **resumable manifest/journal** ([`Manifest`]) — an interrupted
//!   campaign resumes cell by cell on the next run, reusing every cell
//!   that finished, and `repro campaign-status` shows per-campaign
//!   completion;
//! * **progress reporting** on stderr (cells done/total, cache hits,
//!   per-worker throughput, ETA), keeping stdout byte-stable;
//! * optional **telemetry artifacts** — with
//!   [`ExecOptions::telemetry_dir`], every cell runs with simulator
//!   telemetry enabled and writes deterministic `samples.csv`,
//!   `decisions.csv` and `summary.json` under a per-cell directory
//!   ([`write_cell_artifacts`]);
//! * optional **runtime verification** — with [`ExecOptions::verify`],
//!   every cell runs with the engine's invariant checker armed; reports
//!   carry an
//!   [`InvariantReport`](lasmq_simulator::InvariantReport) and, combined
//!   with a telemetry directory, each cell also gets an
//!   `invariants.json` artifact ([`write_invariant_artifact`]);
//! * optional **execution profiling** — [`profile::set_enabled`] arms
//!   process-wide counters (cells, cache hits, simulated events,
//!   scheduling passes, simulating wall-clock) that a caller brackets
//!   with [`profile::snapshot`] for per-figure deltas, as
//!   `repro --profile` does.
//!
//! Results are **bit-identical regardless of worker count or cache
//! state**: cell simulations are single-threaded and deterministic,
//! reports are returned in declaration order, and the cache's JSON float
//! encoding is shortest-round-trip.
//!
//! # Examples
//!
//! ```
//! use lasmq_campaign::{Campaign, ExecOptions, RunCell, SchedulerKind, SimSetup, WorkloadSpec};
//!
//! let mut campaign = Campaign::new("demo");
//! for kind in SchedulerKind::paper_lineup_simulations() {
//!     campaign.push(RunCell::new(
//!         format!("demo/{kind}"),
//!         kind,
//!         WorkloadSpec::Facebook { jobs: 40, seed: 1, load: None },
//!         SimSetup::trace_sim(),
//!     ));
//! }
//! let result = campaign.run(&ExecOptions::with_threads(2).no_cache());
//! assert_eq!(result.reports.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod cache;
pub mod exec;
pub mod kind;
pub mod latency;
pub mod manifest;
pub mod pool;
pub mod profile;
pub mod run;
pub mod setup;
pub mod workload;

pub use artifacts::{write_cell_artifacts, write_invariant_artifact};
pub use cache::{ResultCache, DEFAULT_CACHE_DIR};
pub use exec::{Campaign, CampaignError, CampaignResult, CampaignStats, CellFailure, ExecOptions};
pub use kind::{ParseSchedulerError, SchedulerKind, VARIANT_COUNT};
pub use latency::{LatencyHistogram, LatencySummary};
pub use manifest::{status_report, Manifest, ManifestCell};
pub use pool::map_parallel;
pub use profile::ProfileSnapshot;
pub use run::{RunCell, CACHE_SCHEMA_VERSION};
pub use setup::SimSetup;
pub use workload::WorkloadSpec;
