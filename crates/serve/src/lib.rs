//! `lasmq-serve`: the LAS_MQ scheduler as a long-running service.
//!
//! Everything else in this repository runs the scheduler in closed-loop
//! simulated time. This crate runs it *open-loop against the wall
//! clock*: a daemon accepts streaming job submissions from many
//! concurrent clients over a newline-delimited JSON TCP protocol
//! ([`protocol`]), paces batched scheduling passes on the incremental
//! simulation engine by stepping
//! [`Simulation::step_batch`](lasmq_simulator::Simulation::step_batch) up
//! to a time-compressed wall clock, applies admission backpressure, reports
//! p50/p99/p999 scheduling-decision and admission-ack latency, and
//! survives kill → `--resume` restarts through atomically-written
//! snapshots ([`snapshot`]).
//!
//! Std-only by design — `std::net` and threads, no async runtime — to
//! stay consistent with the workspace's vendored-shims offline build.
//!
//! Two binaries ship with the crate:
//!
//! * **`lasmq-serve`** — the daemon.
//! * **`lasmq-loadgen`** — an open-loop load generator replaying the
//!   Facebook trace at configurable time compression, reporting
//!   sustained submissions/sec and client-side ack percentiles
//!   (the numbers recorded in `BENCH_6.json`).
//!
//! # Embedding
//!
//! ```no_run
//! use lasmq_serve::{Daemon, Pacing, ServeConfig};
//!
//! let handle = Daemon::spawn(ServeConfig {
//!     addr: "127.0.0.1:0".into(),
//!     pacing: Pacing::Manual,
//!     ..ServeConfig::default()
//! })?;
//! println!("serving on {}", handle.addr());
//! handle.request_stop();
//! handle.join()?;
//! # Ok::<(), lasmq_serve::ServeError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// `signals` needs one `extern "C"` declaration (no libc crate in the
// offline build); everything else in the crate is safe code.
#![deny(unsafe_code)]

mod clock;
pub mod daemon;
pub mod protocol;
#[allow(unsafe_code)]
pub mod signals;
pub mod snapshot;

pub use daemon::{Daemon, DaemonHandle, Pacing, ServeConfig, ServeError, ServeSummary};
pub use protocol::{
    AckResponse, AdvanceResponse, ErrorResponse, JobResponse, MetricsResponse, Request,
    SnapshotResponse, StatusResponse, SubmitResponse,
};
pub use snapshot::{
    load_snapshot, save_snapshot, ServeSnapshot, SnapshotLoadError, SERVE_SNAPSHOT_SCHEMA,
};
