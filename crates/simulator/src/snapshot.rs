//! Serializable mid-run simulation state.
//!
//! A [`SimSnapshot`] captures *everything* a paused
//! [`Simulation`](crate::Simulation) needs to continue bit-identically:
//! the clock, the pending event queue (with its tie-breaking sequence
//! numbers), per-node container occupancy, the admission queue, every
//! job's task-level progress, accumulated journal/telemetry, and the
//! scheduler's serialized internal state
//! ([`Scheduler::snapshot_state`](crate::Scheduler::snapshot_state)).
//!
//! There is deliberately no RNG stream to capture: failure injection and
//! estimator noise are stateless deterministic hashes of their configs and
//! per-attempt counters (see [`FailureConfig`]), so snapshotting the configs
//! plus each job's attempt counter replays the exact same draws.
//!
//! Three consumers:
//!
//! * **Pause and resume** —
//!   [`Simulation::run_until`](crate::Simulation::run_until) pauses a run
//!   at a batch boundary and
//!   [`Simulation::snapshot`](crate::Simulation::snapshot) captures it;
//!   [`Simulation::restore`](crate::Simulation::restore) continues one
//!   under the same policy, producing a byte-identical report.
//! * **Daemon persistence** — `lasmq-serve` writes the live engine's
//!   snapshot on shutdown and continues from it on `--resume`.
//! * **Warm-state forking** —
//!   [`Simulation::fork`](crate::Simulation::fork) hands the warmed-up
//!   cluster to a *different* scheduler for variance-reduced paired
//!   comparisons (`repro fork-compare`).

use serde::{Deserialize, Serialize};

use crate::cluster::ClusterConfig;
use crate::engine::{FailureConfig, Job, PreemptionPolicy, SpeculationConfig};
use crate::error::SimError;
use crate::event::EventEntry;
use crate::ids::JobId;
use crate::invariant::InvariantReport;
use crate::journal::Journal;
use crate::metrics::EngineStats;
use crate::telemetry::Telemetry;
use crate::time::{SimDuration, SimTime};

/// Schema version stamped into every snapshot. Bumped whenever the
/// serialized layout changes incompatibly; restore refuses snapshots from
/// a different version rather than misinterpreting them.
///
/// * v2 — [`EngineStats`] gained `events_processed`, serialized inside the
///   `stats` section.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 2;

/// Complete serializable state of a paused [`Simulation`](crate::Simulation).
///
/// Produced by [`Simulation::snapshot`](crate::Simulation::snapshot) at a
/// batch boundary (where [`run_until`](crate::Simulation::run_until)
/// pauses); consumed by [`Simulation::restore`](crate::Simulation::restore)
/// (same policy, bit-identical continuation) or
/// [`Simulation::fork`](crate::Simulation::fork) (what-if under a different
/// policy). Round-trips through JSON losslessly — the engine's floating
/// point accumulators survive via shortest-round-trip formatting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimSnapshot {
    pub(crate) schema: u32,
    pub(crate) scheduler_name: String,
    pub(crate) scheduler_state: Option<String>,
    pub(crate) cluster: ClusterConfig,
    pub(crate) free_per_node: Vec<u32>,
    pub(crate) quantum: SimDuration,
    pub(crate) admission_limit: Option<usize>,
    pub(crate) admission_running: usize,
    pub(crate) admission_waiting: Vec<JobId>,
    /// Always `Graceful`; written so snapshots keep their bytes, never
    /// read. A snapshot naming `"Kill"` fails to parse.
    pub(crate) preemption: PreemptionPolicy,
    pub(crate) speculation: SpeculationConfig,
    pub(crate) failures: FailureConfig,
    /// The scheduler's [`requires_oracle`](crate::Scheduler::requires_oracle)
    /// when written; ignored on read, where the restoring scheduler's own
    /// declaration decides.
    pub(crate) expose_oracle: bool,
    /// Always written as `null`. The engine stops early only at
    /// [`run_until`](crate::Simulation::run_until), so restore and fork
    /// refuse a snapshot that carries a deadline.
    pub(crate) deadline: Option<SimTime>,
    pub(crate) journal: Option<Journal>,
    pub(crate) telemetry: Option<Telemetry>,
    /// Accumulated invariant-checker state; `None` when checking is off.
    /// Defaults on deserialization so pre-checker snapshots still parse.
    #[serde(default)]
    pub(crate) invariants: Option<InvariantReport>,
    pub(crate) jobs: Vec<Job>,
    pub(crate) events: Vec<EventEntry>,
    pub(crate) events_next_seq: u64,
    pub(crate) admitted: Vec<JobId>,
    pub(crate) finished_in_admitted: usize,
    pub(crate) plan_order: Vec<JobId>,
    pub(crate) refill_cursor: usize,
    pub(crate) needs_pass: bool,
    pub(crate) tick_scheduled: bool,
    pub(crate) finished_count: usize,
    pub(crate) stats: EngineStats,
    pub(crate) util_integral: f64,
    pub(crate) last_util_update: SimTime,
    pub(crate) now: SimTime,
}

impl SimSnapshot {
    /// The schema version this snapshot was written with.
    pub fn schema(&self) -> u32 {
        self.schema
    }

    /// The simulated time the snapshot was taken at.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Name of the scheduler the snapshotted run used.
    pub fn scheduler_name(&self) -> &str {
        &self.scheduler_name
    }

    /// The scheduler's serialized internal state, if it keeps any (see
    /// [`Scheduler::snapshot_state`](crate::Scheduler::snapshot_state)).
    pub fn scheduler_state(&self) -> Option<&str> {
        self.scheduler_state.as_deref()
    }

    /// Total jobs in the workload (finished or not).
    pub fn total_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Jobs that had completed by snapshot time.
    pub fn finished_jobs(&self) -> usize {
        self.finished_count
    }

    /// Events still pending in the queue.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialization cannot fail")
    }

    /// Parses a snapshot back from [`to_json`](Self::to_json) output.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Snapshot`] on malformed JSON or a schema version
    /// this engine does not understand.
    pub fn from_json(json: &str) -> Result<Self, SimError> {
        let snap: SimSnapshot = serde_json::from_str(json)
            .map_err(|e| SimError::Snapshot(format!("malformed snapshot JSON: {e}")))?;
        snap.check_schema()?;
        Ok(snap)
    }

    fn check_schema(&self) -> Result<(), SimError> {
        if self.schema != SNAPSHOT_SCHEMA_VERSION {
            return Err(SimError::Snapshot(format!(
                "snapshot schema v{} does not match engine schema v{SNAPSHOT_SCHEMA_VERSION}",
                self.schema
            )));
        }
        Ok(())
    }

    /// What restore and fork demand first: this engine's schema, and no
    /// deadline.
    pub(crate) fn check_loadable(&self) -> Result<(), SimError> {
        self.check_schema()?;
        match self.deadline {
            Some(t) => Err(SimError::Snapshot(format!(
                "snapshot carries a deadline ({t}); this engine stops early only at run_until"
            ))),
            None => Ok(()),
        }
    }
}
