//! Process-wide execution profiling for campaign cells.
//!
//! The experiment figures build and run their campaigns internally, so a
//! caller like `repro --profile` cannot see per-cell costs through the
//! table-shaped return values. This module is the side channel: when
//! enabled, [`Campaign`](crate::Campaign) feeds every finished cell into
//! a set of process-wide atomic counters, and the caller brackets each
//! figure with [`snapshot`] calls to get per-figure deltas — cells run,
//! cache hits, simulated events, scheduling passes, and the wall-clock
//! spent actually simulating (summed across worker threads).
//!
//! Profiling is off by default and costs nothing when off (a single
//! relaxed load per cell). It observes, never steers: enabling it cannot
//! change a single byte of campaign output, only what lands on stderr or
//! in the caller's hands.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use lasmq_simulator::SimulationReport;

use crate::latency::{LatencyHistogram, LatencySummary};

static ENABLED: AtomicBool = AtomicBool::new(false);
static CELLS: AtomicU64 = AtomicU64::new(0);
static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static EVENTS: AtomicU64 = AtomicU64::new(0);
static PASSES: AtomicU64 = AtomicU64::new(0);
static SIM_NANOS: AtomicU64 = AtomicU64::new(0);

/// Per-cell simulating wall-clock — the same samples `SIM_NANOS` sums,
/// kept as a histogram so `repro --profile` can report cell-cost
/// percentiles, not just totals, plus the slowest cell by label. Lives
/// outside [`ProfileSnapshot`] (which stays a `Copy` counter block).
#[derive(Default)]
struct CellWalls {
    hist: LatencyHistogram,
    slowest: Option<(String, Duration)>,
}

fn cell_walls() -> &'static Mutex<CellWalls> {
    static WALLS: OnceLock<Mutex<CellWalls>> = OnceLock::new();
    WALLS.get_or_init(Mutex::default)
}

/// Turns cell profiling on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether cell profiling is currently on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Called by the executor for every finished cell, labelled `label`.
/// `sim_wall` is the wall-clock the cell spent simulating — zero for
/// cache hits.
pub(crate) fn record_cell(
    label: &str,
    report: &SimulationReport,
    cache_hit: bool,
    sim_wall: Duration,
) {
    if !enabled() {
        return;
    }
    CELLS.fetch_add(1, Ordering::Relaxed);
    if cache_hit {
        CACHE_HITS.fetch_add(1, Ordering::Relaxed);
    } else {
        // Events and passes are deterministic properties of the cell and
        // round-trip through the cache, but only freshly simulated cells
        // contribute them: the profile answers "what did *this run* cost",
        // and a cache hit cost a file read, not an engine execution.
        EVENTS.fetch_add(report.stats().events_processed, Ordering::Relaxed);
        PASSES.fetch_add(report.stats().scheduling_passes, Ordering::Relaxed);
        SIM_NANOS.fetch_add(sim_wall.as_nanos() as u64, Ordering::Relaxed);
        if let Ok(mut walls) = cell_walls().lock() {
            walls.hist.record(sim_wall);
            if walls
                .slowest
                .as_ref()
                .is_none_or(|(_, max)| sim_wall > *max)
            {
                walls.slowest = Some((label.to_string(), sim_wall));
            }
        }
    }
}

/// Percentile digest of per-cell simulating wall-clock across every
/// freshly simulated cell since the process started (cache hits cost a
/// file read, not a simulation, and are excluded). Empty unless profiling
/// was enabled while cells ran.
pub fn cell_wall_summary() -> LatencySummary {
    cell_walls()
        .lock()
        .map(|w| w.hist.summary())
        .unwrap_or_else(|_| LatencyHistogram::new().summary())
}

/// The freshly simulated cell with the largest simulating wall-clock
/// since the process started, with that wall. `None` unless profiling
/// was enabled while at least one cell simulated.
pub fn slowest_cell() -> Option<(String, Duration)> {
    cell_walls().lock().ok()?.slowest.clone()
}

/// A point-in-time reading of the process-wide profile counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Cells finished (simulated or answered from the cache).
    pub cells: u64,
    /// Cells answered from the result cache.
    pub cache_hits: u64,
    /// Engine events processed by freshly simulated cells.
    pub events: u64,
    /// Scheduling passes run by freshly simulated cells.
    pub passes: u64,
    /// Wall-clock spent simulating, summed across worker threads.
    pub sim_wall: Duration,
}

impl ProfileSnapshot {
    /// The counter deltas accumulated since `earlier`.
    pub fn since(&self, earlier: &ProfileSnapshot) -> ProfileSnapshot {
        ProfileSnapshot {
            cells: self.cells - earlier.cells,
            cache_hits: self.cache_hits - earlier.cache_hits,
            events: self.events - earlier.events,
            passes: self.passes - earlier.passes,
            sim_wall: self.sim_wall - earlier.sim_wall,
        }
    }

    /// Simulated events per second of simulating wall-clock, or `None`
    /// when nothing simulated (all cache hits, or profiling was off).
    pub fn events_per_sec(&self) -> Option<f64> {
        let secs = self.sim_wall.as_secs_f64();
        (secs > 0.0).then(|| self.events as f64 / secs)
    }
}

/// Reads the current counter values.
pub fn snapshot() -> ProfileSnapshot {
    ProfileSnapshot {
        cells: CELLS.load(Ordering::Relaxed),
        cache_hits: CACHE_HITS.load(Ordering::Relaxed),
        events: EVENTS.load(Ordering::Relaxed),
        passes: PASSES.load(Ordering::Relaxed),
        sim_wall: Duration::from_nanos(SIM_NANOS.load(Ordering::Relaxed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Campaign, ExecOptions};
    use crate::kind::SchedulerKind;
    use crate::run::RunCell;
    use crate::setup::SimSetup;
    use crate::workload::WorkloadSpec;

    #[test]
    fn profiling_counts_cells_and_events_only_while_enabled() {
        let mut campaign = Campaign::new("profile-unit");
        campaign.push(RunCell::new(
            "profile-unit/0",
            SchedulerKind::las_mq_simulations(),
            WorkloadSpec::Facebook {
                jobs: 30,
                seed: 7,
                load: None,
            },
            SimSetup::trace_sim(),
        ));

        // Off: the counters stay put.
        set_enabled(false);
        let before = snapshot();
        let baseline = campaign.run(&ExecOptions::with_threads(1).no_cache());
        assert_eq!(snapshot(), before, "disabled profiling must record nothing");

        // On: at least our fresh cell, its events, and nonzero simulating
        // time. The counters are process-global and the test binary runs
        // other campaign tests concurrently, so a parallel test's cells
        // may land in the window too — the bounds are therefore `>=`.
        set_enabled(true);
        let start = snapshot();
        let result = campaign.run(&ExecOptions::with_threads(1).no_cache());
        let delta = snapshot().since(&start);
        set_enabled(false);

        assert!(delta.cells >= 1);
        assert!(delta.events >= result.reports[0].stats().events_processed);
        assert!(delta.passes >= result.reports[0].stats().scheduling_passes);
        assert!(delta.sim_wall > Duration::ZERO);
        assert!(delta.events_per_sec().is_some());
        let (_, slowest) = slowest_cell().expect("a fresh cell simulated while enabled");
        assert!(slowest > Duration::ZERO);

        // Profiling observes, never steers.
        assert_eq!(
            serde_json::to_string(&baseline.reports[0]).unwrap(),
            serde_json::to_string(&result.reports[0]).unwrap(),
        );
    }
}
