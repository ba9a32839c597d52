//! The repo benchmark: seven workloads over the engine, the scheduler, the
//! campaign runner and the daemon, measured from outside the program. See
//! `README.md` in this directory for the workload and metric glossary.

pub mod campaign;
pub mod cli;
pub mod engine;
pub mod golden;
pub mod metrics;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod timed;

use std::time::{Duration, Instant};

/// Fewest timed reps of a measuring (non-smoke) untraced run.
pub const MIN_REPS: usize = 3;

/// What one workload run is asked to do.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the run measures, seconds.
    pub seconds: f64,
    /// Smoke mode: tiny inputs, one rep, numbers flagged as not a measurement.
    pub quick: bool,
}

impl Config {
    /// Whether `next` more seconds of work still fit into the measuring time
    /// that began at `started`.
    pub fn fits(&self, started: Instant, next: Duration) -> bool {
        (started.elapsed() + next).as_secs_f64() <= self.seconds
    }

    /// Whether an untraced run that has done `done` reps, the last of which
    /// took `last_rep`, runs another: smoke mode runs exactly one; otherwise
    /// at least [`MIN_REPS`], then as many as fit.
    pub fn another_rep(&self, done: usize, started: Instant, last_rep: Duration) -> bool {
        if self.quick {
            done == 0
        } else {
            done < MIN_REPS || self.fits(started, last_rep)
        }
    }
}
