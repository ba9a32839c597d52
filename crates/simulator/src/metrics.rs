//! Per-job outcomes and whole-run reports.
//!
//! The paper's metrics (§V-A) are the **average job response time** (from
//! submission to completion) and the **slowdown** (response time divided by
//! the time the job takes when it runs on the cluster alone). Both are
//! derived here from raw per-job timestamps.

use serde::{Deserialize, Serialize};

use crate::ids::JobId;
use crate::invariant::InvariantReport;
use crate::journal::Journal;
use crate::telemetry::Telemetry;
use crate::time::{Service, SimDuration, SimTime};

/// Everything recorded about one job by the end of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct JobOutcome {
    /// The job's identity.
    pub id: JobId,
    /// Workload label (e.g. PUMA template name).
    pub label: String,
    /// Workload bin (Table I), 0 if unbinned.
    pub bin: u8,
    /// Configured priority.
    pub priority: u8,
    /// Submission time.
    pub arrival: SimTime,
    /// When admission control let the job in (`None` if it never was).
    pub admitted_at: Option<SimTime>,
    /// When the job received its first container.
    pub first_allocation: Option<SimTime>,
    /// When the job completed (`None` if the run was paused first).
    pub finish: Option<SimTime>,
    /// The job's true size in container-seconds (ground truth, for
    /// reporting only).
    pub true_size: Service,
    /// How long the job takes alone on the full cluster.
    pub isolated: SimDuration,
}

impl JobOutcome {
    /// Response time: completion minus submission (`None` if unfinished).
    pub fn response(&self) -> Option<SimDuration> {
        self.finish.map(|f| f.saturating_since(self.arrival))
    }

    /// Slowdown: response time over isolated running time (`None` if
    /// unfinished). Always ≥ 0; ≈ 1 for a job that ran unimpeded.
    pub fn slowdown(&self) -> Option<f64> {
        let resp = self.response()?;
        let iso = self.isolated.as_secs_f64();
        if iso <= 0.0 {
            return None;
        }
        Some(resp.as_secs_f64() / iso)
    }

    /// Whether the job completed within the run.
    pub fn completed(&self) -> bool {
        self.finish.is_some()
    }
}

/// Engine-level counters, useful for ablations and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct EngineStats {
    /// Full scheduling passes executed.
    pub scheduling_passes: u64,
    /// Always 0 since kill preemption was retired; kept for byte-stable
    /// reports (report JSON carries it).
    pub tasks_killed: u64,
    /// Task attempts lost to injected failures.
    pub tasks_failed: u64,
    /// Speculative copies launched.
    pub speculative_launched: u64,
    /// Speculative copies that beat the original attempt.
    pub speculative_won: u64,
    /// Events popped off the event queue over the run — the denominator of
    /// engine throughput (events/sec) measurements.
    #[serde(default)]
    pub events_processed: u64,
    /// Time the last event was processed (the makespan for completed runs).
    pub makespan: SimTime,
    /// Mean cluster utilization over the run, in `[0, 1]`.
    pub mean_utilization: f64,
}

/// The result of one simulation run.
///
/// # Examples
///
/// Aggregating is straightforward:
///
/// ```no_run
/// # fn report() -> lasmq_simulator::SimulationReport { unimplemented!() }
/// let report = report();
/// println!(
///     "{}: mean response {:.1}s over {} jobs",
///     report.scheduler(),
///     report.mean_response_secs().unwrap(),
///     report.outcomes().len(),
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationReport {
    scheduler: String,
    outcomes: Vec<JobOutcome>,
    stats: EngineStats,
    #[serde(default)]
    journal: Option<Journal>,
    #[serde(default)]
    telemetry: Option<Telemetry>,
    #[serde(default)]
    invariants: Option<InvariantReport>,
}

impl SimulationReport {
    /// Assembles a report. Used by the engine; public so external harnesses
    /// can synthesize reports in tests.
    pub fn new(scheduler: String, outcomes: Vec<JobOutcome>, stats: EngineStats) -> Self {
        SimulationReport {
            scheduler,
            outcomes,
            stats,
            journal: None,
            telemetry: None,
            invariants: None,
        }
    }

    /// Sets the per-job outcomes (engine use: they are built last, after
    /// the rest of the engine is dropped).
    pub(crate) fn with_outcomes(mut self, outcomes: Vec<JobOutcome>) -> Self {
        self.outcomes = outcomes;
        self
    }

    /// Attaches the recorded event journal (engine use).
    pub fn with_journal(mut self, journal: Journal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// The event journal, if the run was built with
    /// [`record_journal`](crate::SimulationBuilder::record_journal).
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Attaches the recorded telemetry series (engine use).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// The telemetry series, if the run was built with
    /// [`record_telemetry`](crate::SimulationBuilder::record_telemetry).
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// Attaches the invariant checker's outcome (engine use).
    pub fn with_invariants(mut self, invariants: InvariantReport) -> Self {
        self.invariants = Some(invariants);
        self
    }

    /// The invariant checker's outcome, if the run was built with
    /// [`check_invariants`](crate::SimulationBuilder::check_invariants).
    /// `None` means checking was off, not that the run was clean.
    pub fn invariants(&self) -> Option<&InvariantReport> {
        self.invariants.as_ref()
    }

    /// Name of the scheduler that produced this run.
    pub fn scheduler(&self) -> &str {
        &self.scheduler
    }

    /// Per-job outcomes, indexed by [`JobId`].
    pub fn outcomes(&self) -> &[JobOutcome] {
        &self.outcomes
    }

    /// Engine counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Whether every job completed.
    pub fn all_completed(&self) -> bool {
        self.outcomes.iter().all(JobOutcome::completed)
    }

    /// Number of completed jobs.
    pub fn completed_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.completed()).count()
    }

    /// Mean response time in seconds over completed jobs (`None` if no job
    /// completed).
    pub fn mean_response_secs(&self) -> Option<f64> {
        mean(
            self.outcomes
                .iter()
                .filter_map(|o| o.response().map(|r| r.as_secs_f64())),
        )
    }

    /// Mean response time in seconds over completed jobs matching `pred`.
    pub fn mean_response_secs_where<F>(&self, pred: F) -> Option<f64>
    where
        F: Fn(&JobOutcome) -> bool,
    {
        mean(
            self.outcomes
                .iter()
                .filter(|o| pred(o))
                .filter_map(|o| o.response().map(|r| r.as_secs_f64())),
        )
    }

    /// Mean response time for one workload bin.
    pub fn mean_response_secs_for_bin(&self, bin: u8) -> Option<f64> {
        self.mean_response_secs_where(|o| o.bin == bin)
    }

    /// Mean slowdown over completed jobs.
    pub fn mean_slowdown(&self) -> Option<f64> {
        mean(self.outcomes.iter().filter_map(JobOutcome::slowdown))
    }

    /// Sorted response times in seconds (the x-values of a CDF plot).
    pub fn response_cdf(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .outcomes
            .iter()
            .filter_map(|o| o.response().map(|r| r.as_secs_f64()))
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Sorted slowdowns (the x-values of a slowdown CDF plot).
    pub fn slowdown_cdf(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .outcomes
            .iter()
            .filter_map(JobOutcome::slowdown)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of completed response times, in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn response_percentile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let sorted = self.response_cdf();
        percentile_of_sorted(&sorted, q)
    }
}

/// Mean of an iterator of floats; `None` when empty.
pub(crate) fn mean(values: impl Iterator<Item = f64>) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0u64;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        None
    } else {
        Some(sum / n as f64)
    }
}

/// Linear-interpolated quantile of an ascending slice; `None` when empty.
pub(crate) fn percentile_of_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    if sorted.len() == 1 {
        return Some(sorted[0]);
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: u32, bin: u8, arrival: u64, finish: Option<u64>, isolated: u64) -> JobOutcome {
        JobOutcome {
            id: JobId::new(id),
            label: format!("job{id}"),
            bin,
            priority: 1,
            arrival: SimTime::from_secs(arrival),
            admitted_at: Some(SimTime::from_secs(arrival)),
            first_allocation: finish.map(|_| SimTime::from_secs(arrival)),
            finish: finish.map(SimTime::from_secs),
            true_size: Service::from_container_secs(1.0),
            isolated: SimDuration::from_secs(isolated),
        }
    }

    #[test]
    fn response_and_slowdown() {
        let o = outcome(0, 1, 10, Some(40), 10);
        assert_eq!(o.response(), Some(SimDuration::from_secs(30)));
        assert_eq!(o.slowdown(), Some(3.0));
        assert!(o.completed());
    }

    #[test]
    fn unfinished_job_has_no_response() {
        let o = outcome(0, 1, 10, None, 10);
        assert_eq!(o.response(), None);
        assert_eq!(o.slowdown(), None);
        assert!(!o.completed());
    }

    #[test]
    fn report_means_and_bins() {
        let report = SimulationReport::new(
            "test".into(),
            vec![
                outcome(0, 1, 0, Some(10), 5),
                outcome(1, 1, 0, Some(30), 5),
                outcome(2, 2, 0, Some(50), 25),
            ],
            EngineStats::default(),
        );
        assert_eq!(report.mean_response_secs(), Some(30.0));
        assert_eq!(report.mean_response_secs_for_bin(1), Some(20.0));
        assert_eq!(report.mean_response_secs_for_bin(2), Some(50.0));
        assert_eq!(report.mean_response_secs_for_bin(3), None);
        assert_eq!(report.mean_slowdown(), Some((2.0 + 6.0 + 2.0) / 3.0));
        assert!(report.all_completed());
        assert_eq!(report.completed_count(), 3);
    }

    #[test]
    fn cdf_is_sorted() {
        let report = SimulationReport::new(
            "test".into(),
            vec![outcome(0, 1, 0, Some(30), 5), outcome(1, 1, 0, Some(10), 5)],
            EngineStats::default(),
        );
        assert_eq!(report.response_cdf(), vec![10.0, 30.0]);
    }

    #[test]
    fn percentiles_interpolate() {
        let sorted = vec![0.0, 10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_of_sorted(&sorted, 0.0), Some(0.0));
        assert_eq!(percentile_of_sorted(&sorted, 1.0), Some(40.0));
        assert_eq!(percentile_of_sorted(&sorted, 0.5), Some(20.0));
        assert_eq!(percentile_of_sorted(&sorted, 0.25), Some(10.0));
        assert_eq!(percentile_of_sorted(&[], 0.5), None);
        assert_eq!(percentile_of_sorted(&[7.0], 0.9), Some(7.0));
    }

    #[test]
    fn empty_report_yields_none() {
        let report = SimulationReport::new("t".into(), vec![], EngineStats::default());
        assert_eq!(report.mean_response_secs(), None);
        assert_eq!(report.mean_slowdown(), None);
        assert!(report.all_completed());
    }
}
