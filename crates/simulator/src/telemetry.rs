//! Time-series telemetry of a run: how the schedule *unfolded*.
//!
//! The [`Journal`] records what happened to each task; this module records
//! what the **scheduler** saw and decided — per-queue depths, running/queued
//! jobs, cluster occupancy over time, and the decision events of the
//! engine's one [`SimEvent`] stream (demotions, speculative copies,
//! admission verdicts) that explain *why* response times come out the way
//! they do. The paper argues entirely from end-of-run aggregates (§V);
//! validating the aging behaviour of LAS_MQ requires watching queue depths
//! and demotions over time.
//!
//! Recording is off by default and then costs one branch per event: the
//! engine samples once per full scheduling pass and keeps decisions only
//! when built with
//! [`record_telemetry`](crate::SimulationBuilder::record_telemetry).
//!
//! Everything here is deterministic: samples and decisions are appended in
//! simulation order, and the CSV renderers use Rust's shortest-round-trip
//! float formatting, so two runs of the same cell emit byte-identical
//! artifacts regardless of thread count or cache state.

use serde::{Deserialize, Serialize};

use crate::ids::JobId;
use crate::journal::{Journal, SimEvent};
use crate::time::{Service, SimTime};

/// One snapshot of scheduler-visible state, taken at the end of a full
/// scheduling pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySample {
    /// When the pass ran.
    pub at: SimTime,
    /// Jobs admitted and not yet finished.
    pub running_jobs: u32,
    /// Jobs queued behind the admission cap.
    pub waiting_jobs: u32,
    /// Containers occupied after the pass.
    pub used_containers: u32,
    /// Cluster capacity (constant over a run; kept per-sample so a CSV row
    /// is self-describing).
    pub total_containers: u32,
    /// Per-queue job counts reported by the scheduler, highest priority
    /// first. Empty for schedulers without multilevel queues.
    pub queue_depths: Vec<u32>,
}

impl TelemetrySample {
    /// Instantaneous utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.total_containers == 0 {
            0.0
        } else {
            self.used_containers as f64 / self.total_containers as f64
        }
    }
}

/// A demotion performed by a multilevel-queue scheduler during one
/// scheduling pass (`allocate_into` call), reported to the engine via
/// [`Scheduler::drain_demotions`](crate::Scheduler::drain_demotions).
///
/// The engine stamps the simulation time when it turns this into a
/// [`SimEvent::JobDemoted`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueDemotion {
    /// The demoted job.
    pub job: JobId,
    /// Queue it left (0 = highest priority).
    pub from_queue: u32,
    /// Queue it landed in.
    pub to_queue: u32,
    /// The effective service estimate that triggered the demotion.
    pub effective: Service,
}

/// The recorded telemetry of one run: per-pass samples plus the decision
/// events of the run's [`SimEvent`] stream, both in chronological order.
///
/// # Examples
///
/// ```
/// use lasmq_simulator::telemetry::{Telemetry, TelemetrySample};
/// use lasmq_simulator::{JobId, SimEvent, SimTime};
///
/// let mut t = Telemetry::new();
/// t.push_sample(TelemetrySample {
///     at: SimTime::from_secs(1),
///     running_jobs: 2,
///     waiting_jobs: 0,
///     used_containers: 3,
///     total_containers: 4,
///     queue_depths: vec![2, 0],
/// });
/// t.record(SimEvent::AdmissionDeferred {
///     job: JobId::new(7),
///     at: SimTime::from_secs(1),
/// });
/// t.record(SimEvent::JobSubmitted {
///     job: JobId::new(8),
///     at: SimTime::from_secs(1),
/// });
/// assert_eq!(t.samples().len(), 1);
/// assert_eq!(t.decisions().len(), 1); // a submission is not a decision
/// assert!(t.samples_csv().starts_with("t_ms,"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Telemetry {
    samples: Vec<TelemetrySample>,
    decisions: Journal,
}

impl Telemetry {
    /// An empty sink.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Appends a sample (the engine guarantees chronological order).
    pub fn push_sample(&mut self, sample: TelemetrySample) {
        debug_assert!(
            self.samples
                .last()
                .map(|s| s.at <= sample.at)
                .unwrap_or(true),
            "telemetry samples must stay chronological"
        );
        self.samples.push(sample);
    }

    /// Appends `event` to the decision log if it is a scheduling decision
    /// ([`SimEvent::decision_tag`] is `Some`); lifecycle events are not
    /// kept. Chronological, like [`Journal::push`].
    pub fn record(&mut self, event: SimEvent) {
        if event.decision_tag().is_some() {
            self.decisions.push(event);
        }
    }

    /// All samples, in order.
    pub fn samples(&self) -> &[TelemetrySample] {
        &self.samples
    }

    /// The decision log, in order.
    pub fn decisions(&self) -> &Journal {
        &self.decisions
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty() && self.decisions.is_empty()
    }

    /// The widest `queue_depths` vector across all samples (schedulers
    /// report a fixed queue count, so this is normally just that count).
    pub fn queue_columns(&self) -> usize {
        self.samples
            .iter()
            .map(|s| s.queue_depths.len())
            .max()
            .unwrap_or(0)
    }

    /// Renders the sample series as a deterministic CSV document:
    /// `t_ms,running_jobs,waiting_jobs,used_containers,total_containers,utilization[,q1..qk]`.
    ///
    /// Queue-depth columns are padded with zeros for samples that report
    /// fewer queues than the widest sample (`q1` is the highest-priority
    /// queue). Floats use shortest-round-trip formatting, so output is
    /// byte-stable across runs and platforms.
    pub fn samples_csv(&self) -> String {
        let k = self.queue_columns();
        let mut out = String::from(
            "t_ms,running_jobs,waiting_jobs,used_containers,total_containers,utilization",
        );
        for q in 1..=k {
            out.push_str(&format!(",q{q}"));
        }
        out.push('\n');
        for s in &self.samples {
            out.push_str(&format!(
                "{},{},{},{},{},{}",
                s.at.as_millis(),
                s.running_jobs,
                s.waiting_jobs,
                s.used_containers,
                s.total_containers,
                s.utilization(),
            ));
            for q in 0..k {
                let depth = s.queue_depths.get(q).copied().unwrap_or(0);
                out.push_str(&format!(",{depth}"));
            }
            out.push('\n');
        }
        out
    }

    /// Renders the decision log as a deterministic CSV document:
    /// `t_ms,event,job,task,from_queue,to_queue,effective_cs,waited_ms`.
    ///
    /// Columns that do not apply to an event kind are left empty.
    pub fn decisions_csv(&self) -> String {
        let mut out =
            String::from("t_ms,event,job,task,from_queue,to_queue,effective_cs,waited_ms\n");
        for d in &self.decisions {
            let at = d.at().as_millis();
            let tag = d.decision_tag().unwrap_or_default();
            let job = u32::from(d.job());
            let (task, from, to, effective, waited) = match *d {
                SimEvent::JobDemoted {
                    from_queue,
                    to_queue,
                    effective,
                    ..
                } => (
                    String::new(),
                    from_queue.to_string(),
                    to_queue.to_string(),
                    effective.as_container_secs().to_string(),
                    String::new(),
                ),
                SimEvent::SpeculativeLaunched { task, .. }
                | SimEvent::SpeculativeWon { task, .. } => (
                    task.index().to_string(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                ),
                SimEvent::JobAdmitted { waited, .. } => (
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    waited.as_millis().to_string(),
                ),
                _ => Default::default(),
            };
            out.push_str(&format!(
                "{at},{tag},{job},{task},{from},{to},{effective},{waited}\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{StageId, TaskId};
    use crate::time::SimDuration;

    fn sample(at_secs: u64, used: u32, depths: &[u32]) -> TelemetrySample {
        TelemetrySample {
            at: SimTime::from_secs(at_secs),
            running_jobs: depths.iter().sum(),
            waiting_jobs: 1,
            used_containers: used,
            total_containers: 8,
            queue_depths: depths.to_vec(),
        }
    }

    #[test]
    fn sample_utilization() {
        assert_eq!(sample(0, 4, &[]).utilization(), 0.5);
        let degenerate = TelemetrySample {
            total_containers: 0,
            ..sample(0, 0, &[])
        };
        assert_eq!(degenerate.utilization(), 0.0);
    }

    #[test]
    fn samples_csv_pads_queue_columns() {
        let mut t = Telemetry::new();
        t.push_sample(sample(1, 2, &[3]));
        t.push_sample(sample(2, 4, &[1, 2]));
        let csv = t.samples_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "t_ms,running_jobs,waiting_jobs,used_containers,total_containers,utilization,q1,q2"
        );
        assert_eq!(lines[1], "1000,3,1,2,8,0.25,3,0");
        assert_eq!(lines[2], "2000,3,1,4,8,0.5,1,2");
    }

    #[test]
    fn decisions_csv_has_per_kind_columns() {
        let mut t = Telemetry::new();
        t.record(SimEvent::JobAdmitted {
            job: JobId::new(0),
            waited: SimDuration::from_millis(1500),
            at: SimTime::from_secs(2),
        });
        t.record(SimEvent::JobDemoted {
            job: JobId::new(1),
            from_queue: 0,
            to_queue: 3,
            effective: Service::from_container_secs(250.5),
            at: SimTime::from_secs(4),
        });
        t.record(SimEvent::SpeculativeLaunched {
            job: JobId::new(1),
            stage: StageId::new(1),
            task: TaskId::new(6),
            at: SimTime::from_secs(5),
        });
        let csv = t.decisions_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "t_ms,event,job,task,from_queue,to_queue,effective_cs,waited_ms"
        );
        assert_eq!(lines[1], "2000,admission_accept,0,,,,,1500");
        assert_eq!(lines[2], "4000,demote,1,,0,3,250.5,");
        assert_eq!(lines[3], "5000,spec_launch,1,6,,,,");
    }

    #[test]
    fn serde_roundtrip_is_lossless() {
        let mut t = Telemetry::new();
        t.push_sample(sample(1, 5, &[2, 1, 0]));
        t.record(SimEvent::SpeculativeWon {
            job: JobId::new(2),
            stage: StageId::new(0),
            task: TaskId::new(0),
            at: SimTime::from_secs(1),
        });
        let json = serde_json::to_string(&t).unwrap();
        let back: Telemetry = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
        assert_eq!(t.samples_csv(), back.samples_csv());
        assert_eq!(t.decisions_csv(), back.decisions_csv());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "chronological")]
    fn out_of_order_samples_panic_in_debug() {
        let mut t = Telemetry::new();
        t.push_sample(sample(5, 0, &[]));
        t.push_sample(sample(1, 0, &[]));
    }

    #[test]
    fn counting_helper_filters() {
        let mut t = Telemetry::new();
        for i in 0..3 {
            t.record(SimEvent::AdmissionDeferred {
                job: JobId::new(i),
                at: SimTime::from_secs(i as u64),
            });
        }
        t.record(SimEvent::JobAdmitted {
            job: JobId::new(0),
            waited: SimDuration::ZERO,
            at: SimTime::from_secs(9),
        });
        // Lifecycle events are not decisions and are not kept.
        t.record(SimEvent::JobCompleted {
            job: JobId::new(0),
            at: SimTime::from_secs(9),
        });
        assert_eq!(
            t.decisions()
                .count_where(|d| matches!(d, SimEvent::AdmissionDeferred { .. })),
            3
        );
        assert_eq!(t.decisions().len(), 4);
        assert!(!t.is_empty());
    }
}
