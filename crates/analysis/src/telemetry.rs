//! Summary statistics over a run's [`Telemetry`] series.
//!
//! The raw series answers "what happened when"; this module reduces it to
//! the headline numbers a campaign table wants — peak queue depths,
//! demotion counts per level, speculation and admission tallies — in one
//! deterministic pass.

use std::fmt;

use serde::{Deserialize, Serialize};

use lasmq_simulator::{SimEvent, Telemetry};

/// Aggregates of one run's telemetry. Build with
/// [`TelemetrySummary::from_telemetry`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct TelemetrySummary {
    /// Scheduler-state samples in the series (one per full pass).
    pub samples: u64,
    /// Decision events in the series.
    pub decisions: u64,
    /// Largest depth observed in any single queue.
    pub peak_queue_depth: u32,
    /// Per-queue maximum depth, highest-priority queue first.
    pub peak_depth_per_queue: Vec<u32>,
    /// Largest number of concurrently admitted, unfinished jobs.
    pub peak_running_jobs: u32,
    /// Largest admission backlog observed.
    pub peak_waiting_jobs: u32,
    /// Largest number of occupied containers observed.
    pub peak_used_containers: u32,
    /// Time-weighted mean of the sampled utilization (step function
    /// between consecutive samples; 0 when fewer than two samples exist).
    pub mean_sampled_utilization: f64,
    /// Demotions counted by destination queue index (grown on demand, so
    /// index `i` is the number of demotions *into* queue `i`).
    pub demotions_per_level: Vec<u64>,
    /// Total job demotions.
    pub total_demotions: u64,
    /// Always 0 since kill preemption was retired; kept for byte-stable
    /// reports (every `summary.json` carries it).
    pub preemption_kills: u64,
    /// Speculative copies launched.
    pub speculative_launched: u64,
    /// Speculative copies that won.
    pub speculative_won: u64,
    /// Jobs deferred by admission control on arrival.
    pub admission_deferrals: u64,
    /// Jobs admitted.
    pub admission_accepts: u64,
}

impl TelemetrySummary {
    /// Reduces a telemetry series to its summary.
    pub fn from_telemetry(telemetry: &Telemetry) -> Self {
        let mut s = TelemetrySummary {
            samples: telemetry.samples().len() as u64,
            decisions: telemetry.decisions().len() as u64,
            ..TelemetrySummary::default()
        };

        let mut util_integral = 0.0;
        let mut span = 0.0;
        for pair in telemetry.samples().windows(2) {
            let dt = pair[1].at.saturating_since(pair[0].at).as_secs_f64();
            util_integral += pair[0].utilization() * dt;
            span += dt;
        }
        if span > 0.0 {
            s.mean_sampled_utilization = util_integral / span;
        }

        for sample in telemetry.samples() {
            s.peak_running_jobs = s.peak_running_jobs.max(sample.running_jobs);
            s.peak_waiting_jobs = s.peak_waiting_jobs.max(sample.waiting_jobs);
            s.peak_used_containers = s.peak_used_containers.max(sample.used_containers);
            if sample.queue_depths.len() > s.peak_depth_per_queue.len() {
                s.peak_depth_per_queue.resize(sample.queue_depths.len(), 0);
            }
            for (peak, &depth) in s.peak_depth_per_queue.iter_mut().zip(&sample.queue_depths) {
                *peak = (*peak).max(depth);
            }
        }
        s.peak_queue_depth = s.peak_depth_per_queue.iter().copied().max().unwrap_or(0);

        for d in telemetry.decisions() {
            match *d {
                SimEvent::JobDemoted { to_queue, .. } => {
                    let to = to_queue as usize;
                    if to >= s.demotions_per_level.len() {
                        s.demotions_per_level.resize(to + 1, 0);
                    }
                    s.demotions_per_level[to] += 1;
                    s.total_demotions += 1;
                }
                SimEvent::SpeculativeLaunched { .. } => s.speculative_launched += 1,
                SimEvent::SpeculativeWon { .. } => s.speculative_won += 1,
                SimEvent::AdmissionDeferred { .. } => s.admission_deferrals += 1,
                SimEvent::JobAdmitted { .. } => s.admission_accepts += 1,
                // The log holds decisions only, and SimEvent is non_exhaustive.
                _ => {}
            }
        }
        s
    }
}

impl fmt::Display for TelemetrySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} samples, {} decisions; peak queue depth {}, {} demotions, \
             spec {}/{} won, admission {} accepted / {} deferred, \
             mean sampled utilization {:.3}",
            self.samples,
            self.decisions,
            self.peak_queue_depth,
            self.total_demotions,
            self.speculative_won,
            self.speculative_launched,
            self.admission_accepts,
            self.admission_deferrals,
            self.mean_sampled_utilization,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasmq_simulator::{
        JobId, Service, SimDuration, SimTime, StageId, TaskId, Telemetry, TelemetrySample,
    };

    fn sample(at_secs: u64, used: u32, waiting: u32, depths: &[u32]) -> TelemetrySample {
        TelemetrySample {
            at: SimTime::from_secs(at_secs),
            running_jobs: depths.iter().sum(),
            waiting_jobs: waiting,
            used_containers: used,
            total_containers: 10,
            queue_depths: depths.to_vec(),
        }
    }

    #[test]
    fn empty_telemetry_summarizes_to_zeros() {
        let s = TelemetrySummary::from_telemetry(&Telemetry::new());
        assert_eq!(s, TelemetrySummary::default());
        assert_eq!(s.peak_queue_depth, 0);
    }

    #[test]
    fn peaks_and_time_weighted_utilization() {
        let mut t = Telemetry::new();
        // 10 s at utilization 0.5, then 30 s at 1.0: mean = 0.875.
        t.push_sample(sample(0, 5, 0, &[2, 0]));
        t.push_sample(sample(10, 10, 3, &[1, 4]));
        t.push_sample(sample(40, 0, 0, &[0, 0]));
        let s = TelemetrySummary::from_telemetry(&t);
        assert_eq!(s.samples, 3);
        assert_eq!(s.peak_queue_depth, 4);
        assert_eq!(s.peak_depth_per_queue, vec![2, 4]);
        assert_eq!(s.peak_waiting_jobs, 3);
        assert_eq!(s.peak_used_containers, 10);
        assert!((s.mean_sampled_utilization - 0.875).abs() < 1e-12);
    }

    #[test]
    fn decision_tallies() {
        let job = JobId::new(0);
        let stage = StageId::new(0);
        let task = TaskId::new(0);
        let at = SimTime::ZERO;
        let mut t = Telemetry::new();
        t.record(SimEvent::JobAdmitted {
            job,
            waited: SimDuration::ZERO,
            at,
        });
        t.record(SimEvent::AdmissionDeferred { job, at });
        for to_queue in [1, 1, 3] {
            t.record(SimEvent::JobDemoted {
                job,
                from_queue: 0,
                to_queue,
                effective: Service::from_container_secs(1.0),
                at,
            });
        }
        t.record(SimEvent::SpeculativeLaunched {
            job,
            stage,
            task,
            at,
        });
        t.record(SimEvent::SpeculativeWon {
            job,
            stage,
            task,
            at,
        });
        let s = TelemetrySummary::from_telemetry(&t);
        assert_eq!(s.total_demotions, 3);
        assert_eq!(s.demotions_per_level, vec![0, 2, 0, 1]);
        assert_eq!(s.preemption_kills, 0);
        assert_eq!(s.speculative_launched, 1);
        assert_eq!(s.speculative_won, 1);
        assert_eq!(s.admission_accepts, 1);
        assert_eq!(s.admission_deferrals, 1);
        assert_eq!(s.decisions, 7);
    }

    #[test]
    fn display_mentions_the_headline_numbers() {
        let mut t = Telemetry::new();
        t.push_sample(sample(0, 5, 0, &[7]));
        let text = TelemetrySummary::from_telemetry(&t).to_string();
        assert!(text.contains("peak queue depth 7"), "{text}");
        assert!(text.contains("1 samples"), "{text}");
    }

    #[test]
    fn serde_roundtrip() {
        let mut t = Telemetry::new();
        t.push_sample(sample(0, 1, 0, &[1]));
        t.push_sample(sample(5, 2, 1, &[0, 1]));
        let s = TelemetrySummary::from_telemetry(&t);
        let json = serde_json::to_string(&s).unwrap();
        let back: TelemetrySummary = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
