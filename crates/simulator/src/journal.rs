//! The engine's one event stream: everything that happened in a run.
//!
//! The paper's implementation works by "monitoring the job's running
//! status such as task completion events and stage progresses" (§IV);
//! debugging a scheduler needs the same visibility. The engine reports
//! every transition as one [`SimEvent`] — submissions, admission verdicts,
//! task attempts starting/finishing/failing, speculative copies,
//! demotions, stage and job completions — through a single call that
//! feeds two optional recorders:
//!
//! * [`SimulationBuilder::record_journal`] keeps every event in a
//!   [`Journal`] the report carries for querying or serialization;
//! * [`SimulationBuilder::record_telemetry`] keeps the events that are
//!   scheduling decisions ([`SimEvent::decision_tag`] is `Some`) as the
//!   decision log of the run's [`Telemetry`](crate::telemetry::Telemetry).
//!
//! Recording is off by default: a 24,443-job trace produces millions of
//! events, and the paper's experiments do not need them.
//!
//! [`SimulationBuilder::record_journal`]: crate::SimulationBuilder::record_journal
//! [`SimulationBuilder::record_telemetry`]: crate::SimulationBuilder::record_telemetry

use serde::{Deserialize, Serialize};

use crate::ids::{JobId, NodeId, StageId, TaskId};
use crate::time::{Service, SimDuration, SimTime};

/// One lifecycle transition or scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum SimEvent {
    /// A job arrived at the cluster.
    JobSubmitted {
        /// The job.
        job: JobId,
        /// When.
        at: SimTime,
    },
    /// Admission control deferred an arriving job behind its cap.
    AdmissionDeferred {
        /// The job.
        job: JobId,
        /// When.
        at: SimTime,
    },
    /// Admission control let a job in.
    JobAdmitted {
        /// The job.
        job: JobId,
        /// How long it waited behind the admission cap (zero if admitted
        /// on arrival).
        waited: SimDuration,
        /// When.
        at: SimTime,
    },
    /// A task attempt started on a node.
    TaskStarted {
        /// The job.
        job: JobId,
        /// The stage within the job.
        stage: StageId,
        /// The task within the stage.
        task: TaskId,
        /// The attempt number.
        attempt: u32,
        /// Where it was placed.
        node: NodeId,
        /// Containers it occupies.
        containers: u32,
        /// When.
        at: SimTime,
    },
    /// A task attempt finished successfully.
    TaskFinished {
        /// The job.
        job: JobId,
        /// The stage within the job.
        stage: StageId,
        /// The task within the stage.
        task: TaskId,
        /// The attempt number.
        attempt: u32,
        /// When.
        at: SimTime,
    },
    /// A task attempt failed (injected failure) and was re-queued.
    TaskFailed {
        /// The job.
        job: JobId,
        /// The stage within the job.
        stage: StageId,
        /// The task within the stage.
        task: TaskId,
        /// When.
        at: SimTime,
    },
    /// A speculative copy was launched for a running task.
    SpeculativeLaunched {
        /// The job.
        job: JobId,
        /// The stage within the job.
        stage: StageId,
        /// The task within the stage.
        task: TaskId,
        /// When.
        at: SimTime,
    },
    /// A speculative copy will beat the original attempt.
    SpeculativeWon {
        /// The job.
        job: JobId,
        /// The stage within the job.
        stage: StageId,
        /// The task within the stage.
        task: TaskId,
        /// When the copy was launched (the decision instant).
        at: SimTime,
    },
    /// A multilevel-queue scheduler demoted a job.
    JobDemoted {
        /// The job.
        job: JobId,
        /// Queue it left (0 = highest priority).
        from_queue: u32,
        /// Queue it landed in.
        to_queue: u32,
        /// The effective service estimate that triggered the demotion.
        effective: Service,
        /// When.
        at: SimTime,
    },
    /// A job finished a stage and moved to the next.
    StageCompleted {
        /// The job.
        job: JobId,
        /// The completed stage.
        stage: StageId,
        /// When.
        at: SimTime,
    },
    /// A job finished entirely.
    JobCompleted {
        /// The job.
        job: JobId,
        /// When.
        at: SimTime,
    },
}

impl SimEvent {
    /// The instant the event happened.
    pub fn at(&self) -> SimTime {
        match *self {
            SimEvent::JobSubmitted { at, .. }
            | SimEvent::AdmissionDeferred { at, .. }
            | SimEvent::JobAdmitted { at, .. }
            | SimEvent::TaskStarted { at, .. }
            | SimEvent::TaskFinished { at, .. }
            | SimEvent::TaskFailed { at, .. }
            | SimEvent::SpeculativeLaunched { at, .. }
            | SimEvent::SpeculativeWon { at, .. }
            | SimEvent::JobDemoted { at, .. }
            | SimEvent::StageCompleted { at, .. }
            | SimEvent::JobCompleted { at, .. } => at,
        }
    }

    /// The job the event concerns.
    pub fn job(&self) -> JobId {
        match *self {
            SimEvent::JobSubmitted { job, .. }
            | SimEvent::AdmissionDeferred { job, .. }
            | SimEvent::JobAdmitted { job, .. }
            | SimEvent::TaskStarted { job, .. }
            | SimEvent::TaskFinished { job, .. }
            | SimEvent::TaskFailed { job, .. }
            | SimEvent::SpeculativeLaunched { job, .. }
            | SimEvent::SpeculativeWon { job, .. }
            | SimEvent::JobDemoted { job, .. }
            | SimEvent::StageCompleted { job, .. }
            | SimEvent::JobCompleted { job, .. } => job,
        }
    }

    /// The stable machine-readable tag of a scheduling decision
    /// ("demote", "spec_launch", ...), used as the `event` column of
    /// [`Telemetry::decisions_csv`](crate::telemetry::Telemetry::decisions_csv);
    /// `None` for pure lifecycle events.
    pub fn decision_tag(&self) -> Option<&'static str> {
        match self {
            SimEvent::JobDemoted { .. } => Some("demote"),
            SimEvent::SpeculativeLaunched { .. } => Some("spec_launch"),
            SimEvent::SpeculativeWon { .. } => Some("spec_win"),
            SimEvent::AdmissionDeferred { .. } => Some("admission_defer"),
            SimEvent::JobAdmitted { .. } => Some("admission_accept"),
            SimEvent::JobSubmitted { .. }
            | SimEvent::TaskStarted { .. }
            | SimEvent::TaskFinished { .. }
            | SimEvent::TaskFailed { .. }
            | SimEvent::StageCompleted { .. }
            | SimEvent::JobCompleted { .. } => None,
        }
    }
}

/// The recorded event stream of one run, in chronological order.
///
/// # Examples
///
/// ```
/// use lasmq_simulator::journal::{Journal, SimEvent};
/// use lasmq_simulator::{JobId, SimTime};
///
/// let mut journal = Journal::new();
/// journal.push(SimEvent::JobSubmitted { job: JobId::new(0), at: SimTime::ZERO });
/// assert_eq!(journal.len(), 1);
/// assert_eq!(journal.for_job(JobId::new(0)).count(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Journal {
    events: Vec<SimEvent>,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Journal::default()
    }

    /// Appends an event (the engine guarantees chronological order).
    pub fn push(&mut self, event: SimEvent) {
        debug_assert!(
            self.events
                .last()
                .map(|e| e.at() <= event.at())
                .unwrap_or(true),
            "journal must stay chronological"
        );
        self.events.push(event);
    }

    /// All events, in order.
    pub fn events(&self) -> &[SimEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events concerning one job, in order.
    pub fn for_job(&self, job: JobId) -> impl Iterator<Item = &SimEvent> {
        self.events.iter().filter(move |e| e.job() == job)
    }

    /// Counts events matching a predicate.
    pub fn count_where(&self, pred: impl Fn(&SimEvent) -> bool) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }
}

impl<'a> IntoIterator for &'a Journal {
    type Item = &'a SimEvent;
    type IntoIter = std::slice::Iter<'a, SimEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submitted(job: u32, at_secs: u64) -> SimEvent {
        SimEvent::JobSubmitted {
            job: JobId::new(job),
            at: SimTime::from_secs(at_secs),
        }
    }

    #[test]
    fn accessors_cover_every_variant() {
        let job = JobId::new(1);
        let stage = StageId::new(0);
        let task = TaskId::new(2);
        let at = SimTime::from_secs;
        let events = [
            submitted(1, 0),
            SimEvent::AdmissionDeferred { job, at: at(1) },
            SimEvent::JobAdmitted {
                job,
                waited: SimDuration::from_secs(1),
                at: at(2),
            },
            SimEvent::TaskStarted {
                job,
                stage,
                task,
                attempt: 0,
                node: NodeId::new(0),
                containers: 1,
                at: at(3),
            },
            SimEvent::TaskFailed {
                job,
                stage,
                task,
                at: at(4),
            },
            SimEvent::SpeculativeLaunched {
                job,
                stage,
                task,
                at: at(5),
            },
            SimEvent::SpeculativeWon {
                job,
                stage,
                task,
                at: at(6),
            },
            SimEvent::JobDemoted {
                job,
                from_queue: 0,
                to_queue: 2,
                effective: Service::from_container_secs(150.0),
                at: at(7),
            },
            SimEvent::TaskFinished {
                job,
                stage,
                task,
                attempt: 1,
                at: at(8),
            },
            SimEvent::StageCompleted {
                job,
                stage,
                at: at(9),
            },
            SimEvent::JobCompleted { job, at: at(10) },
        ];
        let mut tags = Vec::new();
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.job(), job);
            assert_eq!(e.at(), at(i as u64));
            tags.extend(e.decision_tag());
        }
        // Exactly the five decision kinds carry a tag, each a distinct one.
        tags.sort_unstable();
        assert_eq!(
            tags,
            [
                "admission_accept",
                "admission_defer",
                "demote",
                "spec_launch",
                "spec_win"
            ]
        );
    }

    #[test]
    fn per_job_filtering() {
        let mut j = Journal::new();
        j.push(submitted(0, 0));
        j.push(submitted(1, 1));
        j.push(SimEvent::JobCompleted {
            job: JobId::new(0),
            at: SimTime::from_secs(9),
        });
        assert_eq!(j.for_job(JobId::new(0)).count(), 2);
        assert_eq!(j.for_job(JobId::new(1)).count(), 1);
        assert_eq!(
            j.count_where(|e| matches!(e, SimEvent::JobCompleted { .. })),
            1
        );
        assert_eq!((&j).into_iter().count(), 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "chronological")]
    fn out_of_order_push_panics_in_debug() {
        let mut j = Journal::new();
        j.push(submitted(0, 5));
        j.push(submitted(1, 1));
    }

    #[test]
    fn serde_roundtrip() {
        let mut j = Journal::new();
        j.push(submitted(0, 0));
        j.push(SimEvent::JobCompleted {
            job: JobId::new(0),
            at: SimTime::from_secs(3),
        });
        let json = serde_json::to_string(&j).unwrap();
        let back: Journal = serde_json::from_str(&json).unwrap();
        assert_eq!(j, back);
    }
}
