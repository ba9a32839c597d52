//! The scheduler half of the environment: executes externally supplied
//! per-job scores inside the engine.
//!
//! The engine owns its scheduler by value, but the environment must keep
//! writing new scores between decision epochs — so [`ActionScheduler`]
//! and [`Env`](crate::Env) share a [`ScoreBoard`] through an
//! `Rc<RefCell<…>>` (the engine is strictly single-threaded, so the
//! non-`Send` handle is the honest type). Each allocation pass ranks jobs
//! by their current score, highest first, and grants greedily in rank
//! order — the same ordered-grant shape as LAS and the
//! [`LearnedScheduler`](lasmq_schedulers::LearnedScheduler).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use lasmq_schedulers::rank_and_grant;
use lasmq_simulator::{AllocationPlan, JobId, JobView, SchedContext, Scheduler, SimTime};
use serde::{Deserialize, Serialize};

/// State shared between [`Env`](crate::Env) and its [`ActionScheduler`]:
/// the live score table and the completion log the env drains each step.
#[derive(Debug, Default)]
pub struct ScoreBoard {
    /// Current score per admitted job; higher is served first. Jobs the
    /// policy has not scored yet (admitted mid-epoch) fall back to the
    /// LAS-like score `-ln(1 + attained)` until the next observation.
    pub scores: BTreeMap<JobId, f64>,
    /// Jobs that completed since the env last drained, with finish times,
    /// in completion order.
    pub completions: Vec<(JobId, SimTime)>,
}

/// A shared handle to a [`ScoreBoard`].
pub type SharedScores = Rc<RefCell<ScoreBoard>>;

/// Serialized [`ActionScheduler`] state for engine snapshots. Snapshots
/// are taken at step boundaries, where the env has already drained the
/// completion log, so only the score table needs to survive.
#[derive(Debug, Serialize, Deserialize)]
struct ActionState {
    scores: Vec<(JobId, f64)>,
}

/// A scheduler that ranks jobs by externally supplied scores.
#[derive(Debug, Clone)]
pub struct ActionScheduler {
    shared: SharedScores,
}

impl ActionScheduler {
    /// A scheduler reading scores from (and logging completions to)
    /// `shared`.
    pub fn new(shared: SharedScores) -> Self {
        ActionScheduler { shared }
    }

    fn fallback_score(view: &JobView) -> f64 {
        -view.attained.as_container_secs().ln_1p()
    }
}

impl Scheduler for ActionScheduler {
    fn name(&self) -> &str {
        "ENV"
    }

    fn on_job_completed(&mut self, job: JobId, now: SimTime) {
        let mut shared = self.shared.borrow_mut();
        shared.scores.remove(&job);
        shared.completions.push((job, now));
    }

    fn allocate(&mut self, ctx: &SchedContext<'_>) -> AllocationPlan {
        let shared = self.shared.borrow();
        // Highest score first; ties resolve oldest-admission then lowest id.
        rank_and_grant(ctx, |j| {
            let score = shared.scores.get(&j.id).copied();
            let score = score.unwrap_or_else(|| Self::fallback_score(j));
            (-score, (j.admitted_at, j.id))
        })
    }

    fn snapshot_state(&self) -> Option<String> {
        let shared = self.shared.borrow();
        let state = ActionState {
            scores: shared.scores.iter().map(|(&id, &s)| (id, s)).collect(),
        };
        Some(serde_json::to_string(&state).expect("ENV state serialization cannot fail"))
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        let state: ActionState =
            serde_json::from_str(state).map_err(|e| format!("malformed ENV state: {e}"))?;
        let mut shared = self.shared.borrow_mut();
        shared.scores = state.scores.into_iter().collect();
        shared.completions.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasmq_simulator::{testkit, Service};

    fn view(id: u32, attained: f64, unstarted: u32) -> JobView {
        JobView {
            admitted_at: SimTime::from_secs(id as u64),
            attained: Service::from_container_secs(attained),
            attained_stage: Service::from_container_secs(attained),
            remaining_tasks: unstarted,
            unstarted_tasks: unstarted,
            ..testkit::view(id)
        }
    }

    #[test]
    fn highest_score_served_first() {
        let shared: SharedScores = SharedScores::default();
        shared.borrow_mut().scores.insert(JobId::new(0), 1.0);
        shared.borrow_mut().scores.insert(JobId::new(1), 5.0);
        let mut sched = ActionScheduler::new(shared);
        let jobs = vec![view(0, 0.0, 100), view(1, 0.0, 100)];
        let ctx = SchedContext::new(SimTime::ZERO, 10, &jobs);
        let plan = sched.allocate(&ctx);
        assert_eq!(plan.entries(), &[(JobId::new(1), 10)]);
    }

    #[test]
    fn unscored_jobs_fall_back_to_las_like_ranking() {
        let shared: SharedScores = SharedScores::default();
        let mut sched = ActionScheduler::new(shared);
        // No scores at all: least attained wins, exactly like LAS.
        let jobs = vec![view(0, 50.0, 100), view(1, 5.0, 100)];
        let ctx = SchedContext::new(SimTime::ZERO, 10, &jobs);
        let plan = sched.allocate(&ctx);
        assert_eq!(plan.entries(), &[(JobId::new(1), 10)]);
    }

    #[test]
    fn completion_log_and_state_round_trip() {
        let shared: SharedScores = SharedScores::default();
        shared.borrow_mut().scores.insert(JobId::new(2), 0.5);
        let mut sched = ActionScheduler::new(Rc::clone(&shared));
        sched.on_job_completed(JobId::new(2), SimTime::from_secs(9));
        assert_eq!(
            shared.borrow().completions,
            vec![(JobId::new(2), SimTime::from_secs(9))]
        );
        assert!(shared.borrow().scores.is_empty());

        shared.borrow_mut().scores.insert(JobId::new(3), 7.0);
        let state = sched.snapshot_state().unwrap();
        let other: SharedScores = SharedScores::default();
        let mut restored = ActionScheduler::new(Rc::clone(&other));
        restored.restore_state(&state).unwrap();
        assert_eq!(other.borrow().scores.get(&JobId::new(3)), Some(&7.0));
        assert!(restored.check_consistency().is_ok());
    }
}
