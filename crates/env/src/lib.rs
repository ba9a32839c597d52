//! **lasmq-env** — a gym-style policy-training environment over the
//! LAS_MQ simulator.
//!
//! The paper's core claim is that LAS_MQ schedules well *without prior
//! information*; this crate turns the simulator into a training substrate
//! for asking the follow-up question — can a *learned* policy close the
//! gap to the oracle baselines using only the same observable state?
//!
//! The loop is the standard step/observe/act shape:
//!
//! * [`Env::reset`]`(seed)` builds a fresh episode from a reseeded
//!   [`WorkloadSpec`] and returns the initial [`Observation`];
//! * an [`Observation`] carries one fixed-width feature vector per
//!   admitted job — the **same**
//!   [`job_features`] the
//!   [`LearnedScheduler`](lasmq_schedulers::LearnedScheduler) scores, so
//!   a policy trained in the env transfers to the campaign lineup by
//!   construction — plus global state (clock, occupancy, queue depths);
//! * [`Env::step`]`(action)` applies one score per observed job (higher =
//!   served first), advances the engine one **decision epoch** through
//!   the [`Driver`] batch loop, and returns the
//!   reward accrued: the negative sum of response times of jobs that
//!   completed this step, normalized by episode size, so the episode
//!   return is exactly **negative mean response time** (the
//!   [`RewardKind::NegBoundedSlowdown`] alternative divides each response
//!   by the job's isolated runtime instead).
//!
//! Episodes are deterministic end to end: same seed → byte-identical
//! observations and returns, regardless of machine load, thread count or
//! cache state. Mid-episode state is a plain engine
//! [`SimSnapshot`] ([`Env::snapshot`] /
//! [`Env::restore`]), and the [`rollout`] module uses
//! [`Simulation::fork`](lasmq_simulator::Simulation::fork) to evaluate
//! many candidate policies from one warm snapshot in parallel — the
//! trainer's inner loop.
//!
//! # Examples
//!
//! ```
//! use lasmq_env::{Env, EnvConfig};
//! use lasmq_schedulers::LinearPolicy;
//!
//! let mut env = Env::new(EnvConfig::testbed_puma(10));
//! let policy = LinearPolicy::las_like();
//! let mut obs = env.reset(7);
//! loop {
//!     let action: Vec<f64> = obs.jobs.iter().map(|j| policy.score(&j.features)).collect();
//!     let step = env.step(&action);
//!     if step.done {
//!         break;
//!     }
//!     obs = step.observation;
//! }
//! assert!(env.episode_return() < 0.0, "response times are positive");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod action;
pub mod rollout;

use std::rc::Rc;

use lasmq_campaign::{SimSetup, WorkloadSpec};
use lasmq_schedulers::{job_features, ClusterFeatures};
use lasmq_simulator::{
    Driver, DriverStep, JobId, SimDuration, SimError, SimSnapshot, SimTime, Simulation,
    SimulationReport, VirtualClock,
};
use serde::{Deserialize, Serialize};

pub use action::{ActionScheduler, ScoreBoard, SharedScores};

/// What a step's reward measures. Both are negated costs, so higher is
/// better and a perfect scheduler approaches zero from below.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RewardKind {
    /// `-(Σ response seconds of jobs completed this step) / total_jobs`:
    /// episode return = negative mean response time in seconds.
    NegMeanResponse,
    /// `-(Σ slowdowns of jobs completed this step) / total_jobs`, where a
    /// job's slowdown is response over isolated runtime (bounded below by
    /// ≈ 1): episode return = negative mean slowdown.
    NegBoundedSlowdown,
}

/// Everything that defines an episode family: the cluster rules, the
/// workload generator (reseeded per episode), the decision-epoch length
/// and the reward.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvConfig {
    /// Cluster, quantum, admission — the simulation rules.
    pub setup: SimSetup,
    /// The workload generator; [`Env::reset`] replaces its seed.
    pub workload: WorkloadSpec,
    /// Nominal decision-epoch length. A step always makes progress: when
    /// the next engine event lies beyond the nominal epoch, the epoch
    /// stretches to reach it.
    pub epoch: SimDuration,
    /// The reward definition.
    pub reward: RewardKind,
}

impl EnvConfig {
    /// The paper's testbed (§V-A: 4×30 containers, admission cap 30, 1 s
    /// quantum) under a PUMA workload of `jobs` jobs at the 50 s mean
    /// arrival interval, 10 s decision epochs, negative-mean-response
    /// reward.
    pub fn testbed_puma(jobs: usize) -> Self {
        EnvConfig {
            setup: SimSetup::testbed(),
            workload: WorkloadSpec::Puma {
                jobs,
                mean_interval_secs: 50.0,
                seed: 42,
                geo_bandwidth_mb_per_s: None,
            },
            epoch: SimDuration::from_secs(10),
            reward: RewardKind::NegMeanResponse,
        }
    }
}

/// One admitted job as the policy sees it: its identity and the shared
/// feature vector ([`lasmq_schedulers::FEATURE_COUNT`] wide, see
/// [`lasmq_schedulers::FEATURE_NAMES`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobObservation {
    /// The job's identity (stable across steps within an episode).
    pub id: JobId,
    /// The feature vector, index-aligned with
    /// [`lasmq_schedulers::FEATURE_NAMES`].
    pub features: Vec<f64>,
}

/// The environment's full observable state at a step boundary.
///
/// Serializes deterministically (JSON field order is declaration order,
/// floats are shortest-round-trip), so byte-comparing serialized
/// observations is a valid determinism check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Simulation clock, seconds.
    pub now_secs: f64,
    /// One entry per admitted, unfinished job, in admission order.
    pub jobs: Vec<JobObservation>,
    /// Fraction of cluster containers currently held, in `[0, 1]`.
    pub occupancy: f64,
    /// Jobs parked in the admission queue (observable queue depth).
    pub admission_queue_depth: usize,
    /// Jobs finished so far.
    pub finished_jobs: usize,
    /// Total jobs in the episode.
    pub total_jobs: usize,
}

/// What one [`Env::step`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct StepResult {
    /// The next observation (empty job list once done).
    pub observation: Observation,
    /// Reward accrued this step (see [`RewardKind`]).
    pub reward: f64,
    /// Jobs that completed during this step, in completion order.
    pub completed: Vec<JobId>,
    /// `true` once the episode is over (event queue drained).
    pub done: bool,
}

/// The environment: one episode of the simulator driven decision-epoch by
/// decision-epoch.
///
/// See the crate docs for the loop shape; construction gives an
/// un-reset env, so call [`reset`](Env::reset) (or
/// [`restore`](Env::restore)) before stepping.
#[derive(Debug)]
pub struct Env {
    config: EnvConfig,
    shared: SharedScores,
    sim: Simulation<ActionScheduler>,
    driver: Driver<VirtualClock>,
    last_obs_jobs: Vec<JobId>,
    episode_return: f64,
    steps: usize,
}

impl Env {
    /// An environment for `config`, initially on the config's own seed
    /// (equivalent to `reset(workload seed)` — call [`reset`](Env::reset)
    /// to choose the episode).
    pub fn new(config: EnvConfig) -> Self {
        let shared = SharedScores::default();
        let sim = config.setup.build_simulation_with(
            config.workload.generate(),
            ActionScheduler::new(Rc::clone(&shared)),
            false,
        );
        Env {
            config,
            shared,
            sim,
            driver: Driver::new(VirtualClock),
            last_obs_jobs: Vec::new(),
            episode_return: 0.0,
            steps: 0,
        }
    }

    /// Starts a fresh episode on `seed` and returns the initial
    /// observation. Deterministic: the same config and seed always yield
    /// the same episode.
    pub fn reset(&mut self, seed: u64) -> Observation {
        let workload = self.config.workload.with_seed(seed);
        self.shared = SharedScores::default();
        self.sim = self.config.setup.build_simulation_with(
            workload.generate(),
            ActionScheduler::new(Rc::clone(&self.shared)),
            false,
        );
        self.episode_return = 0.0;
        self.steps = 0;
        self.observe()
    }

    /// The current observation. Also re-arms the job list that the next
    /// [`step`](Env::step)'s action vector is matched against.
    pub fn observe(&mut self) -> Observation {
        let views = self.sim.active_views();
        let now = self.sim.now();
        let capacity = self.sim.total_containers().max(1) as f64;
        let held: u64 = views.iter().map(|v| v.held as u64).sum();
        let cluster = ClusterFeatures {
            occupancy: (held as f64 / capacity).min(1.0),
            active_jobs: views.len(),
        };
        let jobs: Vec<JobObservation> = views
            .iter()
            .map(|v| JobObservation {
                id: v.id,
                features: job_features(v, now, &cluster).to_vec(),
            })
            .collect();
        self.last_obs_jobs = jobs.iter().map(|j| j.id).collect();
        Observation {
            now_secs: now.as_secs_f64(),
            jobs,
            occupancy: cluster.occupancy,
            admission_queue_depth: self.sim.waiting_jobs(),
            finished_jobs: self.sim.finished_jobs(),
            total_jobs: self.sim.total_jobs(),
        }
    }

    /// Applies `action` (one score per job of the last observation, in
    /// that observation's order; higher = served first), advances one
    /// decision epoch, and returns the reward, completions and next
    /// observation.
    ///
    /// # Panics
    ///
    /// Panics if `action` is not exactly as long as the last
    /// observation's job list — a mismatched action is a programming
    /// error in the policy loop, not a schedulable request.
    pub fn step(&mut self, action: &[f64]) -> StepResult {
        assert_eq!(
            action.len(),
            self.last_obs_jobs.len(),
            "action must score exactly the jobs of the last observation"
        );
        {
            let mut shared = self.shared.borrow_mut();
            for (&id, &score) in self.last_obs_jobs.iter().zip(action) {
                shared.scores.insert(id, score);
            }
        }
        // One decision epoch through the driver's batch loop. The target
        // stretches to the next pending event so every step makes
        // progress even across long idle gaps.
        let nominal = self.sim.now() + self.config.epoch;
        let target = match self.sim.next_event_time() {
            Some(t) => nominal.max(t),
            None => nominal,
        };
        while let Some(t) = self.sim.next_event_time() {
            if t > target {
                break;
            }
            if matches!(self.driver.step(&mut self.sim), DriverStep::Drained) {
                break;
            }
        }
        let completions = std::mem::take(&mut self.shared.borrow_mut().completions);
        let mut reward = 0.0;
        let total = self.sim.total_jobs().max(1) as f64;
        let mut completed = Vec::with_capacity(completions.len());
        for (id, _finish) in completions {
            completed.push(id);
            let outcome = self
                .sim
                .job_outcome(id)
                .expect("completed jobs have outcomes");
            match self.config.reward {
                RewardKind::NegMeanResponse => {
                    let response = outcome
                        .response()
                        .expect("completed jobs have responses")
                        .as_secs_f64();
                    reward -= response / total;
                }
                RewardKind::NegBoundedSlowdown => {
                    // Zero-isolated-runtime jobs cannot occur in the
                    // generators, but degrade to a response-seconds
                    // penalty rather than a panic if hand-built.
                    let slowdown = outcome.slowdown().unwrap_or_else(|| {
                        outcome
                            .response()
                            .expect("completed jobs have responses")
                            .as_secs_f64()
                    });
                    reward -= slowdown / total;
                }
            }
        }
        self.episode_return += reward;
        self.steps += 1;
        let done = self.sim.is_drained();
        StepResult {
            observation: self.observe(),
            reward,
            completed,
            done,
        }
    }

    /// Sum of step rewards since the last reset (or restore).
    pub fn episode_return(&self) -> f64 {
        self.episode_return
    }

    /// Steps taken since the last reset (or restore).
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The simulation clock.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// `true` once the episode is over.
    pub fn is_done(&self) -> bool {
        self.sim.is_drained()
    }

    /// The episode configuration.
    pub fn config(&self) -> &EnvConfig {
        &self.config
    }

    /// Captures full mid-episode state (engine + score table) as a plain
    /// engine snapshot. Taken at a step boundary, so the completion log
    /// is empty by construction.
    pub fn snapshot(&self) -> SimSnapshot {
        self.sim.snapshot()
    }

    /// Rebuilds a paused episode from a [`snapshot`](Env::snapshot).
    /// The restored env continues byte-identically to the uninterrupted
    /// original; its [`episode_return`](Env::episode_return) restarts at
    /// zero (rewards before the snapshot belong to the original).
    ///
    /// # Errors
    ///
    /// Propagates [`Simulation::restore`] errors: schema mismatch, a
    /// snapshot of a different scheduler, or corrupt scheduler state.
    pub fn restore(config: EnvConfig, snapshot: SimSnapshot) -> Result<Self, SimError> {
        let shared = SharedScores::default();
        let sim = Simulation::restore(snapshot, ActionScheduler::new(Rc::clone(&shared)))?;
        Ok(Env {
            config,
            shared,
            sim,
            driver: Driver::new(VirtualClock),
            last_obs_jobs: Vec::new(),
            episode_return: 0.0,
            steps: 0,
        })
    }

    /// Consumes a finished episode into the engine's standard report
    /// (outcomes, stats, and — when the setup armed it — the invariant
    /// section).
    pub fn into_report(self) -> SimulationReport {
        self.sim.into_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasmq_schedulers::LinearPolicy;

    fn run_episode(env: &mut Env, policy: &LinearPolicy, seed: u64) -> (f64, Vec<String>) {
        let mut obs = env.reset(seed);
        let mut obs_json = vec![serde_json::to_string(&obs).unwrap()];
        loop {
            let action: Vec<f64> = obs.jobs.iter().map(|j| policy.score(&j.features)).collect();
            let step = env.step(&action);
            obs = step.observation;
            obs_json.push(serde_json::to_string(&obs).unwrap());
            if step.done {
                return (env.episode_return(), obs_json);
            }
        }
    }

    #[test]
    fn episodes_complete_and_return_negative_mean_response() {
        let mut env = Env::new(EnvConfig::testbed_puma(10));
        let policy = LinearPolicy::las_like();
        let (ret, _) = run_episode(&mut env, &policy, 1);
        assert!(ret < 0.0);
        let report = env.into_report();
        assert!(report.all_completed());
        let mean = report.mean_response_secs().unwrap();
        assert!(
            (ret + mean).abs() < 1e-9,
            "episode return {ret} must equal negative mean response {mean}"
        );
    }

    #[test]
    fn same_seed_is_byte_identical_different_seed_is_not() {
        let mut env = Env::new(EnvConfig::testbed_puma(10));
        let policy = LinearPolicy::las_like();
        let (ret_a, obs_a) = run_episode(&mut env, &policy, 3);
        let (ret_b, obs_b) = run_episode(&mut env, &policy, 3);
        assert_eq!(obs_a, obs_b, "same seed must replay byte-identically");
        assert_eq!(ret_a.to_bits(), ret_b.to_bits());
        let (_, obs_c) = run_episode(&mut env, &policy, 4);
        assert_ne!(obs_a, obs_c, "different seeds must differ");
    }

    #[test]
    fn bounded_slowdown_reward_matches_report() {
        let mut config = EnvConfig::testbed_puma(10);
        config.reward = RewardKind::NegBoundedSlowdown;
        let mut env = Env::new(config);
        let (ret, _) = run_episode(&mut env, &LinearPolicy::las_like(), 5);
        let report = env.into_report();
        let mean = report.mean_slowdown().unwrap();
        assert!(
            (ret + mean).abs() < 1e-9,
            "return {ret} must equal negative mean slowdown {mean}"
        );
    }

    #[test]
    fn snapshot_restore_continues_byte_identically() {
        let config = EnvConfig::testbed_puma(12);
        let policy = LinearPolicy::las_like();

        // Uninterrupted run, recording everything after `cut` steps.
        let mut env = Env::new(config.clone());
        let mut obs = env.reset(11);
        let cut = 5;
        for _ in 0..cut {
            let action: Vec<f64> = obs.jobs.iter().map(|j| policy.score(&j.features)).collect();
            let step = env.step(&action);
            assert!(!step.done, "cut must land mid-episode");
            obs = step.observation;
        }
        let snapshot = env.snapshot();
        let mut tail = Vec::new();
        let mut tail_return = 0.0;
        loop {
            let action: Vec<f64> = obs.jobs.iter().map(|j| policy.score(&j.features)).collect();
            let step = env.step(&action);
            tail.push(serde_json::to_string(&step.observation).unwrap());
            tail_return += step.reward;
            if step.done {
                break;
            }
            obs = step.observation;
        }

        // Restored run: round-trip the snapshot through JSON (checkpoint
        // bytes), rebuild, and replay the tail.
        let snapshot = SimSnapshot::from_json(&snapshot.to_json()).unwrap();
        let mut restored = Env::restore(config, snapshot).unwrap();
        let mut obs = restored.observe();
        let mut tail2 = Vec::new();
        loop {
            let action: Vec<f64> = obs.jobs.iter().map(|j| policy.score(&j.features)).collect();
            let step = restored.step(&action);
            tail2.push(serde_json::to_string(&step.observation).unwrap());
            if step.done {
                break;
            }
            obs = step.observation;
        }
        assert_eq!(tail, tail2, "restored episodes must continue identically");
        assert!((restored.episode_return() - tail_return).abs() < 1e-12);
    }

    #[test]
    fn invariant_checked_episode_is_clean() {
        let mut config = EnvConfig::testbed_puma(10);
        config.setup = config.setup.check_invariants(true);
        let mut env = Env::new(config);
        run_episode(&mut env, &LinearPolicy::las_like(), 2);
        let report = env.into_report();
        let invariants = report.invariants().expect("checker was armed");
        assert!(invariants.is_clean(), "{invariants}");
        assert!(invariants.checks_run > 0);
    }

    #[test]
    fn rejects_mismatched_action_length() {
        let mut env = Env::new(EnvConfig::testbed_puma(5));
        let obs = env.reset(1);
        let bad = vec![0.0; obs.jobs.len() + 1];
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            env.step(&bad);
        }))
        .is_err());
    }
}
