//! Policy rollouts: score whole episodes (or forked episode tails) with a
//! [`LinearPolicy`].
//!
//! Two evaluation modes, matching the two phases of training:
//!
//! * [`episode_return`] plays a full [`Env`] episode from a seed — the
//!   held-out evaluation path, where every candidate pays the full
//!   episode cost;
//! * [`fork_policy_returns`] amortizes that cost for the inner training
//!   loop: one donor episode is warmed to a fork point once, snapshotted,
//!   and then every candidate policy is evaluated as a
//!   [`Simulation::fork`] of that single snapshot — the candidates differ
//!   only in their post-fork decisions, so their returns are directly
//!   comparable and each evaluation costs only the episode tail.
//!
//! Fork evaluations run fork-parallel through
//! [`map_parallel`]: a [`SimSnapshot`] is
//! plain data (`Send + Sync`), so each worker rebuilds its own engine.
//! Results come back in candidate order and are bit-identical across
//! thread counts.

use lasmq_campaign::map_parallel;
use lasmq_schedulers::{LearnedScheduler, LinearPolicy};
use lasmq_simulator::{SimError, SimSnapshot, SimTime, Simulation};

use crate::{Env, EnvConfig};

/// Plays one full episode of `config` on `seed`, scoring every
/// observation with `policy`, and returns the episode return (see
/// [`RewardKind`](crate::RewardKind); higher is better).
pub fn episode_return(config: &EnvConfig, policy: &LinearPolicy, seed: u64) -> f64 {
    let mut env = Env::new(config.clone());
    let mut obs = env.reset(seed);
    loop {
        let action: Vec<f64> = obs.jobs.iter().map(|j| policy.score(&j.features)).collect();
        let step = env.step(&action);
        if step.done {
            return env.episode_return();
        }
        obs = step.observation;
    }
}

/// Evaluates many candidate policies as forks of one warm `snapshot`,
/// in parallel on up to `threads` workers.
///
/// Each candidate is installed as a fresh
/// [`LearnedScheduler`] over the
/// donor's engine state and run to completion; its score is the negative
/// post-fork mean response time — the mean over jobs that finished
/// *after* the fork point, since pre-fork completions are the donor's
/// doing, not the candidate's. Higher is better. Returns one score per
/// policy, in input order, bit-identical across thread counts.
///
/// # Errors
///
/// Returns the first fork error (schema mismatch, corrupt snapshot);
/// candidate evaluation itself cannot fail.
pub fn fork_policy_returns(
    snapshot: &SimSnapshot,
    policies: &[LinearPolicy],
    threads: usize,
) -> Result<Vec<f64>, SimError> {
    let fork_at = snapshot.now();
    let outcomes = map_parallel(threads, policies.len(), |i| {
        fork_return(snapshot, &policies[i], fork_at)
    });
    outcomes.into_iter().collect()
}

fn fork_return(
    snapshot: &SimSnapshot,
    policy: &LinearPolicy,
    fork_at: SimTime,
) -> Result<f64, SimError> {
    let sim = Simulation::fork(snapshot, LearnedScheduler::new(policy.clone()))?;
    let report = sim.run();
    let mean = report
        .mean_response_secs_where(|o| o.finish.is_some_and(|f| f > fork_at))
        .unwrap_or(0.0);
    Ok(-mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RewardKind;

    #[test]
    fn episode_return_is_deterministic_and_seed_sensitive() {
        let config = EnvConfig::testbed_puma(10);
        let policy = LinearPolicy::las_like();
        let a = episode_return(&config, &policy, 21);
        let b = episode_return(&config, &policy, 21);
        assert_eq!(a.to_bits(), b.to_bits());
        let c = episode_return(&config, &policy, 22);
        assert_ne!(a.to_bits(), c.to_bits());
    }

    #[test]
    fn slowdown_reward_changes_the_return_scale() {
        let mut config = EnvConfig::testbed_puma(10);
        let mean_response = episode_return(&config, &LinearPolicy::las_like(), 21);
        config.reward = RewardKind::NegBoundedSlowdown;
        let mean_slowdown = episode_return(&config, &LinearPolicy::las_like(), 21);
        assert_ne!(mean_response.to_bits(), mean_slowdown.to_bits());
        assert!(mean_slowdown < 0.0);
    }

    fn warm_snapshot(jobs: usize, steps: usize) -> SimSnapshot {
        let mut env = Env::new(EnvConfig::testbed_puma(jobs));
        let policy = LinearPolicy::las_like();
        let mut obs = env.reset(9);
        for _ in 0..steps {
            let action: Vec<f64> = obs.jobs.iter().map(|j| policy.score(&j.features)).collect();
            let step = env.step(&action);
            assert!(!step.done, "snapshot must land mid-episode");
            obs = step.observation;
        }
        env.snapshot()
    }

    #[test]
    fn fork_returns_are_identical_across_thread_counts() {
        let snapshot = warm_snapshot(12, 4);
        let policies: Vec<LinearPolicy> = (0..6)
            .map(|i| {
                let mut w = LinearPolicy::las_like().weights;
                w[5] = i as f64 * 0.1; // vary the wait-time weight
                LinearPolicy::new(w)
            })
            .collect();
        let serial = fork_policy_returns(&snapshot, &policies, 1).unwrap();
        let parallel = fork_policy_returns(&snapshot, &policies, 8).unwrap();
        let serial_bits: Vec<u64> = serial.iter().map(|r| r.to_bits()).collect();
        let parallel_bits: Vec<u64> = parallel.iter().map(|r| r.to_bits()).collect();
        assert_eq!(serial_bits, parallel_bits);
        assert!(serial.iter().all(|&r| r < 0.0), "tails have completions");
    }

    #[test]
    fn identical_policies_fork_to_identical_returns() {
        let snapshot = warm_snapshot(10, 3);
        let twice = vec![LinearPolicy::las_like(), LinearPolicy::las_like()];
        let returns = fork_policy_returns(&snapshot, &twice, 2).unwrap();
        assert_eq!(returns[0].to_bits(), returns[1].to_bits());
    }
}
