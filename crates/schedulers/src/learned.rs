//! A learned linear scheduling policy over runtime-observable features.
//!
//! The paper's premise is that good scheduling needs no prior size
//! information; the natural follow-up question is whether a *learned*
//! policy can close the gap to the oracle baselines using only the same
//! observable state. This module holds the shared substrate for that
//! experiment: a fixed-width per-job [feature vector](job_features) built
//! purely from [`JobView`] fields (never from the oracle), a versioned
//! [`LinearPolicy`] over those features, and a [`LearnedScheduler`] that
//! ranks jobs by policy score each pass and grants greedily in rank order
//! (the same ordered-grant shape as LAS).
//!
//! The `ext_train` experiment in `lasmq-experiments` searches the weight
//! space by running this very scheduler on forks of one warm snapshot, so
//! training and deployment agree on one feature definition by
//! construction.

use lasmq_simulator::{AllocationPlan, JobView, SchedContext, Scheduler, SimTime};
use serde::{Deserialize, Serialize};

use crate::rank_and_grant;

/// Version tag carried by serialized [`LinearPolicy`] artifacts. Bump on
/// any change to [`FEATURE_COUNT`] or the meaning of a feature slot.
pub const POLICY_SCHEMA_VERSION: u32 = 1;

/// Width of the per-job feature vector.
pub const FEATURE_COUNT: usize = 12;

/// Human-readable names for each feature slot, index-aligned with
/// [`job_features`]. Useful for printing trained weights.
pub const FEATURE_NAMES: [&str; FEATURE_COUNT] = [
    "bias",
    "log1p_attained",
    "log1p_attained_stage",
    "stage_progress",
    "stage_fraction",
    "log1p_wait_secs",
    "log1p_remaining_tasks",
    "log1p_unstarted_tasks",
    "log1p_held",
    "log1p_remaining_demand",
    "cluster_occupancy",
    "log1p_active_jobs",
];

/// Cluster-level context for feature extraction: the signals that are the
/// same for every job in a pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterFeatures {
    /// Fraction of the cluster's containers currently held by jobs, in
    /// `[0, 1]`.
    pub occupancy: f64,
    /// Number of admitted, unfinished jobs.
    pub active_jobs: usize,
}

impl ClusterFeatures {
    /// Derives the cluster features a scheduler can observe from its pass
    /// context: summed holdings over capacity, and the job count.
    pub fn from_context(ctx: &SchedContext<'_>) -> Self {
        let held: u64 = ctx.jobs().iter().map(|j| j.held as u64).sum();
        let capacity = ctx.total_containers().max(1) as f64;
        ClusterFeatures {
            occupancy: (held as f64 / capacity).min(1.0),
            active_jobs: ctx.jobs().len(),
        }
    }
}

/// Extracts the per-job feature vector at time `now`.
///
/// Every input is observable at runtime in a real cluster (see the
/// `lasmq_simulator::sched` module docs); [`JobView::oracle`] is never
/// read, so a learned policy cannot cheat. Magnitudes are compressed with
/// `ln(1 + x)` so a single weight spans small and large jobs.
pub fn job_features(
    view: &JobView,
    now: SimTime,
    cluster: &ClusterFeatures,
) -> [f64; FEATURE_COUNT] {
    let wait_secs = now.saturating_since(view.admitted_at).as_secs_f64();
    [
        1.0,
        view.attained.as_container_secs().ln_1p(),
        view.attained_stage.as_container_secs().ln_1p(),
        view.stage_progress,
        (view.stage_index + 1) as f64 / view.stage_count.max(1) as f64,
        wait_secs.ln_1p(),
        f64::from(view.remaining_tasks).ln_1p(),
        f64::from(view.unstarted_tasks).ln_1p(),
        f64::from(view.held).ln_1p(),
        f64::from(view.remaining_demand()).ln_1p(),
        cluster.occupancy,
        (cluster.active_jobs as f64).ln_1p(),
    ]
}

/// A linear scoring policy: `score(job) = w · features(job)`, higher
/// scores served first.
///
/// The serialized form is the versioned JSON artifact `ext_train` emits
/// and `repro --policy FILE` loads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearPolicy {
    /// Artifact schema version ([`POLICY_SCHEMA_VERSION`]).
    pub schema: u32,
    /// One weight per feature slot, in [`FEATURE_NAMES`] order.
    pub weights: Vec<f64>,
}

impl LinearPolicy {
    /// A policy with the given weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is not [`FEATURE_COUNT`] long.
    pub fn new(weights: Vec<f64>) -> Self {
        assert_eq!(
            weights.len(),
            FEATURE_COUNT,
            "a linear policy needs exactly {FEATURE_COUNT} weights"
        );
        LinearPolicy {
            schema: POLICY_SCHEMA_VERSION,
            weights,
        }
    }

    /// The all-zero policy (every job scores 0; ties resolve to admission
    /// order, so it degenerates to FIFO).
    pub fn zeros() -> Self {
        LinearPolicy::new(vec![0.0; FEATURE_COUNT])
    }

    /// The LAS-imitating policy: a single `-1` weight on attained
    /// service, so the least-served job scores highest. The conventional
    /// search seed — the trained policy should only improve on it.
    pub fn las_like() -> Self {
        let mut weights = vec![0.0; FEATURE_COUNT];
        weights[1] = -1.0;
        LinearPolicy::new(weights)
    }

    /// The policy's score for a feature vector (NaN-tolerant: comparisons
    /// downstream use total ordering, so a corrupt weight degrades rank
    /// quality, never consistency). Accepts any slice; zipping stops at
    /// the shorter of weights and features.
    pub fn score(&self, features: &[f64]) -> f64 {
        self.weights
            .iter()
            .zip(features.iter())
            .map(|(w, x)| w * x)
            .sum()
    }

    /// Serializes the policy artifact.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("policy serialization cannot fail")
    }

    /// Parses a policy artifact, validating schema version and width.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed JSON, a foreign
    /// schema version, or a wrong weight count.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let policy: LinearPolicy =
            serde_json::from_str(json).map_err(|e| format!("malformed policy JSON: {e}"))?;
        if policy.schema != POLICY_SCHEMA_VERSION {
            return Err(format!(
                "policy schema {} unsupported (this build reads {POLICY_SCHEMA_VERSION})",
                policy.schema
            ));
        }
        if policy.weights.len() != FEATURE_COUNT {
            return Err(format!(
                "policy has {} weights, expected {FEATURE_COUNT}",
                policy.weights.len()
            ));
        }
        Ok(policy)
    }
}

/// Serialized snapshot of the learned scheduler: it has no mutable state,
/// only the weights it runs under. Weights are configuration (like
/// `LasMqConfig`), so they are *checked*, not restored — restoring under
/// a different policy is a setup error.
#[derive(Debug, Serialize, Deserialize)]
struct LearnedState {
    weights: Vec<f64>,
}

/// A scheduler ranking jobs by a [`LinearPolicy`] score each pass.
///
/// Ties (e.g. under the all-zero policy) break by admission order — the
/// order of [`SchedContext::jobs`] — so the scheduler is deterministic
/// for *any* weight vector — including corrupt ones (NaN/∞), which
/// degrade ranking quality but can never violate engine invariants.
///
/// # Examples
///
/// ```
/// use lasmq_schedulers::{LearnedScheduler, LinearPolicy};
/// use lasmq_simulator::Scheduler;
///
/// let sched = LearnedScheduler::new(LinearPolicy::las_like());
/// assert_eq!(sched.name(), "LEARNED");
/// ```
#[derive(Debug, Clone)]
pub struct LearnedScheduler {
    policy: LinearPolicy,
}

impl LearnedScheduler {
    /// A learned scheduler executing `policy`.
    pub fn new(policy: LinearPolicy) -> Self {
        LearnedScheduler { policy }
    }

    /// The policy being executed.
    pub fn policy(&self) -> &LinearPolicy {
        &self.policy
    }
}

impl Scheduler for LearnedScheduler {
    fn name(&self) -> &str {
        "LEARNED"
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
        let cluster = ClusterFeatures::from_context(ctx);
        let now = ctx.now();
        // Higher score first; equal scores keep admission order.
        rank_and_grant(ctx, plan, |j| {
            (-self.policy.score(&job_features(j, now, &cluster)), ())
        });
    }

    fn snapshot_state(&self) -> Option<String> {
        let state = LearnedState {
            weights: self.policy.weights.clone(),
        };
        Some(serde_json::to_string(&state).expect("LEARNED state serialization cannot fail"))
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        let state: LearnedState =
            serde_json::from_str(state).map_err(|e| format!("malformed LEARNED state: {e}"))?;
        if state.weights.len() != self.policy.weights.len() {
            return Err(format!(
                "snapshot policy has {} weights, this instance has {}",
                state.weights.len(),
                self.policy.weights.len()
            ));
        }
        // Bitwise comparison: NaN weights must round-trip too.
        if state
            .weights
            .iter()
            .zip(&self.policy.weights)
            .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            return Err("snapshot was taken under a different policy weight vector".into());
        }
        Ok(())
    }

    fn check_consistency(&self) -> Result<(), String> {
        if self.policy.weights.len() != FEATURE_COUNT {
            return Err(format!(
                "policy width {} != feature width {FEATURE_COUNT}",
                self.policy.weights.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasmq_simulator::{testkit, JobId, Service};

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
    fn las_like_policy_matches_las_ordering() {
        let jobs = vec![view(0, 50.0, 100), view(1, 5.0, 100), view(2, 20.0, 100)];
        let ctx = SchedContext::new(SimTime::ZERO, 10, &jobs);
        let plan = LearnedScheduler::new(LinearPolicy::las_like()).allocate(&ctx);
        assert_eq!(plan.entries(), &[(JobId::new(1), 10)]);
    }

    #[test]
    fn zero_policy_degenerates_to_admission_order() {
        let mut sched = LearnedScheduler::new(LinearPolicy::zeros());
        let jobs = vec![view(1, 0.0, 100), view(0, 0.0, 100)];
        for j in &jobs {
            sched.on_job_admitted(j, SimTime::ZERO);
        }
        let ctx = SchedContext::new(SimTime::ZERO, 4, &jobs);
        let plan = sched.allocate(&ctx);
        // Job 1 was admitted first in this fixture, so it ranks first.
        assert_eq!(plan.entries()[0].0, JobId::new(1));
    }

    #[test]
    fn score_ties_go_to_the_earlier_slot_not_the_lower_id() {
        // Admitted at the same instant, ids in reverse slot order: nothing
        // but the slot separates the two jobs.
        let tied = |id| JobView {
            admitted_at: SimTime::ZERO,
            ..view(id, 0.0, 100)
        };
        let jobs = vec![tied(5), tied(2)];
        let ctx = SchedContext::new(SimTime::ZERO, 4, &jobs);
        let plan = LearnedScheduler::new(LinearPolicy::las_like()).allocate(&ctx);
        assert_eq!(plan.entries(), &[(JobId::new(5), 4)]);
    }

    #[test]
    fn surplus_flows_down_the_ranking() {
        let jobs = vec![view(0, 0.0, 3), view(1, 10.0, 100)];
        let ctx = SchedContext::new(SimTime::ZERO, 10, &jobs);
        let plan = LearnedScheduler::new(LinearPolicy::las_like()).allocate(&ctx);
        assert_eq!(plan.entries(), &[(JobId::new(0), 3), (JobId::new(1), 7)]);
    }

    #[test]
    fn nan_weight_still_produces_a_full_deterministic_plan() {
        let mut weights = vec![0.0; FEATURE_COUNT];
        weights[1] = f64::NAN;
        let mut sched = LearnedScheduler::new(LinearPolicy::new(weights));
        let jobs = vec![view(0, 3.0, 50), view(1, 1.0, 50), view(2, 2.0, 50)];
        for j in &jobs {
            sched.on_job_admitted(j, SimTime::ZERO);
        }
        let ctx = SchedContext::new(SimTime::ZERO, 30, &jobs);
        let plan = sched.allocate(&ctx);
        let repeat = sched.allocate(&ctx);
        assert_eq!(plan, repeat, "NaN scores must not destabilize the ranking");
        assert_eq!(plan.total_target(), 30, "plan must stay work-conserving");
        assert!(sched.check_consistency().is_ok());
    }

    #[test]
    fn state_round_trips() {
        let a = LearnedScheduler::new(LinearPolicy::las_like());
        let state = a.snapshot_state().unwrap();
        let mut b = LearnedScheduler::new(LinearPolicy::las_like());
        b.restore_state(&state).unwrap();
        assert_eq!(b.snapshot_state().unwrap(), state);
        assert!(b.check_consistency().is_ok());
    }

    #[test]
    fn restore_rejects_policy_mismatch() {
        let a = LearnedScheduler::new(LinearPolicy::las_like());
        let state = a.snapshot_state().unwrap();
        let mut b = LearnedScheduler::new(LinearPolicy::zeros());
        assert!(b.restore_state(&state).is_err());

        let mut c = LearnedScheduler::new(LinearPolicy::las_like());
        assert!(c.restore_state("not json").is_err());
    }

    #[test]
    fn policy_artifact_round_trips_and_validates() {
        let policy = LinearPolicy::las_like();
        let json = policy.to_json();
        assert_eq!(LinearPolicy::from_json(&json).unwrap(), policy);
        assert!(LinearPolicy::from_json("{}").is_err());
        let foreign = json.replacen(
            &format!("\"schema\":{POLICY_SCHEMA_VERSION}"),
            "\"schema\":999",
            1,
        );
        assert!(LinearPolicy::from_json(&foreign).is_err());
    }

    #[test]
    fn features_never_read_the_oracle() {
        let mut v = view(0, 10.0, 5);
        let cluster = ClusterFeatures {
            occupancy: 0.5,
            active_jobs: 3,
        };
        let without = job_features(&v, SimTime::from_secs(20), &cluster);
        v.oracle = Some(lasmq_simulator::OracleInfo {
            total_size: Service::from_container_secs(1e6),
            remaining: Service::from_container_secs(9e5),
        });
        let with = job_features(&v, SimTime::from_secs(20), &cluster);
        assert_eq!(without, with);
        assert_eq!(without.len(), FEATURE_COUNT);
    }
}
