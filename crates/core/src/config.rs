//! Configuration of the LAS_MQ scheduler.
//!
//! §III-E of the paper: thresholds grow exponentially (`αᵢ₊₁ = p · αᵢ`),
//! and "in our experiments, we simply set the number of queues as 10 and
//! the threshold of the first queue as 100" (container-seconds). The
//! trace-driven simulations use a first threshold of 1 (§V-C1). Everything
//! the paper varies — and the two design features ablated in Fig. 3 — is a
//! knob here.

use serde::{Deserialize, Serialize};

use lasmq_simulator::Service;

/// How the cluster is divided among the priority queues each pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum QueueSharing {
    /// Weighted fair sharing across queues — the paper's choice, which
    /// "avoids starvation in lower priority queues" (§III-A).
    #[default]
    Weighted,
    /// Strict priority: queue *i* is served only from what queues
    /// `0..i` left over (the DLAS/Aalo discipline the paper cites as
    /// related work). Provided for comparison; can starve large jobs.
    StrictPriority,
}

/// How jobs are ordered *within* one queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum QueueOrdering {
    /// By the number of containers the job's remaining tasks (including
    /// running ones) would use, ascending — the paper's contribution
    /// (§III-C), which lets more jobs finish their remaining tasks
    /// sooner while keeping the order stable.
    #[default]
    RemainingDemand,
    /// Plain arrival order (the "good start" the paper improves upon).
    Fifo,
}

/// Relative weights of the `k` queues under [`QueueSharing::Weighted`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QueueWeights {
    /// All queues weigh the same.
    Equal,
    /// Queue `i+1` weighs `1/ratio` of queue `i`: higher-priority queues
    /// get geometrically larger shares. `ratio = 2` is the default; larger
    /// ratios push the scheduler toward strict priority, `1` toward equal
    /// sharing — the fairness knob of §VII.
    Geometric {
        /// The decay ratio between consecutive queues (must be ≥ 1).
        ratio: f64,
    },
}

impl QueueWeights {
    /// Materializes the weight vector for `k` queues, highest priority
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if a geometric ratio is below 1.
    pub fn vector(&self, k: usize) -> Vec<f64> {
        match self {
            QueueWeights::Equal => vec![1.0; k],
            QueueWeights::Geometric { ratio } => {
                assert!(
                    ratio.is_finite() && *ratio >= 1.0,
                    "geometric ratio must be >= 1"
                );
                (0..k).map(|i| ratio.powi(-(i as i32))).collect()
            }
        }
    }
}

impl Default for QueueWeights {
    fn default() -> Self {
        QueueWeights::Geometric { ratio: 2.0 }
    }
}

/// Full LAS_MQ configuration.
///
/// # Examples
///
/// The paper's testbed setting (k = 10, α₁ = 100, p = 10):
///
/// ```
/// use lasmq_core::LasMqConfig;
///
/// let config = LasMqConfig::paper_experiments();
/// assert_eq!(config.num_queues(), 10);
/// assert_eq!(config.thresholds()[0].as_container_secs(), 100.0);
/// assert_eq!(config.thresholds()[1].as_container_secs(), 1_000.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LasMqConfig {
    num_queues: usize,
    first_threshold: f64,
    step: f64,
    weights: QueueWeights,
    sharing: QueueSharing,
    ordering: QueueOrdering,
    stage_awareness: bool,
    min_progress_for_estimate: f64,
}

impl LasMqConfig {
    /// The paper's testbed configuration: 10 queues, first threshold 100
    /// container-seconds, step 10, weighted sharing, demand ordering and
    /// stage awareness on.
    pub fn paper_experiments() -> Self {
        LasMqConfig {
            num_queues: 10,
            first_threshold: 100.0,
            step: 10.0,
            weights: QueueWeights::default(),
            sharing: QueueSharing::default(),
            ordering: QueueOrdering::default(),
            stage_awareness: true,
            min_progress_for_estimate: 0.05,
        }
    }

    /// The paper's trace-simulation configuration: first threshold of
    /// 1 service unit (§V-C1), and the two Hadoop-specific features —
    /// stage awareness and task-count in-queue ordering — disabled,
    /// because the trace simulator replays stage-less `(size, attained)`
    /// jobs that cannot express them (they are evaluated on the testbed
    /// workload in Figs. 3, 5 and 6). With them off, in-queue service is
    /// FIFO and demotion is purely attained-service-driven, as in the
    /// paper's simulation.
    pub fn paper_simulations() -> Self {
        LasMqConfig::paper_experiments()
            .with_first_threshold(1.0)
            .with_stage_awareness(false)
            .with_ordering(QueueOrdering::Fifo)
    }

    /// Sets the number of queues `k` (Fig. 8(a) sweeps 1–10).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn with_num_queues(mut self, k: usize) -> Self {
        assert!(k >= 1, "at least one queue is required");
        self.num_queues = k;
        self
    }

    /// Sets the first queue's demotion threshold, in container-seconds
    /// (Fig. 8(b) sweeps 10⁻³–10).
    ///
    /// # Panics
    ///
    /// Panics if the threshold is not positive and finite.
    pub fn with_first_threshold(mut self, threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "threshold must be positive"
        );
        self.first_threshold = threshold;
        self
    }

    /// Sets the multiplicative step `p` between thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not greater than 1.
    pub fn with_step(mut self, step: f64) -> Self {
        assert!(step.is_finite() && step > 1.0, "step must exceed 1");
        self.step = step;
        self
    }

    /// Sets the across-queue weights.
    pub fn with_weights(mut self, weights: QueueWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Sets the across-queue sharing discipline.
    pub fn with_sharing(mut self, sharing: QueueSharing) -> Self {
        self.sharing = sharing;
        self
    }

    /// Sets the in-queue ordering (Fig. 3's second ablated feature).
    pub fn with_ordering(mut self, ordering: QueueOrdering) -> Self {
        self.ordering = ordering;
        self
    }

    /// Enables or disables stage awareness (Fig. 3's first ablated
    /// feature).
    pub fn with_stage_awareness(mut self, enabled: bool) -> Self {
        self.stage_awareness = enabled;
        self
    }

    /// Number of queues `k`.
    pub fn num_queues(&self) -> usize {
        self.num_queues
    }

    /// The step `p`.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// The across-queue sharing discipline.
    pub fn sharing(&self) -> QueueSharing {
        self.sharing
    }

    /// The in-queue ordering.
    pub fn ordering(&self) -> QueueOrdering {
        self.ordering
    }

    /// Whether stage awareness is on.
    pub fn stage_awareness(&self) -> bool {
        self.stage_awareness
    }

    /// Minimum progress before estimates apply.
    pub fn min_progress_for_estimate(&self) -> f64 {
        self.min_progress_for_estimate
    }

    /// The demotion thresholds `α₁ … α_{k−1}` (one fewer than queues):
    /// `αᵢ₊₁ = p · αᵢ` (§III-E).
    pub fn thresholds(&self) -> Vec<Service> {
        (0..self.num_queues.saturating_sub(1))
            .map(|i| Service::from_container_secs(self.first_threshold * self.step.powi(i as i32)))
            .collect()
    }

    /// The materialized queue weight vector.
    pub fn weight_vector(&self) -> Vec<f64> {
        self.weights.vector(self.num_queues)
    }
}

impl Default for LasMqConfig {
    /// [`LasMqConfig::paper_experiments`].
    fn default() -> Self {
        LasMqConfig::paper_experiments()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_grow_exponentially() {
        let t = LasMqConfig::paper_experiments().thresholds();
        assert_eq!(t.len(), 9);
        for (i, pair) in t.windows(2).enumerate() {
            let ratio = pair[1].as_container_secs() / pair[0].as_container_secs();
            assert!((ratio - 10.0).abs() < 1e-9, "ratio at {i} was {ratio}");
        }
    }

    #[test]
    fn single_queue_has_no_thresholds() {
        let c = LasMqConfig::paper_experiments().with_num_queues(1);
        assert!(c.thresholds().is_empty());
        assert_eq!(c.weight_vector(), vec![1.0]);
    }

    #[test]
    fn simulation_preset_uses_unit_threshold() {
        let c = LasMqConfig::paper_simulations();
        assert_eq!(c.thresholds()[0].as_container_secs(), 1.0);
        assert_eq!(c.num_queues(), 10);
    }

    #[test]
    fn geometric_weights_decay() {
        let w = QueueWeights::Geometric { ratio: 2.0 }.vector(4);
        assert_eq!(w, vec![1.0, 0.5, 0.25, 0.125]);
    }

    #[test]
    fn equal_weights_are_flat() {
        assert_eq!(QueueWeights::Equal.vector(3), vec![1.0; 3]);
    }

    #[test]
    #[should_panic(expected = "must exceed 1")]
    fn step_of_one_rejected() {
        let _ = LasMqConfig::paper_experiments().with_step(1.0);
    }

    #[test]
    #[should_panic(expected = "at least one queue")]
    fn zero_queues_rejected() {
        let _ = LasMqConfig::paper_experiments().with_num_queues(0);
    }

    #[test]
    fn serde_roundtrip() {
        let c = LasMqConfig::paper_experiments()
            .with_num_queues(5)
            .with_weights(QueueWeights::Equal)
            .with_ordering(QueueOrdering::Fifo);
        let json = serde_json::to_string(&c).unwrap();
        let back: LasMqConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
