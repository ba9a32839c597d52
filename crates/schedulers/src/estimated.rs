//! SJF driven by *imperfect* size estimates.
//!
//! The paper's motivation (§II) is that job sizes cannot be estimated
//! reliably — and §III-B argues the failure mode is asymmetric: "if we
//! under-estimate the job size, we may give it higher priority than it
//! should have, which will delay a lot of jobs with smaller job sizes",
//! while over-estimates mostly delay the job itself (Dell'Amico et al.,
//! MASCOTS 2014). This scheduler makes that argument measurable: it is SJF
//! over a *corrupted* oracle — log-normal noise on every job's size, plus
//! an optional probability of grossly under-estimating a job (×10⁻⁴ — the
//! "mistook a giant for a tiny job" case). With zero noise it coincides
//! with [`ShortestJobFirst`](crate::ShortestJobFirst).
//!
//! Estimates are a pure function of `(seed, job)` (see
//! [`noise`](crate::noise)), so runs stay reproducible and there is no
//! state to snapshot.

use lasmq_simulator::{AllocationPlan, JobId, SchedContext, Scheduler, SimTime};

use crate::noise::{EstimateMemo, SizeNoise};
use crate::rank_and_grant;

/// SJF with noisy size estimates (an oracle-family scheduler: it reads the
/// true size, then corrupts it — so it declares `requires_oracle`).
///
/// # Examples
///
/// ```
/// use lasmq_schedulers::EstimatedSjf;
/// use lasmq_simulator::Scheduler;
///
/// let sched = EstimatedSjf::new(1.0, 0.05, 7);
/// assert!(sched.requires_oracle());
/// assert_eq!(sched.name(), "SJF-est");
/// ```
#[derive(Debug, Clone)]
pub struct EstimatedSjf {
    estimates: EstimateMemo,
}

impl EstimatedSjf {
    /// SJF over estimates with log-normal error of scale `sigma`, and a
    /// `gross_underestimate_prob` chance per job of a ×10⁻⁴ gross
    /// under-estimate. `seed` pins the error draws.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative/not finite or the probability is
    /// outside `[0, 1]`.
    pub fn new(sigma: f64, gross_underestimate_prob: f64, seed: u64) -> Self {
        EstimatedSjf {
            estimates: EstimateMemo::new(SizeNoise::new(sigma, gross_underestimate_prob, seed)),
        }
    }
}

impl Scheduler for EstimatedSjf {
    fn name(&self) -> &str {
        "SJF-est"
    }

    fn requires_oracle(&self) -> bool {
        true
    }

    fn reads_stage_progress(&self) -> bool {
        false
    }

    fn on_job_completed(&mut self, job: JobId, _now: SimTime) {
        self.estimates.forget(job);
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
        rank_and_grant(ctx, plan, |j| {
            let estimate = self.estimates.estimate(j).as_container_secs();
            (estimate, (j.arrival, j.id))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasmq_simulator::{testkit, JobView, OracleInfo, Service};

    fn view(id: u32, size: f64) -> JobView {
        JobView {
            oracle: Some(OracleInfo {
                total_size: Service::from_container_secs(size),
                remaining: Service::from_container_secs(size),
            }),
            ..testkit::view(id)
        }
    }

    #[test]
    fn exact_estimates_reproduce_sjf_order() {
        let jobs = vec![view(0, 500.0), view(1, 5.0), view(2, 50.0)];
        let ctx = SchedContext::new(SimTime::ZERO, 10, &jobs);
        let plan = EstimatedSjf::new(0.0, 0.0, 0).allocate(&ctx);
        assert_eq!(plan.entries()[0].0, JobId::new(1));
    }

    #[test]
    fn same_seed_same_estimates() {
        let mut a = EstimatedSjf::new(1.5, 0.1, 42);
        let mut b = EstimatedSjf::new(1.5, 0.1, 42);
        for i in 0..50 {
            let job = view(i, 10.0 + i as f64);
            assert_eq!(a.estimates.estimate(&job), b.estimates.estimate(&job));
        }
    }

    #[test]
    fn gross_underestimates_occur_at_roughly_the_configured_rate() {
        let mut sched = EstimatedSjf::new(0.0, 0.2, 11);
        let mut gross = 0;
        for i in 0..2_000 {
            let est = sched.estimates.estimate(&view(i, 1_000.0));
            if est.as_container_secs() < 100.0 {
                gross += 1;
            }
        }
        let rate = gross as f64 / 2_000.0;
        assert!((rate - 0.2).abs() < 0.05, "gross rate {rate}");
    }

    #[test]
    fn noisy_estimates_shuffle_close_sizes_not_decades() {
        // With sigma 0.5, a 10× size gap is almost never inverted.
        let jobs = vec![view(0, 1_000.0), view(1, 1.0)];
        let ctx = SchedContext::new(SimTime::ZERO, 10, &jobs);
        let mut inversions = 0;
        for seed in 0..100 {
            let plan = EstimatedSjf::new(0.5, 0.0, seed).allocate(&ctx);
            if plan.entries()[0].0 == JobId::new(0) {
                inversions += 1;
            }
        }
        assert!(
            inversions < 5,
            "{inversions} decade inversions at sigma 0.5"
        );
    }

    #[test]
    #[should_panic(expected = "probability must be in")]
    fn bad_probability_rejected() {
        let _ = EstimatedSjf::new(0.5, 1.5, 0);
    }
}
