//! The shared size-estimation noise model.
//!
//! Every estimate-driven scheduler in the zoo (SJF-est, FSP, HFSP, the
//! backfill heuristics) corrupts the oracle's true job size the same way:
//! one multiplicative log-normal draw per job, mean-preserving
//! (`E[factor] = 1`), plus an optional probability of a ×10⁻⁴ gross
//! under-estimate — the "mistook a giant for a tiny job" failure §III-B
//! calls out as the dangerous direction. Centralizing the draw here keeps
//! the robustness campaign honest: a given `(sigma, seed, job)` triple maps
//! to exactly one factor no matter which scheduler consumes it, so
//! cross-scheduler comparisons at one noise level see the *same* corrupted
//! trace.
//!
//! Draws are pure functions of `(seed, job id)` via splitmix64 — no RNG
//! state, so estimates are identical across thread counts, across
//! snapshot/restore cycles, and between the engine and the naive reference
//! executor. That purity is why no scheduler persists its estimates: the
//! one `EstimateMemo` that spares SJF-est, WFP3 and UNICEF a Box–Muller
//! draw per job per pass is a cache, and a restored scheduler refills it
//! with the same bits.

use std::collections::HashMap;

use lasmq_simulator::{JobId, JobView, Service};

use crate::oracle_info;

/// A deterministic per-job size-noise source.
///
/// # Examples
///
/// ```
/// use lasmq_schedulers::noise::SizeNoise;
/// use lasmq_simulator::JobId;
///
/// let clean = SizeNoise::new(0.0, 0.0, 7);
/// assert_eq!(clean.factor(JobId::new(3)), 1.0); // σ = 0 is exact
///
/// let noisy = SizeNoise::new(1.0, 0.0, 7);
/// assert_eq!(noisy.factor(JobId::new(3)), noisy.factor(JobId::new(3)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeNoise {
    sigma: f64,
    gross_underestimate_prob: f64,
    seed: u64,
}

impl SizeNoise {
    /// A noise source with log-normal scale `sigma`, a
    /// `gross_underestimate_prob` chance per job of a ×10⁻⁴ gross
    /// under-estimate, and `seed` pinning the per-job draws.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative/not finite or the probability is
    /// outside `[0, 1]`.
    pub fn new(sigma: f64, gross_underestimate_prob: f64, seed: u64) -> Self {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "sigma must be non-negative"
        );
        assert!(
            (0.0..=1.0).contains(&gross_underestimate_prob),
            "probability must be in [0, 1]"
        );
        SizeNoise {
            sigma,
            gross_underestimate_prob,
            seed,
        }
    }

    /// The multiplicative error factor for `job`. At `sigma = 0` (and no
    /// gross under-estimates) this is *exactly* `1.0` regardless of the
    /// seed: `exp(0·z − 0) = 1` for every draw, so σ = 0 schedulers are
    /// bit-identical to their perfectly informed selves.
    pub fn factor(&self, job: JobId) -> f64 {
        let h1 = splitmix64(self.seed ^ (u64::from(u32::from(job)) << 1) ^ 0x51ed);
        let h2 = splitmix64(h1);
        let h3 = splitmix64(h2);
        let u1 = to_unit(h1).max(1e-12);
        let u2 = to_unit(h2);
        // Box–Muller: one standard normal from two uniforms. The −σ²/2
        // drift makes the log-normal mean-preserving.
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let mut factor = (self.sigma * z - self.sigma * self.sigma / 2.0).exp();
        if to_unit(h3) < self.gross_underestimate_prob {
            factor *= 1e-4;
        }
        factor
    }

    /// The corrupted estimate for a job of true size `true_size`, floored
    /// at a positive epsilon so downstream math never divides by zero.
    pub fn estimate(&self, job: JobId, true_size: Service) -> Service {
        Service::from_container_secs((true_size.as_container_secs() * self.factor(job)).max(1e-9))
    }
}

/// A [`SizeNoise`] behind a per-job memo of its estimates: one draw per
/// job at first contact — as a real predictor produces one estimate at
/// submission — looked up on every later pass and forgotten when the job
/// completes. Never snapshotted; see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct EstimateMemo {
    noise: SizeNoise,
    estimates: HashMap<JobId, Service>,
}

impl EstimateMemo {
    pub(crate) fn new(noise: SizeNoise) -> Self {
        EstimateMemo {
            noise,
            estimates: HashMap::new(),
        }
    }

    /// The corrupted total-size estimate for `view`'s job.
    pub(crate) fn estimate(&mut self, view: &JobView) -> Service {
        *self
            .estimates
            .entry(view.id)
            .or_insert_with(|| self.noise.estimate(view.id, oracle_info(view).total_size))
    }

    /// Drops a completed job's entry.
    pub(crate) fn forget(&mut self, job: JobId) {
        self.estimates.remove(&job);
    }
}

pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn to_unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasmq_simulator::{testkit, OracleInfo};
    use proptest::prelude::*;

    #[test]
    fn sigma_zero_is_exactly_one() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let noise = SizeNoise::new(0.0, 0.0, seed);
            for id in 0..200u32 {
                assert_eq!(noise.factor(JobId::new(id)), 1.0, "seed {seed} job {id}");
            }
        }
    }

    #[test]
    fn draws_are_mean_preserving_roughly() {
        let noise = SizeNoise::new(1.0, 0.0, 9);
        let mean: f64 = (0..20_000u32)
            .map(|i| noise.factor(JobId::new(i)))
            .sum::<f64>()
            / 20_000.0;
        assert!((mean - 1.0).abs() < 0.05, "mean factor {mean}");
    }

    #[test]
    fn gross_underestimates_scale_by_1e4() {
        // With probability 1 every job is grossly under-estimated.
        let clean = SizeNoise::new(0.0, 0.0, 3);
        let gross = SizeNoise::new(0.0, 1.0, 3);
        for id in 0..50u32 {
            let job = JobId::new(id);
            assert!((gross.factor(job) - clean.factor(job) * 1e-4).abs() < 1e-12);
        }
    }

    #[test]
    fn memo_keeps_one_estimate_per_job_until_the_job_completes() {
        let sized = |size: f64| JobView {
            oracle: Some(OracleInfo {
                total_size: Service::from_container_secs(size),
                remaining: Service::from_container_secs(size),
            }),
            ..testkit::view(3)
        };
        let noise = SizeNoise::new(2.0, 0.0, 9);
        let mut memo = EstimateMemo::new(noise);
        let first = memo.estimate(&sized(500.0));
        assert_eq!(
            first,
            noise.estimate(JobId::new(3), Service::from_container_secs(500.0))
        );
        // Same job, different apparent size: the first estimate stands…
        assert_eq!(memo.estimate(&sized(1.0)), first);
        // …until the job completes and its entry is dropped.
        memo.forget(JobId::new(3));
        assert_ne!(memo.estimate(&sized(1.0)), first);
    }

    #[test]
    #[should_panic(expected = "sigma must be non-negative")]
    fn negative_sigma_rejected() {
        let _ = SizeNoise::new(-1.0, 0.0, 0);
    }

    proptest! {
        /// σ = 0 factors are exactly 1 for *any* seed and job id — the
        /// noiseless path is bit-identical to the perfect oracle.
        #[test]
        fn sigma_zero_exact_for_all_seeds(seed in 0u64..u64::MAX, id in 0u32..u32::MAX) {
            prop_assert_eq!(SizeNoise::new(0.0, 0.0, seed).factor(JobId::new(id)), 1.0);
        }

        /// Draws are pure in (seed, job id): two independent instances
        /// agree bit-for-bit, which is what makes estimates identical
        /// across thread counts and restore cycles.
        #[test]
        fn draws_deterministic_per_seed_and_job(
            sigma in 0.0f64..4.0,
            seed in 0u64..u64::MAX,
            id in 0u32..u32::MAX,
        ) {
            let a = SizeNoise::new(sigma, 0.1, seed);
            let b = SizeNoise::new(sigma, 0.1, seed);
            let job = JobId::new(id);
            prop_assert_eq!(a.factor(job).to_bits(), b.factor(job).to_bits());
        }
    }
}
