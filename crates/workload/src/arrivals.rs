//! Job arrival processes.
//!
//! The paper's experiments submit jobs with Poisson arrivals (mean
//! inter-arrival 50 s or 80 s); the trace simulations use a Poisson process
//! whose rate is derived from a target system load. Both are covered by
//! [`PoissonArrivals`].

use rand::RngCore;

use lasmq_simulator::SimTime;

use crate::dist::{Exponential, Sample};

/// A Poisson arrival process: exponential inter-arrival gaps with a given
/// mean.
///
/// # Examples
///
/// ```
/// use lasmq_workload::arrivals::PoissonArrivals;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let times = PoissonArrivals::with_mean_interval_secs(50.0).take(&mut rng, 100);
/// assert_eq!(times.len(), 100);
/// assert!(times.windows(2).all(|w| w[0] <= w[1]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonArrivals {
    gap: Exponential,
}

impl PoissonArrivals {
    /// Arrivals with a mean inter-arrival time of `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is not positive and finite.
    pub fn with_mean_interval_secs(secs: f64) -> Self {
        PoissonArrivals {
            gap: Exponential::with_mean(secs),
        }
    }

    /// Arrivals at rate `jobs_per_sec`.
    ///
    /// # Panics
    ///
    /// Panics if `jobs_per_sec` is not positive and finite.
    pub fn with_rate(jobs_per_sec: f64) -> Self {
        assert!(
            jobs_per_sec.is_finite() && jobs_per_sec > 0.0,
            "rate must be positive"
        );
        PoissonArrivals::with_mean_interval_secs(1.0 / jobs_per_sec)
    }

    /// The mean inter-arrival gap in seconds.
    pub fn mean_interval_secs(&self) -> f64 {
        self.gap.mean().expect("exponential mean is closed-form")
    }

    /// Draws `count` arrival instants, non-decreasing, starting from the
    /// first gap after time zero.
    pub fn take(&self, rng: &mut dyn RngCore, count: usize) -> Vec<SimTime> {
        let mut clock = 0.0_f64;
        (0..count)
            .map(|_| {
                clock += self.gap.sample(rng);
                SimTime::from_secs_f64(clock)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mean_gap_converges() {
        let mut rng = StdRng::seed_from_u64(11);
        let times = PoissonArrivals::with_mean_interval_secs(50.0).take(&mut rng, 20_000);
        let span = times.last().unwrap().as_secs_f64();
        let mean_gap = span / times.len() as f64;
        assert!((mean_gap - 50.0).abs() < 2.0, "mean gap {mean_gap}");
    }

    #[test]
    fn rate_and_interval_are_inverses() {
        let a = PoissonArrivals::with_rate(0.02);
        assert!((a.mean_interval_secs() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn arrivals_are_sorted_and_deterministic() {
        let gen = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            PoissonArrivals::with_mean_interval_secs(10.0).take(&mut rng, 100)
        };
        let a = gen(3);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(a, gen(3));
        assert_ne!(a, gen(4));
    }
}
