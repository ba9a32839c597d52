//! Experiment scale: paper-size runs vs quick scaled-down runs.
//!
//! Every figure runner takes a [`Scale`] so the same code serves the full
//! reproduction (`repro`), `repro --quick` (reduced scale) and the test
//! suite (tiny scale).

/// Workload sizes and repetition counts for one experiment campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Jobs in the PUMA workload (paper: 100).
    pub puma_jobs: usize,
    /// Independent seeds averaged for PUMA experiments ("the experiments
    /// are conducted multiple times", §III-C).
    pub puma_repetitions: usize,
    /// Jobs in the heavy-tailed trace (paper: 24,443).
    pub facebook_jobs: usize,
    /// Jobs in the uniform batch (paper: 10,000). Earlier revisions ran
    /// 2,000 here because full engine passes over a 10,000-job batch were
    /// prohibitively slow; the incremental scheduling path (dirty-set view
    /// refresh, per-queue demand sums, skip-clean-queue sorts) brought the
    /// full batch back within interactive reach.
    pub uniform_jobs: usize,
    /// Tasks each uniform job splits into (size 10,000 split into
    /// 1,000 × 10 s tasks, so a job needs ten cluster waves).
    pub uniform_tasks_per_job: u32,
    /// Base RNG seed; repetition `r` uses `seed + r`.
    pub seed: u64,
}

impl Scale {
    /// The paper's full scale.
    pub fn paper() -> Self {
        Scale {
            puma_jobs: 100,
            puma_repetitions: 3,
            facebook_jobs: 24_443,
            uniform_jobs: 10_000,
            uniform_tasks_per_job: 1_000,
            seed: 42,
        }
    }

    /// The reduced scale `repro --quick` runs: same shapes, minutes less
    /// wall clock.
    pub fn bench() -> Self {
        Scale {
            puma_jobs: 60,
            puma_repetitions: 1,
            facebook_jobs: 4_000,
            uniform_jobs: 400,
            uniform_tasks_per_job: 1_000,
            seed: 42,
        }
    }

    /// A tiny scale for the test suite.
    pub fn test() -> Self {
        Scale {
            puma_jobs: 30,
            puma_repetitions: 1,
            facebook_jobs: 800,
            uniform_jobs: 150,
            uniform_tasks_per_job: 1_000,
            seed: 42,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_the_paper() {
        let s = Scale::paper();
        assert_eq!(s.puma_jobs, 100);
        assert_eq!(s.facebook_jobs, 24_443);
        assert_eq!(s.uniform_jobs, 10_000);
    }

    #[test]
    fn smaller_scales_shrink() {
        let (p, b, t) = (Scale::paper(), Scale::bench(), Scale::test());
        assert!(b.facebook_jobs < p.facebook_jobs);
        assert!(t.facebook_jobs < b.facebook_jobs);
    }
}
