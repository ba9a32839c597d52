//! Scheduler selection by name/kind.

use std::fmt;
use std::str::FromStr;

use lasmq_core::{LasMq, LasMqConfig};
use lasmq_schedulers::{
    Backfill, EstimatedSjf, Fair, Fifo, Fsp, Las, LearnedScheduler, LinearPolicy, Ps,
    ShortestJobFirst, ShortestRemainingFirst,
};
use lasmq_simulator::Scheduler;
use serde::{Deserialize, Serialize};

/// Which scheduler to run an experiment with.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum SchedulerKind {
    /// First-in-first-out.
    Fifo,
    /// Priority-weighted fair sharing.
    Fair,
    /// Least attained service.
    Las,
    /// Equal-share processor sharing.
    Ps,
    /// A learned linear policy over runtime-observable features. The
    /// policy weights are part of the serialized kind, so cells running
    /// different trained policies get distinct cache fingerprints.
    Learned(LinearPolicy),
    /// The paper's contribution, with an explicit configuration.
    LasMq(LasMqConfig),
    /// Oracle: shortest job first (requires the size oracle).
    Sjf,
    /// Oracle: shortest remaining time first (requires the size oracle).
    Srtf,
    /// SJF over corrupted size estimates (requires the size oracle).
    SjfEstimated {
        /// Log-normal estimation error scale.
        sigma: f64,
        /// Probability of a ×0.01 gross under-estimate.
        gross_underestimate_prob: f64,
        /// Seed for the per-job error draws.
        seed: u64,
    },
    /// Fair Sojourn Protocol over (possibly noisy) size estimates:
    /// jobs run in virtual processor-sharing completion order (requires
    /// the size oracle).
    Fsp {
        /// Log-normal estimation error scale (0 = exact sizes).
        sigma: f64,
        /// Seed for the per-job error draws.
        seed: u64,
    },
    /// HFSP-style FSP variant: the initial (noisy) guess is refined from
    /// observed stage progress, and waiting jobs age through the virtual
    /// system faster (requires the size oracle).
    Hfsp {
        /// Log-normal estimation error scale on the *initial* guess.
        sigma: f64,
        /// Seed for the per-job error draws.
        seed: u64,
    },
    /// WFP3 backfill score — `(wait/runtime)³ × procs`, highest first —
    /// over noisy runtime estimates (requires the size oracle).
    Wfp3 {
        /// Log-normal estimation error scale on the runtime estimate.
        sigma: f64,
        /// Seed for the per-job error draws.
        seed: u64,
    },
    /// UNICEF backfill score — `wait / (log₂(procs+1) × runtime)`,
    /// highest first — over noisy runtime estimates (requires the size
    /// oracle).
    Unicef {
        /// Log-normal estimation error scale on the runtime estimate.
        sigma: f64,
        /// Seed for the per-job error draws.
        seed: u64,
    },
}

/// How many `SchedulerKind` variants exist. [`SchedulerKind::zoo`] must
/// produce exactly this many distinct [`SchedulerKind::variant_index`]es —
/// the pair is the compile-time tripwire that keeps the zoo-wide contract
/// suite exhaustive.
pub const VARIANT_COUNT: usize = 13;

impl SchedulerKind {
    /// LAS_MQ with the testbed defaults (k = 10, α₁ = 100, p = 10).
    pub fn las_mq_experiments() -> Self {
        SchedulerKind::LasMq(LasMqConfig::paper_experiments())
    }

    /// LAS_MQ with the trace-simulation defaults (α₁ = 1).
    pub fn las_mq_simulations() -> Self {
        SchedulerKind::LasMq(LasMqConfig::paper_simulations())
    }

    /// Instantiates the scheduler.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Fifo => Box::new(Fifo::new()),
            SchedulerKind::Fair => Box::new(Fair::new()),
            SchedulerKind::Las => Box::new(Las::new()),
            SchedulerKind::Ps => Box::new(Ps::new()),
            SchedulerKind::Learned(policy) => Box::new(LearnedScheduler::new(policy.clone())),
            SchedulerKind::LasMq(config) => Box::new(LasMq::new(config.clone())),
            SchedulerKind::Sjf => Box::new(ShortestJobFirst::new()),
            SchedulerKind::Srtf => Box::new(ShortestRemainingFirst::new()),
            SchedulerKind::SjfEstimated {
                sigma,
                gross_underestimate_prob,
                seed,
            } => Box::new(EstimatedSjf::new(*sigma, *gross_underestimate_prob, *seed)),
            SchedulerKind::Fsp { sigma, seed } => Box::new(Fsp::new(*sigma, *seed)),
            SchedulerKind::Hfsp { sigma, seed } => Box::new(Fsp::hfsp(*sigma, *seed)),
            SchedulerKind::Wfp3 { sigma, seed } => Box::new(Backfill::wfp3(*sigma, *seed)),
            SchedulerKind::Unicef { sigma, seed } => Box::new(Backfill::unicef(*sigma, *seed)),
        }
    }

    /// Whether the scheduler needs ground-truth job sizes: the built
    /// scheduler's own [`Scheduler::requires_oracle`].
    pub fn requires_oracle(&self) -> bool {
        self.build().requires_oracle()
    }

    /// A stable index per enum variant, ignoring payloads.
    ///
    /// The match is deliberately exhaustive (no `_` arm): adding a new
    /// `SchedulerKind` variant without updating this function — and the
    /// [`SchedulerKind::zoo`] list the contract suite iterates — is a
    /// compile error, so a new scheduler cannot dodge zoo coverage.
    pub fn variant_index(&self) -> usize {
        match self {
            SchedulerKind::Fifo => 0,
            SchedulerKind::Fair => 1,
            SchedulerKind::Las => 2,
            SchedulerKind::Ps => 3,
            SchedulerKind::Learned(_) => 4,
            SchedulerKind::LasMq(_) => 5,
            SchedulerKind::Sjf => 6,
            SchedulerKind::Srtf => 7,
            SchedulerKind::SjfEstimated { .. } => 8,
            SchedulerKind::Fsp { .. } => 9,
            SchedulerKind::Hfsp { .. } => 10,
            SchedulerKind::Wfp3 { .. } => 11,
            SchedulerKind::Unicef { .. } => 12,
        }
    }

    /// One representative of every `SchedulerKind` variant — the full
    /// scheduler zoo, as iterated by the zoo-wide contract suite. Noisy
    /// variants are instantiated with a non-zero sigma so the contract
    /// tests exercise the noise path too.
    pub fn zoo() -> Vec<SchedulerKind> {
        vec![
            SchedulerKind::Fifo,
            SchedulerKind::Fair,
            SchedulerKind::Las,
            SchedulerKind::Ps,
            SchedulerKind::Learned(LinearPolicy::las_like()),
            SchedulerKind::las_mq_simulations(),
            SchedulerKind::Sjf,
            SchedulerKind::Srtf,
            SchedulerKind::SjfEstimated {
                sigma: 1.0,
                gross_underestimate_prob: 0.05,
                seed: 7,
            },
            SchedulerKind::Fsp {
                sigma: 1.0,
                seed: 7,
            },
            SchedulerKind::Hfsp {
                sigma: 1.0,
                seed: 7,
            },
            SchedulerKind::Wfp3 {
                sigma: 1.0,
                seed: 7,
            },
            SchedulerKind::Unicef {
                sigma: 1.0,
                seed: 7,
            },
        ]
    }

    /// The four schedulers every figure of the paper compares, in the
    /// paper's legend order, configured for testbed-style experiments.
    pub fn paper_lineup_experiments() -> Vec<SchedulerKind> {
        vec![
            SchedulerKind::las_mq_experiments(),
            SchedulerKind::Las,
            SchedulerKind::Fair,
            SchedulerKind::Fifo,
        ]
    }

    /// The same lineup configured for trace simulations (α₁ = 1).
    pub fn paper_lineup_simulations() -> Vec<SchedulerKind> {
        vec![
            SchedulerKind::las_mq_simulations(),
            SchedulerKind::Las,
            SchedulerKind::Fair,
            SchedulerKind::Fifo,
        ]
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SchedulerKind::Fifo => "FIFO",
            SchedulerKind::Fair => "FAIR",
            SchedulerKind::Las => "LAS",
            SchedulerKind::Ps => "PS",
            SchedulerKind::Learned(_) => "LEARNED",
            SchedulerKind::LasMq(_) => "LAS_MQ",
            SchedulerKind::Sjf => "SJF",
            SchedulerKind::Srtf => "SRTF",
            SchedulerKind::SjfEstimated { .. } => "SJF-est",
            SchedulerKind::Fsp { .. } => "FSP",
            SchedulerKind::Hfsp { .. } => "HFSP",
            SchedulerKind::Wfp3 { .. } => "WFP3",
            SchedulerKind::Unicef { .. } => "UNICEF",
        };
        f.write_str(name)
    }
}

/// Error for unrecognized scheduler names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSchedulerError(String);

impl fmt::Display for ParseSchedulerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown scheduler '{}' (expected fifo, fair, las, ps, learned, las_mq, sjf, srtf, \
             sjf-est, fsp, hfsp, wfp3 or unicef)",
            self.0
        )
    }
}

impl std::error::Error for ParseSchedulerError {}

impl FromStr for SchedulerKind {
    type Err = ParseSchedulerError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "fifo" => Ok(SchedulerKind::Fifo),
            "fair" => Ok(SchedulerKind::Fair),
            "las" => Ok(SchedulerKind::Las),
            "ps" => Ok(SchedulerKind::Ps),
            // The bare name means "the LAS-imitating default weights";
            // trained weights come from a policy artifact (`--policy`).
            "learned" => Ok(SchedulerKind::Learned(LinearPolicy::las_like())),
            "las_mq" | "lasmq" | "las-mq" => Ok(SchedulerKind::las_mq_experiments()),
            "sjf" => Ok(SchedulerKind::Sjf),
            "srtf" => Ok(SchedulerKind::Srtf),
            // The bare names mean "exact estimates"; noisy variants come
            // from the robustness campaign, not the CLI.
            "sjf-est" | "sjf_est" => Ok(SchedulerKind::SjfEstimated {
                sigma: 0.0,
                gross_underestimate_prob: 0.0,
                seed: 0,
            }),
            "fsp" => Ok(SchedulerKind::Fsp {
                sigma: 0.0,
                seed: 0,
            }),
            "hfsp" => Ok(SchedulerKind::Hfsp {
                sigma: 0.0,
                seed: 0,
            }),
            "wfp3" => Ok(SchedulerKind::Wfp3 {
                sigma: 0.0,
                seed: 0,
            }),
            "unicef" => Ok(SchedulerKind::Unicef {
                sigma: 0.0,
                seed: 0,
            }),
            other => Err(ParseSchedulerError(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        // Every kind parses its own `Display` output back to itself, and
        // the parse error offers every name.
        let err = "nope".parse::<SchedulerKind>().unwrap_err().to_string();
        for kind in SchedulerKind::zoo() {
            let name = kind.to_string();
            let parsed: SchedulerKind = name
                .parse()
                .unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
            assert_eq!(parsed.variant_index(), kind.variant_index());
            assert_eq!(parsed.to_string(), name);
            let lower = name.to_ascii_lowercase();
            assert!(err.contains(&lower), "error text omits {lower}: {err}");
        }
    }

    #[test]
    fn zoo_covers_every_variant_exactly_once() {
        let zoo = SchedulerKind::zoo();
        assert_eq!(zoo.len(), VARIANT_COUNT);
        let mut seen = [false; VARIANT_COUNT];
        for kind in &zoo {
            let idx = kind.variant_index();
            assert!(!seen[idx], "variant index {idx} appears twice in the zoo");
            seen[idx] = true;
        }
        assert!(seen.iter().all(|&s| s), "zoo misses a variant index");
    }

    #[test]
    fn zoo_builds_distinct_fingerprints() {
        // Every zoo member must serialize differently — the serialized
        // kind feeds the campaign cache fingerprint, so two kinds that
        // collide would silently share cached results.
        let zoo = SchedulerKind::zoo();
        let mut fingerprints: Vec<String> = zoo
            .iter()
            .map(|k| serde_json::to_string(k).unwrap())
            .collect();
        fingerprints.sort();
        fingerprints.dedup();
        assert_eq!(fingerprints.len(), VARIANT_COUNT);
    }

    #[test]
    fn noisy_kind_fingerprints_track_sigma_and_seed() {
        let base = SchedulerKind::Fsp {
            sigma: 1.0,
            seed: 7,
        };
        let other_sigma = SchedulerKind::Fsp {
            sigma: 2.0,
            seed: 7,
        };
        let other_seed = SchedulerKind::Fsp {
            sigma: 1.0,
            seed: 8,
        };
        let a = serde_json::to_string(&base).unwrap();
        assert_ne!(a, serde_json::to_string(&other_sigma).unwrap());
        assert_ne!(a, serde_json::to_string(&other_seed).unwrap());
        let back: SchedulerKind = serde_json::from_str(&a).unwrap();
        assert_eq!(back, base);
    }

    #[test]
    fn new_kinds_build_matching_names() {
        assert_eq!(
            SchedulerKind::Fsp {
                sigma: 0.0,
                seed: 0
            }
            .build()
            .name(),
            "FSP"
        );
        assert_eq!(
            SchedulerKind::Hfsp {
                sigma: 0.0,
                seed: 0
            }
            .build()
            .name(),
            "HFSP"
        );
        assert_eq!(
            SchedulerKind::Wfp3 {
                sigma: 0.0,
                seed: 0
            }
            .build()
            .name(),
            "WFP3"
        );
        assert_eq!(
            SchedulerKind::Unicef {
                sigma: 0.0,
                seed: 0
            }
            .build()
            .name(),
            "UNICEF"
        );
    }

    #[test]
    fn unknown_name_errors() {
        let err = "frobnicate".parse::<SchedulerKind>().unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn build_produces_matching_names() {
        assert_eq!(SchedulerKind::Fifo.build().name(), "FIFO");
        assert_eq!(SchedulerKind::las_mq_experiments().build().name(), "LAS_MQ");
        assert_eq!(SchedulerKind::Ps.build().name(), "PS");
        assert_eq!(
            SchedulerKind::Learned(LinearPolicy::las_like())
                .build()
                .name(),
            "LEARNED"
        );
    }

    #[test]
    fn learned_kinds_serialize_their_weights() {
        // Different trained policies must never collide in the campaign
        // cache: the weight vector is part of the serialized kind.
        let a = serde_json::to_string(&SchedulerKind::Learned(LinearPolicy::las_like())).unwrap();
        let b = serde_json::to_string(&SchedulerKind::Learned(LinearPolicy::zeros())).unwrap();
        assert_ne!(a, b);
        let back: SchedulerKind = serde_json::from_str(&a).unwrap();
        assert_eq!(back, SchedulerKind::Learned(LinearPolicy::las_like()));
    }

    #[test]
    fn lineup_is_the_papers_legend() {
        let names: Vec<String> = SchedulerKind::paper_lineup_experiments()
            .iter()
            .map(|k| k.to_string())
            .collect();
        assert_eq!(names, ["LAS_MQ", "LAS", "FAIR", "FIFO"]);
    }

    #[test]
    fn oracle_flags() {
        // The seven oracle kinds, and only they, declare the oracle.
        let oracle: Vec<String> = SchedulerKind::zoo()
            .iter()
            .filter(|kind| kind.requires_oracle())
            .map(SchedulerKind::to_string)
            .collect();
        assert_eq!(
            oracle,
            ["SJF", "SRTF", "SJF-est", "FSP", "HFSP", "WFP3", "UNICEF"]
        );
    }
}
