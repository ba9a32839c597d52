//! Extension experiment: train a linear scheduling policy — no ML
//! framework, no prior information.
//!
//! The paper shows LAS_MQ closing most of the gap to oracle SJF using
//! only runtime-observable state; this experiment asks how far a
//! *learned* policy gets with the same information. The policy is a
//! [`LinearPolicy`] over the [`job_features`](lasmq_schedulers::job_features)
//! vector, trained by derivative-free search:
//!
//! 1. **Warm snapshot** — one donor episode (FIFO, the policy-neutral
//!    choice) is warmed to the median job arrival and snapshotted
//!    ([`warm_fork`](crate::warm_fork), shared with `ext_warmstart`).
//!    Every candidate is evaluated as a
//!    [`fork`](lasmq_simulator::Simulation::fork) of this single
//!    snapshot, so an evaluation costs only the episode tail and all
//!    candidates face the identical backlog.
//! 2. **Random search** — a wide uniform sweep over weight space (plus
//!    the LAS-imitating and all-zero seeds) picks the starting point.
//! 3. **Cross-entropy** — iterate: sample a Gaussian population around
//!    the current mean, evaluate all candidates fork-parallel through
//!    [`run_forks`], refit mean and
//!    per-weight spread to the elite set. The reigning best candidate
//!    is re-injected into every population, so the best training return
//!    is monotone — the convergence the acceptance tests assert.
//! 4. **Held-out comparison** — the winner joins the paper lineup on
//!    seeds never used in training, scored by full-episode mean
//!    response time (no forks: held-out evaluation pays the honest
//!    cold-start cost). Each episode is a cell of the
//!    `ext_train_holdout` [`Campaign`], so it shares the result cache,
//!    `--verify` and `--telemetry` with every figure.
//!
//! Everything is deterministic: candidate sampling draws from one
//! seeded [`StdRng`] stream on the driving thread, and fork evaluation
//! returns bit-identical scores regardless of worker count.

use lasmq_campaign::{Campaign, ExecOptions, RunCell, SchedulerKind, SimSetup, WorkloadSpec};
use lasmq_schedulers::{LinearPolicy, FEATURE_COUNT, FEATURE_NAMES};
use lasmq_simulator::{SimError, SimSnapshot, SimTime};
use lasmq_workload::dist::uniform01;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::scale::Scale;
use crate::table::{fmt_num, TextTable};
use crate::warm_fork::{donor_snapshot, post_fork_mean_response, run_forks};

/// Trainer knobs. The defaults trade wall clock for polish; the smoke
/// configuration keeps CI runs in seconds. Worker threads, the cache and
/// verification come from the run's [`ExecOptions`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainOptions {
    /// Cross-entropy iterations after the random-search warmup.
    pub iterations: usize,
    /// Candidates sampled per round (warmup and each CEM iteration).
    pub population: usize,
    /// Elite candidates the next Gaussian is refit to.
    pub elite: usize,
    /// Seeds for the held-out comparison; none may equal the training
    /// seed.
    pub holdout_seeds: Vec<u64>,
}

impl TrainOptions {
    /// The full training configuration used for the committed artifact.
    pub fn full(scale: &Scale) -> Self {
        TrainOptions {
            iterations: 10,
            population: 24,
            elite: 6,
            holdout_seeds: vec![scale.seed + 1009, scale.seed + 2003, scale.seed + 3001],
        }
    }

    /// A few-second configuration for CI smoke runs and tests.
    pub fn smoke(scale: &Scale) -> Self {
        TrainOptions {
            iterations: 2,
            population: 8,
            elite: 3,
            holdout_seeds: vec![scale.seed + 1009],
        }
    }
}

/// One training round's summary.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRow {
    /// Round index; 0 is the random-search warmup.
    pub iteration: usize,
    /// Best training return seen so far (negative post-fork mean
    /// response, seconds; higher is better). Monotone by construction.
    pub best_return: f64,
    /// Mean return of this round's elite set.
    pub elite_mean_return: f64,
    /// Mean per-weight spread of the search distribution after refit.
    pub mean_sigma: f64,
}

/// One scheduler's held-out scores.
#[derive(Debug, Clone, PartialEq)]
pub struct HoldoutRow {
    /// Scheduler name.
    pub scheduler: String,
    /// Full-episode mean response time (s), one per held-out seed.
    pub per_seed: Vec<f64>,
    /// Mean over the held-out seeds.
    pub mean_response_secs: f64,
}

/// The experiment's output.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainResult {
    /// The trained policy (the artifact `repro --policy FILE` loads).
    pub policy: LinearPolicy,
    /// The training fork point.
    pub fork_at: SimTime,
    /// Per-round convergence records, warmup first.
    pub iterations: Vec<IterationRow>,
    /// The held-out seeds, in evaluation order.
    pub holdout_seeds: Vec<u64>,
    /// Held-out comparison, trained policy first, then the paper lineup.
    pub holdout: Vec<HoldoutRow>,
}

impl TrainResult {
    /// The held-out row for a scheduler name.
    pub fn holdout_row(&self, scheduler: &str) -> Option<&HoldoutRow> {
        self.holdout.iter().find(|r| r.scheduler == scheduler)
    }

    /// The serialized policy artifact (see
    /// [`LinearPolicy::to_json`]).
    pub fn policy_json(&self) -> String {
        self.policy.to_json()
    }

    /// The rendered tables: convergence (omitted for
    /// [`evaluate`]-only results), then the held-out comparison, then
    /// the learned weights.
    pub fn tables(&self) -> Vec<TextTable> {
        let mut conv = TextTable::new(
            format!(
                "Extension: cross-entropy policy training (fork point t={}s; \
                 return = −post-fork mean response, s)",
                fmt_num(self.fork_at.as_secs_f64())
            ),
            vec![
                "round".into(),
                "best return".into(),
                "elite mean".into(),
                "mean σ".into(),
            ],
        );
        for row in &self.iterations {
            conv.row(vec![
                if row.iteration == 0 {
                    "warmup".into()
                } else {
                    row.iteration.to_string()
                },
                fmt_num(row.best_return),
                fmt_num(row.elite_mean_return),
                fmt_num(row.mean_sigma),
            ]);
        }

        let mut held = TextTable::new(
            format!(
                "Held-out comparison (full episodes, seeds {:?})",
                self.holdout_seeds
            ),
            {
                let mut cols = vec!["scheduler".into()];
                cols.extend(self.holdout_seeds.iter().map(|s| format!("seed {s} (s)")));
                cols.push("mean response (s)".into());
                cols
            },
        );
        for row in &self.holdout {
            let mut cells = vec![row.scheduler.clone()];
            cells.extend(row.per_seed.iter().map(|&v| fmt_num(v)));
            cells.push(fmt_num(row.mean_response_secs));
            held.row(cells);
        }

        let mut weights = TextTable::new(
            "Learned weights (score = w · features, higher served first)",
            vec!["feature".into(), "weight".into()],
        );
        for (name, w) in FEATURE_NAMES.iter().zip(&self.policy.weights) {
            weights.row(vec![(*name).into(), format!("{w:+.4}")]);
        }

        if self.iterations.is_empty() {
            vec![held, weights]
        } else {
            vec![conv, held, weights]
        }
    }
}

/// A standard normal draw (Box–Muller; one of the pair is discarded so
/// every draw consumes a fixed amount of stream).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1 = uniform01(rng).max(f64::MIN_POSITIVE);
    let u2 = uniform01(rng);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn puma(scale: &Scale, seed: u64) -> WorkloadSpec {
    WorkloadSpec::Puma {
        jobs: scale.puma_jobs,
        mean_interval_secs: 50.0,
        seed,
        geo_bandwidth_mb_per_s: None,
    }
}

/// Evaluates candidate policies as [`SchedulerKind::Learned`] forks of
/// one warm `snapshot` ([`run_forks`]). A candidate's score is the
/// negative [post-fork mean response](post_fork_mean_response), so
/// higher is better. Returns one score per policy, in input order,
/// bit-identical across thread counts.
///
/// # Errors
///
/// Returns the first fork error (schema mismatch, corrupt snapshot).
fn fork_policy_returns(
    snapshot: &SimSnapshot,
    policies: &[LinearPolicy],
    exec: &ExecOptions,
) -> Result<Vec<f64>, SimError> {
    let fork_at = snapshot.now();
    let kinds: Vec<_> = policies
        .iter()
        .cloned()
        .map(SchedulerKind::Learned)
        .collect();
    Ok(run_forks(snapshot, &kinds, exec)?
        .iter()
        .map(|report| -post_fork_mean_response(report, fork_at).unwrap_or(0.0))
        .collect())
}

/// Runs the trainer end to end under `exec`: warm snapshot,
/// random-search warmup, cross-entropy refinement, held-out comparison.
pub fn run(scale: &Scale, opts: &TrainOptions, exec: &ExecOptions) -> TrainResult {
    assert!(opts.population >= 2, "population must fit the elite set");
    assert!(
        (1..=opts.population).contains(&opts.elite),
        "elite must be within the population"
    );
    assert!(
        !opts.holdout_seeds.contains(&scale.seed),
        "held-out seeds must not include the training seed"
    );

    let snapshot = donor_snapshot(&SimSetup::testbed(), &puma(scale, scale.seed));
    let mut rng = StdRng::seed_from_u64(scale.seed ^ 0x7452_4149_4e45_5221);

    // Round 0: random search. Uniform weights in [-1, 1] cover the
    // feature scale (ln-compressed, single digits), with the two
    // conventional seeds always in the running.
    let mut pop = vec![LinearPolicy::las_like(), LinearPolicy::zeros()];
    while pop.len() < opts.population {
        pop.push(LinearPolicy::new(
            (0..FEATURE_COUNT)
                .map(|_| uniform01(&mut rng) * 2.0 - 1.0)
                .collect(),
        ));
    }
    let returns = fork_policy_returns(&snapshot, &pop, exec).expect("snapshot round-tripped clean");
    let mut ranked: Vec<usize> = (0..pop.len()).collect();
    ranked.sort_by(|&a, &b| returns[b].total_cmp(&returns[a]));
    let mut best = pop[ranked[0]].clone();
    let mut best_return = returns[ranked[0]];

    let mut mean = best.weights.clone();
    let mut sigma = vec![0.5; FEATURE_COUNT];
    let elite_mean = |ranked: &[usize], returns: &[f64], n: usize| {
        ranked[..n].iter().map(|&i| returns[i]).sum::<f64>() / n as f64
    };
    let mut iterations = vec![IterationRow {
        iteration: 0,
        best_return,
        elite_mean_return: elite_mean(&ranked, &returns, opts.elite),
        mean_sigma: 0.5,
    }];

    // Cross-entropy rounds: Gaussian population around the elite mean,
    // reigning best re-injected so progress never regresses.
    for iteration in 1..=opts.iterations {
        let mut pop = vec![best.clone(), LinearPolicy::new(mean.clone())];
        while pop.len() < opts.population.max(2) {
            pop.push(LinearPolicy::new(
                mean.iter()
                    .zip(&sigma)
                    .map(|(&m, &s)| m + s * gaussian(&mut rng))
                    .collect(),
            ));
        }
        let returns =
            fork_policy_returns(&snapshot, &pop, exec).expect("snapshot round-tripped clean");
        let mut ranked: Vec<usize> = (0..pop.len()).collect();
        ranked.sort_by(|&a, &b| returns[b].total_cmp(&returns[a]));
        if returns[ranked[0]] > best_return {
            best_return = returns[ranked[0]];
            best = pop[ranked[0]].clone();
        }
        let elite = &ranked[..opts.elite.min(pop.len())];
        for d in 0..FEATURE_COUNT {
            let m = elite.iter().map(|&i| pop[i].weights[d]).sum::<f64>() / elite.len() as f64;
            let var = elite
                .iter()
                .map(|&i| (pop[i].weights[d] - m).powi(2))
                .sum::<f64>()
                / elite.len() as f64;
            mean[d] = m;
            // Spread floor keeps late rounds exploring; decay is implicit
            // in the refit.
            sigma[d] = var.sqrt().max(0.02);
        }
        iterations.push(IterationRow {
            iteration,
            best_return,
            elite_mean_return: elite_mean(&ranked, &returns, opts.elite.min(pop.len())),
            mean_sigma: sigma.iter().sum::<f64>() / FEATURE_COUNT as f64,
        });
    }

    let holdout = holdout_rows(scale, opts, &best, exec);
    TrainResult {
        policy: best,
        fork_at: snapshot.now(),
        iterations,
        holdout_seeds: opts.holdout_seeds.clone(),
        holdout,
    }
}

/// Runs only the held-out comparison for an already-trained `policy`
/// under `exec` — how `repro --policy FILE train` reproduces the
/// committed comparison table from the committed artifact without
/// re-searching.
pub fn evaluate(
    scale: &Scale,
    opts: &TrainOptions,
    policy: LinearPolicy,
    exec: &ExecOptions,
) -> TrainResult {
    let holdout = holdout_rows(scale, opts, &policy, exec);
    TrainResult {
        policy,
        fork_at: SimTime::ZERO,
        iterations: Vec::new(),
        holdout_seeds: opts.holdout_seeds.clone(),
        holdout,
    }
}

/// Full-episode mean response on every held-out seed, trained policy
/// first and then the paper lineup: one `ext_train_holdout` campaign
/// cell per (scheduler, seed), scheduler-major.
fn holdout_rows(
    scale: &Scale,
    opts: &TrainOptions,
    policy: &LinearPolicy,
    exec: &ExecOptions,
) -> Vec<HoldoutRow> {
    let mut kinds = vec![SchedulerKind::Learned(policy.clone())];
    kinds.extend(SchedulerKind::paper_lineup_experiments());
    let mut campaign = Campaign::new("ext_train_holdout");
    for kind in &kinds {
        for &seed in &opts.holdout_seeds {
            campaign.push(RunCell::new(
                format!("ext_train/holdout/{kind}/seed{seed}"),
                kind.clone(),
                puma(scale, seed),
                SimSetup::testbed(),
            ));
        }
    }
    let result = campaign.run(exec);
    kinds
        .iter()
        .zip(result.reports.chunks(opts.holdout_seeds.len()))
        .map(|(kind, reports)| {
            let per_seed: Vec<f64> = reports
                .iter()
                .map(|r| r.mean_response_secs().expect("held-out episodes complete"))
                .collect();
            HoldoutRow {
                scheduler: kind.to_string(),
                mean_response_secs: per_seed.iter().sum::<f64>() / per_seed.len() as f64,
                per_seed,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use lasmq_campaign::{Manifest, ResultCache};

    use super::*;

    fn smoke_with(exec: &ExecOptions) -> TrainResult {
        run(&Scale::test(), &TrainOptions::smoke(&Scale::test()), exec)
    }

    fn smoke() -> TrainResult {
        smoke_with(&ExecOptions::default().no_cache())
    }

    #[test]
    fn training_converges_and_is_deterministic() {
        let a = smoke();
        assert_eq!(
            a.iterations.len(),
            1 + TrainOptions::smoke(&Scale::test()).iterations
        );
        for pair in a.iterations.windows(2) {
            assert!(
                pair[1].best_return >= pair[0].best_return,
                "best training return must be monotone"
            );
        }
        // Deterministic end to end, including across thread counts.
        let b = smoke_with(&ExecOptions::with_threads(1).no_cache());
        assert_eq!(a.policy, b.policy);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.holdout, b.holdout);
    }

    #[test]
    fn trained_policy_beats_fifo_on_held_out_seeds() {
        let r = smoke();
        let learned = r.holdout_row("LEARNED").expect("trained row present");
        let fifo = r.holdout_row("FIFO").expect("lineup row present");
        assert!(
            learned.mean_response_secs < fifo.mean_response_secs,
            "learned {} must beat FIFO {}",
            learned.mean_response_secs,
            fifo.mean_response_secs
        );
    }

    #[test]
    fn evaluate_reproduces_the_holdout_table_from_an_artifact() {
        let trained = smoke();
        let reloaded = LinearPolicy::from_json(&trained.policy_json()).unwrap();
        let evaluated = evaluate(
            &Scale::test(),
            &TrainOptions::smoke(&Scale::test()),
            reloaded,
            &ExecOptions::default().no_cache(),
        );
        assert_eq!(evaluated.holdout, trained.holdout);
        assert!(evaluated.iterations.is_empty());
        assert_eq!(evaluated.tables().len(), 2, "no convergence table");
    }

    #[test]
    fn policy_artifact_round_trips() {
        let r = smoke();
        let parsed = LinearPolicy::from_json(&r.policy_json()).unwrap();
        assert_eq!(parsed, r.policy);
    }

    /// A warm snapshot of a small PUMA workload.
    fn warm_snapshot(jobs: usize) -> SimSnapshot {
        let workload = WorkloadSpec::Puma {
            jobs,
            mean_interval_secs: 50.0,
            seed: 9,
            geo_bandwidth_mb_per_s: None,
        };
        donor_snapshot(&SimSetup::testbed(), &workload)
    }

    #[test]
    fn fork_returns_are_identical_across_thread_counts() {
        let snapshot = warm_snapshot(12);
        let policies: Vec<LinearPolicy> = (0..6)
            .map(|i| {
                let mut w = LinearPolicy::las_like().weights;
                w[5] = i as f64 * 0.1; // vary the wait-time weight
                LinearPolicy::new(w)
            })
            .collect();
        let returns = |threads| {
            fork_policy_returns(&snapshot, &policies, &ExecOptions::with_threads(threads)).unwrap()
        };
        let (serial, parallel) = (returns(1), returns(8));
        let serial_bits: Vec<u64> = serial.iter().map(|r| r.to_bits()).collect();
        let parallel_bits: Vec<u64> = parallel.iter().map(|r| r.to_bits()).collect();
        assert_eq!(serial_bits, parallel_bits);
        assert!(serial.iter().all(|&r| r < 0.0), "tails have completions");
    }

    #[test]
    fn identical_policies_fork_to_identical_returns() {
        let snapshot = warm_snapshot(10);
        let twice = vec![LinearPolicy::las_like(), LinearPolicy::las_like()];
        let returns =
            fork_policy_returns(&snapshot, &twice, &ExecOptions::with_threads(2)).unwrap();
        assert_eq!(returns[0].to_bits(), returns[1].to_bits());
    }

    #[test]
    fn holdout_episodes_are_cached_campaign_cells() {
        let cache = std::env::temp_dir().join(format!("lasmq-holdout-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache);
        let exec = ExecOptions::default().cache_dir(&cache);
        let scale = Scale::test();
        let opts = TrainOptions::full(&scale);
        let cold = evaluate(&scale, &opts, LinearPolicy::las_like(), &exec);

        let manifest = Manifest::load_all(&cache)
            .into_iter()
            .find(|m| m.name == "ext_train_holdout")
            .expect("the holdout campaign writes its manifest");
        let labels: Vec<&str> = manifest.cells.iter().map(|c| c.label.as_str()).collect();
        let expected: Vec<String> = ["LEARNED", "LAS_MQ", "LAS", "FAIR", "FIFO"]
            .iter()
            .flat_map(|kind| {
                opts.holdout_seeds
                    .iter()
                    .map(move |seed| format!("ext_train/holdout/{kind}/seed{seed}"))
            })
            .collect();
        assert_eq!(labels, expected, "one cell per kind × held-out seed");
        assert_eq!(
            manifest.cached_cells(&ResultCache::new(&cache)),
            expected.len(),
            "every held-out episode is cached"
        );

        let warm = evaluate(&scale, &opts, LinearPolicy::las_like(), &exec);
        assert_eq!(warm, cold);
        let _ = std::fs::remove_dir_all(&cache);
    }

    #[test]
    fn tables_render_convergence_holdout_and_weights() {
        let r = smoke();
        let tables = r.tables();
        assert_eq!(tables.len(), 3);
        assert_eq!(tables[0].row_count(), r.iterations.len());
        assert_eq!(tables[1].row_count(), 5, "learned + four lineup rows");
        assert_eq!(tables[2].row_count(), FEATURE_COUNT);
    }
}
