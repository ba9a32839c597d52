//! Differential fuzzing: adversarial traces through engine + reference.
//!
//! The exhaustive sweep runs 200 deterministic (workload, scheduler,
//! seed) cells — 5 scenarios × 8 seeds × 5 schedulers — and requires
//! zero trace divergence and zero invariant violations. The proptest on
//! top fuzzes random (scenario, seed, job count, cluster, admission)
//! corners.
//!
//! The engine side of every cell runs incremental scheduling passes
//! (dirty-set view refresh, epoch-tagged plans, a changed-jobs hint
//! feeding LAS_MQ's cached per-queue demand sums) while the reference
//! executor recomputes everything from scratch each pass and hands the
//! scheduler no hint, so these sweeps are the
//! differential gate on the incremental machinery: any stale cached view,
//! missed dirty queue or demand-sum drift shows up as a trace divergence
//! or a `check_consistency` violation. The same-instant-arrival and 1 ms
//! task scenarios exist precisely to stress the change-tracking corner
//! cases. (The changed-jobs hint itself is checked pass by pass in
//! `lasmq-simulator/tests/incremental_identity.rs`, and LAS_MQ's hinted
//! and unhinted branches against each other in
//! `lasmq-core/tests/lasmq_properties.rs`.)

use proptest::prelude::*;

use lasmq_campaign::SchedulerKind;
use lasmq_schedulers::LinearPolicy;
use lasmq_verify::{run_differential, DiffCell};
use lasmq_workload::{AdversarialScenario, AdversarialWorkload};

fn lineup() -> Vec<SchedulerKind> {
    let mut kinds = SchedulerKind::paper_lineup_simulations();
    kinds.push(SchedulerKind::Sjf);
    kinds
}

/// 5 scenarios × 8 seeds × 5 schedulers = 200 cells, all clean.
#[test]
fn two_hundred_adversarial_cells_have_identical_traces() {
    let mut cells_run = 0usize;
    let mut failures: Vec<String> = Vec::new();
    for scenario in AdversarialScenario::ALL {
        for seed in 0..8u64 {
            let jobs = AdversarialWorkload::new(scenario)
                .jobs(20)
                .seed(seed)
                .max_width(30)
                .generate();
            for kind in lineup() {
                let name = format!("{}/s{seed}/{kind}", scenario.name());
                // Odd seeds run through FIFO admission control too.
                let mut cell = DiffCell::new(&name, jobs.clone(), kind);
                if seed % 2 == 1 {
                    cell = cell.admission_limit(6);
                }
                let result = run_differential(&cell).expect("cell builds");
                cells_run += 1;
                if !result.divergences.is_empty() {
                    failures.push(format!("{name}: {:?}", result.divergences));
                }
                if !result.invariants.is_clean() {
                    failures.push(format!("{name}: {}", result.invariants));
                }
            }
        }
    }
    assert_eq!(cells_run, 200);
    assert!(
        failures.is_empty(),
        "{} dirty cells:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// A learned policy with every feature weight live (not the LAS-imitating
/// single-weight seed), so the differential sweep exercises the full
/// scoring path with score collisions unlikely.
fn trained_like_policy() -> LinearPolicy {
    LinearPolicy::new(vec![
        0.5, -0.4, -0.1, 1.0, 0.1, -0.02, -0.9, -1.6, -0.1, -1.1, -0.1, 1.2,
    ])
}

/// The lineup extensions (PS and the learned scheduler, both in its
/// LAS-imitating and fully-weighted forms) through the same adversarial
/// sweep as the paper lineup: 5 scenarios × 4 seeds × 3 kinds, all clean.
#[test]
fn lineup_extensions_have_identical_traces() {
    let mut cells_run = 0usize;
    let mut failures: Vec<String> = Vec::new();
    for scenario in AdversarialScenario::ALL {
        for seed in 0..4u64 {
            let jobs = AdversarialWorkload::new(scenario)
                .jobs(20)
                .seed(seed)
                .max_width(30)
                .generate();
            let kinds = [
                SchedulerKind::Ps,
                SchedulerKind::Learned(LinearPolicy::las_like()),
                SchedulerKind::Learned(trained_like_policy()),
            ];
            for kind in kinds {
                let name = format!("{}/s{seed}/{kind}", scenario.name());
                let mut cell = DiffCell::new(&name, jobs.clone(), kind);
                if seed % 2 == 1 {
                    cell = cell.admission_limit(6);
                }
                let result = run_differential(&cell).expect("cell builds");
                cells_run += 1;
                if !result.divergences.is_empty() {
                    failures.push(format!("{name}: {:?}", result.divergences));
                }
                if !result.invariants.is_clean() {
                    failures.push(format!("{name}: {}", result.invariants));
                }
            }
        }
    }
    assert_eq!(cells_run, 60);
    assert!(
        failures.is_empty(),
        "{} dirty cells:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// The estimate-driven zoo completion (FSP, HFSP, WFP3, UNICEF) through
/// the same adversarial sweep: 5 scenarios × 3 seeds × 4 kinds = 60
/// cells, all clean. Each kind runs with non-zero noise so the sweep
/// covers the corrupted-estimate path, not just the exact one.
#[test]
fn zoo_completion_kinds_have_identical_traces() {
    let mut cells_run = 0usize;
    let mut failures: Vec<String> = Vec::new();
    for scenario in AdversarialScenario::ALL {
        for seed in 0..3u64 {
            let jobs = AdversarialWorkload::new(scenario)
                .jobs(20)
                .seed(seed)
                .max_width(30)
                .generate();
            let kinds = [
                SchedulerKind::Fsp { sigma: 1.0, seed },
                SchedulerKind::Hfsp { sigma: 1.0, seed },
                SchedulerKind::Wfp3 { sigma: 1.0, seed },
                SchedulerKind::Unicef { sigma: 1.0, seed },
            ];
            for kind in kinds {
                let name = format!("{}/s{seed}/{kind}", scenario.name());
                let mut cell = DiffCell::new(&name, jobs.clone(), kind);
                if seed % 2 == 1 {
                    cell = cell.admission_limit(6);
                }
                let result = run_differential(&cell).expect("cell builds");
                cells_run += 1;
                if !result.divergences.is_empty() {
                    failures.push(format!("{name}: {:?}", result.divergences));
                }
                if !result.invariants.is_clean() {
                    failures.push(format!("{name}: {}", result.invariants));
                }
            }
        }
    }
    assert_eq!(cells_run, 60);
    assert!(
        failures.is_empty(),
        "{} dirty cells:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

fn scenario_strategy() -> impl Strategy<Value = AdversarialScenario> {
    prop_oneof![
        Just(AdversarialScenario::Bursty),
        Just(AdversarialScenario::SingleTaskFlood),
        Just(AdversarialScenario::TinyTasks),
        Just(AdversarialScenario::FullWidth),
        Just(AdversarialScenario::Mixed),
    ]
}

fn kind_strategy() -> impl Strategy<Value = SchedulerKind> {
    prop_oneof![
        Just(SchedulerKind::las_mq_simulations()),
        Just(SchedulerKind::las_mq_experiments()),
        Just(SchedulerKind::Las),
        Just(SchedulerKind::Fair),
        Just(SchedulerKind::Fifo),
        Just(SchedulerKind::Sjf),
        Just(SchedulerKind::Srtf),
        Just(SchedulerKind::Ps),
        Just(SchedulerKind::Learned(trained_like_policy())),
        Just(SchedulerKind::SjfEstimated {
            sigma: 1.0,
            gross_underestimate_prob: 0.05,
            seed: 3,
        }),
        Just(SchedulerKind::Fsp {
            sigma: 1.0,
            seed: 3
        }),
        Just(SchedulerKind::Hfsp {
            sigma: 1.0,
            seed: 3
        }),
        Just(SchedulerKind::Wfp3 {
            sigma: 1.0,
            seed: 3
        }),
        Just(SchedulerKind::Unicef {
            sigma: 1.0,
            seed: 3
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random corners: cluster shape, admission cap, job count, seed.
    #[test]
    fn fuzzed_cells_have_identical_traces(
        scenario in scenario_strategy(),
        kind in kind_strategy(),
        seed in 0u64..1_000,
        jobs in 5usize..30,
        nodes in 2u32..6,
        per_node in 8u32..24,
        cap in prop::option::of(2usize..10),
    ) {
        let trace = AdversarialWorkload::new(scenario)
            .jobs(jobs)
            .seed(seed)
            .max_width(per_node)
            .generate();
        let mut cell = DiffCell::new(
            format!("fuzz/{}/{seed}/{kind}", scenario.name()),
            trace,
            kind,
        )
        .cluster(nodes, per_node);
        if let Some(cap) = cap {
            cell = cell.admission_limit(cap);
        }
        let result = run_differential(&cell).expect("cell builds");
        prop_assert!(
            result.divergences.is_empty(),
            "{}: {:?}",
            result.name,
            result.divergences
        );
        prop_assert!(
            result.invariants.is_clean(),
            "{}: {}",
            result.name,
            result.invariants
        );
    }
}
