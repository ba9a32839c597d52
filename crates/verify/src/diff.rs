//! Differential testing harness: optimized engine vs naive reference.
//!
//! A [`DiffCell`] names one (workload, scheduler, cluster) combination.
//! [`run_differential`] executes the cell twice — once on the real
//! [`Simulation`] with the runtime invariant
//! checker armed, once on the [`reference`](crate::reference) executor —
//! and diffs the completion traces: per-job admission, first-allocation,
//! and finish instants, all integer milliseconds. Any mismatch, and any
//! invariant violation the engine's checker recorded, surfaces as a
//! structured [`DiffResult`] entry.

use lasmq_campaign::SchedulerKind;
use lasmq_simulator::{
    ClusterConfig, InvariantReport, JobSpec, SimDuration, SimError, SimTime, Simulation,
};

use crate::reference::{run_reference, ReferenceConfig};

/// One differential test cell.
#[derive(Debug, Clone)]
pub struct DiffCell {
    /// Human-readable cell name (used in divergence messages).
    pub name: String,
    /// The workload to run.
    pub jobs: Vec<JobSpec>,
    /// The scheduler under test.
    pub scheduler: SchedulerKind,
    /// Number of identical nodes.
    pub nodes: u32,
    /// Containers per node.
    pub containers_per_node: u32,
    /// Scheduling quantum.
    pub quantum: SimDuration,
    /// FIFO admission cap.
    pub admission_limit: Option<usize>,
}

impl DiffCell {
    /// A cell on the paper's default 4×30 testbed with a 1 s quantum.
    pub fn new(name: impl Into<String>, jobs: Vec<JobSpec>, scheduler: SchedulerKind) -> Self {
        DiffCell {
            name: name.into(),
            jobs,
            scheduler,
            nodes: 4,
            containers_per_node: 30,
            quantum: SimDuration::from_secs(1),
            admission_limit: None,
        }
    }

    /// Overrides the cluster shape.
    pub fn cluster(mut self, nodes: u32, containers_per_node: u32) -> Self {
        self.nodes = nodes;
        self.containers_per_node = containers_per_node;
        self
    }

    /// Caps concurrent admitted jobs.
    pub fn admission_limit(mut self, limit: usize) -> Self {
        self.admission_limit = Some(limit);
        self
    }
}

/// Outcome of one differential run.
#[derive(Debug, Clone)]
pub struct DiffResult {
    /// The cell's name.
    pub name: String,
    /// Jobs in the cell.
    pub jobs: usize,
    /// Jobs the engine completed.
    pub completed: usize,
    /// Trace mismatches between engine and reference (empty = identical).
    pub divergences: Vec<String>,
    /// What the engine's runtime invariant checker recorded.
    pub invariants: InvariantReport,
}

impl DiffResult {
    /// `true` when the traces matched and no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty() && self.invariants.is_clean()
    }
}

fn fmt_opt(t: Option<SimTime>) -> String {
    match t {
        Some(t) => format!("{}ms", t.as_millis()),
        None => "never".to_string(),
    }
}

/// Runs `cell` through both executors and diffs the traces.
///
/// # Errors
///
/// Returns the engine's build error for cells the engine itself rejects
/// (invalid jobs, a degenerate cluster, ...) — those never reach the
/// reference executor.
pub fn run_differential(cell: &DiffCell) -> Result<DiffResult, SimError> {
    let mut builder = Simulation::builder()
        .cluster(ClusterConfig::new(cell.nodes, cell.containers_per_node))
        .quantum(cell.quantum)
        .check_invariants(true)
        .jobs(cell.jobs.iter().cloned());
    if let Some(limit) = cell.admission_limit {
        builder = builder.admission_limit(limit);
    }
    let report = builder.build(cell.scheduler.build())?.run();

    let reference = run_reference(
        cell.jobs.clone(),
        cell.scheduler.build(),
        &ReferenceConfig {
            nodes: cell.nodes,
            containers_per_node: cell.containers_per_node,
            quantum: cell.quantum,
            admission_limit: cell.admission_limit,
        },
    );

    let mut divergences = Vec::new();
    if report.outcomes().len() != reference.len() {
        divergences.push(format!(
            "engine reports {} jobs, reference {}",
            report.outcomes().len(),
            reference.len()
        ));
    }
    for (engine, naive) in report.outcomes().iter().zip(&reference) {
        if engine.id != naive.id {
            divergences.push(format!(
                "outcome order diverged: engine {} vs reference {}",
                engine.id, naive.id
            ));
            break;
        }
        if engine.admitted_at != naive.admitted_at {
            divergences.push(format!(
                "{}: admitted at {} (engine) vs {} (reference)",
                engine.id,
                fmt_opt(engine.admitted_at),
                fmt_opt(naive.admitted_at)
            ));
        }
        if engine.first_allocation != naive.first_alloc {
            divergences.push(format!(
                "{}: first allocation at {} (engine) vs {} (reference)",
                engine.id,
                fmt_opt(engine.first_allocation),
                fmt_opt(naive.first_alloc)
            ));
        }
        if engine.finish != naive.finish {
            divergences.push(format!(
                "{}: finished at {} (engine) vs {} (reference)",
                engine.id,
                fmt_opt(engine.finish),
                fmt_opt(naive.finish)
            ));
        }
    }

    Ok(DiffResult {
        name: cell.name.clone(),
        jobs: cell.jobs.len(),
        completed: report.completed_count(),
        divergences,
        invariants: report
            .invariants()
            .cloned()
            .expect("differential runs always arm the invariant checker"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasmq_simulator::{StageKind, StageSpec, TaskSpec};
    use lasmq_workload::{AdversarialScenario, AdversarialWorkload};

    fn batch(n: u64) -> Vec<JobSpec> {
        (0..n)
            .map(|i| {
                JobSpec::builder()
                    .arrival(SimTime::from_secs(i * 3))
                    .stage(StageSpec::uniform(
                        StageKind::Generic,
                        6,
                        TaskSpec::new(SimDuration::from_secs(5)),
                    ))
                    .build()
            })
            .collect()
    }

    #[test]
    fn lineup_matches_on_a_small_batch() {
        for kind in SchedulerKind::paper_lineup_simulations() {
            let cell = DiffCell::new(format!("batch/{kind}"), batch(8), kind);
            let result = run_differential(&cell).expect("cell builds");
            assert!(
                result.is_clean(),
                "{}: {:?} / {}",
                result.name,
                result.divergences,
                result.invariants
            );
            assert_eq!(result.completed, 8);
        }
    }

    #[test]
    fn oracle_scheduler_matches_too() {
        let cell = DiffCell::new("batch/sjf", batch(6), SchedulerKind::Sjf);
        let result = run_differential(&cell).expect("cell builds");
        assert!(result.is_clean(), "{:?}", result.divergences);
    }

    #[test]
    fn admission_limited_cell_matches() {
        let jobs = AdversarialWorkload::new(AdversarialScenario::SingleTaskFlood)
            .jobs(30)
            .seed(11)
            .generate();
        let cell = DiffCell::new("flood/fair", jobs, SchedulerKind::Fair).admission_limit(4);
        let result = run_differential(&cell).expect("cell builds");
        assert!(result.is_clean(), "{:?}", result.divergences);
    }
}
