//! Shared simulation setups for the paper's two evaluation environments.

use lasmq_simulator::{
    ClusterConfig, FailureConfig, JobSpec, PreemptionPolicy, Scheduler, SimDuration, Simulation,
    SimulationReport, SpeculationConfig,
};
use serde::{Deserialize, Serialize};

use crate::kind::SchedulerKind;

/// How a batch of jobs is run: cluster, quantum, admission and engine
/// extensions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimSetup {
    cluster: ClusterConfig,
    quantum: SimDuration,
    admission_limit: Option<usize>,
    /// Always [`PreemptionPolicy::Graceful`], the engine's only preemption.
    /// Kept in the serialized setup so cache fingerprints keep their bytes.
    preemption: PreemptionPolicy,
    speculation: SpeculationConfig,
    failures: FailureConfig,
    /// Whether runs record telemetry. Part of the serialized setup, so it
    /// feeds the cache fingerprint: telemetry-bearing reports get their own
    /// cache entries and warm-cache runs reproduce them bit-identically.
    #[serde(default)]
    record_telemetry: bool,
    /// Whether runs arm the engine's runtime invariant checker. Also part
    /// of the fingerprint: verified reports carry an invariant section, so
    /// they must not share cache entries with unverified ones.
    #[serde(default)]
    check_invariants: bool,
}

impl SimSetup {
    /// The paper's testbed environment (§V-A): 4 nodes × 30 containers,
    /// admission capped at 30 concurrent jobs, 1 s scheduling quantum.
    pub fn testbed() -> Self {
        SimSetup {
            cluster: ClusterConfig::new(4, 30),
            quantum: SimDuration::from_secs(1),
            admission_limit: Some(30),
            preemption: PreemptionPolicy::Graceful,
            speculation: SpeculationConfig::disabled(),
            failures: FailureConfig::disabled(),
            record_telemetry: false,
            check_invariants: false,
        }
    }

    /// The trace-simulation environment (§V-C): a flat 100-container pool,
    /// no admission cap, 1 s quantum (= 1 service unit).
    pub fn trace_sim() -> Self {
        SimSetup {
            cluster: ClusterConfig::single_node(100),
            quantum: SimDuration::from_secs(1),
            admission_limit: None,
            preemption: PreemptionPolicy::Graceful,
            speculation: SpeculationConfig::disabled(),
            failures: FailureConfig::disabled(),
            record_telemetry: false,
            check_invariants: false,
        }
    }

    /// The million-job scaling environment: the trace-simulation rules on
    /// a multi-node cluster (default 1,000 nodes × 8 containers, matching
    /// `lasmq_workload::scale::ScaleTrace::new`). Node topology matters
    /// here — placement is per node, so the engine's O(log n) allocator
    /// is on the hot path.
    pub fn scale_sim(nodes: u32, containers_per_node: u32) -> Self {
        SimSetup::trace_sim().cluster(ClusterConfig::new(nodes, containers_per_node))
    }

    /// The uniform-batch environment: like [`trace_sim`](Self::trace_sim).
    /// The 10 s quantum is a tenth of a uniform job's isolated runtime
    /// (10,000 container-seconds on 100 containers = 100 s alone), so
    /// time-slicing policies genuinely slice: Fair and LAS rotate the
    /// cluster across jobs every quantum (processor sharing), while FIFO
    /// and LAS_MQ serialize.
    pub fn uniform_sim() -> Self {
        SimSetup::trace_sim().quantum(SimDuration::from_secs(10))
    }

    /// Overrides the cluster.
    pub fn cluster(mut self, cluster: ClusterConfig) -> Self {
        self.cluster = cluster;
        self
    }

    /// Overrides the scheduling quantum.
    pub fn quantum(mut self, quantum: SimDuration) -> Self {
        self.quantum = quantum;
        self
    }

    /// Overrides the admission cap (`None` = unlimited).
    pub fn admission(mut self, limit: Option<usize>) -> Self {
        self.admission_limit = limit;
        self
    }

    /// Overrides speculation.
    pub fn speculation(mut self, config: SpeculationConfig) -> Self {
        self.speculation = config;
        self
    }

    /// Overrides task-failure injection.
    pub fn failures(mut self, config: FailureConfig) -> Self {
        self.failures = config;
        self
    }

    /// Enables or disables telemetry recording for runs of this setup.
    pub fn record_telemetry(mut self, record: bool) -> Self {
        self.record_telemetry = record;
        self
    }

    /// Arms or disarms the engine's runtime invariant checker for runs of
    /// this setup (see `lasmq_simulator::SimulationBuilder::check_invariants`).
    pub fn check_invariants(mut self, check: bool) -> Self {
        self.check_invariants = check;
        self
    }

    /// The configured cluster.
    pub fn cluster_config(&self) -> ClusterConfig {
        self.cluster
    }

    /// Runs `jobs` under `kind` and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if the simulation cannot be built (malformed jobs are a
    /// programming error in an experiment definition).
    pub fn run(&self, jobs: Vec<JobSpec>, kind: &SchedulerKind) -> SimulationReport {
        self.build_simulation(jobs, kind).run()
    }

    /// Builds the simulation without running it, so the caller can drive
    /// it incrementally — pause it with
    /// [`run_until`](Simulation::run_until), or snapshot and fork it.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`run`](Self::run).
    pub fn build_simulation(
        &self,
        jobs: Vec<JobSpec>,
        kind: &SchedulerKind,
    ) -> Simulation<Box<dyn Scheduler>> {
        let scheduler = kind.build();
        let requires_oracle = scheduler.requires_oracle();
        self.build_simulation_with(jobs, scheduler, requires_oracle)
    }

    /// Like [`build_simulation`](Self::build_simulation) but for a
    /// caller-constructed scheduler instance outside the
    /// [`SchedulerKind`] registry (wrapped or instrumented schedulers,
    /// ad-hoc policy instances). The engine hands sizes to the instance
    /// exactly when it [`requires_oracle`](Scheduler::requires_oracle);
    /// `requires_oracle` here is only a checked statement of that answer.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`run`](Self::run), and if
    /// `requires_oracle` contradicts the scheduler's own declaration.
    pub fn build_simulation_with<S: Scheduler>(
        &self,
        jobs: Vec<JobSpec>,
        scheduler: S,
        requires_oracle: bool,
    ) -> Simulation<S> {
        assert_eq!(
            requires_oracle,
            scheduler.requires_oracle(),
            "scheduler '{}' declares requires_oracle() = {}",
            scheduler.name(),
            scheduler.requires_oracle()
        );
        let mut builder = Simulation::builder()
            .cluster(self.cluster)
            .quantum(self.quantum)
            .speculation(self.speculation)
            .failures(self.failures)
            .record_telemetry(self.record_telemetry)
            .check_invariants(self.check_invariants)
            .jobs(jobs);
        if let Some(cap) = self.admission_limit {
            builder = builder.admission_limit(cap);
        }
        builder
            .build(scheduler)
            .expect("experiment setup must be valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasmq_workload::FacebookTrace;

    #[test]
    fn testbed_matches_paper() {
        let setup = SimSetup::testbed();
        assert_eq!(setup.cluster_config().total_containers(), 120);
    }

    #[test]
    fn the_serialized_setup_names_graceful_and_refuses_kill() {
        let json = serde_json::to_string(&SimSetup::testbed()).unwrap();
        assert!(json.contains(r#""preemption":"Graceful""#), "{json}");
        let kill = json.replace(r#""preemption":"Graceful""#, r#""preemption":"Kill""#);
        let err = serde_json::from_str::<SimSetup>(&kill).unwrap_err();
        assert!(err.to_string().contains("Kill"), "{err}");
    }

    #[test]
    fn runs_a_small_trace_end_to_end() {
        let jobs = FacebookTrace::new().jobs(60).seed(1).generate();
        let report = SimSetup::trace_sim().run(jobs, &SchedulerKind::las_mq_simulations());
        assert!(report.all_completed());
        assert_eq!(report.scheduler(), "LAS_MQ");
    }

    #[test]
    #[should_panic(expected = "scheduler 'SJF' declares requires_oracle() = true")]
    fn a_requires_oracle_flag_that_contradicts_the_scheduler_panics() {
        let jobs = FacebookTrace::new().jobs(5).seed(2).generate();
        SimSetup::trace_sim().build_simulation_with(jobs, SchedulerKind::Sjf.build(), false);
    }

    #[test]
    fn oracle_kinds_run_with_oracle_exposed() {
        let jobs = FacebookTrace::new().jobs(40).seed(2).generate();
        let report = SimSetup::trace_sim().run(jobs, &SchedulerKind::Sjf);
        assert!(report.all_completed());
    }
}
