//! Every shipped scheduler must satisfy the engine's scheduling-pass
//! contracts on every pass of a realistic workload — checked live by the
//! simulator's `InvariantSpy` test kit.

use lasmq::campaign::{SchedulerKind, SimSetup};
use lasmq::core::{LasMq, LasMqConfig};
use lasmq::simulator::testkit::InvariantSpy;
use lasmq::simulator::{ClusterConfig, JobSpec, Scheduler};
use lasmq::workload::{FacebookTrace, PumaWorkload};
use lasmq::yarn::{CapacityController, CapacityGranularity};

fn check(jobs: Vec<JobSpec>, cluster: ClusterConfig, scheduler: impl Scheduler, oracle: bool) {
    // The spy panics on the first contract violation.
    let spy = InvariantSpy::new(scheduler).check_work_conservation(true);
    let report = SimSetup::trace_sim()
        .cluster(cluster)
        .build_simulation_with(jobs, spy, oracle)
        .run();
    assert!(
        report.all_completed(),
        "{} left jobs unfinished",
        report.scheduler()
    );
}

/// Every kind in the zoo, so a new `SchedulerKind` variant cannot dodge
/// the spy. All thirteen are work-conserving, so none is exempt from that
/// check.
fn check_zoo(jobs: &[JobSpec], cluster: ClusterConfig) {
    for kind in SchedulerKind::zoo() {
        check(jobs.to_vec(), cluster, kind.build(), kind.requires_oracle());
    }
}

#[test]
fn all_schedulers_honour_the_contracts_on_the_trace() {
    let jobs = FacebookTrace::new().jobs(400).seed(8).generate();
    check_zoo(&jobs, ClusterConfig::single_node(100));
}

#[test]
fn all_schedulers_honour_the_contracts_on_puma() {
    let jobs = PumaWorkload::new().jobs(25).seed(9).generate();
    let cluster = ClusterConfig::new(4, 30);
    check_zoo(&jobs, cluster);
    check(jobs.clone(), cluster, LasMq::with_paper_defaults(), false);
    check(
        jobs,
        cluster,
        CapacityController::new(
            LasMq::with_paper_defaults(),
            CapacityGranularity::WholePercent,
        ),
        false,
    );
}

#[test]
fn lasmq_honours_the_contracts_in_every_configuration_corner() {
    use lasmq::core::{QueueOrdering, QueueSharing, QueueWeights};
    let jobs = FacebookTrace::new().jobs(200).seed(10).generate();
    let cluster = ClusterConfig::single_node(50);
    for k in [1, 3, 10] {
        for sharing in [QueueSharing::Weighted, QueueSharing::StrictPriority] {
            for ordering in [QueueOrdering::RemainingDemand, QueueOrdering::Fifo] {
                let config = LasMqConfig::paper_simulations()
                    .with_num_queues(k)
                    .with_sharing(sharing)
                    .with_ordering(ordering)
                    .with_weights(QueueWeights::Geometric { ratio: 3.0 });
                check(jobs.clone(), cluster, LasMq::new(config), false);
            }
        }
    }
}
