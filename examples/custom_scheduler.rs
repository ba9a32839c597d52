//! Implementing your own scheduler against the simulator's `Scheduler`
//! trait — here, a "smallest demand first" heuristic — and racing it
//! against LAS_MQ.
//!
//! The `JobView` a scheduler receives hides true job sizes (the paper's
//! whole premise): you can only use arrival times, attained service,
//! stage progress and remaining-task demand, exactly like a real YARN
//! plug-in scheduler.
//!
//! ```text
//! cargo run --release --example custom_scheduler
//! ```

use lasmq::core::LasMq;
use lasmq::simulator::{AllocationPlan, ClusterConfig, SchedContext, Scheduler, Simulation};
use lasmq::workload::FacebookTrace;

/// Serves jobs in ascending order of the container demand of their
/// remaining tasks — a greedy "quickest to clear" heuristic.
struct SmallestDemandFirst;

impl Scheduler for SmallestDemandFirst {
    fn name(&self) -> &str {
        "SDF"
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
        let mut order: Vec<usize> = (0..ctx.jobs().len()).collect();
        order.sort_by_key(|&i| {
            let j = &ctx.jobs()[i];
            (j.remaining_demand(), j.arrival, j.id)
        });
        let mut budget = ctx.total_containers();
        for i in order {
            if budget == 0 {
                break;
            }
            let j = &ctx.jobs()[i];
            let want = j.max_useful_allocation().min(budget);
            if want > 0 {
                plan.push(j.id, want);
                budget -= want;
            }
        }
    }
}

fn main() {
    let jobs = FacebookTrace::new().jobs(3_000).seed(11).generate();
    let cluster = ClusterConfig::single_node(100);

    let custom = Simulation::builder()
        .cluster(cluster)
        .jobs(jobs.clone())
        .build(SmallestDemandFirst)
        .expect("valid setup")
        .run();
    let las_mq = Simulation::builder()
        .cluster(cluster)
        .jobs(jobs)
        .build(LasMq::new(lasmq::core::LasMqConfig::paper_simulations()))
        .expect("valid setup")
        .run();

    for report in [&custom, &las_mq] {
        println!(
            "{:>7}: mean response {:>8.2}s, mean slowdown {:>6.1}, utilization {:.0}%",
            report.scheduler(),
            report.mean_response_secs().unwrap(),
            report.mean_slowdown().unwrap(),
            report.stats().mean_utilization * 100.0,
        );
    }
}
