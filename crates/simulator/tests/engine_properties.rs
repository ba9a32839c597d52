//! Property-based tests of the simulator substrate: the engine, the event
//! queue, cluster accounting and the isolated-runtime bound.

use proptest::prelude::*;

use lasmq_simulator::event::{Event, EventQueue};
use lasmq_simulator::isolated::isolated_runtime;
use lasmq_simulator::{
    AllocationPlan, ClusterConfig, ClusterState, JobSpec, SchedContext, Scheduler, SimDuration,
    SimTime, Simulation, StageKind, StageSpec, TaskSpec,
};

/// A deliberately erratic scheduler: rotates which job gets priority and
/// sometimes asks for absurd targets — the engine must stay sound anyway.
struct Erratic {
    tick: u64,
}

impl Scheduler for Erratic {
    fn name(&self) -> &str {
        "erratic"
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
        self.tick += 1;
        let n = ctx.jobs().len();
        for (i, job) in ctx.jobs().iter().enumerate() {
            let rotated = (i + self.tick as usize) % n.max(1);
            let target = match rotated % 3 {
                0 => job.max_useful_allocation(),
                1 => ctx.total_containers() * 10, // absurd: engine clamps
                _ => job.held / 2,                // shrink: graceful drain
            };
            plan.push(job.id, target);
        }
    }
}

fn job_strategy() -> impl Strategy<Value = JobSpec> {
    (
        1u32..=8,
        1u64..=20,
        prop::bool::ANY,
        0u64..50,
        prop::option::of(1u32..=6),
    )
        .prop_map(|(tasks, dur, two_stage, arrival, reduce_tasks)| {
            let mut builder = JobSpec::builder()
                .arrival(SimTime::from_secs(arrival))
                .stage(StageSpec::uniform(
                    StageKind::Map,
                    tasks,
                    TaskSpec::new(SimDuration::from_secs(dur)),
                ));
            if two_stage {
                builder = builder.stage(StageSpec::uniform(
                    StageKind::Reduce,
                    reduce_tasks.unwrap_or(2),
                    TaskSpec::new(SimDuration::from_secs(dur)).with_containers(2),
                ));
            }
            builder.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Even a hostile scheduler cannot wedge the engine or lose jobs.
    #[test]
    fn erratic_scheduler_still_completes_everything(
        jobs in prop::collection::vec(job_strategy(), 1..8),
        containers in 2u32..=12,
    ) {
        let report = Simulation::builder()
            .cluster(ClusterConfig::single_node(containers))
            .jobs(jobs)
            .build(Erratic { tick: 0 })
            .expect("valid setup")
            .run();
        prop_assert!(report.all_completed());
    }

    /// Event queue: pops are globally time-ordered and FIFO within a
    /// timestamp.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_millis(t), Event::JobArrival {
                job: lasmq_simulator::JobId::new(i as u32),
            });
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, ev)) = q.pop() {
            let idx = match ev {
                Event::JobArrival { job } => job.index(),
                _ => unreachable!(),
            };
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt, "time went backwards");
                if t == lt {
                    prop_assert!(idx > lidx, "insertion order violated within a timestamp");
                }
            }
            last = Some((t, idx));
        }
    }

    /// Isolated runtime sits between the trivial bounds: at least the
    /// critical path (longest task per stage, stages summed; and the
    /// work/capacity bound), at most the fully serial schedule.
    #[test]
    fn isolated_runtime_is_bounded(job in job_strategy(), containers in 2u32..=16) {
        let iso = isolated_runtime(&job, containers).as_secs_f64();
        let work: f64 = job.total_service().as_container_secs();
        let critical: f64 = job
            .stages()
            .iter()
            .map(|s| s.tasks().map(|t| t.duration().as_secs_f64()).fold(0.0, f64::max))
            .sum();
        let serial: f64 = job
            .stages()
            .iter()
            .flat_map(|s| s.tasks())
            .map(|t| t.duration().as_secs_f64())
            .sum();
        prop_assert!(iso + 1e-9 >= critical, "below critical path: {iso} < {critical}");
        prop_assert!(iso + 1e-9 >= work / containers as f64, "beats capacity: {iso}");
        prop_assert!(iso <= serial + 1e-9, "worse than serial: {iso} > {serial}");
    }

    /// Cluster accounting: any sequence of fitting allocations and their
    /// releases conserves containers exactly.
    #[test]
    fn cluster_accounting_conserves_containers(
        widths in prop::collection::vec(1u32..=4, 1..40),
        nodes in 1u32..=4,
        per_node in 2u32..=8,
    ) {
        let config = ClusterConfig::new(nodes, per_node);
        let mut state = ClusterState::new(config);
        let total = config.total_containers();
        let mut live: Vec<(lasmq_simulator::NodeId, u32)> = Vec::new();
        for (i, &w) in widths.iter().enumerate() {
            if i % 3 == 2 {
                if let Some((node, width)) = live.pop() {
                    state.release(node, width);
                }
            } else if let Some(node) = state.allocate(w) {
                live.push((node, w));
            }
            let used: u32 = live.iter().map(|&(_, w)| w).sum();
            prop_assert_eq!(state.free_containers(), total - used);
            prop_assert!(state.utilization() <= 1.0 && state.utilization() >= 0.0);
        }
        for (node, width) in live.drain(..) {
            state.release(node, width);
        }
        prop_assert_eq!(state.free_containers(), total);
    }

    /// Pausing at a deadline only truncates: outcomes of jobs that
    /// finished before it match the unconstrained run.
    #[test]
    fn deadline_is_a_pure_truncation(
        jobs in prop::collection::vec(job_strategy(), 1..6),
        containers in 2u32..=8,
        deadline in 10u64..200,
    ) {
        let full = Simulation::builder()
            .cluster(ClusterConfig::single_node(containers))
            .jobs(jobs.clone())
            .build(Erratic { tick: 0 })
            .expect("valid setup")
            .run();
        let mut cut = Simulation::builder()
            .cluster(ClusterConfig::single_node(containers))
            .jobs(jobs)
            .build(Erratic { tick: 0 })
            .expect("valid setup");
        cut.run_until(SimTime::from_secs(deadline));
        let cut = cut.into_report();
        for (a, b) in full.outcomes().iter().zip(cut.outcomes()) {
            if let Some(f) = b.finish {
                prop_assert_eq!(a.finish, Some(f), "truncated run invented a different finish");
            } else if let Some(f) = a.finish {
                prop_assert!(f > SimTime::from_secs(deadline),
                    "job finished at {f} but the truncated run missed it");
            }
        }
    }
}
