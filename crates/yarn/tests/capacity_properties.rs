//! Property-based tests of the capacity-scheduler emulation.

use proptest::prelude::*;

use lasmq_simulator::{JobId, JobView, SchedContext, Scheduler, Service, SimTime};
use lasmq_yarn::{CapacityGranularity, CapacityScheduler};

fn view(id: u32, unstarted: u32) -> JobView {
    JobView {
        id: JobId::new(id),
        arrival: SimTime::ZERO,
        admitted_at: SimTime::ZERO,
        priority: 1,
        attained: Service::ZERO,
        attained_stage: Service::ZERO,
        stage_index: 0,
        stage_count: 1,
        stage_progress: 0.0,
        remaining_tasks: unstarted,
        unstarted_tasks: unstarted,
        containers_per_task: 1,
        held: 0,
        oracle: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any capacity assignment yields a sound, work-conserving plan.
    #[test]
    fn capacity_plans_are_sound(
        demands in prop::collection::vec(0u32..120, 1..25),
        fractions in prop::collection::vec(0.0f64..1.0, 25),
        capacity in 1u32..200,
        whole_percent in prop::bool::ANY,
    ) {
        let granularity = if whole_percent {
            CapacityGranularity::WholePercent
        } else {
            CapacityGranularity::Exact
        };
        let mut sched = CapacityScheduler::new(granularity);
        let views: Vec<JobView> =
            demands.iter().enumerate().map(|(i, &d)| view(i as u32, d)).collect();
        sched.set_capacities(
            views.iter().zip(&fractions).map(|(v, &f)| (v.id, f)),
        );
        let ctx = SchedContext::new(SimTime::ZERO, capacity, &views);
        let plan = sched.allocate(&ctx);

        let mut totals: std::collections::HashMap<JobId, u32> = Default::default();
        for &(id, t) in plan.entries() {
            totals.insert(id, t);
        }
        let granted: u64 = totals.values().map(|&t| t as u64).sum();
        prop_assert!(granted <= capacity as u64);
        for (id, t) in &totals {
            let v = views.iter().find(|v| v.id == *id).expect("known app");
            prop_assert!(*t <= v.max_useful_allocation());
        }
        // Work conservation as long as any app has a positive share path:
        // all-zero capacities degenerate (every queue weight clamps to the
        // epsilon floor), so demand should still be served.
        let demand: u64 = views.iter().map(|v| v.max_useful_allocation() as u64).sum();
        prop_assert_eq!(granted, demand.min(capacity as u64));
    }

    /// Quantization never moves a capacity by more than half a percent.
    #[test]
    fn whole_percent_quantization_is_tight(fraction in 0.0f64..=1.0) {
        let mut sched = CapacityScheduler::new(CapacityGranularity::WholePercent);
        sched.set_capacity(JobId::new(0), fraction);
        let stored = sched.capacities()[&JobId::new(0)];
        prop_assert!((stored - fraction).abs() <= 0.005 + 1e-12);
        let scaled = stored * 100.0;
        prop_assert!((scaled - scaled.round()).abs() < 1e-9, "not a whole percent: {stored}");
    }
}
