//! Property-based tests of the baseline schedulers and the weighted-share
//! primitive.

use proptest::prelude::*;

use lasmq_schedulers::share::{weighted_shares_into, ShareRequest, ShareScratch};
use lasmq_schedulers::{Fair, Fifo, Las};
use lasmq_simulator::{JobId, JobView, SchedContext, Scheduler, Service, SimTime};

fn weighted_shares(capacity: u32, requests: &[ShareRequest]) -> Vec<u32> {
    let mut out = Vec::new();
    weighted_shares_into(capacity, requests, &mut ShareScratch::default(), &mut out);
    out
}

fn view_strategy() -> impl Strategy<Value = JobView> {
    (
        0u32..1_000,
        0.0f64..1e4,
        0u32..200,
        1u8..=5,
        1u32..=2,
        0u64..1_000,
    )
        .prop_map(
            |(id, attained, unstarted, priority, width, admitted)| JobView {
                id: JobId::new(id),
                arrival: SimTime::from_millis(admitted),
                admitted_at: SimTime::from_millis(admitted),
                priority,
                attained: Service::from_container_secs(attained),
                attained_stage: Service::from_container_secs(attained / 2.0),
                stage_index: 0,
                stage_count: 2,
                stage_progress: 0.5,
                remaining_tasks: unstarted,
                unstarted_tasks: unstarted,
                containers_per_task: width,
                held: 0,
                oracle: None,
            },
        )
}

fn dedup_by_id(mut views: Vec<JobView>) -> Vec<JobView> {
    views.sort_by_key(|v| v.id);
    views.dedup_by_key(|v| v.id);
    views
}

fn assert_plan_sound(
    name: &str,
    plan: &lasmq_simulator::AllocationPlan,
    views: &[JobView],
    capacity: u32,
) -> Result<(), TestCaseError> {
    // Final targets: last entry per job wins.
    let mut totals: std::collections::HashMap<JobId, u32> = std::collections::HashMap::new();
    for &(id, t) in plan.entries() {
        totals.insert(id, t);
    }
    let granted: u64 = totals.values().map(|&t| t as u64).sum();
    prop_assert!(
        granted <= capacity as u64,
        "{name} over-allocated: {granted} > {capacity}"
    );
    let demand: u64 = views.iter().map(|v| v.max_useful_allocation() as u64).sum();
    if demand >= capacity as u64 {
        prop_assert_eq!(
            granted,
            capacity as u64,
            "{} is not work-conserving under saturation",
            name
        );
    } else {
        prop_assert_eq!(granted, demand, "{} wasted demand headroom", name);
    }
    for (id, target) in totals {
        let view = views.iter().find(|v| v.id == id);
        prop_assert!(view.is_some(), "{name} planned for an unknown job");
        prop_assert!(
            target <= view.unwrap().max_useful_allocation(),
            "{name} exceeded a job's useful demand"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All baselines produce sound, work-conserving plans on arbitrary
    /// job mixes.
    #[test]
    fn plans_are_sound_and_work_conserving(
        views in prop::collection::vec(view_strategy(), 1..30).prop_map(dedup_by_id),
        capacity in 1u32..200,
    ) {
        let ctx = SchedContext::new(SimTime::ZERO, capacity, &views);
        assert_plan_sound("FIFO", &Fifo::new().allocate(&ctx), &views, capacity)?;
        assert_plan_sound("FAIR", &Fair::new().allocate(&ctx), &views, capacity)?;
        assert_plan_sound("LAS", &Las::new().allocate(&ctx), &views, capacity)?;
    }

    /// LAS's first plan entry is always (one of) the least-attained jobs
    /// that can use containers.
    #[test]
    fn las_serves_least_attained_first(
        views in prop::collection::vec(view_strategy(), 1..30).prop_map(dedup_by_id),
        capacity in 1u32..100,
    ) {
        let ctx = SchedContext::new(SimTime::ZERO, capacity, &views);
        let plan = Las::new().allocate(&ctx);
        if let Some(&(first, _)) = plan.entries().first() {
            let first_attained = views.iter().find(|v| v.id == first).unwrap().attained;
            let min_attained = views
                .iter()
                .filter(|v| v.max_useful_allocation() > 0)
                .map(|v| v.attained.as_container_secs())
                .fold(f64::INFINITY, f64::min);
            prop_assert!(first_attained.as_container_secs() <= min_attained + 1e-9);
        }
    }

    /// FIFO never serves a later arrival while an earlier one still has
    /// unmet demand.
    #[test]
    fn fifo_respects_arrival_order(
        views in prop::collection::vec(view_strategy(), 1..20).prop_map(dedup_by_id),
        capacity in 1u32..60,
    ) {
        // ctx order is admission order; make it so.
        let mut views = views;
        views.sort_by_key(|v| (v.admitted_at, v.id));
        let ctx = SchedContext::new(SimTime::ZERO, capacity, &views);
        let plan = Fifo::new().allocate(&ctx);
        // Walk views in order: once a job is under-served, no later job
        // may receive anything.
        let mut starved = false;
        for v in &views {
            let got = plan.target_for(v.id).unwrap_or(0);
            if starved {
                prop_assert_eq!(got, 0, "job served behind a starved predecessor");
            }
            if got < v.max_useful_allocation() {
                starved = true;
            }
        }
    }

    /// weighted_shares: exact totals, demand caps, and weight-proportional
    /// splits for uncapped parties.
    #[test]
    fn weighted_shares_invariants(
        demands in prop::collection::vec(0u32..100, 1..50),
        weights in prop::collection::vec(0.0f64..10.0, 50),
        capacity in 0u32..300,
    ) {
        let requests: Vec<ShareRequest> = demands
            .iter()
            .zip(&weights)
            .map(|(&d, &w)| ShareRequest::new(d, w))
            .collect();
        let alloc = weighted_shares(capacity, &requests);
        prop_assert_eq!(alloc.len(), requests.len());
        for (a, r) in alloc.iter().zip(&requests) {
            prop_assert!(*a <= r.demand);
            if r.weight == 0.0 {
                prop_assert_eq!(*a, 0, "zero-weight party was served");
            }
        }
        let positive_demand: u32 =
            requests.iter().filter(|r| r.weight > 0.0).map(|r| r.demand).sum();
        let expected = capacity.min(positive_demand);
        prop_assert_eq!(alloc.iter().sum::<u32>(), expected);
    }

    /// Doubling every weight changes nothing: shares depend only on
    /// weight ratios.
    #[test]
    fn weighted_shares_scale_invariant(
        demands in prop::collection::vec(1u32..50, 1..20),
        capacity in 1u32..100,
    ) {
        let base: Vec<ShareRequest> = demands
            .iter()
            .enumerate()
            .map(|(i, &d)| ShareRequest::new(d, 1.0 + (i % 4) as f64))
            .collect();
        let doubled: Vec<ShareRequest> =
            base.iter().map(|r| ShareRequest::new(r.demand, r.weight * 2.0)).collect();
        prop_assert_eq!(weighted_shares(capacity, &base), weighted_shares(capacity, &doubled));
    }
}
