//! Property-based tests of LAS_MQ's data structures and scheduling plan.

use proptest::prelude::*;

use lasmq_core::estimate::effective_service;
use lasmq_core::mlq::MultilevelQueue;
use lasmq_core::{LasMq, LasMqConfig, QueueOrdering, QueueSharing, QueueWeights};
use lasmq_simulator::{JobId, JobView, SchedContext, Scheduler, Service, SimTime};

fn view_strategy() -> impl Strategy<Value = JobView> {
    (
        0u32..500,
        0.0f64..2e4,
        0.0f64..1.0,
        0.0f64..=1.0,
        0u32..100,
        1u32..=2,
    )
        .prop_map(|(id, attained, stage_frac, progress, unstarted, width)| {
            let attained_stage = attained * stage_frac;
            JobView {
                id: JobId::new(id),
                arrival: SimTime::from_millis(id as u64),
                admitted_at: SimTime::from_millis(id as u64),
                priority: 1 + (id % 5) as u8,
                attained: Service::from_container_secs(attained),
                attained_stage: Service::from_container_secs(attained_stage),
                stage_index: 0,
                stage_count: 2,
                stage_progress: progress,
                remaining_tasks: unstarted + 1,
                unstarted_tasks: unstarted,
                containers_per_task: width,
                held: 0,
                oracle: None,
            }
        })
}

fn dedup_by_id(mut views: Vec<JobView>) -> Vec<JobView> {
    views.sort_by_key(|v| v.id);
    views.dedup_by_key(|v| v.id);
    views
}

fn config_strategy() -> impl Strategy<Value = LasMqConfig> {
    (
        1usize..=10,
        0.5f64..200.0,
        prop_oneof![Just(2.0f64), Just(5.0), Just(10.0)],
        prop::bool::ANY,
        prop::bool::ANY,
        prop::bool::ANY,
        prop_oneof![
            Just(QueueWeights::Equal),
            Just(QueueWeights::Geometric { ratio: 2.0 }),
            Just(QueueWeights::Geometric { ratio: 4.0 }),
        ],
    )
        .prop_map(|(k, alpha, step, sa, demand_order, strict, weights)| {
            LasMqConfig::paper_experiments()
                .with_num_queues(k)
                .with_first_threshold(alpha)
                .with_step(step)
                .with_stage_awareness(sa)
                .with_ordering(if demand_order {
                    QueueOrdering::RemainingDemand
                } else {
                    QueueOrdering::Fifo
                })
                .with_sharing(if strict {
                    QueueSharing::StrictPriority
                } else {
                    QueueSharing::Weighted
                })
                .with_weights(weights)
        })
}

/// Applies one mutation of the kinds an engine run produces — including
/// the two the failure-free reference executor never does (a kill that
/// drops held containers back to unstarted, and a stage reset).
fn mutate(v: &mut JobView, kind: u8, amount: f64) {
    let width = v.containers_per_task;
    match kind {
        // Running tasks accrue service and progress.
        0 => {
            let gain = Service::from_container_secs(amount);
            v.attained += gain;
            v.attained_stage += gain;
            v.stage_progress = (v.stage_progress + amount / 1_000.0).min(1.0);
        }
        // Unstarted tasks launch.
        1 => {
            let k = v.unstarted_tasks.min(1 + amount as u32 % 4);
            v.unstarted_tasks -= k;
            v.held += k * width;
        }
        // A running task finishes.
        2 if v.held >= width => {
            v.held -= width;
            v.remaining_tasks -= 1;
        }
        // A running task fails: back to unstarted.
        3 if v.held >= width => {
            v.held -= width;
            v.unstarted_tasks += 1;
        }
        // The stage completes and the next one (2 containers wide) opens.
        4 if v.stage_index + 1 < v.stage_count => {
            let tasks = 1 + amount as u32 % 40;
            v.stage_index += 1;
            v.attained_stage = Service::ZERO;
            v.stage_progress = 0.0;
            v.remaining_tasks = tasks;
            v.unstarted_tasks = tasks;
            v.containers_per_task = 2;
            v.held = 0;
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LAS_MQ plans are sound (no over-allocation, no over-demand) and
    /// work-conserving under saturation, for every configuration corner.
    #[test]
    fn plans_sound_for_all_configs(
        views in prop::collection::vec(view_strategy(), 1..25).prop_map(dedup_by_id),
        capacity in 1u32..150,
        config in config_strategy(),
    ) {
        let mut sched = LasMq::new(config);
        for v in &views {
            sched.on_job_admitted(v, SimTime::ZERO);
        }
        let ctx = SchedContext::new(SimTime::ZERO, capacity, &views);
        let plan = sched.allocate(&ctx);

        let mut totals: std::collections::HashMap<JobId, u32> = std::collections::HashMap::new();
        for &(id, t) in plan.entries() {
            totals.insert(id, t);
        }
        let granted: u64 = totals.values().map(|&t| t as u64).sum();
        prop_assert!(granted <= capacity as u64);
        for (id, t) in &totals {
            let v = views.iter().find(|v| v.id == *id).expect("known job");
            prop_assert!(*t <= v.max_useful_allocation());
        }
        let demand: u64 = views.iter().map(|v| v.max_useful_allocation() as u64).sum();
        prop_assert_eq!(granted, demand.min(capacity as u64), "not work conserving");
    }

    /// LAS_MQ's incremental branch (`SchedContext::with_changed`) and its
    /// from-scratch branch (no hint) are the same policy: driven over one
    /// random sequence of view sets — arrivals, completions, service
    /// accrual, launches, finishes, kills and stage resets — the two
    /// instances agree on every plan, demotion, queue depth and snapshot,
    /// and both stay internally consistent.
    #[test]
    fn changed_hint_and_no_hint_agree_pass_for_pass(
        passes in prop::collection::vec(
            (
                prop::collection::vec(view_strategy(), 0..3),
                prop::collection::vec(0u32..1_000, 0..2),
                prop::collection::vec((0u32..1_000, 0u8..5, 0.0f64..400.0), 0..8),
            ),
            1..40,
        ),
        capacity in 1u32..150,
        config in config_strategy(),
    ) {
        let mut hinted = LasMq::new(config.clone());
        let mut unhinted = LasMq::new(config);
        let mut views: Vec<JobView> = Vec::new();
        let mut seen: std::collections::HashMap<JobId, JobView> = Default::default();
        let mut next_id = 0;
        for (pass, (arrivals, completions, mutations)) in passes.into_iter().enumerate() {
            let now = SimTime::from_secs(pass as u64);
            for sel in completions {
                if views.is_empty() {
                    break;
                }
                let done = views.remove(sel as usize % views.len());
                seen.remove(&done.id);
                hinted.on_job_completed(done.id, now);
                unhinted.on_job_completed(done.id, now);
            }
            for (sel, kind, amount) in mutations {
                if !views.is_empty() {
                    let slot = sel as usize % views.len();
                    mutate(&mut views[slot], kind, amount);
                }
            }
            for mut view in arrivals {
                view.id = JobId::new(next_id);
                view.stage_count = 3;
                next_id += 1;
                hinted.on_job_admitted(&view, now);
                unhinted.on_job_admitted(&view, now);
                views.push(view);
            }
            // The exact hint: slots whose job is new or whose view content
            // differs from what the schedulers saw last pass.
            let changed: Vec<usize> = (0..views.len())
                .filter(|&slot| seen.get(&views[slot].id) != Some(&views[slot]))
                .collect();
            for view in &views {
                seen.insert(view.id, view.clone());
            }

            let ctx = SchedContext::new(now, capacity, &views);
            let plain = unhinted.allocate(&ctx);
            let incremental = hinted.allocate(&ctx.with_changed(&changed));
            prop_assert_eq!(incremental, plain, "plans diverged at pass {}", pass);
            prop_assert_eq!(hinted.drain_demotions(), unhinted.drain_demotions());
            prop_assert_eq!(hinted.queue_depths(), unhinted.queue_depths());
            prop_assert_eq!(hinted.snapshot_state(), unhinted.snapshot_state());
            for sched in [&hinted, &unhinted] {
                if let Err(detail) = sched.check_consistency() {
                    return Err(TestCaseError::fail(format!("pass {pass}: {detail}")));
                }
            }
        }
    }

    /// Queue placement is consistent: after an allocate pass every job
    /// sits in the queue its (monotone) effective service maps to.
    #[test]
    fn queue_placement_matches_thresholds(
        views in prop::collection::vec(view_strategy(), 1..20).prop_map(dedup_by_id),
        capacity in 1u32..100,
    ) {
        let config = LasMqConfig::paper_experiments().with_num_queues(5).with_first_threshold(10.0);
        let thresholds = config.thresholds();
        let sa = config.stage_awareness();
        let min_prog = config.min_progress_for_estimate();
        let mut sched = LasMq::new(config);
        for v in &views {
            sched.on_job_admitted(v, SimTime::ZERO);
        }
        let ctx = SchedContext::new(SimTime::ZERO, capacity, &views);
        let _ = sched.allocate(&ctx);
        for v in &views {
            let queue = sched.queue_of(v.id).expect("admitted");
            let eff = effective_service(v, sa, min_prog).as_container_secs();
            // The job must sit at or below the first queue whose threshold
            // covers its effective service (monotone demotion can never
            // have taken it past the last queue).
            let expected = thresholds
                .iter()
                .position(|t| eff <= t.as_container_secs() * (1.0 + 1e-6))
                .unwrap_or(thresholds.len());
            prop_assert!(queue >= expected,
                "{}: sits in {queue}, effective {eff} maps to at least {expected}", v.id);
            prop_assert!(queue < 5);
        }
    }

    /// MultilevelQueue is demote-only and conserves membership under an
    /// arbitrary operation sequence.
    #[test]
    fn mlq_demote_only_and_membership(
        ops in prop::collection::vec((0u32..30, 0.0f64..1e5, 0u8..3), 1..200),
    ) {
        let thresholds: Vec<Service> =
            [10.0, 100.0, 1_000.0].iter().map(|&t| Service::from_container_secs(t)).collect();
        let mut mlq = MultilevelQueue::new(4);
        let mut present: std::collections::HashSet<u32> = Default::default();
        let mut last_queue: std::collections::HashMap<u32, usize> = Default::default();
        for (id, service, op) in ops {
            let job = JobId::new(id);
            match op {
                0 => {
                    mlq.insert(job);
                    present.insert(id);
                }
                1 => {
                    mlq.remove(job);
                    present.remove(&id);
                    last_queue.remove(&id);
                }
                _ => {
                    let q = mlq.observe(job, Service::from_container_secs(service), &thresholds);
                    prop_assert_eq!(q.is_some(), present.contains(&id));
                    if let Some(q) = q {
                        if let Some(&prev) = last_queue.get(&id) {
                            prop_assert!(q >= prev, "promotion happened: {prev} -> {q}");
                        }
                        last_queue.insert(id, q);
                    }
                }
            }
            prop_assert_eq!(mlq.len(), present.len());
            prop_assert_eq!(mlq.queue_lengths().iter().sum::<usize>(), present.len());
        }
    }

    /// The stage-awareness estimate never ranks a job below its precisely
    /// attained service, and equals it when disabled.
    #[test]
    fn effective_service_bounds(view in view_strategy()) {
        let plain = effective_service(&view, false, 0.05);
        prop_assert!((plain.as_container_secs()
            - view.attained.as_container_secs()).abs() < 1e-9);
        let aware = effective_service(&view, true, 0.05);
        prop_assert!(aware.as_container_secs() + 1e-9 >= view.attained.as_container_secs());
    }

    /// `MultilevelQueue` matches a naive model op for op: the model keeps
    /// one flat list and *fully re-sorts* each queue by `(demand, seq)`
    /// whenever it is read, so identical queue contents in order (hence
    /// identical grant order) mean the one-job moves are equivalent to
    /// sorting from scratch, and the structure's own checker must agree
    /// after every op. Demands are drawn from six values so ties are the
    /// norm, and observed services from one value per decade so a demotion
    /// skips zero to three thresholds. Last, what a snapshot keeps (queue,
    /// seq, demotion key), replayed in reverse order, rebuilds the FIFO
    /// view of the same membership.
    #[test]
    fn mlq_matches_vec_model(
        ops in prop::collection::vec((0u32..25, 0u8..6, 0u8..4, 0u32..6), 1..300),
    ) {
        struct ModelEntry {
            job: JobId,
            queue: usize,
            demand: u32,
            seq: u64,
            max_effective: f64,
        }
        #[derive(Default)]
        struct Model {
            entries: Vec<ModelEntry>,
            next_seq: u64,
        }
        impl Model {
            fn find(&mut self, job: JobId) -> Option<&mut ModelEntry> {
                self.entries.iter_mut().find(|e| e.job == job)
            }
            fn insert(&mut self, job: JobId) {
                if self.find(job).is_some() {
                    return;
                }
                let seq = self.next_seq;
                self.next_seq += 1;
                self.entries.push(ModelEntry {
                    job,
                    queue: 0,
                    demand: MultilevelQueue::UNKNOWN_DEMAND,
                    seq,
                    max_effective: 0.0,
                });
            }
            fn observe(
                &mut self,
                job: JobId,
                effective: f64,
                thresholds: &[Service],
            ) -> Option<usize> {
                let entry = self.find(job)?;
                entry.max_effective = entry.max_effective.max(effective);
                let target = thresholds
                    .iter()
                    .position(|t| entry.max_effective <= t.as_container_secs() * (1.0 + 1e-6))
                    .unwrap_or(thresholds.len());
                entry.queue = entry.queue.max(target);
                Some(entry.queue)
            }
            fn sorted_queue(&self, queue: usize) -> Vec<JobId> {
                let mut members: Vec<&ModelEntry> =
                    self.entries.iter().filter(|e| e.queue == queue).collect();
                members.sort_by_key(|e| (e.demand, e.seq));
                members.iter().map(|e| e.job).collect()
            }
        }

        let thresholds: Vec<Service> =
            [10.0, 100.0, 1_000.0].iter().map(|&t| Service::from_container_secs(t)).collect();
        let mut mlq = MultilevelQueue::new(4);
        let mut model = Model::default();
        for (id, decade, op, demand) in ops {
            let job = JobId::new(id);
            match op {
                0 => {
                    mlq.insert(job);
                    model.insert(job);
                }
                1 => {
                    mlq.remove(job);
                    model.entries.retain(|e| e.job != job);
                }
                2 => {
                    let service = 0.3 * 10f64.powi(i32::from(decade));
                    let got = mlq.observe(job, Service::from_container_secs(service), &thresholds);
                    let want = model.observe(job, service, &thresholds);
                    prop_assert_eq!(got, want, "observe disagreed for {}", job);
                }
                _ => {
                    mlq.set_demand(job, demand);
                    if let Some(entry) = model.find(job) {
                        entry.demand = demand;
                    }
                }
            }
            prop_assert_eq!(mlq.len(), model.entries.len());
            for q in 0..4 {
                prop_assert_eq!(mlq.jobs_in(q), model.sorted_queue(q), "queue {} diverged", q);
            }
            for entry in &model.entries {
                prop_assert_eq!(mlq.queue_of(entry.job), Some(entry.queue));
                prop_assert_eq!(mlq.seq_of(entry.job), Some(entry.seq));
                prop_assert_eq!(mlq.demand_of(entry.job), Some(entry.demand));
                let eff = mlq.max_effective_of(entry.job).expect("queued job has a key");
                prop_assert!((eff - entry.max_effective).abs() < 1e-12);
            }
            if let Err(detail) = mlq.check_consistent() {
                return Err(TestCaseError::fail(format!("inconsistent structure: {detail}")));
            }
        }
        let mut restored = MultilevelQueue::new(4);
        for q in 0..4 {
            for &job in mlq.jobs_in(q).iter().rev() {
                let seq = mlq.seq_of(job).expect("queued");
                let key = mlq.max_effective_of(job).expect("queued");
                restored.restore_job(job, q, seq, key).expect("fresh job, valid queue");
            }
        }
        restored.set_next_seq(mlq.next_seq()).expect("seqs are unique and issued");
        restored.assert_consistent();
        for entry in &mut model.entries {
            entry.demand = MultilevelQueue::UNKNOWN_DEMAND;
        }
        for q in 0..4 {
            prop_assert_eq!(restored.jobs_in(q), model.sorted_queue(q), "restored queue {}", q);
        }
    }

    /// Thresholds grow by exactly the configured step.
    #[test]
    fn thresholds_are_geometric(
        k in 2usize..=12,
        alpha in 0.001f64..1_000.0,
        step in 1.5f64..20.0,
    ) {
        let config = LasMqConfig::paper_experiments()
            .with_num_queues(k)
            .with_first_threshold(alpha)
            .with_step(step);
        let t = config.thresholds();
        prop_assert_eq!(t.len(), k - 1);
        prop_assert!((t[0].as_container_secs() - alpha).abs() < 1e-9 * alpha);
        for pair in t.windows(2) {
            let ratio = pair[1].as_container_secs() / pair[0].as_container_secs();
            prop_assert!((ratio - step).abs() < 1e-6 * step);
        }
    }
}
