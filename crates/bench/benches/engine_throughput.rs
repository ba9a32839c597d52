//! Microbenchmarks of the simulator substrate itself: event throughput,
//! the weighted-share primitive, the event queue, and the multilevel
//! queue's membership churn.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use lasmq_campaign::{SchedulerKind, SimSetup};
use lasmq_core::mlq::MultilevelQueue;
use lasmq_core::LasMq;
use lasmq_schedulers::share::{weighted_shares, ShareRequest};
use lasmq_schedulers::Fifo;
use lasmq_simulator::event::{Event, EventQueue};
use lasmq_simulator::{
    ClusterConfig, JobId, JobSpec, Service, SimDuration, SimTime, Simulation, StageKind, StageSpec,
    TaskSpec,
};
use lasmq_workload::FacebookTrace;

fn synthetic_jobs(n: usize) -> Vec<JobSpec> {
    (0..n)
        .map(|i| {
            JobSpec::builder()
                .arrival(SimTime::from_secs(i as u64))
                .stage(StageSpec::uniform(
                    StageKind::Map,
                    20,
                    TaskSpec::new(SimDuration::from_secs(5 + (i % 7) as u64)),
                ))
                .stage(StageSpec::uniform(
                    StageKind::Reduce,
                    5,
                    TaskSpec::new(SimDuration::from_secs(10)).with_containers(2),
                ))
                .build()
        })
        .collect()
}

fn bench_engine(c: &mut Criterion) {
    let jobs = synthetic_jobs(500);
    let task_events: u64 = jobs.iter().map(|j| j.total_tasks() as u64).sum();

    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.throughput(Throughput::Elements(task_events));
    group.bench_function("fifo_500_jobs_12500_tasks", |b| {
        b.iter(|| {
            let report = Simulation::builder()
                .cluster(ClusterConfig::new(4, 30))
                .jobs(jobs.clone())
                .build(Fifo::new())
                .expect("valid setup")
                .run();
            black_box(report)
        });
    });
    // The paper scheduler end-to-end: exercises the multilevel queue's
    // insert/observe/remove churn (position-tracked swap removal) plus
    // per-pass ordering, on top of the same engine substrate.
    group.bench_function("las_mq_500_jobs_12500_tasks", |b| {
        b.iter(|| {
            let report = Simulation::builder()
                .cluster(ClusterConfig::new(4, 30))
                .jobs(jobs.clone())
                .build(LasMq::with_paper_defaults())
                .expect("valid setup")
                .run();
            black_box(report)
        });
    });
    group.finish();

    // Facebook-scale: the paper's §V-C trace environment (heavy-tailed
    // job widths, 100-container pool) at a 3,000-job prefix — large
    // enough that scheduling-pass cost dominates, small enough for
    // criterion's iteration counts. The full 24,443-job trace is the
    // perf-smoke binary's job; this group tracks the same workload shape.
    let trace = FacebookTrace::new().jobs(3_000).seed(0).generate();
    let kind = SchedulerKind::las_mq_simulations();
    let events = SimSetup::trace_sim()
        .run(trace.clone(), &kind)
        .stats()
        .events_processed;

    let mut group = c.benchmark_group("facebook_scale");
    group.sample_size(10);
    group.throughput(Throughput::Elements(events));
    group.bench_function("las_mq_3000_jobs_incremental", |b| {
        b.iter(|| {
            let report = SimSetup::trace_sim().run(trace.clone(), &kind);
            black_box(report)
        });
    });
    group.finish();

    let mut group = c.benchmark_group("primitives");
    let requests: Vec<ShareRequest> = (0..1_000)
        .map(|i| ShareRequest::new(1 + (i % 50), 1.0 + (i % 5) as f64))
        .collect();
    group.throughput(Throughput::Elements(requests.len() as u64));
    group.bench_function("weighted_shares_1000_parties", |b| {
        b.iter(|| black_box(weighted_shares(black_box(120), &requests)));
    });

    // Membership churn on the multilevel queue: insert a large population,
    // demote jobs via observations, then drain by removal. Removal and
    // demotion are O(1) swap-outs (each entry tracks its queue position),
    // so this stays flat as the population grows instead of scaling with
    // queue length.
    let thresholds: Vec<Service> = [10.0, 100.0, 1_000.0, 10_000.0]
        .iter()
        .map(|&s| Service::from_container_secs(s))
        .collect();
    group.throughput(Throughput::Elements(8_000));
    group.bench_function("mlq_churn_2000_jobs_8k_ops", |b| {
        b.iter(|| {
            let mut mlq = MultilevelQueue::new(thresholds.len() + 1);
            for i in 0..2_000u32 {
                mlq.insert(JobId::new(i));
            }
            for round in 0..2u64 {
                for i in 0..2_000u32 {
                    let service = ((u64::from(i) * 7919 + round * 13) % 20_000) as f64;
                    mlq.observe(
                        JobId::new(i),
                        Service::from_container_secs(service),
                        &thresholds,
                    );
                }
            }
            for i in 0..2_000u32 {
                mlq.remove(JobId::new(i));
            }
            black_box(mlq)
        });
    });

    group.throughput(Throughput::Elements(10_000));
    group.bench_function("event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.push(SimTime::from_millis((i * 7919) % 100_000), Event::Tick);
            }
            while let Some(e) = q.pop() {
                black_box(e);
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
