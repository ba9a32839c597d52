//! Microbenchmarks of the snapshot/restore subsystem on the paper's
//! testbed shape: a 120-container PUMA run paused halfway through.
//!
//! Four costs matter operationally:
//!
//! * `snapshot_midrun` — running a fresh simulation to the pause point and
//!   capturing full engine state (the run-up plus one `snapshot`);
//! * `serialize_json` — snapshot → snapshot-file bytes;
//! * `deserialize_json` — snapshot-file bytes → snapshot (includes the
//!   schema check);
//! * `restore_and_finish` — rebuilding a paused simulation from the
//!   snapshot and running it to completion (what a resumed daemon pays
//!   instead of a from-scratch run).
//!
//! Two more are the policy trainer's per-candidate cost (`ext_train`
//! forks every candidate from the same `warm_fork` snapshot), which
//! bounds how many candidates a training round can afford:
//!
//! * `fork_only` — rebuilding a forked simulation under a learned policy
//!   (the fixed cost, paid before any simulation);
//! * `fork_and_finish` — fork, run the tail to completion and score it
//!   (one full candidate evaluation).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use lasmq_campaign::{SchedulerKind, SimSetup, WorkloadSpec};
use lasmq_experiments::warm_fork::{donor_snapshot, post_fork_mean_response};
use lasmq_schedulers::{LearnedScheduler, LinearPolicy};
use lasmq_simulator::{Scheduler, SimSnapshot, SimTime, Simulation};

const JOBS: usize = 60;
const SEED: u64 = 42;

fn workload() -> WorkloadSpec {
    WorkloadSpec::Puma {
        jobs: JOBS,
        mean_interval_secs: 50.0,
        seed: SEED,
        geo_bandwidth_mb_per_s: None,
    }
}

fn warmed_simulation() -> Simulation<Box<dyn Scheduler>> {
    SimSetup::testbed()
        .build_simulation(workload().generate(), &SchedulerKind::las_mq_simulations())
}

/// The pause point: the median job arrival, when the cluster is warm and
/// a backlog exists.
fn pause_point() -> SimTime {
    let mut arrivals: Vec<SimTime> = workload().generate().iter().map(|j| j.arrival()).collect();
    arrivals.sort();
    arrivals[arrivals.len() / 2]
}

fn bench_snapshot(c: &mut Criterion) {
    let at = pause_point();
    let snapshot = warmed_simulation()
        .snapshot_at(at)
        .expect("pause point lands mid-run");
    let json = snapshot.to_json();

    let mut group = c.benchmark_group("snapshot");
    group.sample_size(10);

    group.bench_function("snapshot_midrun_120c_puma", |b| {
        b.iter(|| {
            let snap = warmed_simulation()
                .snapshot_at(at)
                .expect("pause point lands mid-run");
            black_box(snap)
        });
    });

    group.throughput(Throughput::Bytes(json.len() as u64));
    group.bench_function("serialize_json", |b| {
        b.iter(|| black_box(snapshot.to_json()));
    });
    group.bench_function("deserialize_json", |b| {
        b.iter(|| black_box(SimSnapshot::from_json(black_box(&json)).expect("valid snapshot")));
    });
    group.finish();

    let mut group = c.benchmark_group("restore");
    group.sample_size(10);
    group.bench_function("restore_and_finish_120c_puma", |b| {
        b.iter(|| {
            let sim = Simulation::restore(
                snapshot.clone(),
                SchedulerKind::las_mq_simulations().build(),
            )
            .expect("snapshot restores under the same scheduler");
            black_box(sim.run())
        });
    });
    group.finish();
}

fn bench_fork(c: &mut Criterion) {
    let snapshot = donor_snapshot(&SimSetup::testbed(), &workload());
    let fork_at = snapshot.now();
    let policy = LinearPolicy::las_like();
    let fork = || {
        Simulation::fork(&snapshot, LearnedScheduler::new(policy.clone()))
            .expect("a learned policy forks from a non-oracle snapshot")
    };

    let mut group = c.benchmark_group("fork");
    group.sample_size(10);
    group.bench_function("fork_only_120c_puma", |b| {
        b.iter(|| black_box(fork()));
    });
    group.bench_function("fork_and_finish_120c_puma", |b| {
        b.iter(|| black_box(post_fork_mean_response(&fork().run(), fork_at)));
    });
    group.finish();
}

criterion_group!(benches, bench_snapshot, bench_fork);
criterion_main!(benches);
