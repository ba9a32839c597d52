//! Job specs cost memory per job, not per task: a stage of identical tasks
//! is stored as one task and a count, so widening every job a thousandfold
//! leaves the memory a built simulation holds where it was.
//!
//! A counting global allocator tracks live and peak heap bytes. This file
//! holds one test so no other test's allocations land in its counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use lasmq_simulator::testkit::BudgetedGreedy;
use lasmq_simulator::{
    ClusterConfig, JobSpec, SimDuration, SimTime, Simulation, StageKind, StageSpec, TaskSpec,
};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// 1,000 jobs of 10,000 container-seconds, each one stage of `tasks` equal
/// tasks (the shape of the uniform workload), arriving one second apart.
fn uniform_jobs(tasks: u32) -> Vec<JobSpec> {
    let per_task = SimDuration::from_secs_f64(10_000.0 / tasks as f64);
    (0..1_000)
        .map(|i| {
            JobSpec::builder()
                .arrival(SimTime::from_secs(i))
                .stage(StageSpec::uniform(
                    StageKind::Map,
                    tasks,
                    TaskSpec::new(per_task),
                ))
                .build()
        })
        .collect()
}

/// Peak live heap bytes, above what was live before, while generating the
/// jobs and building a simulation over them (kept alive to the end).
fn peak_build_bytes(tasks: u32) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let sim = Simulation::builder()
        .cluster(ClusterConfig::single_node(100))
        .jobs(uniform_jobs(tasks))
        .build(BudgetedGreedy)
        .expect("valid setup");
    let peak = PEAK.load(Ordering::Relaxed) - before;
    drop(sim);
    peak
}

#[test]
fn spec_memory_follows_jobs_not_tasks() {
    let narrow = peak_build_bytes(10);
    let wide = peak_build_bytes(10_000);
    let ratio = wide as f64 / narrow as f64;
    assert!(
        (0.9..1.1).contains(&ratio),
        "10 tasks per job peaked at {narrow} B, 10,000 at {wide} B ({ratio:.2}×)"
    );
}
