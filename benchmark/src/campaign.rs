//! The two campaign workloads: the whole scheduler zoo on the Facebook trace
//! plus the paper's line-up on the PUMA testbed (with failures and
//! speculation), run cold (`zoo_campaign`: every cell simulates and is
//! stored) and warm (`zoo_warm`: every cell is a cache hit).

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use lasmq_campaign::{
    profile, Campaign, ExecOptions, ResultCache, RunCell, SchedulerKind, SimSetup, WorkloadSpec,
};
use lasmq_simulator::{FailureConfig, SimulationReport, SpeculationConfig};

use crate::engine::report_digest;
use crate::metrics::{RepFigures, RunResult};
use crate::spans::SpanLog;
use crate::stats::Fnv;
use crate::Config;

/// Metric-name stems of `SchedulerKind::zoo()`, in its order.
pub const ZOO_NAMES: [&str; 13] = [
    "fifo", "fair", "las", "ps", "learned", "las_mq", "sjf", "srtf", "sjf_est", "fsp", "hfsp",
    "wfp3", "unicef",
];

const FACEBOOK_JOBS: usize = 10_000;
/// Offered load of the Facebook cells. At the trace's default 0.9 the
/// full-scan policies' cost is quadratic in the backlog of the seed's worst
/// congestion episode and swings ±40 % from seed to seed (FSP: 0.3–1.6 s per
/// cell); at 0.7 the campaign's cost is a property of the code, not of the
/// seed (±8 %).
const FACEBOOK_LOAD: f64 = 0.7;
const FACEBOOK_JOBS_QUICK: usize = 1_500;
const PUMA_JOBS: usize = 1_000;
const PUMA_JOBS_QUICK: usize = 200;

/// Which side of the result cache a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheSide {
    /// `zoo_campaign`: a fresh cache per rep, every cell simulates.
    Cold,
    /// `zoo_warm`: the cache is filled once during set-up, every cell hits.
    Warm,
}

/// The campaign and the job count each of its cells must report.
struct Grid {
    campaign: Campaign,
    expected_jobs: Vec<usize>,
}

fn build_grid(cfg: &Config) -> Grid {
    let zoo = SchedulerKind::zoo();
    assert_eq!(
        zoo.len(),
        ZOO_NAMES.len(),
        "SchedulerKind::zoo() changed; update ZOO_NAMES and the zoo.* metrics"
    );
    let facebook = WorkloadSpec::Facebook {
        jobs: if cfg.quick {
            FACEBOOK_JOBS_QUICK
        } else {
            FACEBOOK_JOBS
        },
        seed: cfg.seed,
        load: Some(FACEBOOK_LOAD),
    };
    let puma = WorkloadSpec::Puma {
        jobs: if cfg.quick {
            PUMA_JOBS_QUICK
        } else {
            PUMA_JOBS
        },
        mean_interval_secs: 50.0,
        seed: cfg.seed,
        geo_bandwidth_mb_per_s: None,
    };
    // Graceful preemption only: `PreemptionPolicy::Kill` on this PUMA mix
    // does not finish in a minute (see README.md, "Known slow path").
    let testbed = SimSetup::testbed()
        .failures(FailureConfig::with_probability(0.02, cfg.seed))
        .speculation(SpeculationConfig::enabled(3, 1.5));

    let mut campaign = Campaign::new("benchmark-zoo");
    let mut expected_jobs = Vec::new();
    // Generating both traces once here gives the job counts the reports are
    // checked against; the campaign's workers generate their own copies.
    let facebook_jobs = facebook.generate().len();
    let puma_jobs = puma.generate().len();
    for (kind, name) in zoo.into_iter().zip(ZOO_NAMES) {
        campaign.push(RunCell::new(
            format!("zoo/{name}"),
            kind,
            facebook.clone(),
            SimSetup::trace_sim(),
        ));
        expected_jobs.push(facebook_jobs);
    }
    for kind in SchedulerKind::paper_lineup_experiments() {
        campaign.push(RunCell::new(
            format!("puma/{kind}"),
            kind,
            puma.clone(),
            testbed.clone(),
        ));
        expected_jobs.push(puma_jobs);
    }
    Grid {
        campaign,
        expected_jobs,
    }
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// A scratch directory inside the checkout, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> std::io::Result<Self> {
        let dir = std::env::current_dir()?
            .join(".bench_tmp")
            .join(format!("{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind when this was the last run using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// What one `Campaign::run` produced, reduced to what the gate compares.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    digest: u64,
    events: u64,
    cells: usize,
    failed_cells: usize,
    incomplete_cells: usize,
    cache_hits: usize,
}

fn run_once(grid: &Grid, opts: &ExecOptions) -> (Outcome, f64, Vec<SimulationReport>) {
    let start = Instant::now();
    let outcome = grid.campaign.try_run(opts);
    let wall = start.elapsed().as_secs_f64();
    match outcome {
        Ok(result) => {
            let mut digest = Fnv::default();
            let mut events = 0;
            let mut incomplete = 0;
            for (report, &jobs) in result.reports.iter().zip(&grid.expected_jobs) {
                digest.u64(report_digest(report));
                events += report.stats().events_processed;
                if !report.all_completed() || report.outcomes().len() != jobs {
                    incomplete += 1;
                }
            }
            let outcome = Outcome {
                digest: digest.finish(),
                events,
                cells: result.stats.cells,
                failed_cells: 0,
                incomplete_cells: incomplete,
                cache_hits: result.stats.cache_hits,
            };
            (outcome, wall, result.reports)
        }
        Err(err) => {
            eprintln!("campaign failed: {err}");
            let outcome = Outcome {
                digest: 0,
                events: 0,
                cells: grid.campaign.cells().len(),
                failed_cells: err.failures.len(),
                incomplete_cells: 0,
                cache_hits: 0,
            };
            (outcome, wall, Vec::new())
        }
    }
}

fn gate(first: &Outcome, other: &Outcome, what: &str) -> bool {
    // Cache hits differ between a cold and a warm run by design.
    let same = Outcome {
        cache_hits: first.cache_hits,
        ..other.clone()
    } == *first;
    if !same {
        eprintln!("determinism gate FAILED ({what}):\n  first: {first:?}\n  other: {other:?}");
    }
    same
}

/// A campaign rep's set-up: the grid, a fresh cache directory and the
/// options that point the pool at it.
fn set_up(cfg: &Config, tag: &str) -> std::io::Result<(Grid, ScratchDir, ExecOptions)> {
    let grid = build_grid(cfg);
    let dir = ScratchDir::new(tag)?;
    let opts = ExecOptions::with_threads(threads()).cache_dir(dir.path());
    Ok((grid, dir, opts))
}

/// The untraced run of either campaign workload.
pub fn run(side: CacheSide, cfg: &Config) -> std::io::Result<RunResult> {
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut first: Option<Outcome> = None;
    let mut correct = true;
    let mut failed = 0;

    // Warm: one set-up (grid + cache fill) serves every rep, because the
    // fill is a whole cold campaign. Cold: each rep sets up afresh.
    let warm = match side {
        CacheSide::Cold => None,
        CacheSide::Warm => {
            let start = Instant::now();
            let state = set_up(cfg, "warm")?;
            let (filled, _, _) = run_once(&state.0, &state.2);
            setups.push(start.elapsed().as_secs_f64());
            correct &= filled.cache_hits == 0;
            first = Some(filled);
            Some(state)
        }
    };

    let started = Instant::now();
    let mut last_rep = Duration::ZERO;
    while cfg.another_rep(walls.len(), started, last_rep) {
        let rep_start = Instant::now();
        let fresh;
        let (grid, _dir, opts) = match &warm {
            Some(state) => state,
            None => {
                fresh = set_up(cfg, &format!("cold{}", walls.len()))?;
                setups.push(rep_start.elapsed().as_secs_f64());
                &fresh
            }
        };
        let (outcome, wall, _) = run_once(grid, opts);
        let expected_hits = if warm.is_some() { outcome.cells } else { 0 };
        correct &= outcome.cache_hits == expected_hits;
        walls.push(wall);
        failed = failed.max(outcome.failed_cells + outcome.incomplete_cells);
        let expected = first.get_or_insert(outcome.clone());
        correct &= gate(expected, &outcome, "rep vs first rep");
        last_rep = rep_start.elapsed();
    }

    let fp = first.expect("at least one rep ran");
    let cells = fp.cells;
    let mut result = RunResult {
        correct: correct && failed == 0,
        attempted: cells as u64,
        failed: failed as u64,
        ..RunResult::default()
    };
    result.exact("cells", fp.cells);
    result.exact("events", fp.events);
    result.exact("digest", format!("{:016x}", fp.digest));
    // One rep is one op (a whole `Campaign::try_run`), so both percentiles of
    // a rep are its wall time. The warm side sets up once for all its reps.
    let figures: Vec<RepFigures> = walls
        .iter()
        .enumerate()
        .map(|(i, &wall)| RepFigures {
            work_per_s: cells as f64 / wall,
            op_p50_us: wall * 1e6,
            op_p90_us: wall * 1e6,
            setup_s: setups[i.min(setups.len() - 1)],
        })
        .collect();
    result.metrics.set_best_of(&figures);
    eprintln!(
        "{side:?}: {} reps at {} threads, {} cells, {} events, digest {:016x}",
        walls.len(),
        threads(),
        fp.cells,
        fp.events,
        fp.digest
    );
    Ok(result)
}

/// The traced run (the same for both campaign workloads): one profiled cold
/// run, one warm run, one single-thread run, each cell on its own, and the
/// cache's store/load on the reports produced.
pub fn run_traced(cfg: &Config, log: &mut SpanLog) -> std::io::Result<RunResult> {
    let grid = build_grid(cfg);
    let cells = grid.campaign.cells();
    let n = cells.len();
    let threads = threads();
    let mut result = RunResult::default();

    let iterations = 200;
    let ((), fp_s) = log.time("campaign.fingerprint", None, 0, || {
        for _ in 0..iterations {
            for cell in cells {
                black_box(cell.fingerprint());
            }
        }
    });
    let keys: Vec<String> = cells.iter().map(RunCell::fingerprint).collect();

    let dir = ScratchDir::new("traced")?;
    let opts = ExecOptions::with_threads(threads).cache_dir(dir.path());
    profile::set_enabled(true);
    let before = profile::snapshot();
    let cold_start = Instant::now();
    let (cold, cold_wall, reports) = run_once(&grid, &opts);
    let cold_span = log.record("campaign.run", None, 0, cold_start, Instant::now());
    let busy = profile::snapshot().since(&before);
    profile::set_enabled(false);

    let warm_start = Instant::now();
    let (warm, warm_wall, _) = run_once(&grid, &opts);
    log.record("campaign.run", None, 1, warm_start, Instant::now());

    let one_start = Instant::now();
    let (one, one_wall, _) = run_once(&grid, &ExecOptions::with_threads(1).no_cache());
    log.record("campaign.run", None, 2, one_start, Instant::now());

    let mut correct = cold.cache_hits == 0 && warm.cache_hits == n;
    correct &= gate(&cold, &warm, "warm run vs cold run");
    correct &= gate(&cold, &one, "one-thread run vs two-thread run");
    let failed = [&cold, &warm, &one]
        .iter()
        .map(|o| o.failed_cells + o.incomplete_cells)
        .max()
        .unwrap_or(0);

    // Each cell on its own, from the harness: the per-kind cost the pool
    // hides. Its report must match the campaign's.
    let mut puma_s = 0.0;
    for (i, cell) in cells.iter().enumerate() {
        let (report, secs) = log.time("campaign.cell", Some(cold_span), i as u32, || {
            cell.setup.run(cell.workload.generate(), &cell.scheduler)
        });
        if let Some(expected) = reports.get(i) {
            if report_digest(&report) != report_digest(expected) {
                eprintln!("cell {} differs when run outside the campaign", cell.label);
                correct = false;
            }
        }
        match ZOO_NAMES.get(i) {
            Some(name) => result.metrics.set(&format!("zoo.{name}.run_s"), secs),
            None => puma_s += secs,
        }
    }
    result.metrics.set("zoo.puma.run_s", puma_s);

    // The cache layer alone, on the reports the cold run produced.
    let cache_dir = ScratchDir::new("cache")?;
    let cache = ResultCache::new(cache_dir.path());
    let mut store_s = Vec::new();
    let mut load_s = Vec::new();
    let mut bytes = 0u64;
    for (key, report) in keys.iter().zip(&reports) {
        let (stored, secs) = log.time("cache.store", None, 0, || cache.store(key, report));
        stored?;
        store_s.push(secs);
        bytes += std::fs::metadata(cache.entry_path(key))?.len();
        let (loaded, secs) = log.time("cache.load", None, 0, || cache.load(key));
        load_s.push(secs);
        correct &= loaded.as_ref() == Some(report);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;

    result.correct = correct && failed == 0;
    result.attempted = n as u64;
    result.failed = failed as u64;
    result.exact("cells", cold.cells);
    result.exact("events", cold.events);
    result.exact("digest", format!("{:016x}", cold.digest));
    result.exact("cache_bytes", bytes);
    let sim_busy = busy.sim_wall.as_secs_f64();
    let m = &mut result.metrics;
    m.set("campaign.cells", n as f64);
    m.set("campaign.events", busy.events as f64);
    m.set("campaign.cold_wall_s", cold_wall);
    m.set("campaign.warm_wall_s", warm_wall);
    m.set("campaign.sim_busy_s", sim_busy);
    m.set(
        "campaign.overhead_share",
        1.0 - sim_busy / (threads as f64 * cold_wall),
    );
    m.set("campaign.one_thread_wall_s", one_wall);
    m.set(
        "campaign.parallel_efficiency",
        one_wall / (threads as f64 * cold_wall),
    );
    m.set(
        "campaign.fingerprint_us_per_cell",
        fp_s * 1e6 / (iterations * n) as f64,
    );
    m.set("cache.store_ms_per_cell", mean(&store_s) * 1e3);
    m.set("cache.load_ms_per_cell", mean(&load_s) * 1e3);
    m.set("cache.bytes", bytes as f64);
    Ok(result)
}
