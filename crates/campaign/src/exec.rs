//! The campaign executor: run cells on the workspace's one worker pool.
//!
//! Cells run on [`map_parallel`], claimed from a shared atomic index — a
//! worker that draws a cache hit (milliseconds) immediately claims the
//! next cell while another worker is still simulating, so the pool
//! load-balances without any queue structure. Results come back in index
//! order, so [`CampaignResult::reports`] is always in declaration order
//! and the output of a campaign is **bit-identical regardless of worker
//! count or cache state**: each cell's simulation is single-threaded and
//! deterministic, the cache round-trips reports losslessly, and nothing
//! about scheduling order can leak into the results.
//!
//! Progress reporting goes to **stderr** (throttled), keeping stdout —
//! tables and CSVs — byte-stable. With a telemetry directory configured,
//! every cell additionally runs with simulator telemetry enabled and
//! writes per-cell CSV/JSON artifacts
//! ([`write_cell_artifacts`](crate::artifacts::write_cell_artifacts));
//! because `record_telemetry` is part of the cached setup, telemetry runs
//! get their own cache entries and warm-cache reruns reproduce the
//! artifacts byte-for-byte. [`ExecOptions::verify`] works the same way
//! for the engine's runtime invariant checker: verified cells address
//! their own cache entries and their reports carry an
//! [`InvariantReport`](lasmq_simulator::InvariantReport).

use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use lasmq_simulator::SimulationReport;

use crate::cache::{ResultCache, DEFAULT_CACHE_DIR};
use crate::manifest::Manifest;
use crate::pool::map_parallel;
use crate::run::RunCell;

/// How a campaign executes: worker count, caching, progress, telemetry.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker threads; `None` = `std::thread::available_parallelism()`.
    pub threads: Option<NonZeroUsize>,
    /// Whether to read and write the result cache.
    pub use_cache: bool,
    /// Cache directory; `None` = [`DEFAULT_CACHE_DIR`].
    pub cache_dir: Option<PathBuf>,
    /// Whether to print progress to stderr.
    pub progress: bool,
    /// When set, every cell runs with simulator telemetry enabled and
    /// writes per-cell artifacts under this directory.
    pub telemetry_dir: Option<PathBuf>,
    /// When set, every cell runs with the engine's runtime invariant
    /// checker armed; reports carry an
    /// [`InvariantReport`](lasmq_simulator::InvariantReport) and any
    /// violation is warned about on stderr (the campaign still completes
    /// — violations are data, not panics). Like telemetry,
    /// `check_invariants` is part of the cached setup, so verified runs
    /// address their own cache entries.
    pub verify: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            threads: None,
            use_cache: true,
            cache_dir: None,
            progress: false,
            telemetry_dir: None,
            verify: false,
        }
    }
}

impl ExecOptions {
    /// Options with an explicit worker count.
    pub fn with_threads(threads: usize) -> Self {
        ExecOptions {
            threads: NonZeroUsize::new(threads),
            ..ExecOptions::default()
        }
    }

    /// Disables the cache (every cell simulates).
    pub fn no_cache(mut self) -> Self {
        self.use_cache = false;
        self
    }

    /// Redirects the cache (and manifest) directory.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Enables stderr progress reporting.
    pub fn verbose(mut self) -> Self {
        self.progress = true;
        self
    }

    /// Records telemetry on every cell and writes per-cell artifacts
    /// (`samples.csv`, `decisions.csv`, `summary.json`) under `dir`.
    pub fn telemetry_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.telemetry_dir = Some(dir.into());
        self
    }

    /// Arms the engine's runtime invariant checker on every cell (see
    /// [`ExecOptions::verify`]).
    pub fn verify(mut self) -> Self {
        self.verify = true;
        self
    }

    fn resolved_cache(&self) -> Option<ResultCache> {
        self.use_cache.then(|| {
            ResultCache::new(
                self.cache_dir
                    .clone()
                    .unwrap_or_else(|| PathBuf::from(DEFAULT_CACHE_DIR)),
            )
        })
    }

    /// The worker count for `cells` units of work: [`ExecOptions::threads`]
    /// (all cores when unset), capped at `cells` and at least one. The
    /// one thread-count rule for campaigns and warm-fork runs alike.
    pub fn resolved_threads(&self, cells: usize) -> usize {
        let requested = match self.threads {
            Some(n) => n.get(),
            None => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        };
        requested.min(cells).max(1)
    }
}

/// Execution statistics for one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignStats {
    /// Total cells executed (including cache hits).
    pub cells: usize,
    /// Cells answered from the cache.
    pub cache_hits: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time for the whole campaign.
    pub wall: Duration,
}

/// A finished campaign: reports in declaration order, plus stats.
#[derive(Debug)]
pub struct CampaignResult {
    /// One report per cell, in the order the cells were added.
    pub reports: Vec<SimulationReport>,
    /// Execution statistics.
    pub stats: CampaignStats,
}

/// One cell that panicked during execution.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// The cell's declaration index.
    pub index: usize,
    /// The cell's display label.
    pub label: String,
    /// The panic message.
    pub message: String,
}

/// Error from [`Campaign::try_run`]: one or more cells panicked. Every
/// *other* cell still ran to completion (and, with caching on, stored its
/// result), so fixing the failing cells and re-running resumes instead of
/// restarting.
#[derive(Debug)]
pub struct CampaignError {
    /// The cells that failed, in declaration order.
    pub failures: Vec<CellFailure>,
    /// How many cells completed successfully.
    pub completed: usize,
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} of {} cells failed ({} completed):",
            self.failures.len(),
            self.failures.len() + self.completed,
            self.completed
        )?;
        for failure in &self.failures {
            write!(
                f,
                "\n  cell {} ({}): {}",
                failure.index, failure.label, failure.message
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for CampaignError {}

/// A named grid of run cells.
#[derive(Debug, Clone, Default)]
pub struct Campaign {
    name: String,
    cells: Vec<RunCell>,
}

impl Campaign {
    /// An empty campaign.
    pub fn new(name: impl Into<String>) -> Self {
        Campaign {
            name: name.into(),
            cells: Vec::new(),
        }
    }

    /// The campaign's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a cell, returning its index (the position of its report in
    /// [`CampaignResult::reports`]).
    pub fn push(&mut self, cell: RunCell) -> usize {
        self.cells.push(cell);
        self.cells.len() - 1
    }

    /// The declared cells.
    pub fn cells(&self) -> &[RunCell] {
        &self.cells
    }

    /// Executes every cell and returns the reports in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if any cell's simulation did (malformed cells are
    /// programming errors in an experiment definition, exactly as with
    /// [`SimSetup::run`](crate::SimSetup::run)) — but only *after* every
    /// other cell has finished and stored its result, so a single bad
    /// cell cannot take an overnight campaign's completed work with it.
    /// Use [`try_run`](Self::try_run) to handle failures structurally.
    pub fn run(&self, opts: &ExecOptions) -> CampaignResult {
        match self.try_run(opts) {
            Ok(result) => result,
            Err(err) => panic!("campaign {}: {err}", self.name),
        }
    }

    /// Executes every cell; failed (panicking) cells are collected into a
    /// [`CampaignError`] instead of unwinding through the worker pool, so
    /// the remaining cells always run to completion.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError`] listing every cell whose simulation
    /// panicked.
    pub fn try_run(&self, opts: &ExecOptions) -> Result<CampaignResult, CampaignError> {
        let start = Instant::now();
        let total = self.cells.len();
        // Telemetry and verification both execute the same grid with an
        // engine extension switched on; `record_telemetry` and
        // `check_invariants` are part of each cell's fingerprint, so
        // these cells address their own cache entries. The two compose:
        // a verified telemetry run is its own fingerprint again.
        let prepared_cells: Option<Vec<RunCell>> = (opts.telemetry_dir.is_some() || opts.verify)
            .then(|| {
                self.cells
                    .iter()
                    .cloned()
                    .map(|mut cell| {
                        if opts.telemetry_dir.is_some() {
                            cell.setup = cell.setup.record_telemetry(true);
                        }
                        if opts.verify {
                            cell.setup = cell.setup.check_invariants(true);
                        }
                        cell
                    })
                    .collect()
            });
        let cells: &[RunCell] = prepared_cells.as_deref().unwrap_or(&self.cells);
        let keys: Vec<String> = cells.iter().map(RunCell::fingerprint).collect();
        let cache = opts.resolved_cache();
        if let Some(cache) = &cache {
            // Journal the full cell list up front so an interrupted
            // campaign is inspectable and resumable.
            let _ = Manifest::new(&self.name, cells, &keys).write(cache.dir());
        }
        let threads = opts.resolved_threads(total);

        let done = AtomicUsize::new(0);
        let hits = AtomicUsize::new(0);
        let progress = Mutex::new(Progress::new(start));
        let outcomes = map_parallel(threads, total, |i| {
            let cell = &cells[i];
            // A panicking cell (malformed job list, scheduler bug) must not
            // unwind through the pool: it would poison the progress mutex,
            // cascade panics through every other worker's `lock()`, and
            // destroy the whole campaign's in-flight work. Catch it, record
            // it, keep draining cells.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                self.execute_cell(cell, &keys[i], cache.as_ref(), opts, &hits)
            }))
            .map_err(|payload| panic_message(payload.as_ref()));
            let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
            if opts.progress {
                // A mutex poisoned by a pre-fix panic path would still hold
                // a usable Progress; never cascade.
                progress
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .tick(
                        &self.name,
                        &cell.label,
                        completed,
                        total,
                        hits.load(Ordering::Relaxed),
                        threads,
                    );
            }
            outcome
        });

        let mut reports = Vec::with_capacity(total);
        let mut failures = Vec::new();
        for (i, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok(report) => reports.push(report),
                Err(message) => failures.push(CellFailure {
                    index: i,
                    label: cells[i].label.clone(),
                    message,
                }),
            }
        }
        let stats = CampaignStats {
            cells: total,
            cache_hits: hits.into_inner(),
            threads,
            wall: start.elapsed(),
        };
        if opts.progress {
            eprintln!(
                "[campaign {}] done: {} cells in {:.2}s ({} cached, {} threads, {} failed)",
                self.name,
                stats.cells,
                stats.wall.as_secs_f64(),
                stats.cache_hits,
                stats.threads,
                failures.len(),
            );
        }
        if failures.is_empty() {
            Ok(CampaignResult { reports, stats })
        } else {
            Err(CampaignError {
                failures,
                completed: reports.len(),
            })
        }
    }

    /// Runs one cell: a cache hit, or a fresh simulation whose report is
    /// then stored.
    fn execute_cell(
        &self,
        cell: &RunCell,
        key: &str,
        cache: Option<&ResultCache>,
        opts: &ExecOptions,
        hits: &AtomicUsize,
    ) -> SimulationReport {
        let report = match cache.and_then(|c| c.load(key)) {
            Some(cached) => {
                hits.fetch_add(1, Ordering::Relaxed);
                crate::profile::record_cell(&cell.label, &cached, true, Duration::ZERO);
                cached
            }
            None => {
                let sim_start = Instant::now();
                let report = cell.setup.run(cell.workload.generate(), &cell.scheduler);
                crate::profile::record_cell(&cell.label, &report, false, sim_start.elapsed());
                if let Some(cache) = cache {
                    let _ = cache.store(key, &report);
                }
                report
            }
        };
        // A verified cell with violations is data, not a panic — but it
        // is never something to scroll past silently.
        if let Some(invariants) = report.invariants() {
            if !invariants.is_clean() {
                eprintln!(
                    "[campaign {}] warning: invariant violations in {}: {invariants}",
                    self.name, cell.label
                );
            }
        }
        // Cached reports round-trip telemetry, so artifacts
        // come out identical whether the report was simulated
        // or loaded. IO trouble degrades to a warning; the
        // campaign's reports are still good.
        if let Some(root) = &opts.telemetry_dir {
            if let Err(err) = crate::artifacts::write_cell_artifacts(root, &cell.label, &report) {
                eprintln!(
                    "[campaign {}] warning: telemetry artifacts for {}: {err}",
                    self.name, cell.label
                );
            }
            if let Err(err) = crate::artifacts::write_invariant_artifact(root, &cell.label, &report)
            {
                eprintln!(
                    "[campaign {}] warning: invariant artifact for {}: {err}",
                    self.name, cell.label
                );
            }
        }
        report
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "cell panicked with a non-string payload".to_string()
    }
}

/// Throttled stderr progress: cells done/total, cache hits, per-worker
/// throughput, ETA.
struct Progress {
    started: Instant,
    last_print: Option<Instant>,
}

impl Progress {
    fn new(started: Instant) -> Self {
        Progress {
            started,
            last_print: None,
        }
    }

    fn tick(
        &mut self,
        campaign: &str,
        label: &str,
        done: usize,
        total: usize,
        hits: usize,
        threads: usize,
    ) {
        let now = Instant::now();
        let due = match self.last_print {
            None => true,
            Some(last) => now.duration_since(last) >= Duration::from_millis(200),
        };
        if !due && done != total {
            return;
        }
        self.last_print = Some(now);
        let elapsed = now.duration_since(self.started).as_secs_f64().max(1e-9);
        let rate = done as f64 / elapsed;
        let eta = (total - done) as f64 / rate.max(1e-9);
        eprintln!(
            "[campaign {campaign}] {done}/{total} cells ({hits} cached) | \
             {:.2} cells/s/worker | ETA {eta:.0}s | last: {label}",
            rate / threads as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::SchedulerKind;
    use crate::setup::SimSetup;
    use crate::workload::WorkloadSpec;

    fn small_campaign(name: &str) -> Campaign {
        let mut campaign = Campaign::new(name);
        for (i, kind) in SchedulerKind::paper_lineup_simulations()
            .into_iter()
            .enumerate()
        {
            campaign.push(RunCell::new(
                format!("{name}/{i}"),
                kind,
                WorkloadSpec::Facebook {
                    jobs: 60,
                    seed: 5,
                    load: None,
                },
                SimSetup::trace_sim(),
            ));
        }
        campaign
    }

    fn temp_cache(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lasmq-exec-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fingerprint_reports(result: &CampaignResult) -> Vec<String> {
        result
            .reports
            .iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .collect()
    }

    #[test]
    fn reports_come_back_in_declaration_order() {
        let campaign = small_campaign("order");
        let result = campaign.run(&ExecOptions::with_threads(4).no_cache());
        assert_eq!(result.reports.len(), 4);
        let names: Vec<&str> = result.reports.iter().map(|r| r.scheduler()).collect();
        assert_eq!(names, ["LAS_MQ", "LAS", "FAIR", "FIFO"]);
        assert_eq!(result.stats.cache_hits, 0);
        assert_eq!(result.stats.threads, 4);
    }

    #[test]
    fn results_are_identical_across_worker_counts_and_cache_states() {
        let dir = temp_cache("det");
        let campaign = small_campaign("det");

        let serial = campaign.run(&ExecOptions::with_threads(1).no_cache());
        let parallel = campaign.run(&ExecOptions::with_threads(8).no_cache());
        assert_eq!(fingerprint_reports(&serial), fingerprint_reports(&parallel));

        // Cold cache populates; warm cache answers everything, still
        // bit-identically.
        let cold = campaign.run(&ExecOptions::with_threads(4).cache_dir(&dir));
        assert_eq!(cold.stats.cache_hits, 0);
        let warm = campaign.run(&ExecOptions::with_threads(4).cache_dir(&dir));
        assert_eq!(warm.stats.cache_hits, 4);
        assert_eq!(fingerprint_reports(&serial), fingerprint_reports(&cold));
        assert_eq!(fingerprint_reports(&serial), fingerprint_reports(&warm));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_is_written_and_tracks_completion() {
        let dir = temp_cache("manifest");
        let campaign = small_campaign("unit-manifest");
        campaign.run(&ExecOptions::with_threads(2).cache_dir(&dir));
        let manifests = Manifest::load_all(&dir);
        assert_eq!(manifests.len(), 1);
        assert_eq!(manifests[0].name, "unit-manifest");
        assert_eq!(manifests[0].cells.len(), 4);
        assert_eq!(manifests[0].cached_cells(&ResultCache::new(&dir)), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn telemetry_dir_emits_artifacts_for_every_cell() {
        let cache = temp_cache("telem-cache");
        let art = temp_cache("telem-art");
        let campaign = small_campaign("telem");

        let result = campaign.run(
            &ExecOptions::with_threads(2)
                .cache_dir(&cache)
                .telemetry_dir(&art),
        );
        assert_eq!(result.stats.cache_hits, 0);
        for (report, cell) in result.reports.iter().zip(campaign.cells()) {
            assert!(
                report.telemetry().is_some(),
                "telemetry campaigns must return telemetry-bearing reports"
            );
            let dir = art.join(crate::artifacts::sanitize_label(&cell.label));
            for file in ["samples.csv", "decisions.csv", "summary.json"] {
                assert!(
                    dir.join(file).is_file(),
                    "missing {file} for {}",
                    cell.label
                );
            }
        }

        // A warm-cache rerun answers every cell from the cache (telemetry
        // cells address their own entries) and rewrites the artifacts
        // byte-identically from the round-tripped reports.
        let sample_path = art
            .join(crate::artifacts::sanitize_label("telem/0"))
            .join("samples.csv");
        let first = std::fs::read(&sample_path).unwrap();
        let rerun = campaign.run(
            &ExecOptions::with_threads(1)
                .cache_dir(&cache)
                .telemetry_dir(&art),
        );
        assert_eq!(rerun.stats.cache_hits, 4);
        assert_eq!(first, std::fs::read(&sample_path).unwrap());

        let _ = std::fs::remove_dir_all(&cache);
        let _ = std::fs::remove_dir_all(&art);
    }

    #[test]
    fn telemetry_and_plain_runs_use_distinct_cache_entries() {
        let cache = temp_cache("telem-split");
        let art = temp_cache("telem-split-art");
        let campaign = small_campaign("split");

        let plain = campaign.run(&ExecOptions::with_threads(2).cache_dir(&cache));
        assert_eq!(plain.stats.cache_hits, 0);
        assert!(plain.reports.iter().all(|r| r.telemetry().is_none()));

        // Same grid with telemetry: the fingerprints differ, so nothing
        // hits the plain entries and the reports carry telemetry.
        let telem = campaign.run(
            &ExecOptions::with_threads(2)
                .cache_dir(&cache)
                .telemetry_dir(&art),
        );
        assert_eq!(telem.stats.cache_hits, 0);
        assert!(telem.reports.iter().all(|r| r.telemetry().is_some()));

        // Scheduling outcomes are unaffected by recording.
        for (p, t) in plain.reports.iter().zip(&telem.reports) {
            assert_eq!(p.stats(), t.stats());
        }

        let _ = std::fs::remove_dir_all(&cache);
        let _ = std::fs::remove_dir_all(&art);
    }

    #[test]
    fn verified_runs_carry_invariants_and_use_distinct_cache_entries() {
        let cache = temp_cache("verify-split");
        let campaign = small_campaign("verify-split");

        let plain = campaign.run(&ExecOptions::with_threads(2).cache_dir(&cache));
        assert_eq!(plain.stats.cache_hits, 0);
        assert!(plain.reports.iter().all(|r| r.invariants().is_none()));

        // Same grid with the checker armed: fingerprints differ, nothing
        // hits the plain entries, every report carries a clean invariant
        // section with real work behind it.
        let verified = campaign.run(&ExecOptions::with_threads(2).cache_dir(&cache).verify());
        assert_eq!(verified.stats.cache_hits, 0);
        for report in &verified.reports {
            let invariants = report
                .invariants()
                .expect("verified campaigns must return invariant-bearing reports");
            assert!(invariants.is_clean(), "{invariants}");
            assert!(invariants.checks_run > 0);
        }

        // Checking observes, never steers: scheduling outcomes identical.
        for (p, v) in plain.reports.iter().zip(&verified.reports) {
            assert_eq!(p.stats(), v.stats());
        }

        // A warm verified rerun answers from the verified entries and
        // round-trips the invariant section.
        let warm = campaign.run(&ExecOptions::with_threads(1).cache_dir(&cache).verify());
        assert_eq!(warm.stats.cache_hits, 4);
        assert!(warm.reports.iter().all(|r| r.invariants().is_some()));
        assert_eq!(fingerprint_reports(&verified), fingerprint_reports(&warm));

        let _ = std::fs::remove_dir_all(&cache);
    }

    #[test]
    fn verify_leaves_telemetry_artifacts_byte_identical() {
        let cache = temp_cache("verify-telem-cache");
        let plain_art = temp_cache("verify-telem-plain");
        let verify_art = temp_cache("verify-telem-verify");
        let campaign = small_campaign("verify-telem");

        campaign.run(
            &ExecOptions::with_threads(2)
                .cache_dir(&cache)
                .telemetry_dir(&plain_art),
        );
        campaign.run(
            &ExecOptions::with_threads(2)
                .cache_dir(&cache)
                .telemetry_dir(&verify_art)
                .verify(),
        );

        for cell in campaign.cells() {
            let sub = crate::artifacts::sanitize_label(&cell.label);
            // The invariant checker must not perturb what the run records:
            // the CSV artifacts are byte-identical with and without it.
            for file in ["samples.csv", "decisions.csv", "summary.json"] {
                let plain = std::fs::read(plain_art.join(&sub).join(file)).unwrap();
                let verified = std::fs::read(verify_art.join(&sub).join(file)).unwrap();
                assert_eq!(
                    plain, verified,
                    "{file} for {} must be byte-identical under verify",
                    cell.label
                );
            }
            // Only the verified run gets the extra invariant artifact.
            let invariants_path = verify_art.join(&sub).join("invariants.json");
            let parsed: lasmq_simulator::InvariantReport =
                serde_json::from_str(&std::fs::read_to_string(&invariants_path).unwrap()).unwrap();
            assert!(parsed.is_clean() && parsed.checks_run > 0, "{parsed}");
            assert!(!plain_art.join(&sub).join("invariants.json").exists());
        }

        let _ = std::fs::remove_dir_all(&cache);
        let _ = std::fs::remove_dir_all(&plain_art);
        let _ = std::fs::remove_dir_all(&verify_art);
    }

    #[test]
    fn failed_cell_reports_as_failed_without_killing_the_campaign() {
        use lasmq_simulator::{JobSpec, SimDuration, StageKind, StageSpec, TaskSpec};

        let dir = temp_cache("poison");
        let mut campaign = small_campaign("poison");
        // A malformed cell: its task is wider than the whole cluster, so
        // building the simulation panics inside the worker.
        let too_wide = JobSpec::builder()
            .stage(StageSpec::uniform(
                StageKind::Map,
                1,
                TaskSpec::new(SimDuration::from_secs(1)).with_containers(2),
            ))
            .build();
        let bad_index = campaign.push(RunCell::new(
            "poison/bad",
            SchedulerKind::Fifo,
            WorkloadSpec::Explicit {
                name: "too-wide".into(),
                jobs: vec![too_wide],
            },
            SimSetup::trace_sim().cluster(lasmq_simulator::ClusterConfig::single_node(1)),
        ));

        let err = campaign
            .try_run(&ExecOptions::with_threads(4).cache_dir(&dir).verbose())
            .unwrap_err();
        // Exactly the bad cell failed; the four good cells all completed
        // and (crucially) stored their cache entries, so a re-run after
        // fixing the bad cell resumes instead of restarting.
        assert_eq!(err.completed, 4);
        assert_eq!(err.failures.len(), 1);
        assert_eq!(err.failures[0].index, bad_index);
        assert_eq!(err.failures[0].label, "poison/bad");
        assert!(
            err.failures[0].message.contains("valid"),
            "unexpected message: {}",
            err.failures[0].message
        );
        assert!(err.to_string().contains("poison/bad"));
        let cache = ResultCache::new(&dir);
        for cell in &campaign.cells()[..4] {
            assert!(cache.contains(&cell.fingerprint()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_panics_only_after_the_rest_of_the_campaign_finished() {
        use lasmq_simulator::{JobSpec, SimDuration, StageKind, StageSpec, TaskSpec};

        let dir = temp_cache("poison-run");
        let mut campaign = small_campaign("poison-run");
        let too_wide = JobSpec::builder()
            .stage(StageSpec::uniform(
                StageKind::Map,
                1,
                TaskSpec::new(SimDuration::from_secs(1)).with_containers(2),
            ))
            .build();
        campaign.push(RunCell::new(
            "poison-run/bad",
            SchedulerKind::Fifo,
            WorkloadSpec::Explicit {
                name: "too-wide".into(),
                jobs: vec![too_wide],
            },
            SimSetup::trace_sim().cluster(lasmq_simulator::ClusterConfig::single_node(1)),
        ));

        let opts = ExecOptions::with_threads(2).cache_dir(&dir);
        let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| campaign.run(&opts)));
        let message = panic_message(panicked.unwrap_err().as_ref());
        assert!(message.contains("poison-run/bad"), "got: {message}");
        // The good cells' results survived the panic.
        let cache = ResultCache::new(&dir);
        for cell in &campaign.cells()[..4] {
            assert!(cache.contains(&cell.fingerprint()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_cells_share_one_cache_entry() {
        let dir = temp_cache("dup");
        let mut campaign = Campaign::new("dup");
        let cell = RunCell::new(
            "a",
            SchedulerKind::Fifo,
            WorkloadSpec::Uniform {
                jobs: 3,
                tasks_per_job: 4,
                seed: 2,
                load: None,
            },
            SimSetup::trace_sim(),
        );
        campaign.push(cell.clone());
        campaign.push(RunCell {
            label: "b".into(),
            ..cell
        });
        // Serial execution: the second cell hits the entry the first stored.
        let result = campaign.run(&ExecOptions::with_threads(1).cache_dir(&dir));
        assert_eq!(result.stats.cache_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
