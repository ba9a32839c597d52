//! `repro` — regenerate every table and figure of the LAS_MQ paper, and
//! work with trace files.
//!
//! ```text
//! repro [--quick] [--out DIR] [--threads N] [--no-cache] [--seed S]
//!       [--telemetry DIR] [--verify]
//!       [--profile] [--policy FILE]
//!       <table1|fig3|fig5|fig6|fig7|fig8|extensions|fork-compare|robustness|train|all>
//! repro campaign-status
//! repro trace-gen <facebook|uniform|puma> [--jobs N] [--seed S] [--out FILE]
//! repro trace-run <FILE> [--scheduler fifo|fair|las|las_mq|ps|learned|sjf|srtf|sjf-est|
//!                                     fsp|hfsp|wfp3|unicef]
//!                 [--containers N] [--policy FILE]
//! ```
//!
//! Experiment subcommands print paper-style tables and write them as CSV
//! under `--out` (default `target/experiments`); `--quick` runs the
//! reduced bench scale. Runs execute as campaigns on a worker pool
//! (`--threads`, default all cores) backed by a content-addressed result
//! cache under `target/campaign-cache` (`--no-cache` bypasses it;
//! `campaign-status` summarizes it). `--telemetry DIR` records scheduler
//! telemetry on every cell and writes per-cell `samples.csv`,
//! `decisions.csv` and `summary.json` artifacts under `DIR`. Results are
//! bit-identical regardless of worker count or cache state, so a killed
//! run resumes by rerunning it: every finished cell comes from the cache.
//! `--verify` arms the engine's runtime invariant checker on every
//! cell (container conservation, clock monotonicity, task accounting,
//! queue consistency, snapshot fidelity); violations are warned about on
//! stderr without aborting, and tables stay byte-identical. `--profile`
//! prints a per-figure cost line after each figure — cells run, cache
//! hits, engine events, scheduling passes, wall-clock spent simulating,
//! and events/sec — and, at the end, the slowest freshly simulated cell
//! on stderr, without changing a byte of the tables or CSVs.
//! `fork-compare` runs the warm-state fork experiment: one snapshot
//! of a warmed cluster forked into every lineup scheduler. `robustness`
//! (not part of `all` — it is by far the largest grid) runs the
//! estimation-error campaign: the full 13-scheduler zoo swept across
//! size-noise sigma × offered load on both traces, printing the grid
//! table plus the crossover table of the first sigma at which LAS_MQ
//! beats each noisy estimate-based rival. `train` (not
//! part of `all`) runs the cross-entropy policy trainer (`ext_train`),
//! writes the versioned policy artifact next to the CSVs, and prints the
//! held-out comparison; with `--policy FILE` it skips the search and
//! reproduces the comparison table from an existing artifact. `trace-gen`
//! freezes a workload to a JSON trace file; `trace-run` replays one under
//! any scheduler and prints summary metrics (`--policy FILE` replays
//! under the learned scheduler with weights from FILE).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use lasmq_campaign::{status_report, ExecOptions, SchedulerKind, SimSetup, DEFAULT_CACHE_DIR};
use lasmq_experiments::ext_train::{self, TrainOptions};
use lasmq_experiments::table::TextTable;
use lasmq_experiments::{
    ext_estimation, ext_fairness, ext_geo, ext_load, ext_robustness, ext_warmstart, fig3, fig56,
    fig7, fig8, table1, Scale,
};
use lasmq_schedulers::LinearPolicy;
use lasmq_simulator::ClusterConfig;
use lasmq_workload::{FacebookTrace, PumaWorkload, Trace, UniformWorkload};

struct Args {
    quick: bool,
    out: PathBuf,
    threads: Option<usize>,
    no_cache: bool,
    seed: Option<u64>,
    telemetry: Option<PathBuf>,
    verify: bool,
    profile: bool,
    policy: Option<PathBuf>,
    experiments: Vec<String>,
}

/// `Ok(None)` means `--help` was requested (print usage, exit 0).
fn parse_args() -> Result<Option<Args>, String> {
    let mut quick = false;
    let mut out = PathBuf::from("target/experiments");
    let mut threads = None;
    let mut no_cache = false;
    let mut seed = None;
    let mut telemetry = None;
    let mut verify = false;
    let mut profile = false;
    let mut policy = None;
    let mut experiments = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--no-cache" => no_cache = true,
            "--out" => {
                out = PathBuf::from(argv.next().ok_or("--out needs a directory argument")?);
            }
            "--threads" => {
                let v = argv.next().ok_or("--threads needs a worker count")?;
                threads = Some(
                    v.parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("--threads needs a positive integer, got '{v}'"))?,
                );
            }
            "--seed" => {
                let v = argv.next().ok_or("--seed needs an integer seed")?;
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--seed needs a u64, got '{v}'"))?,
                );
            }
            "--telemetry" => {
                telemetry = Some(PathBuf::from(
                    argv.next()
                        .ok_or("--telemetry needs a directory argument")?,
                ));
            }
            "--verify" => verify = true,
            "--profile" => profile = true,
            "--policy" => {
                policy = Some(PathBuf::from(
                    argv.next().ok_or("--policy needs a policy JSON file")?,
                ));
            }
            "--help" | "-h" => return Ok(None),
            name if !name.starts_with('-') => experiments.push(name.to_string()),
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    if experiments.is_empty() {
        experiments.push("all".into());
    }
    Ok(Some(Args {
        quick,
        out,
        threads,
        no_cache,
        seed,
        telemetry,
        verify,
        profile,
        policy,
        experiments,
    }))
}

const USAGE: &str = "usage: repro [--quick] [--out DIR] [--threads N] [--no-cache] [--seed S] \
    [--telemetry DIR] [--verify] [--profile] \
    [--policy FILE] \
    <table1|fig3|fig5|fig6|fig7|fig8|extensions|fork-compare|robustness|train|all>
       repro campaign-status
       repro trace-gen <facebook|uniform|puma> [--jobs N] [--seed S] [--out FILE]
       repro trace-run <FILE> [--scheduler NAME] [--containers N] [--policy FILE]

  --verify                  arm the engine's runtime invariant checker on
                            every cell; violations are reported on stderr
                            as structured warnings, tables are unchanged
  --profile                 print a per-figure cost line (cells, cache
                            hits, engine events, scheduling passes,
                            simulating wall-clock, events/sec) and, at
                            the end, the slowest cell on stderr; tables
                            and CSVs are unchanged
  fork-compare              snapshot one warmed-up cluster and fork it into
                            every lineup scheduler (also part of extensions)
  robustness                run the size-estimation-error campaign (not part
                            of 'all'): the full scheduler zoo swept across
                            noise sigma × load on both traces, with the
                            crossover table of the first sigma at which
                            LAS_MQ beats each noisy estimate-based rival;
                            --quick downscales the grid
  train                     run the cross-entropy policy trainer (ext_train;
                            not part of 'all'): emits the versioned policy
                            artifact next to the CSVs and prints the held-out
                            comparison table
  --policy FILE             with 'train': skip the search and reproduce the
                            held-out table from an existing policy artifact;
                            with trace-run: replay under the learned
                            scheduler with weights from FILE";

fn main() -> ExitCode {
    // Trace and status subcommands take their own argument shapes.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("trace-gen") => return exit_code(trace_gen(&argv[1..])),
        Some("trace-run") => return exit_code(trace_run(&argv[1..])),
        Some("campaign-status") => return campaign_status(),
        _ => {}
    }
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut scale = if args.quick {
        Scale::bench()
    } else {
        Scale::paper()
    };
    if let Some(seed) = args.seed {
        scale.seed = seed;
    }
    let mut exec = ExecOptions::default().verbose();
    exec.threads = args.threads.and_then(std::num::NonZeroUsize::new);
    if args.no_cache {
        exec = exec.no_cache();
    }
    if let Some(dir) = &args.telemetry {
        exec = exec.telemetry_dir(dir);
    }
    if args.verify {
        exec = exec.verify();
    }
    if args.profile {
        lasmq_campaign::profile::set_enabled(true);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create output directory {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }

    let known = [
        "table1",
        "fig3",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "extensions",
        "fork-compare",
        "robustness",
        "train",
        "all",
    ];
    for e in &args.experiments {
        if !known.contains(&e.as_str()) {
            eprintln!("unknown experiment '{e}'\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    let wants = |name: &str| args.experiments.iter().any(|e| e == name || e == "all");

    println!(
        "LAS_MQ reproduction — scale: {}, cache: {}{}\n",
        if args.quick {
            "quick (bench)"
        } else {
            "paper (full)"
        },
        if args.no_cache { "off" } else { "on" },
        if args.verify {
            ", invariant checks: on"
        } else {
            ""
        },
    );

    let profile = args.profile;
    if wants("table1") {
        emit(
            "table1",
            || table1::run(&scale).tables(),
            &args.out,
            profile,
        );
    }
    if wants("fig3") {
        emit(
            "fig3",
            || fig3::run(&scale, &exec).tables(),
            &args.out,
            profile,
        );
    }
    if wants("fig5") {
        emit(
            "fig5",
            || fig56::run(&scale, 80.0, &exec).tables(),
            &args.out,
            profile,
        );
    }
    if wants("fig6") {
        emit(
            "fig6",
            || fig56::run(&scale, 50.0, &exec).tables(),
            &args.out,
            profile,
        );
    }
    if wants("fig7") {
        emit(
            "fig7",
            || fig7::run(&scale, &exec).tables(),
            &args.out,
            profile,
        );
    }
    if wants("fig8") {
        emit(
            "fig8",
            || fig8::run(&scale, &exec).tables(),
            &args.out,
            profile,
        );
    }
    if wants("extensions") {
        emit(
            "ext_estimation",
            || ext_estimation::run(&scale, &exec).tables(),
            &args.out,
            profile,
        );
        emit(
            "ext_robustness",
            || ext_robustness::run(&scale, &exec).tables(),
            &args.out,
            profile,
        );
        emit(
            "ext_fairness",
            || ext_fairness::run(&scale, &exec).tables(),
            &args.out,
            profile,
        );
        emit(
            "ext_geo",
            || ext_geo::run(&scale, &exec).tables(),
            &args.out,
            profile,
        );
        emit(
            "ext_load",
            || ext_load::run(&scale, &exec).tables(),
            &args.out,
            profile,
        );
    }
    if wants("extensions") || wants("fork-compare") {
        emit(
            "ext_warmstart",
            || ext_warmstart::run(&scale, &exec).tables(),
            &args.out,
            profile,
        );
    }
    // The robustness grid is opt-in (not part of `all`): 13 schedulers ×
    // sigma × load × two traces dwarfs every paper figure combined. With
    // --quick it drops to the smoke scale rather than bench scale — the
    // 264-run grid is the one place bench-sized cells are still too big
    // once --verify arms the invariant checker on each of them.
    if args.experiments.iter().any(|e| e == "robustness") {
        let noise_scale = if args.quick {
            ext_robustness::smoke_scale(&scale)
        } else {
            scale
        };
        emit(
            "robustness",
            || ext_robustness::run_noise(&noise_scale, &exec).tables(),
            &args.out,
            profile,
        );
    }
    // Training is opt-in (not part of `all`): a search is a different
    // kind of run than a reproduction, and its cost scales with the
    // trainer knobs rather than the figure set.
    if args.experiments.iter().any(|e| e == "train") {
        let opts = if args.quick {
            TrainOptions::smoke(&scale)
        } else {
            TrainOptions::full(&scale)
        };
        let result = match &args.policy {
            Some(path) => match std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))
                .and_then(|json| LinearPolicy::from_json(&json))
            {
                Ok(policy) => ext_train::evaluate(&scale, &opts, policy, &exec),
                Err(msg) => {
                    eprintln!("{msg}");
                    return ExitCode::FAILURE;
                }
            },
            None => ext_train::run(&scale, &opts, &exec),
        };
        emit("ext_train", || result.tables(), &args.out, profile);
        if args.policy.is_none() {
            let artifact = args.out.join("learned-linear.v1.json");
            match std::fs::write(&artifact, result.policy_json()) {
                Ok(()) => println!("[policy artifact written to {}]\n", artifact.display()),
                Err(e) => {
                    eprintln!("cannot write {}: {e}", artifact.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if profile {
        // The evidence behind "split a cell that would run past a minute".
        if let Some((label, wall)) = lasmq_campaign::profile::slowest_cell() {
            eprintln!(
                "[profile] slowest cell: {label} {:.2} s",
                wall.as_secs_f64()
            );
        }
    }
    ExitCode::SUCCESS
}

fn campaign_status() -> ExitCode {
    match status_report(std::path::Path::new(DEFAULT_CACHE_DIR)) {
        Some(report) => println!("{report}"),
        None => println!("no campaigns recorded under {DEFAULT_CACHE_DIR}"),
    }
    ExitCode::SUCCESS
}

/// Prints a subcommand's error, if any, and maps it to the exit status.
fn exit_code(result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

/// The value following `flag`, if the flag is given at all.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

/// `flag`'s value as an integer, or `default` when the flag is absent.
fn int_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match flag_value(args, flag)? {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag} needs a non-negative integer, got '{v}'")),
    }
}

fn trace_gen(args: &[String]) -> Result<(), String> {
    let kind = args.first().ok_or(
        "usage: repro trace-gen <facebook|uniform|puma> [--jobs N] [--seed S] [--out FILE]",
    )?;
    let jobs: usize = int_flag(args, "--jobs", 1_000)?;
    if jobs == 0 {
        return Err("--jobs needs at least one job, got '0'".into());
    }
    let seed: u64 = int_flag(args, "--seed", 42)?;
    let out = PathBuf::from(flag_value(args, "--out")?.unwrap_or("trace.json"));
    let (name, specs) = match kind.as_str() {
        "facebook" => (
            format!("facebook-synthetic-{jobs}-seed{seed}"),
            FacebookTrace::new().jobs(jobs).seed(seed).generate(),
        ),
        "uniform" => (
            format!("uniform-{jobs}"),
            UniformWorkload::new().jobs(jobs).seed(seed).generate(),
        ),
        "puma" => (
            format!("puma-{jobs}-seed{seed}"),
            PumaWorkload::new().jobs(jobs).seed(seed).generate(),
        ),
        other => {
            return Err(format!(
                "unknown trace kind '{other}' (expected facebook, uniform or puma)"
            ))
        }
    };
    let trace = Trace::new(name, specs);
    let summary = trace.summary();
    trace
        .save(&out)
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "wrote '{}' to {}: {} jobs, mean size {:.1} c·s, max {:.0} c·s",
        trace.name(),
        out.display(),
        summary.job_count,
        summary.mean_size,
        summary.max_size,
    );
    Ok(())
}

fn trace_run(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .ok_or("usage: repro trace-run <FILE> [--scheduler NAME] [--containers N]")?;
    let trace = Trace::load(path).map_err(|e| format!("cannot load {path}: {e}"))?;
    let kind: SchedulerKind = match flag_value(args, "--policy")? {
        // A policy file implies the learned scheduler with those weights.
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|json| LinearPolicy::from_json(&json))
            .map(SchedulerKind::Learned)?,
        None => flag_value(args, "--scheduler")?
            .unwrap_or("las_mq")
            .parse::<SchedulerKind>()
            .map_err(|e| e.to_string())?,
    };
    let containers: u32 = int_flag(args, "--containers", 100)?;
    let cluster = ClusterConfig::single_node(containers);
    cluster
        .validate()
        .map_err(|e| format!("--containers {containers}: {e}"))?;
    for (i, job) in trace.jobs().iter().enumerate() {
        job.validate(cluster.total_containers())
            .map_err(|e| format!("job {i} of {path}: {e}"))?;
    }
    let setup = SimSetup::trace_sim().cluster(cluster);
    let name = trace.name().to_string();
    let count = trace.jobs().len();
    let start = Instant::now();
    let report = setup.run(trace.into_jobs(), &kind);
    println!(
        "'{name}' under {}: {}/{count} jobs completed in {:.1}s wall",
        report.scheduler(),
        report.completed_count(),
        start.elapsed().as_secs_f64(),
    );
    println!(
        "mean response {:.2}s, p50 {:.2}s, p99 {:.2}s, mean slowdown {:.2}, utilization {:.0}%",
        report.mean_response_secs().unwrap_or(f64::NAN),
        report.response_percentile(0.5).unwrap_or(f64::NAN),
        report.response_percentile(0.99).unwrap_or(f64::NAN),
        report.mean_slowdown().unwrap_or(f64::NAN),
        report.stats().mean_utilization * 100.0,
    );
    Ok(())
}

/// Runs one figure (the closure builds its tables, which is where the
/// campaign executes), prints and saves the tables, and — with
/// `--profile` — follows up with the figure's execution-cost line read
/// from the campaign profile counters.
fn emit(name: &str, tables: impl FnOnce() -> Vec<TextTable>, out: &std::path::Path, profile: bool) {
    let before = lasmq_campaign::profile::snapshot();
    let start = Instant::now();
    let tables = tables();
    let wall = start.elapsed();
    for (i, table) in tables.iter().enumerate() {
        println!("{table}");
        let path = out.join(format!("{name}_{i}.csv"));
        if let Err(e) = table.write_csv(&path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    println!(
        "[{name} done in {:.1}s; CSVs in {}]",
        wall.as_secs_f64(),
        out.display()
    );
    if profile {
        let delta = lasmq_campaign::profile::snapshot().since(&before);
        match delta.events_per_sec() {
            Some(rate) => println!(
                "[{name} profile] {} cells ({} cached), {} events / {} passes \
                 in {:.2}s simulating = {rate:.0} events/s",
                delta.cells,
                delta.cache_hits,
                delta.events,
                delta.passes,
                delta.sim_wall.as_secs_f64(),
            ),
            None => println!(
                "[{name} profile] {} cells ({} cached), nothing simulated",
                delta.cells, delta.cache_hits,
            ),
        }
        // Process-wide per-cell wall-time percentiles (all figures so
        // far, not just this one — the histogram is cumulative).
        let wall = lasmq_campaign::profile::cell_wall_summary();
        if wall.count > 0 {
            println!(
                "[{name} profile] cell wall time: p50 {:.0}ms  p99 {:.0}ms  \
                 p999 {:.0}ms  max {:.0}ms over {} simulated cells",
                wall.p50_us / 1000.0,
                wall.p99_us / 1000.0,
                wall.p999_us / 1000.0,
                wall.max_us / 1000.0,
                wall.count,
            );
        }
    }
    println!();
}
