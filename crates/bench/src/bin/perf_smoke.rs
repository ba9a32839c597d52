//! Perf smoke check: engine throughput on the Facebook-scale trace.
//!
//! Runs the paper's §V-C trace-simulation environment (synthetic
//! Facebook 2010 trace under LAS_MQ on a flat 100-container pool) a few
//! times, reports the best events/sec, and optionally compares against a
//! committed baseline so CI can catch throughput regressions:
//!
//! ```text
//! perf-smoke                      # measure and print
//! perf-smoke --emit BENCH_5.json  # record a new baseline
//! perf-smoke --check BENCH_5.json # fail (exit 1) on > 30% regression
//! ```
//!
//! The baseline stores the *event count* (deterministic) and the
//! events/sec observed on the recording machine (hardware-dependent —
//! hence the wide 30% gate, which catches algorithmic regressions, not
//! machine noise). `--check` first re-verifies the event count: a changed
//! count means the engine did different work, which is a correctness
//! signal, not a perf signal, and fails fast.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use lasmq_campaign::{SchedulerKind, SimSetup};
use lasmq_workload::{FacebookTrace, ScaleTrace};

/// Fractional throughput drop vs the baseline that fails `--check`.
const REGRESSION_GATE: f64 = 0.30;

/// Default measurement iterations; the best run is kept (noise shrinks
/// the others, never inflates the best).
const DEFAULT_ITERATIONS: usize = 3;

const USAGE: &str = "\
perf-smoke: Facebook-scale engine throughput smoke check

USAGE:
    perf-smoke [--trace NAME] [--jobs N] [--seed S] [--iters N] [--emit FILE | --check FILE]

OPTIONS:
    --trace NAME    workload: 'facebook' (default; the paper's trace on a
                    flat 100-container pool) or 'scale' (the million-job
                    heavy-tailed trace on a 1,000-node x 8-container
                    cluster)
    --jobs N        trace length in jobs (default: 24443 for facebook,
                    1000000 for scale)
    --seed S        trace generator seed (default 0)
    --iters N       measurement iterations, best kept (default 3; CI uses 1
                    for the long scale-trace gate)
    --emit FILE     write the measurement as a JSON baseline
    --check FILE    compare against FILE; exit 1 on > 30% regression
    --help          print this help
";

#[derive(Clone, Copy, PartialEq)]
enum TraceKind {
    Facebook,
    Scale,
}

impl TraceKind {
    fn bench_name(self) -> &'static str {
        match self {
            TraceKind::Facebook => "facebook_trace_las_mq",
            TraceKind::Scale => "scale_trace_las_mq",
        }
    }

    fn default_jobs(self) -> usize {
        match self {
            TraceKind::Facebook => lasmq_workload::facebook::FACEBOOK_JOB_COUNT,
            TraceKind::Scale => lasmq_workload::scale::SCALE_JOB_COUNT,
        }
    }
}

struct Args {
    trace: TraceKind,
    jobs: Option<usize>,
    seed: u64,
    iters: usize,
    emit: Option<String>,
    check: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        trace: TraceKind::Facebook,
        jobs: None,
        seed: 0,
        iters: DEFAULT_ITERATIONS,
        emit: None,
        check: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "facebook" => TraceKind::Facebook,
                    "scale" => TraceKind::Scale,
                    other => return Err(format!("--trace: unknown trace '{other}'")),
                }
            }
            "--jobs" => {
                args.jobs = Some(
                    value("--jobs")?
                        .parse()
                        .map_err(|e| format!("--jobs: {e}"))?,
                )
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--iters" => {
                args.iters = value("--iters")?
                    .parse()
                    .map_err(|e| format!("--iters: {e}"))?;
                if args.iters == 0 {
                    return Err("--iters must be at least 1".into());
                }
            }
            "--emit" => args.emit = Some(value("--emit")?),
            "--check" => args.check = Some(value("--check")?),
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.emit.is_some() && args.check.is_some() {
        return Err("--emit and --check are mutually exclusive".into());
    }
    Ok(args)
}

struct Measurement {
    trace: TraceKind,
    jobs: usize,
    seed: u64,
    events: u64,
    best_secs: f64,
}

impl Measurement {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.best_secs
    }

    fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"bench\": \"{}\",", self.trace.bench_name());
        let _ = writeln!(s, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"events\": {},", self.events);
        let _ = writeln!(s, "  \"wall_secs\": {:.3},", self.best_secs);
        let _ = writeln!(s, "  \"events_per_sec\": {:.0}", self.events_per_sec());
        let _ = writeln!(s, "}}");
        s
    }
}

fn measure(args: &Args, jobs: usize) -> Measurement {
    let (trace, setup) = match args.trace {
        TraceKind::Facebook => (
            FacebookTrace::new().jobs(jobs).seed(args.seed).generate(),
            SimSetup::trace_sim(),
        ),
        TraceKind::Scale => {
            let gen = ScaleTrace::new().jobs(jobs).seed(args.seed);
            let cluster = gen.cluster();
            (
                gen.generate(),
                SimSetup::scale_sim(cluster.nodes(), cluster.containers_per_node()),
            )
        }
    };
    let kind = SchedulerKind::las_mq_simulations();

    let iters = args.iters;
    let mut best_secs = f64::INFINITY;
    let mut events = 0;
    for i in 0..iters {
        let trace = trace.clone();
        let start = Instant::now();
        let report = setup.run(trace, &kind);
        let secs = start.elapsed().as_secs_f64();
        assert!(report.all_completed(), "trace run left jobs unfinished");
        events = report.stats().events_processed;
        best_secs = best_secs.min(secs);
        eprintln!(
            "  iter {}/{iters}: {secs:.2}s, {:.0} events/s ({} passes)",
            i + 1,
            events as f64 / secs,
            report.stats().scheduling_passes
        );
    }
    Measurement {
        trace: args.trace,
        jobs,
        seed: args.seed,
        events,
        best_secs,
    }
}

fn baseline_field(json: &str, key: &str) -> Option<f64> {
    // The baseline is machine-written flat JSON; a line scan keeps this
    // binary free of a serde dependency.
    let needle = format!("\"{key}\":");
    json.lines().find_map(|l| {
        l.trim()
            .strip_prefix(&needle)?
            .trim()
            .trim_end_matches(',')
            .parse()
            .ok()
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let jobs = args.jobs.unwrap_or_else(|| args.trace.default_jobs());
    eprintln!(
        "perf-smoke: {} {} jobs under LAS_MQ (seed {})",
        jobs,
        args.trace.bench_name(),
        args.seed
    );
    let m = measure(&args, jobs);
    println!(
        "{}: {} events in {:.2}s = {:.0} events/s",
        args.trace.bench_name(),
        m.events,
        m.best_secs,
        m.events_per_sec()
    );

    if let Some(path) = &args.emit {
        if let Err(e) = std::fs::write(path, m.to_json()) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("baseline written to {path}");
    }

    if let Some(path) = &args.check {
        let json = match std::fs::read_to_string(path) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("error: reading baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let (Some(base_jobs), Some(base_events), Some(base_rate)) = (
            baseline_field(&json, "jobs"),
            baseline_field(&json, "events"),
            baseline_field(&json, "events_per_sec"),
        ) else {
            eprintln!("error: baseline {path} is missing jobs/events/events_per_sec");
            return ExitCode::FAILURE;
        };
        if let Some(name) = json
            .lines()
            .find_map(|l| l.trim().strip_prefix("\"bench\":"))
        {
            let name = name.trim().trim_end_matches(',').trim_matches('"');
            if name != m.trace.bench_name() {
                eprintln!(
                    "error: baseline {path} records bench '{name}' but this run measured \
                     '{}' (pass --trace)",
                    m.trace.bench_name()
                );
                return ExitCode::FAILURE;
            }
        }
        if base_jobs as usize != m.jobs {
            eprintln!(
                "error: baseline was recorded at {} jobs but this run used {} (pass --jobs)",
                base_jobs as usize, m.jobs
            );
            return ExitCode::FAILURE;
        }
        if base_events as u64 != m.events {
            eprintln!(
                "error: event count changed: baseline {} vs measured {} — the engine \
                 did different work; re-record the baseline only if that is intended",
                base_events as u64, m.events
            );
            return ExitCode::FAILURE;
        }
        let ratio = m.events_per_sec() / base_rate;
        println!(
            "baseline {base_rate:.0} events/s, measured {:.0} events/s ({:+.1}%)",
            m.events_per_sec(),
            (ratio - 1.0) * 100.0
        );
        if ratio < 1.0 - REGRESSION_GATE {
            eprintln!(
                "error: throughput regressed {:.1}% (> {:.0}% gate)",
                (1.0 - ratio) * 100.0,
                REGRESSION_GATE * 100.0
            );
            return ExitCode::FAILURE;
        }
        println!("within the {:.0}% regression gate", REGRESSION_GATE * 100.0);
    }

    ExitCode::SUCCESS
}
