//! Command line: one workload in this process (what the benchmark driver
//! calls), every workload in child processes (what a person calls), or the
//! whole untraced set twice with a comparison (`repeat.sh`).

use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use serde::Value;

use crate::campaign::{self, CacheSide};
use crate::engine::{self, FB_NARROW, SCALE_WIDE, UNIFORM_BATCH};
use crate::golden;
use crate::metrics::{
    peak_rss_mb, render_result_line, MetricDef, RunResult, END_TO_END, PER_LAYER,
};
use crate::serve::{self, Mode, STEADY_RATE};
use crate::spans::SpanLog;
use crate::Config;

/// Every workload, in the order the full run executes them.
pub const WORKLOADS: &[&str] = &[
    "fb_narrow",
    "scale_wide",
    "uniform_batch",
    "zoo_campaign",
    "zoo_warm",
    "serve_steady",
    "serve_burst",
];

const USAGE: &str = "\
lasmq-benchmark: end-to-end and per-layer benchmark of the LAS_MQ reproduction

USAGE:
    benchmark/run.sh [--workload NAME] [--seed S] [--seconds N] [--trace 0|1] [--quick]

OPTIONS:
    --workload NAME   run one workload in this process and print its result line
                      last (default: every workload, each in its own child process)
    --seed S          workload seed; the same seed gives the same inputs (default 0)
    --seconds N       how long each run measures (default: run_seconds of BENCHMARK.json)
    --trace 0|1       0: end-to-end metrics from plain untraced calls (default)
                      1: per-layer metrics from the traced pass; writes trace.json
    --traced          same as --trace 1
    --quick           smoke mode (tiny inputs, one rep); numbers are flagged
                      \"quick\": true and are not a measurement
    --steady-rate R   offered rate of serve_steady in requests/s (default 5000);
                      only for demonstrating the invalid-rep guards
    --repeat          run the full untraced set twice and compare the two against
                      the bounds of BENCHMARK.json (what benchmark/repeat.sh calls)

WORKLOADS:
    fb_narrow scale_wide uniform_batch zoo_campaign zoo_warm serve_steady serve_burst
";

/// `run_seconds` of `BENCHMARK.json`; `--seconds` overrides it.
pub const DEFAULT_SECONDS: f64 = 12.0;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    cfg: Config,
    traced: bool,
    steady_rate: f64,
    repeat: bool,
    trace_file: String,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        cfg: Config {
            seed: 0,
            seconds: DEFAULT_SECONDS,
            quick: false,
        },
        traced: false,
        steady_rate: STEADY_RATE,
        repeat: false,
        trace_file: "trace.json".to_string(),
    };
    let mut it = argv;
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} requires a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload '{name}'"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.cfg.seconds.is_finite() && args.cfg.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            "--traced" => args.traced = true,
            "--quick" => args.cfg.quick = true,
            "--steady-rate" => {
                args.steady_rate = value()?
                    .parse()
                    .map_err(|e| format!("--steady-rate: {e}"))?;
                if !(args.steady_rate.is_finite() && args.steady_rate > 0.0) {
                    return Err("--steady-rate must be positive".into());
                }
            }
            "--repeat" => args.repeat = true,
            // Set by the parent process so traced children do not overwrite
            // each other's span file.
            "--trace-file" => args.trace_file = value()?,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.repeat && args.cfg.quick {
        return Err("--repeat refuses --quick: smoke numbers are not a measurement".into());
    }
    if args.repeat && (args.traced || args.workload.is_some()) {
        return Err("--repeat runs the full untraced set; drop --trace / --workload".into());
    }
    Ok(args)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one workload in this process.
fn run_workload(name: &str, args: &Args) -> io::Result<RunResult> {
    let cfg = &args.cfg;
    let engine_workload = match name {
        "fb_narrow" => Some(FB_NARROW),
        "scale_wide" => Some(SCALE_WIDE),
        "uniform_batch" => Some(UNIFORM_BATCH),
        _ => None,
    };
    let serve_mode = match name {
        "serve_steady" => Some(Mode::Steady {
            rate: args.steady_rate,
        }),
        "serve_burst" => Some(Mode::Burst),
        _ => None,
    };
    let cache_side = if name == "zoo_warm" {
        CacheSide::Warm
    } else {
        CacheSide::Cold
    };

    if !args.traced {
        let mut result = match (engine_workload, serve_mode) {
            (Some(w), _) => engine::run(&w, cfg),
            (None, Some(mode)) => serve::run(mode, cfg)?,
            (None, None) => campaign::run(cache_side, cfg)?,
        };
        result.metrics.set("peak_rss_mb", peak_rss_mb());
        return Ok(result);
    }

    let mut log = SpanLog::new(name, cfg.seed);
    let result = match (engine_workload, serve_mode) {
        (Some(w), _) => engine::run_traced(&w, cfg, &mut log),
        (None, Some(mode)) => serve::run_traced(mode, cfg, &mut log)?,
        (None, None) => campaign::run_traced(cfg, &mut log)?,
    };
    log.write(Path::new(&args.trace_file))?;
    Ok(result)
}

fn table(traced: bool) -> &'static [MetricDef] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Single-workload mode: metrics by name with units, the exact quantities,
/// then the result line last.
fn child_main(name: &str, args: &Args) -> ExitCode {
    let started = Instant::now();
    let mut result = match run_workload(name, args) {
        Ok(result) => result,
        Err(err) => {
            eprintln!("{name}: {err}");
            return ExitCode::FAILURE;
        }
    };
    if !args.cfg.quick {
        result.correct &= golden::check(name, args.cfg.seed, &result.exact);
    }
    let defs = table(args.traced);
    println!(
        "# {name} seed {} trace {} nproc {}{} ({:.1} s)",
        args.cfg.seed,
        u8::from(args.traced),
        nproc(),
        if args.cfg.quick { " QUICK" } else { "" },
        started.elapsed().as_secs_f64()
    );
    for def in defs {
        if let Some(value) = result.metrics.get(def.name) {
            println!("{name:14} {:34} {value:>20.6} {}", def.name, def.unit);
        }
    }
    println!(
        "{name:14} failed/attempted {} / {}",
        result.failed, result.attempted
    );
    let exact: Vec<String> = result
        .exact
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("exact\t{name}\t{}\t{}", args.cfg.seed, exact.join(" "));
    match render_result_line(defs, args.traced, &result, args.cfg.quick) {
        Ok(line) => println!("{line}"),
        Err(err) => {
            eprintln!("{name}: {err}");
            return ExitCode::FAILURE;
        }
    }
    if result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("{name}: output checks FAILED");
        ExitCode::from(2)
    }
}

/// What the parent keeps of one child run.
#[derive(Debug, Clone)]
struct ChildRun {
    workload: &'static str,
    ok: bool,
    exact: String,
    metrics: Vec<(String, f64)>,
}

/// Runs one workload in a child process of its own (so `peak_rss_mb` is per
/// workload), passing its output through.
fn spawn_child(workload: &'static str, args: &Args) -> io::Result<ChildRun> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.arg("--workload")
        .arg(workload)
        .arg("--seed")
        .arg(args.cfg.seed.to_string())
        .arg("--seconds")
        .arg(args.cfg.seconds.to_string())
        .arg("--trace")
        .arg(if args.traced { "1" } else { "0" })
        .arg("--steady-rate")
        .arg(args.steady_rate.to_string())
        .arg("--trace-file")
        .arg(format!("trace.{workload}.json"));
    if args.cfg.quick {
        cmd.arg("--quick");
    }
    let mut child = cmd.stdout(Stdio::piped()).spawn()?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut run = ChildRun {
        workload,
        ok: false,
        exact: String::new(),
        metrics: Vec::new(),
    };
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line?;
        if let Some(rest) = line.strip_prefix("exact\t") {
            run.exact = rest.to_string();
        }
        if !line.starts_with('{') {
            println!("{line}");
        }
        last = line;
    }
    let status = child.wait()?;
    if let Ok(value) = serde_json::parse_value_str(&last) {
        if let Some(metrics) = field(&value, "metrics").and_then(Value::as_object) {
            for (name, entry) in metrics {
                if let Some(v) = field(entry, "value").and_then(number) {
                    run.metrics.push((name.clone(), v));
                }
            }
        }
        run.ok = status.success() && matches!(field(&value, "correct"), Some(Value::Bool(true)));
    }
    Ok(run)
}

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    serde::__get(value.as_object()?, key)
}

fn number(value: &Value) -> Option<f64> {
    <f64 as serde::Deserialize>::from_value(value).ok()
}

/// Runs every workload once, each in its own child process.
fn run_set(args: &Args) -> io::Result<Vec<ChildRun>> {
    WORKLOADS.iter().map(|w| spawn_child(w, args)).collect()
}

/// Full mode: every workload, every metric by name, one verdict.
fn parent_main(args: &Args) -> io::Result<ExitCode> {
    let started = Instant::now();
    let runs = run_set(args)?;
    if args.traced {
        // One span file for the whole run: the children's files, as an array.
        let mut parts = Vec::new();
        for run in &runs {
            let part = format!("trace.{}.json", run.workload);
            if let Ok(text) = std::fs::read_to_string(&part) {
                parts.push(text.trim_end().to_string());
                let _ = std::fs::remove_file(&part);
            }
        }
        std::fs::write(&args.trace_file, format!("[\n{}\n]\n", parts.join(",\n")))?;
        println!("# spans written to {}", args.trace_file);
    }
    let failed: Vec<&str> = runs.iter().filter(|r| !r.ok).map(|r| r.workload).collect();
    println!(
        "# {} workloads in {:.0} s on nproc {}{}: {}",
        runs.len(),
        started.elapsed().as_secs_f64(),
        nproc(),
        if args.cfg.quick {
            " (QUICK: not a measurement)"
        } else {
            ""
        },
        if failed.is_empty() {
            "all output checks passed".to_string()
        } else {
            format!("FAILED: {}", failed.join(" "))
        }
    );
    Ok(if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Direction and regression bound of one end-to-end metric.
struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn load_bounds() -> io::Result<Vec<Bound>> {
    let text = std::fs::read_to_string("BENCHMARK.json")?;
    let bad = |what: &str| io::Error::other(format!("BENCHMARK.json: {what}"));
    let value = serde_json::parse_value_str(&text).map_err(|e| bad(&e.to_string()))?;
    let entries = field(&value, "end_to_end")
        .and_then(Value::as_array)
        .ok_or_else(|| bad("no end_to_end list"))?;
    entries
        .iter()
        .map(|e| {
            Ok(Bound {
                name: field(e, "name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| bad("metric without a name"))?
                    .to_string(),
                higher_is_better: field(e, "better").and_then(Value::as_str) == Some("higher"),
                bound: field(e, "bound")
                    .and_then(number)
                    .ok_or_else(|| bad("metric without a bound"))?,
            })
        })
        .collect()
}

/// Repeat mode: two full untraced sets of the same commit must agree within
/// the benchmark's own bounds, and exactly on every exact quantity.
fn repeat_main(args: &Args) -> io::Result<ExitCode> {
    let started = Instant::now();
    let bounds = load_bounds()?;
    let first = run_set(args)?;
    let second = run_set(args)?;
    let mut breaches = 0;
    println!();
    println!(
        "{:14} {:12} {:>16} {:>16} {:>8} {:>6}",
        "workload", "metric", "first", "second", "worse", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        if !(a.ok && b.ok) {
            println!("{:14} output checks FAILED", a.workload);
            breaches += 1;
        }
        if a.exact != b.exact {
            println!(
                "{:14} exact quantities differ:\n  first:  {}\n  second: {}",
                a.workload, a.exact, b.exact
            );
            breaches += 1;
        }
        for bound in &bounds {
            let get = |r: &ChildRun| {
                r.metrics
                    .iter()
                    .find(|(n, _)| *n == bound.name)
                    .map(|m| m.1)
            };
            let (Some(x), Some(y)) = (get(a), get(b)) else {
                println!("{:14} {:12} missing", a.workload, bound.name);
                breaches += 1;
                continue;
            };
            // How much worse the second set reads than the first, as a share
            // of the first.
            let worse = if bound.higher_is_better {
                (x - y) / x
            } else {
                (y - x) / x
            };
            let breach = worse > bound.bound;
            breaches += usize::from(breach);
            println!(
                "{:14} {:12} {x:>16.4} {y:>16.4} {:>7.1}% {:>5.0}%{}",
                a.workload,
                bound.name,
                worse * 100.0,
                bound.bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    println!(
        "# two sets in {:.0} s on nproc {}: {}",
        started.elapsed().as_secs_f64(),
        nproc(),
        if breaches == 0 {
            "agree within bounds".to_string()
        } else {
            format!("{breaches} breach(es)")
        }
    );
    Ok(if breaches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Entry point of the `lasmq-benchmark` binary.
pub fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match &args.workload {
        Some(name) => return child_main(name, &args),
        None if args.repeat => repeat_main(&args),
        None => parent_main(&args),
    };
    outcome.unwrap_or_else(|err| {
        eprintln!("error: {err}");
        ExitCode::FAILURE
    })
}
