//! `lasmq-serve`: the scheduler daemon's command-line front end.
//!
//! Binds a TCP listener, installs SIGINT/SIGTERM handlers, prints the
//! bound address on stdout (so scripts can scrape ephemeral ports), and
//! serves until shutdown. See `crates/serve/src/lib.rs` and the README's
//! "Running as a service" section for the protocol.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use lasmq_campaign::{SchedulerKind, SimSetup};
use lasmq_serve::{signals, Daemon, Pacing, ServeConfig};
use lasmq_simulator::{ClusterConfig, SimDuration};

const USAGE: &str = "\
lasmq-serve: real-time LAS_MQ scheduler daemon (newline-delimited JSON over TCP)

USAGE:
    lasmq-serve [OPTIONS]

OPTIONS:
    --listen ADDR           listen address (default 127.0.0.1:7171; use :0 for
                            an ephemeral port — the bound address is printed)
    --scheduler NAME        policy: fifo|fair|las|las_mq|sjf|srtf|sjf-est (default las_mq)
    --nodes N               cluster nodes (default 1)
    --containers N          containers per node (default 100)
    --quantum-ms MS         scheduling quantum in milliseconds (default 1000)
    --admission-cap N       cap on concurrently admitted jobs (default: none)
    --queue-cap N           admission backpressure: defer submissions while the
                            job backlog is at or above N (default: none)
    --compression X         sim-seconds per wall-second (default 1000)
    --manual-pacing         advance sim time only on 'advance' requests instead
                            of pacing against the wall clock (deterministic mode)
    --snapshot-path FILE    where snapshots are written (snapshot verb, periodic
                            interval, and the final shutdown snapshot)
    --snapshot-every-secs S also write a snapshot every S wall-seconds
    --resume                restore state from --snapshot-path if present;
                            corrupt or missing snapshots start fresh
    --help                  print this help

PROTOCOL (one JSON object per line; responses in request order):
    {\"op\":\"ping\"} {\"op\":\"submit\",\"job\":{...}} {\"op\":\"status\"} {\"op\":\"metrics\"}
    {\"op\":\"job\",\"id\":N} {\"op\":\"advance\",\"to_ms\":N} {\"op\":\"snapshot\"} {\"op\":\"shutdown\"}
";

struct Args {
    listen: String,
    scheduler: SchedulerKind,
    nodes: u32,
    containers: u32,
    quantum_ms: u64,
    admission_cap: Option<usize>,
    queue_cap: Option<usize>,
    compression: f64,
    manual_pacing: bool,
    snapshot_path: Option<PathBuf>,
    snapshot_every_secs: Option<u64>,
    resume: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:7171".to_string(),
        scheduler: SchedulerKind::las_mq_simulations(),
        nodes: 1,
        containers: 100,
        quantum_ms: 1000,
        admission_cap: None,
        queue_cap: None,
        compression: 1000.0,
        manual_pacing: false,
        snapshot_path: None,
        snapshot_every_secs: None,
        resume: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--scheduler" => {
                args.scheduler = value("--scheduler")?
                    .parse()
                    .map_err(|e| format!("--scheduler: {e}"))?
            }
            "--nodes" => {
                args.nodes = value("--nodes")?
                    .parse()
                    .map_err(|e| format!("--nodes: {e}"))?
            }
            "--containers" => {
                args.containers = value("--containers")?
                    .parse()
                    .map_err(|e| format!("--containers: {e}"))?
            }
            "--quantum-ms" => {
                args.quantum_ms = value("--quantum-ms")?
                    .parse()
                    .map_err(|e| format!("--quantum-ms: {e}"))?
            }
            "--admission-cap" => {
                args.admission_cap = Some(
                    value("--admission-cap")?
                        .parse()
                        .map_err(|e| format!("--admission-cap: {e}"))?,
                )
            }
            "--queue-cap" => {
                args.queue_cap = Some(
                    value("--queue-cap")?
                        .parse()
                        .map_err(|e| format!("--queue-cap: {e}"))?,
                )
            }
            "--compression" => {
                args.compression = value("--compression")?
                    .parse()
                    .map_err(|e| format!("--compression: {e}"))?
            }
            "--manual-pacing" => args.manual_pacing = true,
            "--snapshot-path" => {
                args.snapshot_path = Some(PathBuf::from(value("--snapshot-path")?))
            }
            "--snapshot-every-secs" => {
                args.snapshot_every_secs = Some(
                    value("--snapshot-every-secs")?
                        .parse()
                        .map_err(|e| format!("--snapshot-every-secs: {e}"))?,
                )
            }
            "--resume" => args.resume = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if !(args.compression.is_finite() && args.compression > 0.0) {
        return Err("--compression must be finite and positive".into());
    }
    if args.resume && args.snapshot_path.is_none() {
        return Err("--resume requires --snapshot-path".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let config = ServeConfig {
        addr: args.listen,
        kind: args.scheduler,
        setup: SimSetup::trace_sim()
            .cluster(ClusterConfig::new(args.nodes, args.containers))
            .quantum(SimDuration::from_millis(args.quantum_ms))
            .admission(args.admission_cap),
        queue_cap: args.queue_cap,
        pacing: if args.manual_pacing {
            Pacing::Manual
        } else {
            Pacing::Wall {
                compression: args.compression,
            }
        },
        snapshot_path: args.snapshot_path,
        snapshot_every: args.snapshot_every_secs.map(Duration::from_secs),
        resume: args.resume,
    };

    signals::install();
    let daemon = match Daemon::bind(config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Scraped by scripts (serve-smoke, record-bench) to find ephemeral
    // ports; keep the format stable.
    println!("lasmq-serve listening on {}", daemon.local_addr());

    match daemon.run() {
        Ok(summary) => {
            println!(
                "lasmq-serve: clean shutdown — {} accepted, {} deferred, {} malformed, \
                 {}/{} jobs finished at t={}ms{}",
                summary.accepted,
                summary.deferred,
                summary.malformed,
                summary.finished,
                summary.jobs,
                summary.now.as_millis(),
                match &summary.final_snapshot {
                    Some(path) => format!(", snapshot at {}", path.display()),
                    None => String::new(),
                }
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
