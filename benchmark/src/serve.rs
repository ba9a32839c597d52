//! The two daemon workloads, driven over one pipelined TCP connection
//! against an in-process `Daemon::spawn`:
//!
//! * `serve_steady` — **open loop** at a fixed request rate well below
//!   saturation; latency is timed from each request's *due* time, so a stall
//!   is charged to every request it delays.
//! * `serve_burst` — **closed loop** with a fixed window of outstanding
//!   submissions; measures the request path's saturated throughput without
//!   measuring a backlog.

use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use lasmq_campaign::{LatencySummary, SchedulerKind, SimSetup};
use lasmq_serve::protocol::to_line;
use lasmq_serve::{
    Daemon, DaemonHandle, MetricsResponse, Pacing, Request, ServeConfig, StatusResponse,
    SubmitResponse,
};
use lasmq_workload::FacebookTrace;

use crate::metrics::{RepFigures, RunResult};
use crate::spans::{CallLog, SpanLog};
use crate::stats::percentile_sorted;
use crate::Config;

/// Offered request rate of `serve_steady`, requests per second.
pub const STEADY_RATE: f64 = 5_000.0;
/// Every tenth steady request is a read verb (`status` / `job <id>`).
const READ_EVERY: usize = 10;
/// Outstanding submissions of `serve_burst`.
pub const BURST_WINDOW: usize = 256;
/// Distinct pre-rendered submissions `serve_burst` cycles through; a rep
/// lasts a fixed time, so how many it sends depends on the daemon's speed.
const BURST_POOL: usize = 20_000;
/// Simulated seconds per wall second: high enough that the simulated
/// cluster stays ~1 % loaded and the engine is never the bottleneck of
/// `serve_steady`.
const COMPRESSION: f64 = 100_000.0;
/// Depth-1 round trips per verb in the traced pass.
const RTT_SAMPLES: usize = 2_000;
/// ... or as many as fit into this time: at the baseline a depth-1 round trip
/// waits out a 40 ms delayed ACK (README.md, "What the baseline shows").
const RTT_BUDGET: Duration = Duration::from_secs(2);
/// A rep whose generator ran later than this at p90 contaminated the bounded
/// percentiles (`op_p50_us`, `op_p90_us`) and is invalid.
const MAX_LATE_P90_US: f64 = 100.0;
/// A rep whose generator ran later than this at p99 is reported, but flagged:
/// its p99-and-above figures (per-layer only) measure the generator.
const SUSPECT_LATE_P99_US: f64 = 1_000.0;
/// A rep that achieved less than this share of the offered rate is invalid.
const MIN_ACHIEVED_SHARE: f64 = 0.99;
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(10);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// Which daemon workload to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Open loop at this request rate.
    Steady {
        /// Offered requests per second ([`STEADY_RATE`] unless overridden to
        /// demonstrate the invalid-rep guards).
        rate: f64,
    },
    /// Closed loop with [`BURST_WINDOW`] outstanding submissions.
    Burst,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    Submit,
    Read,
}

/// Pre-rendered request lines: the send loops do no JSON work.
struct Requests {
    lines: Vec<String>,
    verbs: Vec<Verb>,
    submits: usize,
}

fn submit_lines(n: usize, seed: u64) -> Vec<String> {
    FacebookTrace::new()
        .jobs(n)
        .seed(seed)
        .generate()
        .iter()
        .map(|spec| {
            format!(
                "{{\"op\":\"submit\",\"job\":{}}}\n",
                serde_json::to_string(spec).expect("job specs always serialize")
            )
        })
        .collect()
}

fn render_requests(total: usize, with_reads: bool, seed: u64) -> Requests {
    let reads = if with_reads { total / READ_EVERY } else { 0 };
    let mut submit = submit_lines(total - reads, seed).into_iter();
    let mut lines = Vec::with_capacity(total);
    let mut verbs = Vec::with_capacity(total);
    let mut submitted = 0usize;
    for i in 0..total {
        if with_reads && i % READ_EVERY == READ_EVERY - 1 {
            // Reads alternate between the two query verbs; `job` asks about
            // an id that is certainly accepted by the time it is handled
            // (requests on one connection are handled in order).
            lines.push(if (i / READ_EVERY).is_multiple_of(2) {
                "{\"op\":\"status\"}\n".to_string()
            } else {
                format!("{{\"op\":\"job\",\"id\":{}}}\n", submitted / 2)
            });
            verbs.push(Verb::Read);
        } else {
            lines.push(submit.next().expect("one submit line per non-read slot"));
            verbs.push(Verb::Submit);
            submitted += 1;
        }
    }
    Requests {
        lines,
        verbs,
        submits: submitted,
    }
}

fn spawn_daemon() -> io::Result<DaemonHandle> {
    Daemon::spawn(ServeConfig {
        addr: "127.0.0.1:0".into(),
        kind: SchedulerKind::las_mq_simulations(),
        setup: SimSetup::trace_sim(),
        pacing: Pacing::Wall {
            compression: COMPRESSION,
        },
        ..ServeConfig::default()
    })
    .map_err(|e| io::Error::other(e.to_string()))
}

fn stop_daemon(daemon: DaemonHandle) -> io::Result<()> {
    daemon.request_stop();
    daemon
        .join()
        .map(drop)
        .map_err(|e| io::Error::other(e.to_string()))
}

/// A depth-1 client: one request, one response.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            stream,
            reader,
            line: String::new(),
        })
    }

    fn request(&mut self, line: &str) -> io::Result<&str> {
        self.stream.write_all(line.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(self.line.trim_end())
    }

    /// Polls `status` until every accepted job has finished; returns the
    /// wait and the final status.
    fn drain(&mut self) -> io::Result<(f64, StatusResponse)> {
        let start = Instant::now();
        loop {
            let status: StatusResponse =
                serde_json::from_str(self.request("{\"op\":\"status\"}\n")?)
                    .map_err(|e| io::Error::other(format!("bad status response: {e}")))?;
            if status.finished >= status.jobs || start.elapsed() > DRAIN_TIMEOUT {
                return Ok((start.elapsed().as_secs_f64(), status));
            }
            thread::sleep(Duration::from_millis(2));
        }
    }

    fn metrics(&mut self) -> io::Result<MetricsResponse> {
        serde_json::from_str(self.request("{\"op\":\"metrics\"}\n")?)
            .map_err(|e| io::Error::other(format!("bad metrics response: {e}")))
    }
}

/// How one response line classifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ack {
    Ok,
    Deferred,
    Error,
}

/// Classifies a response without a JSON parse; an accepted submit must carry
/// the next dense job id.
fn classify(line: &str, verb: Verb, next_id: &mut u64) -> Ack {
    if !line.contains("\"ok\":true") {
        return if line.contains("\"deferred\":true") {
            Ack::Deferred
        } else {
            Ack::Error
        };
    }
    if verb == Verb::Submit {
        let id = line.split("\"id\":").nth(1).and_then(|rest| {
            rest.trim_end_matches(|c: char| !c.is_ascii_digit())
                .parse::<u64>()
                .ok()
        });
        if id != Some(*next_id) {
            return Ack::Error;
        }
        *next_id += 1;
    }
    Ack::Ok
}

/// One measured rep of either daemon workload.
#[derive(Debug, Default)]
struct Rep {
    setup_s: f64,
    /// Latency of every OK request, µs (due→response for steady,
    /// send→response for burst), ascending.
    all_us: Vec<f64>,
    /// The accepted submits among them, ascending.
    submit_us: Vec<f64>,
    /// The OK reads among them, ascending.
    query_us: Vec<f64>,
    /// How late the generator sent each request against its schedule, µs,
    /// ascending (empty for burst).
    late_us: Vec<f64>,
    requests: usize,
    accepted: u64,
    deferred: u64,
    errors: u64,
    /// Read verbs answered with anything but `ok`.
    bad_reads: u64,
    unanswered: u64,
    backlog_max: usize,
    /// OK responses per second between the first send and the last response.
    ok_per_s: f64,
    achieved_share: f64,
    drain_s: f64,
    decision: Option<LatencySummary>,
    /// Why the rep must not be reported, if it must not.
    invalid: Option<String>,
    /// Start and end of the measured loop.
    span: Option<(Instant, Instant)>,
}

impl Rep {
    fn failed(&self) -> u64 {
        self.deferred + self.errors + self.unanswered + self.bad_reads
    }
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Open loop: request `i` is due `i / rate` seconds after the start and is
/// sent then whether or not earlier responses are back. A reader thread
/// stamps each response; both sides' stamps are joined afterwards.
fn steady_rep(requests: &Requests, rate: f64, addr: SocketAddr) -> io::Result<Rep> {
    let n = requests.lines.len();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let read_half = stream.try_clone()?;
    read_half.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
    let acked = Arc::new(AtomicUsize::new(0));

    let start = Instant::now();
    let reader = {
        let acked = Arc::clone(&acked);
        let verbs = requests.verbs.clone();
        thread::spawn(move || {
            let mut reader = BufReader::new(read_half);
            let mut line = String::new();
            let mut stamps: Vec<(u64, Ack)> = Vec::with_capacity(verbs.len());
            let mut next_id = 0u64;
            for verb in verbs {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let at = start.elapsed().as_nanos() as u64;
                stamps.push((at, classify(&line, verb, &mut next_id)));
                acked.fetch_add(1, Ordering::Relaxed);
            }
            stamps
        })
    };

    let mut sent_ns: Vec<u64> = Vec::with_capacity(n);
    let mut backlog: Vec<usize> = Vec::with_capacity(n);
    for (i, line) in requests.lines.iter().enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        // Yield-spin rather than sleep: a 200 µs period is shorter than this
        // class of host's sleep overshoot (p50 ~70 µs, p99 ~1 ms), which would
        // make the generator, not the daemon, the source of the jitter.
        while Instant::now() < due {
            thread::yield_now();
        }
        sent_ns.push(start.elapsed().as_nanos() as u64);
        stream.write_all(line.as_bytes())?;
        backlog.push(i + 1 - acked.load(Ordering::Relaxed));
    }
    let stamps = reader
        .join()
        .map_err(|_| io::Error::other("reader thread panicked"))?;

    let mut rep = Rep {
        requests: n,
        unanswered: (n - stamps.len()) as u64,
        backlog_max: backlog.iter().copied().max().unwrap_or(0),
        ..Rep::default()
    };
    let mut all = Vec::with_capacity(n);
    let mut submit = Vec::with_capacity(requests.submits);
    let mut query = Vec::new();
    for (i, &(at, ack)) in stamps.iter().enumerate() {
        let due_ns = (i as f64 / rate * 1e9) as u64;
        let us = at.saturating_sub(due_ns) as f64 / 1e3;
        match (requests.verbs[i], ack) {
            (Verb::Submit, Ack::Ok) => {
                rep.accepted += 1;
                submit.push(us);
                all.push(us);
            }
            (Verb::Read, Ack::Ok) => {
                query.push(us);
                all.push(us);
            }
            (Verb::Submit, Ack::Deferred) => rep.deferred += 1,
            (Verb::Submit, Ack::Error) => rep.errors += 1,
            (Verb::Read, _) => rep.bad_reads += 1,
        }
    }
    rep.late_us = sorted(
        sent_ns
            .iter()
            .enumerate()
            .map(|(i, &s)| s.saturating_sub((i as f64 / rate * 1e9) as u64) as f64 / 1e3)
            .collect(),
    );
    // Responses per second over the central 80 % of the rep: the edges carry
    // connection start-up and the last response's delayed-ACK wait.
    let answered = stamps.len();
    if answered < n / 2 {
        return Err(io::Error::other(format!(
            "daemon answered only {answered} of {n} requests"
        )));
    }
    let (lo, hi) = (answered / 10, answered - answered / 10 - 1);
    let central_s = stamps[hi].0.saturating_sub(stamps[lo].0) as f64 / 1e9;
    let ack_rate = (hi - lo) as f64 / central_s;
    rep.achieved_share = ack_rate / rate;
    rep.ok_per_s = ack_rate * all.len() as f64 / answered as f64;
    rep.all_us = sorted(all);
    rep.submit_us = sorted(submit);
    rep.query_us = sorted(query);

    // A backlog still growing at the end means the rate is past saturation
    // and every latency above is a queue length, not a service time.
    let quarter = n / 4;
    let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len().max(1) as f64;
    let (q3, q4) = (
        mean(&backlog[2 * quarter..3 * quarter]),
        mean(&backlog[3 * quarter..]),
    );
    if rep.achieved_share < MIN_ACHIEVED_SHARE || q4 > 1.5 * q3 + 32.0 {
        rep.invalid = Some(format!(
            "backlog rising / achieved_rate_share < {MIN_ACHIEVED_SHARE}: achieved {:.3} of {rate}/s, \
             mean backlog {q3:.0} -> {q4:.0} over the last two quarters",
            rep.achieved_share
        ));
    } else if percentile_sorted(&rep.late_us, 90.0) > MAX_LATE_P90_US {
        rep.invalid = Some(format!(
            "generator late: late_p90_us {:.0} > {MAX_LATE_P90_US}",
            percentile_sorted(&rep.late_us, 90.0)
        ));
    } else if percentile_sorted(&rep.late_us, 99.0) > SUSPECT_LATE_P99_US {
        // Typically a host stall of tens of ms: 1 % of the requests went out
        // late. The median and p90 are untouched; the tails are not.
        eprintln!(
            "suspect: generator late_p99_us {:.0} > {SUSPECT_LATE_P99_US}: this rep's p99 and \
             above measure the generator",
            percentile_sorted(&rep.late_us, 99.0)
        );
    }
    rep.span = Some((start, Instant::now()));
    Ok(rep)
}

/// Closed loop on one thread: keep [`BURST_WINDOW`] submissions outstanding.
/// Each turn writes, in one call, as many requests as the window has room
/// for, blocks for one ack, then takes every further ack already buffered —
/// so acks that arrive together release their sends together, as a
/// sender/reader thread pair would, without the pair's scheduling noise. A
/// rep sends for a fixed time and then collects the acks still owed. The
/// outstanding bytes are bounded by the window, far below the socket
/// buffers, so the blocking write cannot deadlock against unread acks.
fn burst_rep(requests: &Requests, rep_secs: f64, addr: SocketAddr) -> io::Result<Rep> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut rep = Rep {
        backlog_max: BURST_WINDOW,
        ..Rep::default()
    };
    let mut sent_at: Vec<Instant> = Vec::new();
    let mut latencies = Vec::new();
    let mut batch = String::new();
    let mut line = String::new();
    let mut next_id = 0u64;
    let mut answered = 0usize;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(rep_secs);
    'turns: loop {
        batch.clear();
        let now = Instant::now();
        while now < deadline && sent_at.len() - answered < BURST_WINDOW {
            batch.push_str(&requests.lines[sent_at.len() % requests.lines.len()]);
            sent_at.push(now);
        }
        if answered == sent_at.len() {
            break;
        }
        stream.write_all(batch.as_bytes())?;
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break 'turns,
                Ok(_) => {}
            }
            match classify(&line, Verb::Submit, &mut next_id) {
                Ack::Ok => {
                    rep.accepted += 1;
                    latencies.push(sent_at[answered].elapsed().as_nanos() as f64 / 1e3);
                }
                Ack::Deferred => rep.deferred += 1,
                Ack::Error => rep.errors += 1,
            }
            answered += 1;
            if answered == sent_at.len() || !reader.buffer().contains(&b'\n') {
                break;
            }
        }
    }
    let end = Instant::now();
    rep.requests = sent_at.len();
    rep.unanswered = (sent_at.len() - answered) as u64;
    rep.ok_per_s = rep.accepted as f64 / (end - start).as_secs_f64();
    rep.achieved_share = 1.0;
    rep.all_us = sorted(latencies);
    rep.submit_us = rep.all_us.clone();
    rep.span = Some((start, end));
    Ok(rep)
}

/// One full rep: fresh daemon, pre-rendered requests, the measured loop,
/// then drain, the daemon's own metrics, and a clean stop.
fn full_rep(mode: Mode, cfg: &Config, rep_secs: f64) -> io::Result<Rep> {
    let setup_start = Instant::now();
    let daemon = spawn_daemon()?;
    let requests = match mode {
        Mode::Steady { rate } => render_requests((rate * rep_secs) as usize, true, cfg.seed),
        Mode::Burst => render_requests(BURST_POOL, false, cfg.seed),
    };
    let mut control = Client::connect(daemon.addr())?;
    let setup_s = setup_start.elapsed().as_secs_f64();

    let mut rep = match mode {
        Mode::Steady { rate } => steady_rep(&requests, rate, daemon.addr())?,
        Mode::Burst => burst_rep(&requests, rep_secs, daemon.addr())?,
    };
    rep.setup_s = setup_s;
    let (drain_s, status) = control.drain()?;
    rep.drain_s = drain_s;
    if status.finished < status.jobs || status.jobs != rep.accepted {
        rep.errors += 1;
        eprintln!(
            "daemon did not drain: {} of {} jobs finished, {} accepted by the client's count",
            status.finished, status.jobs, rep.accepted
        );
    }
    rep.decision = Some(control.metrics()?.decision);
    drop(control);
    stop_daemon(daemon)?;
    Ok(rep)
}

/// Depth-1 round trips: send one request, wait for its response, repeat —
/// until the requests or [`RTT_BUDGET`] run out.
fn round_trips<'a>(
    client: &mut Client,
    epoch: Instant,
    requests: impl Iterator<Item = &'a str>,
) -> io::Result<CallLog> {
    let mut calls = CallLog::default();
    let deadline = Instant::now() + RTT_BUDGET;
    for request in requests {
        let start = Instant::now();
        if start > deadline {
            break;
        }
        client.request(request)?;
        calls.record(
            (start - epoch).as_nanos() as u64,
            start.elapsed().as_nanos() as u64,
        );
    }
    Ok(calls)
}

fn p(sorted_us: &[f64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        0.0
    } else {
        percentile_sorted(sorted_us, q)
    }
}

/// Runs valid reps until the measuring time is used up. Invalid reps are
/// reported on stderr and replaced, up to a cap; with no valid rep at all
/// the run fails instead of printing a number that measures something else.
fn measured_reps(mode: Mode, cfg: &Config, only_one: bool) -> io::Result<Vec<Rep>> {
    let rep_secs = if cfg.quick {
        2.0
    } else {
        (cfg.seconds / 4.0).max(1.0)
    };
    let started = Instant::now();
    let mut reps = Vec::new();
    let mut invalid = 0;
    let mut last_rep = Duration::ZERO;
    while if only_one {
        reps.is_empty()
    } else {
        cfg.another_rep(reps.len(), started, last_rep)
    } {
        let rep_start = Instant::now();
        let rep = full_rep(mode, cfg, rep_secs)?;
        last_rep = rep_start.elapsed();
        match &rep.invalid {
            Some(why) => {
                eprintln!("invalid: {why}");
                invalid += 1;
                if invalid > 2 {
                    return Err(io::Error::other(format!(
                        "{invalid} invalid reps, {} valid: nothing to report",
                        reps.len()
                    )));
                }
            }
            None => reps.push(rep),
        }
    }
    Ok(reps)
}

/// The untraced run of either daemon workload.
pub fn run(mode: Mode, cfg: &Config) -> io::Result<RunResult> {
    let reps = measured_reps(mode, cfg, false)?;

    let attempted: u64 = reps.iter().map(|r| r.requests as u64).sum();
    let failed: u64 = reps.iter().map(Rep::failed).sum();
    let mut result = RunResult {
        correct: failed == 0,
        attempted,
        failed,
        ..RunResult::default()
    };
    let figures: Vec<RepFigures> = reps
        .iter()
        .map(|r| RepFigures {
            work_per_s: r.ok_per_s,
            op_p50_us: p(&r.all_us, 50.0),
            op_p90_us: p(&r.all_us, 90.0),
            setup_s: r.setup_s,
        })
        .collect();
    result.metrics.set_best_of(&figures);
    for r in &reps {
        eprintln!(
            "{mode:?}: {} requests, {:.0} ok/s, p50 {:.0} p90 {:.0} p99 {:.0} us, \
             late p90 {:.0} p99 {:.0} us, backlog max {}, drain {:.3} s",
            r.requests,
            r.ok_per_s,
            p(&r.all_us, 50.0),
            p(&r.all_us, 90.0),
            p(&r.all_us, 99.0),
            p(&r.late_us, 90.0),
            p(&r.late_us, 99.0),
            r.backlog_max,
            r.drain_s
        );
    }
    Ok(result)
}

/// The traced run: each request-path stage alone and in process, depth-1
/// round trips against an idle daemon, then one rep of the workload itself.
pub fn run_traced(mode: Mode, cfg: &Config, log: &mut SpanLog) -> io::Result<RunResult> {
    let mut result = RunResult::default();

    // Stage costs in process, over the same pre-rendered submit lines.
    let lines = submit_lines(if cfg.quick { 2_000 } else { 20_000 }, cfg.seed);
    let bytes: usize = lines.iter().map(String::len).sum();
    let mut specs = Vec::with_capacity(lines.len());
    let ((), parse_s) = log.time("protocol.parse", None, 0, || {
        for line in &lines {
            match Request::parse(line.trim_end()) {
                Ok(Request::Submit(spec)) => specs.push(*spec),
                other => panic!("pre-rendered submit line did not parse as a submit: {other:?}"),
            }
        }
    });
    let ((), render_s) = log.time("protocol.render", None, 0, || {
        for id in 0..lines.len() as u32 {
            black_box(to_line(&SubmitResponse { ok: true, id }));
        }
    });
    let mut sim =
        SimSetup::trace_sim().build_simulation(Vec::new(), &SchedulerKind::las_mq_simulations());
    let n = specs.len() as f64;
    let ((), submit_s) = log.time("engine.submit", None, 0, || {
        for spec in specs {
            sim.submit(spec).expect("trace jobs fit the trace cluster");
        }
    });
    drop(sim);
    let m = &mut result.metrics;
    m.set("protocol.parse_ns_per_req", parse_s * 1e9 / n);
    m.set("protocol.req_bytes_mean", bytes as f64 / n);
    m.set("protocol.render_ns_per_resp", render_s * 1e9 / n);
    m.set("engine.submit_ns_per_job", submit_s * 1e9 / n);
    result.exact("req_bytes", bytes);

    // Depth-1 round trips: ping is transport plus three thread hops and no
    // job work; submit adds parse + Simulation::submit + render in situ.
    let daemon = spawn_daemon()?;
    let mut client = Client::connect(daemon.addr())?;
    let rtt_start = Instant::now();
    let samples = if cfg.quick { 200 } else { RTT_SAMPLES };
    let ping = round_trips(
        &mut client,
        log.epoch(),
        std::iter::repeat_n("{\"op\":\"ping\"}\n", samples),
    )?;
    let submit = round_trips(
        &mut client,
        log.epoch(),
        lines.iter().take(samples).map(String::as_str),
    )?;
    drop(client);
    stop_daemon(daemon)?;
    let rtt_span = log.record("serve.probe", None, 0, rtt_start, Instant::now());
    log.add_calls("serve.rtt", rtt_span, 0, &ping);
    log.add_calls("serve.rtt", rtt_span, 1, &submit);
    let us = |calls: &CallLog, q: f64| {
        let mut v = calls.durations_ns.clone();
        v.sort_unstable();
        f64::from(percentile_sorted(&v, q)) / 1e3
    };
    let m = &mut result.metrics;
    m.set("serve.ping_rtt_p50_us", us(&ping, 50.0));
    m.set("serve.ping_rtt_p99_us", us(&ping, 99.0));
    m.set("serve.submit_rtt_p50_us", us(&submit, 50.0));
    m.set(
        "serve.submit_minus_ping_us",
        us(&submit, 50.0) - us(&ping, 50.0),
    );

    // One rep of the workload itself, for the counts and tails that only
    // exist under its load.
    let rep = measured_reps(mode, cfg, true)?.remove(0);
    if let Some((start, end)) = rep.span {
        log.record("serve.rep", None, 0, start, end);
    }
    let decision = rep.decision.expect("full reps query the daemon's metrics");
    result.correct = rep.failed() == 0;
    result.attempted = rep.requests as u64;
    result.failed = rep.failed();
    let m = &mut result.metrics;
    m.set("serve.decision_p50_us", decision.p50_us);
    m.set("serve.decision_p99_us", decision.p99_us);
    m.set("serve.decision_count", decision.count as f64);
    m.set("serve.accepted", rep.accepted as f64);
    m.set("serve.deferred", rep.deferred as f64);
    m.set("serve.errors", rep.errors as f64);
    m.set("serve.unanswered", rep.unanswered as f64);
    m.set("serve.backlog_max", rep.backlog_max as f64);
    m.set("serve.achieved_rate_share", rep.achieved_share);
    m.set("loadgen.late_p50_us", p(&rep.late_us, 50.0));
    m.set("loadgen.late_p99_us", p(&rep.late_us, 99.0));
    m.set("loadgen.late_max_us", p(&rep.late_us, 100.0));
    m.set("serve.ack_p50_us", p(&rep.submit_us, 50.0));
    m.set("serve.ack_p99_us", p(&rep.submit_us, 99.0));
    m.set("serve.ack_p999_us", p(&rep.submit_us, 99.9));
    m.set("serve.ack_max_us", p(&rep.submit_us, 100.0));
    m.set("serve.query_p99_us", p(&rep.query_us, 99.0));
    m.set("serve.drain_s", rep.drain_s);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_classify_without_a_json_parse() {
        let mut next = 7;
        assert_eq!(
            classify("{\"ok\":true,\"id\":7}\n", Verb::Submit, &mut next),
            Ack::Ok
        );
        assert_eq!(next, 8);
        // An accepted submit must carry the next dense id.
        assert_eq!(
            classify("{\"ok\":true,\"id\":12}\n", Verb::Submit, &mut next),
            Ack::Error
        );
        assert_eq!(
            classify(
                "{\"ok\":false,\"error\":\"queue full\",\"deferred\":true}\n",
                Verb::Submit,
                &mut next
            ),
            Ack::Deferred
        );
        assert_eq!(
            classify(
                "{\"ok\":false,\"error\":\"unknown job id 3\"}\n",
                Verb::Read,
                &mut next
            ),
            Ack::Error
        );
        assert_eq!(
            classify(
                "{\"ok\":true,\"now_ms\":5,\"jobs\":2}\n",
                Verb::Read,
                &mut next
            ),
            Ack::Ok
        );
        assert_eq!(next, 8);
    }

    #[test]
    fn every_tenth_steady_request_is_a_read() {
        let requests = render_requests(100, true, 3);
        assert_eq!(requests.lines.len(), 100);
        assert_eq!(requests.submits, 90);
        for (i, verb) in requests.verbs.iter().enumerate() {
            assert_eq!(*verb == Verb::Read, i % READ_EVERY == READ_EVERY - 1);
        }
        assert!(requests.lines[9].contains("status"));
        assert!(requests.lines[19].contains("\"op\":\"job\""));
    }
}
