//! The benchmark's metric names and units — the same lists `BENCHMARK.json`
//! declares (`tests/contract.rs` keeps the two in step) — and the result
//! line each run prints.

use std::fmt::Write as _;

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as printed and as cited by later issues.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics a user of the system would see; printed by untraced runs
/// (`--trace 0`). Every workload reports every one of them; README.md says
/// what an "op" and a unit of "work" is on each workload.
pub const END_TO_END: &[MetricDef] = &[
    m("work_per_s", "1/s"),
    m("op_p50_us", "us"),
    m("op_p90_us", "us"),
    m("peak_rss_mb", "MiB"),
    m("setup_s", "s"),
];

/// Metrics of single layers; printed by traced runs (`--trace 1`). A layer a
/// workload does not exercise did no work there and reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    // Simulated outcome of the engine workloads: exact, seed-dependent.
    m("sim.jobs", "count"),
    m("sim.mean_response_s", "s"),
    // Engine workloads: decorator rep + journal replays.
    m("workload.gen_s", "s"),
    m("engine.build_s", "s"),
    m("engine.events", "count"),
    m("engine.passes", "count"),
    m("engine.events_per_pass", "count"),
    m("engine.run_s", "s"),
    m("engine.untraced_run_s", "s"),
    m("trace.overhead_share", "ratio"),
    m("sched.allocate_calls", "count"),
    m("sched.jobs_per_call", "count"),
    m("sched.changed_per_call", "count"),
    m("sched.plan_entries_per_call", "count"),
    m("sched.allocate_busy_s", "s"),
    m("sched.allocate_ns_per_call", "ns"),
    m("sched.hooks_busy_s", "s"),
    m("sched.share", "ratio"),
    m("engine.self_ns_per_event", "ns"),
    m("engine.self_share", "ratio"),
    m("event.replay_ops", "count"),
    m("event.pending_mean", "count"),
    m("event.replay_ns_per_op", "ns"),
    m("event.share_est", "ratio"),
    m("cluster.replay_ops", "count"),
    m("cluster.replay_ns_per_op", "ns"),
    m("cluster.share_est", "ratio"),
    m("engine.residual_ns_per_event", "ns"),
    // Campaign workloads.
    m("campaign.cells", "count"),
    m("campaign.events", "count"),
    m("campaign.cold_wall_s", "s"),
    m("campaign.warm_wall_s", "s"),
    m("campaign.sim_busy_s", "s"),
    m("campaign.overhead_share", "ratio"),
    m("campaign.one_thread_wall_s", "s"),
    m("campaign.parallel_efficiency", "ratio"),
    m("campaign.fingerprint_us_per_cell", "us"),
    m("cache.store_ms_per_cell", "ms"),
    m("cache.load_ms_per_cell", "ms"),
    m("cache.bytes", "B"),
    m("zoo.fifo.run_s", "s"),
    m("zoo.fair.run_s", "s"),
    m("zoo.las.run_s", "s"),
    m("zoo.ps.run_s", "s"),
    m("zoo.learned.run_s", "s"),
    m("zoo.las_mq.run_s", "s"),
    m("zoo.sjf.run_s", "s"),
    m("zoo.srtf.run_s", "s"),
    m("zoo.sjf_est.run_s", "s"),
    m("zoo.fsp.run_s", "s"),
    m("zoo.hfsp.run_s", "s"),
    m("zoo.wfp3.run_s", "s"),
    m("zoo.unicef.run_s", "s"),
    m("zoo.puma.run_s", "s"),
    // Daemon workloads.
    m("protocol.parse_ns_per_req", "ns"),
    m("protocol.req_bytes_mean", "B"),
    m("protocol.render_ns_per_resp", "ns"),
    m("engine.submit_ns_per_job", "ns"),
    m("serve.ping_rtt_p50_us", "us"),
    m("serve.ping_rtt_p99_us", "us"),
    m("serve.submit_rtt_p50_us", "us"),
    m("serve.submit_minus_ping_us", "us"),
    m("serve.decision_p50_us", "us"),
    m("serve.decision_p99_us", "us"),
    m("serve.decision_count", "count"),
    m("serve.accepted", "count"),
    m("serve.deferred", "count"),
    m("serve.errors", "count"),
    m("serve.unanswered", "count"),
    m("serve.backlog_max", "count"),
    m("serve.achieved_rate_share", "ratio"),
    m("loadgen.late_p50_us", "us"),
    m("loadgen.late_p99_us", "us"),
    m("loadgen.late_max_us", "us"),
    m("serve.ack_p50_us", "us"),
    m("serve.ack_p99_us", "us"),
    m("serve.ack_p999_us", "us"),
    m("serve.ack_max_us", "us"),
    m("serve.query_p99_us", "us"),
    m("serve.drain_s", "s"),
];

/// Named values measured by one run, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Measured(Vec<(String, f64)>);

impl Measured {
    /// Sets `name` to `value` (replacing an earlier value).
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    /// The value of `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Every measured `(name, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(n, v)| (n.as_str(), *v))
    }
}

/// The end-to-end figures of one timed rep.
#[derive(Debug, Clone, Copy)]
pub struct RepFigures {
    /// Units of work per second over the rep.
    pub work_per_s: f64,
    /// Median op time within the rep, µs.
    pub op_p50_us: f64,
    /// Nearest-rank 90th-percentile op time within the rep, µs.
    pub op_p90_us: f64,
    /// Everything before the rep's timed part, seconds.
    pub setup_s: f64,
}

impl Measured {
    /// Files a run's end-to-end figures from its reps: for each of
    /// `work_per_s`, `op_p50_us` and `op_p90_us` the **best** rep's value,
    /// for `setup_s` the median. A rep's work is deterministic and a shared
    /// host's interference only ever adds time, so the best rep is the one
    /// the host disturbed least (README.md, "Steadiness").
    pub fn set_best_of(&mut self, reps: &[RepFigures]) {
        let best = |f: fn(&RepFigures) -> f64, pick: fn(f64, f64) -> f64| {
            reps.iter().map(f).reduce(pick).expect("at least one rep")
        };
        self.set("work_per_s", best(|r| r.work_per_s, f64::max));
        self.set("op_p50_us", best(|r| r.op_p50_us, f64::min));
        self.set("op_p90_us", best(|r| r.op_p90_us, f64::min));
        let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
        self.set("setup_s", crate::stats::median(&setups));
    }
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted (jobs simulated, cells run, requests sent).
    pub attempted: u64,
    /// Operations that failed (jobs not completed, cells failed, requests
    /// deferred, errored or unanswered).
    pub failed: u64,
    /// The measured metrics.
    pub metrics: Measured,
    /// Quantities that must repeat exactly for the same seed on any host:
    /// `repeat.sh` compares them verbatim and `golden.tsv` pins them.
    pub exact: Vec<(&'static str, String)>,
}

impl RunResult {
    /// Records an exact quantity.
    pub fn exact(&mut self, key: &'static str, value: impl ToString) {
        self.exact.push((key, value.to_string()));
    }
}

/// Renders the result line: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics` (plus `"quick": true` in smoke mode,
/// which marks the numbers as not a measurement).
///
/// # Errors
///
/// Returns a description if the run measured a name `table` does not
/// declare, an end-to-end metric is missing, or a value is not finite —
/// each is a harness bug that must not reach a result line.
pub fn render_result_line(
    table: &[MetricDef],
    zero_fill: bool,
    result: &RunResult,
    quick: bool,
) -> Result<String, String> {
    for (name, value) in result.metrics.iter() {
        if !table.iter().any(|def| def.name == name) {
            return Err(format!(
                "measured '{name}', which BENCHMARK.json does not declare"
            ));
        }
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
    }
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, ",
        result.correct, result.attempted, result.failed
    );
    if quick {
        out.push_str("\"quick\": true, ");
    }
    out.push_str("\"metrics\": {");
    for (i, def) in table.iter().enumerate() {
        let value = match result.metrics.get(def.name) {
            Some(v) => v,
            None if zero_fill => 0.0,
            None => return Err(format!("metric {} was not measured", def.name)),
        };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            def.name,
            value,
            def.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

/// Peak resident set size of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
