//! In-memory spans recorded by the harness around its calls into each layer,
//! written to `trace.json` when a traced run ends.
//!
//! Nothing inside `crates/` is instrumented: every span here brackets a call
//! the harness itself makes into a layer's public API.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

use crate::stats::percentile_sorted;

/// How many raw per-call spans are kept per [`CallLog`]; the rest are only
/// aggregated.
pub const RAW_SPANS_KEPT: usize = 1000;

/// One recorded span. Times are nanoseconds since the log's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`engine.run`, `sched.allocate`, ...).
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Which rep of the workload the span belongs to.
    pub rep: u32,
}

/// Durations of one kind of per-call child span (millions per run): every
/// duration is kept for exact percentiles, but only the first
/// [`RAW_SPANS_KEPT`] start/end pairs.
#[derive(Debug, Clone, Default)]
pub struct CallLog {
    /// Every call's duration, ns (saturating at `u32::MAX` ≈ 4.3 s).
    pub durations_ns: Vec<u32>,
    /// `(start, end)` of the first calls, ns since the owning log's epoch.
    pub first: Vec<(u64, u64)>,
    /// Sum of all durations, ns.
    pub total_ns: u64,
}

impl CallLog {
    /// Records one call that started at `start_ns` and took `dur_ns`.
    #[inline]
    pub fn record(&mut self, start_ns: u64, dur_ns: u64) {
        self.total_ns += dur_ns;
        self.durations_ns
            .push(u32::try_from(dur_ns).unwrap_or(u32::MAX));
        if self.first.len() < RAW_SPANS_KEPT {
            self.first.push((start_ns, start_ns + dur_ns));
        }
    }

    /// Number of calls recorded.
    pub fn count(&self) -> u64 {
        self.durations_ns.len() as u64
    }

    /// Total busy time, seconds.
    pub fn busy_secs(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

/// count/sum/p50/p99 of one span name within one rep.
#[derive(Debug, Clone)]
struct Aggregate {
    name: &'static str,
    rep: u32,
    count: u64,
    sum_ns: u64,
    p50_ns: u64,
    p99_ns: u64,
}

/// The span log of one traced workload run.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    workload: String,
    seed: u64,
    spans: Vec<Span>,
    aggregates: Vec<Aggregate>,
}

impl SpanLog {
    /// An empty log whose epoch is now.
    pub fn new(workload: &str, seed: u64) -> Self {
        SpanLog {
            epoch: Instant::now(),
            workload: workload.to_string(),
            seed,
            spans: Vec::new(),
            aggregates: Vec::new(),
        }
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its index (usable as a parent).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        rep: u32,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            rep,
        });
        self.spans.len() - 1
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        rep: u32,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, rep, start, end);
        (out, (end - start).as_secs_f64())
    }

    /// Adds per-call children of `parent`: the first raw spans verbatim, all
    /// of them folded into the per-name aggregate.
    pub fn add_calls(&mut self, name: &'static str, parent: usize, rep: u32, calls: &CallLog) {
        for &(start_ns, end_ns) in &calls.first {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: Some(parent),
                rep,
            });
        }
        if calls.durations_ns.is_empty() {
            return;
        }
        let mut sorted = calls.durations_ns.clone();
        sorted.sort_unstable();
        self.aggregates.push(Aggregate {
            name,
            rep,
            count: calls.count(),
            sum_ns: calls.total_ns,
            p50_ns: u64::from(percentile_sorted(&sorted, 50.0)),
            p99_ns: u64::from(percentile_sorted(&sorted, 99.0)),
        });
    }

    /// A parent span's self time: its duration minus the part of it that the
    /// listed child busy times cover.
    pub fn self_secs(&self, span: usize, child_busy_secs: f64) -> f64 {
        let s = &self.spans[span];
        ((s.end_ns - s.start_ns) as f64 / 1e9 - child_busy_secs).max(0.0)
    }

    /// Writes the log as one JSON document.
    ///
    /// # Errors
    ///
    /// Propagates the file write error.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 1024);
        let _ = write!(
            out,
            "{{\"workload\":\"{}\",\"seed\":{},\"raw_spans_kept_per_name\":{},\"aggregates\":[",
            self.workload, self.seed, RAW_SPANS_KEPT
        );
        for (i, a) in self.aggregates.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"workload\":\"{}\",\"name\":\"{}\",\"rep\":{},\"count\":{},\"sum_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
                if i == 0 { "" } else { "," },
                self.workload, a.name, a.rep, a.count, a.sum_ns, a.p50_ns, a.p99_ns
            );
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n{{\"id\":{},\"name\":\"{}\",\"workload\":\"{}\",\"rep\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                if i == 0 { "" } else { "," },
                i, s.name, self.workload, s.rep, parent, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}
