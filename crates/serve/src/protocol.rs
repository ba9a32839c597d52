//! The daemon's newline-delimited JSON wire protocol.
//!
//! Each request is one JSON object on one line, tagged by an `"op"`
//! field; each response is one JSON object on one line with an `"ok"`
//! boolean. Responses are written **in request order per connection**, so
//! a pipelining client (the load generator) needs no correlation ids: the
//! *n*-th response line answers the *n*-th request line.
//!
//! | op         | request fields        | success response                  |
//! |------------|-----------------------|-----------------------------------|
//! | `ping`     | —                     | `{"ok":true,"pong":true}`         |
//! | `submit`   | `job`: a job spec     | `{"ok":true,"id":N}`              |
//! | `status`   | —                     | clock, job/queue/container counts |
//! | `metrics`  | —                     | throughput + latency percentiles  |
//! | `job`      | `id`: a job id        | per-job timestamps                |
//! | `advance`  | `to_ms`: sim millis   | `{"ok":true,"now_ms":N}` (manual pacing only) |
//! | `snapshot` | —                     | `{"ok":true,"path":...}`          |
//! | `shutdown` | —                     | `{"ok":true,"stopping":true}`, then the daemon drains and exits |
//!
//! Failures are `{"ok":false,"error":...}`; a deferred admission
//! (backpressure) additionally carries `"deferred":true` so clients can
//! distinguish "retry later" from a malformed request. A request line
//! that is not UTF-8 is a malformed request like any other; one longer
//! than 8 MiB is answered with an error and its connection closed.

use lasmq_simulator::JobSpec;
use serde::codec::{Lexer, Slot};
use serde::{Deserialize, Serialize};

use lasmq_campaign::LatencySummary;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Submit one job for streaming admission.
    Submit(Box<JobSpec>),
    /// Live engine state (clock, queue depths, container usage).
    Status,
    /// Throughput counters and latency percentile digests.
    Metrics,
    /// Timestamps recorded for one job.
    Job(u32),
    /// Advance the simulation clock to `to_ms` (manual pacing only —
    /// the deterministic mode the byte-identity tests drive).
    Advance(u64),
    /// Write a snapshot to the configured path now.
    Snapshot,
    /// Graceful shutdown: final snapshot, then exit.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A human-readable description of what is malformed — returned to
    /// the client as `{"ok":false,"error":...}`.
    pub fn parse(line: &str) -> Result<Request, String> {
        let fields = RequestFields::read(line)?;
        let op = match fields.op.into_inner() {
            None => return Err(missing("op")),
            Some(Ok(op)) => op,
            Some(Err(_)) => return Err("field 'op' must be a string".to_string()),
        };
        match op.as_str() {
            "ping" => Ok(Request::Ping),
            "submit" => match fields.job.into_inner() {
                None => Err(missing("job")),
                Some(Ok(spec)) => Ok(Request::Submit(Box::new(spec))),
                Some(Err(e)) => Err(format!("field 'job' is not a valid job spec: {e}")),
            },
            "status" => Ok(Request::Status),
            "metrics" => Ok(Request::Metrics),
            "job" => match fields.id.into_inner() {
                None => Err(missing("id")),
                Some(Ok(id)) => Ok(Request::Job(id)),
                Some(Err(e)) => Err(format!("field 'id' must be a u32: {e}")),
            },
            "advance" => match fields.to_ms.into_inner() {
                None => Err(missing("to_ms")),
                Some(Ok(to_ms)) => Ok(Request::Advance(to_ms)),
                Some(Err(e)) => Err(format!("field 'to_ms' must be an unsigned integer: {e}")),
            },
            "snapshot" => Ok(Request::Snapshot),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op '{other}'")),
        }
    }
}

fn missing(key: &str) -> String {
    format!("missing field '{key}'")
}

/// The top-level fields any request reads, each at its first occurrence,
/// pulled from the line in one pass: a submit's `job` is read straight
/// into a [`JobSpec`], with no tree in between.
#[derive(Default)]
struct RequestFields {
    op: Slot<String>,
    job: Slot<JobSpec>,
    id: Slot<u32>,
    to_ms: Slot<u64>,
}

impl RequestFields {
    /// Reads the line's object. Malformed JSON anywhere in the line is
    /// reported before anything about its fields.
    fn read(line: &str) -> Result<RequestFields, String> {
        if !line
            .trim_start_matches([' ', '\t', '\n', '\r'])
            .starts_with('{')
        {
            // Not an object: the untyped reader names what it is.
            let value =
                serde_json::parse_value_str(line).map_err(|e| format!("malformed JSON: {e}"))?;
            return Err(format!("expected a JSON object, got {}", value.kind()));
        }
        let mut fields = RequestFields::default();
        Lexer::read_document_with(line, |lex| {
            lex.open_object("request")?;
            let mut more = false;
            while let Some(key) = lex.next_key(&mut more)? {
                match &*key {
                    "op" => lex.fill(&mut fields.op)?,
                    "job" => lex.fill(&mut fields.job)?,
                    "id" => lex.fill(&mut fields.id)?,
                    "to_ms" => lex.fill(&mut fields.to_ms)?,
                    _ => lex.skip_value()?,
                }
            }
            Ok(())
        })
        .map_err(|e| format!("malformed JSON: {e}"))?;
        Ok(fields)
    }
}

/// `{"ok":false,...}` — request failed or was deferred.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Always `false`.
    pub ok: bool,
    /// What went wrong.
    pub error: String,
    /// `true` when this is admission backpressure: the job was *not*
    /// enqueued and the client should retry later.
    #[serde(default)]
    pub deferred: bool,
}

impl ErrorResponse {
    /// A plain failure.
    pub fn new(error: impl Into<String>) -> Self {
        ErrorResponse {
            ok: false,
            error: error.into(),
            deferred: false,
        }
    }

    /// An admission deferral (backpressure).
    pub fn deferred(error: impl Into<String>) -> Self {
        ErrorResponse {
            ok: false,
            error: error.into(),
            deferred: true,
        }
    }

    /// Renders to one response line (without the trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("response serialization cannot fail")
    }
}

/// `{"ok":true,"id":N}` — the job was accepted and assigned a dense id.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubmitResponse {
    /// Always `true`.
    pub ok: bool,
    /// The assigned job id.
    pub id: u32,
}

/// Live engine state answering a `status` request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatusResponse {
    /// Always `true`.
    pub ok: bool,
    /// Current simulated time, milliseconds.
    pub now_ms: u64,
    /// Total jobs known to the engine.
    pub jobs: u64,
    /// Jobs run to completion.
    pub finished: u64,
    /// Jobs admitted and currently running.
    pub running: u64,
    /// Jobs parked in the admission queue.
    pub waiting: u64,
    /// Events still pending in the queue.
    pub pending_events: u64,
    /// Containers currently occupied.
    pub used_containers: u32,
    /// Total container capacity.
    pub total_containers: u32,
    /// Submissions accepted since start (survives restart via snapshot).
    pub accepted: u64,
    /// Submissions deferred by backpressure since start.
    pub deferred: u64,
    /// Scheduling passes run.
    pub passes: u64,
    /// Engine events processed.
    pub events: u64,
    /// Wall-clock milliseconds since this process started serving.
    pub uptime_ms: u64,
}

/// Throughput and latency digest answering a `metrics` request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsResponse {
    /// Always `true`.
    pub ok: bool,
    /// Submissions accepted since start.
    pub accepted: u64,
    /// Submissions deferred by backpressure.
    pub deferred: u64,
    /// Requests rejected as malformed.
    pub malformed: u64,
    /// Wall-clock milliseconds since this process started serving.
    pub uptime_ms: u64,
    /// Accepted submissions per wall-clock second over this process's
    /// uptime.
    pub submissions_per_sec: f64,
    /// Admission-ack latency: wall time from reading a submit line to
    /// writing its response, as seen by the engine thread.
    pub ack: LatencySummary,
    /// Scheduling-decision latency: wall time of each event batch that
    /// ran a scheduling pass.
    pub decision: LatencySummary,
}

/// Per-job timestamps answering a `job` request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobResponse {
    /// Always `true`.
    pub ok: bool,
    /// The job id queried.
    pub id: u32,
    /// Arrival (submission) time, sim milliseconds.
    pub arrival_ms: u64,
    /// Admission time, if admitted yet.
    pub admitted_ms: Option<u64>,
    /// First container allocation time, if any.
    pub first_allocation_ms: Option<u64>,
    /// Completion time, if finished.
    pub finish_ms: Option<u64>,
}

/// `{"ok":true,"now_ms":N}` — an `advance` completed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdvanceResponse {
    /// Always `true`.
    pub ok: bool,
    /// The simulation clock after advancing.
    pub now_ms: u64,
}

/// `{"ok":true,"path":...}` — a snapshot was written.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshotResponse {
    /// Always `true`.
    pub ok: bool,
    /// Where the snapshot landed.
    pub path: String,
}

/// `{"ok":true,"pong":true}` / `{"ok":true,"stopping":true}`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AckResponse {
    /// Always `true`.
    pub ok: bool,
    /// Set on `ping` responses.
    #[serde(default)]
    pub pong: bool,
    /// Set on `shutdown` responses.
    #[serde(default)]
    pub stopping: bool,
}

/// Renders any serializable response to one line (no trailing newline).
pub fn to_line<T: Serialize>(response: &T) -> String {
    serde_json::to_string(response).expect("response serialization cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasmq_simulator::{SimDuration, SimTime, StageKind, StageSpec, TaskSpec};

    #[test]
    fn parses_every_op() {
        assert_eq!(Request::parse(r#"{"op":"ping"}"#), Ok(Request::Ping));
        assert_eq!(Request::parse(r#"{"op":"status"}"#), Ok(Request::Status));
        assert_eq!(Request::parse(r#"{"op":"metrics"}"#), Ok(Request::Metrics));
        assert_eq!(
            Request::parse(r#"{"op":"job","id":7}"#),
            Ok(Request::Job(7))
        );
        assert_eq!(
            Request::parse(r#"{"op":"advance","to_ms":1500}"#),
            Ok(Request::Advance(1500))
        );
        assert_eq!(
            Request::parse(r#"{"op":"snapshot"}"#),
            Ok(Request::Snapshot)
        );
        assert_eq!(
            Request::parse(r#"{"op":"shutdown"}"#),
            Ok(Request::Shutdown)
        );
    }

    #[test]
    fn submit_roundtrips_a_job_spec() {
        let spec = JobSpec::builder()
            .arrival(SimTime::from_secs(3))
            .label("wordcount")
            .stage(StageSpec::uniform(
                StageKind::Map,
                4,
                TaskSpec::new(SimDuration::from_secs(10)),
            ))
            .build();
        let line = format!(
            r#"{{"op":"submit","job":{}}}"#,
            serde_json::to_string(&spec).unwrap()
        );
        match Request::parse(&line) {
            Ok(Request::Submit(parsed)) => assert_eq!(*parsed, spec),
            other => panic!("expected Submit, got {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_described() {
        for (line, needle) in [
            ("not json", "malformed JSON"),
            ("[1,2]", "expected a JSON object"),
            (r#"{"no_op":1}"#, "missing field 'op'"),
            (r#"{"op":"warp"}"#, "unknown op"),
            (r#"{"op":"submit"}"#, "missing field 'job'"),
            (r#"{"op":"submit","job":5}"#, "not a valid job spec"),
            (r#"{"op":"advance"}"#, "missing field 'to_ms'"),
            (r#"{"op":"advance","to_ms":"x"}"#, "unsigned integer"),
        ] {
            let err = Request::parse(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err} missing {needle}");
        }
    }

    #[test]
    fn error_response_lines_are_flat_json() {
        let line = ErrorResponse::deferred("admission queue full").to_line();
        assert!(line.contains(r#""ok":false"#));
        assert!(line.contains(r#""deferred":true"#));
        let back: ErrorResponse = serde_json::from_str(&line).unwrap();
        assert!(back.deferred);
    }
}
