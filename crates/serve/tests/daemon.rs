//! End-to-end daemon tests over real TCP connections.
//!
//! Every test spawns an in-process daemon ([`Daemon::spawn`]) on an
//! ephemeral port and speaks the newline-delimited JSON protocol through
//! a small blocking client. Determinism-sensitive tests use
//! [`Pacing::Manual`], where simulated time moves only on explicit
//! `advance` requests — the mode the kill → restart → drain byte-identity
//! check depends on.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use lasmq_campaign::SimSetup;
use lasmq_serve::{Daemon, Pacing, ServeConfig};
use lasmq_simulator::{ClusterConfig, SimDuration, SimTime, StageKind, StageSpec, TaskSpec};
use lasmq_workload::facebook::FacebookTrace;
use lasmq_workload::puma::PumaWorkload;
use serde::Value;

/// A blocking line-protocol client: one request out, one response in.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn request(&mut self, line: &str) -> Value {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("response line");
        serde_json::parse_value_str(response.trim())
            .unwrap_or_else(|e| panic!("malformed response '{}': {e}", response.trim()))
    }

    fn submit(&mut self, spec: &lasmq_simulator::JobSpec) -> Value {
        let line = format!(
            r#"{{"op":"submit","job":{}}}"#,
            serde_json::to_string(spec).unwrap()
        );
        self.request(&line)
    }

    fn advance(&mut self, to_ms: u64) -> Value {
        self.request(&format!(r#"{{"op":"advance","to_ms":{to_ms}}}"#))
    }

    fn status(&mut self) -> Value {
        self.request(r#"{"op":"status"}"#)
    }
}

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    let entries = value.as_object().expect("response is an object");
    serde::__get(entries, key).unwrap_or_else(|| panic!("response missing field '{key}'"))
}

fn bool_field(value: &Value, key: &str) -> bool {
    match field(value, key) {
        Value::Bool(b) => *b,
        other => panic!("field '{key}' is {}, not bool", other.kind()),
    }
}

fn u64_field(value: &Value, key: &str) -> u64 {
    match field(value, key) {
        Value::UInt(n) => *n,
        other => panic!("field '{key}' is {}, not uint", other.kind()),
    }
}

fn has_field(value: &Value, key: &str) -> bool {
    value
        .as_object()
        .is_some_and(|entries| serde::__get(entries, key).is_some())
}

/// A single-stage job: `tasks` map tasks of `secs` seconds each.
fn job(arrival_secs: u64, label: &str, tasks: u32, secs: u64) -> lasmq_simulator::JobSpec {
    lasmq_simulator::JobSpec::builder()
        .arrival(SimTime::from_secs(arrival_secs))
        .label(label)
        .stage(StageSpec::uniform(
            StageKind::Map,
            tasks,
            TaskSpec::new(SimDuration::from_secs(secs)),
        ))
        .build()
}

fn manual_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        pacing: Pacing::Manual,
        ..ServeConfig::default()
    }
}

fn unique_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lasmq-serve-it-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn submit_status_job_metrics_roundtrip() {
    let handle = Daemon::spawn(manual_config()).unwrap();
    let mut client = Client::connect(handle.addr());

    let pong = client.request(r#"{"op":"ping"}"#);
    assert!(bool_field(&pong, "ok") && bool_field(&pong, "pong"));

    // Dense ids in submission order.
    for (i, label) in ["alpha", "beta", "gamma"].iter().enumerate() {
        let resp = client.submit(&job(i as u64 + 1, label, 2, 5));
        assert!(bool_field(&resp, "ok"), "submit failed: {resp:?}");
        assert_eq!(u64_field(&resp, "id"), i as u64);
    }

    let status = client.status();
    assert_eq!(u64_field(&status, "jobs"), 3);
    assert_eq!(u64_field(&status, "finished"), 0);
    assert_eq!(u64_field(&status, "accepted"), 3);
    assert_eq!(
        u64_field(&status, "now_ms"),
        0,
        "manual pacing: clock still at 0"
    );

    // Advance far enough for all three 2x5s jobs to drain.
    let advanced = client.advance(120_000);
    assert!(bool_field(&advanced, "ok"));
    let status = client.status();
    assert_eq!(u64_field(&status, "finished"), 3);
    assert_eq!(u64_field(&status, "pending_events"), 0);

    // Per-job timestamps.
    let job0 = client.request(r#"{"op":"job","id":0}"#);
    assert!(bool_field(&job0, "ok"));
    assert_eq!(u64_field(&job0, "arrival_ms"), 1000);
    assert!(u64_field(&job0, "finish_ms") > 1000);
    let missing = client.request(r#"{"op":"job","id":99}"#);
    assert!(!bool_field(&missing, "ok"));

    // Metrics reflect the accepted submissions and decision batches.
    let metrics = client.request(r#"{"op":"metrics"}"#);
    assert!(bool_field(&metrics, "ok"));
    assert_eq!(u64_field(&metrics, "accepted"), 3);
    assert_eq!(u64_field(&metrics, "deferred"), 0);
    let decision = field(&metrics, "decision");
    assert!(
        u64_field(decision, "count") > 0,
        "advance ran scheduling passes"
    );
    let ack = field(&metrics, "ack");
    assert_eq!(
        u64_field(ack, "count"),
        3,
        "one ack latency sample per accept"
    );

    handle.request_stop();
    let summary = handle.join().unwrap();
    assert_eq!(summary.accepted, 3);
    assert_eq!(summary.finished, 3);
}

#[test]
fn malformed_lines_get_errors_and_do_not_wedge_the_connection() {
    let handle = Daemon::spawn(manual_config()).unwrap();
    let mut client = Client::connect(handle.addr());

    let err = client.request("this is not json");
    assert!(!bool_field(&err, "ok"));
    assert!(
        !bool_field(&err, "deferred"),
        "malformed is not backpressure"
    );
    let err = client.request(r#"{"op":"warp"}"#);
    assert!(!bool_field(&err, "ok"));

    // The connection still serves valid requests afterwards.
    let pong = client.request(r#"{"op":"ping"}"#);
    assert!(bool_field(&pong, "ok"));

    let metrics = client.request(r#"{"op":"metrics"}"#);
    assert_eq!(u64_field(&metrics, "malformed"), 2);

    handle.request_stop();
    handle.join().unwrap();
}

/// Malformed requests and the exact error each gets: what a client sees
/// must not depend on how the line is parsed.
const MALFORMED: &[(&str, &str)] = &[
    (r#"{"op":"submit"}"#, r#"missing field 'job'"#),
    (
        r#"{"op":"submit","job":1}"#,
        r#"field 'job' is not a valid job spec: expected object while deserializing JobSpec"#,
    ),
    (
        r#"{"op":"submit","job":{}}"#,
        r#"field 'job' is not a valid job spec: missing field 'arrival' of JobSpec"#,
    ),
    (
        r#"{"op":"submit","job":{"arrival":1000,"priority":1,"label":"x","bin":0,"stages":["#,
        r#"malformed JSON: JSON syntax error at byte 80: unexpected end of input"#,
    ),
    (
        r#"{"op":"submit","job":{"arrival":1000,"priority":1,"label":"x","bin":0,"stages":[]}} trailing"#,
        r#"malformed JSON: JSON syntax error at byte 84: trailing characters after JSON document"#,
    ),
    (
        r#"{"op":"submit","job":{"arrival":"soon","priority":300}}"#,
        r#"field 'job' is not a valid job spec: expected unsigned integer while deserializing string"#,
    ),
    (
        r#"{"op":"submit","job":{"priority":300,"arrival":"soon"}}"#,
        r#"field 'job' is not a valid job spec: expected unsigned integer while deserializing string"#,
    ),
    (
        r#"{"op":"submit","job":{"arrival":"soon"},"pad":[1,]}"#,
        r#"malformed JSON: JSON syntax error at byte 49: unexpected character ']'"#,
    ),
    (
        r#"{"op":"submit","job":{"arrival":1000,"priority":1,"label":"x","bin":0,"stages":[{"kind":"Nope","tasks":[]}]}}"#,
        r#"field 'job' is not a valid job spec: unknown unit variant 'Nope' of StageKind"#,
    ),
    (
        r#"{"op":"submit","job":{"arrival":1000,"priority":1,"label":"x","bin":0,"stages":[{"kind":{"Map":1},"tasks":[]}]}}"#,
        r#"field 'job' is not a valid job spec: unknown variant 'Map' of StageKind"#,
    ),
    (
        r#"{"op":"submit","job":{"arrival":1000,"priority":1,"label":"\ud800","bin":0,"stages":[]}}"#,
        r#"malformed JSON: JSON syntax error at byte 65: unpaired high surrogate"#,
    ),
    (
        r#"{"op":"submit","job":{"arrival":1000,"priority":1,"label":"\udc00x","bin":0,"stages":[]}}"#,
        r#"malformed JSON: JSON syntax error at byte 65: unpaired low surrogate"#,
    ),
    (
        r#"{"op":"submit","job":{"arrival":"x","arrival":1000,"priority":1,"label":"x","bin":0,"stages":[]}}"#,
        r#"field 'job' is not a valid job spec: expected unsigned integer while deserializing string"#,
    ),
    (
        r#"{"op":"submit","job":{"arrival":1000,"priority":256,"label":"x","bin":0,"stages":[]}}"#,
        r#"field 'job' is not a valid job spec: integer 256 out of range for u8"#,
    ),
    (
        r#"{"op":"submit","job":{"arrival":-5,"priority":1,"label":"x","bin":0,"stages":[]}}"#,
        r#"field 'job' is not a valid job spec: expected unsigned integer while deserializing integer"#,
    ),
    (
        r#"{"op":"submit","job":{"arrival":1000,"priority":1,"label":"x","bin":0,"stages":[],"extra":{"deep":[1,2,{"x":tru}]}}}"#,
        r#"malformed JSON: JSON syntax error at byte 108: expected 'true'"#,
    ),
    (
        r#"{"op":"submit","job":{"arrival":1000,"priority":1,"label":"x","bin":0}}"#,
        r#"field 'job' is not a valid job spec: missing field 'stages' of JobSpec"#,
    ),
    (
        r#"{"op":"submit","job":{"arrival":1000,"priority":1,"label":"x","bin":0,"stages":[{"kind":"Map","tasks":[{"duration":1.5}]}]}}"#,
        r#"field 'job' is not a valid job spec: expected unsigned integer while deserializing float"#,
    ),
    (r#"{"op":5,"job":{}}"#, r#"field 'op' must be a string"#),
    (r#"{"job":{}}"#, r#"missing field 'op'"#),
    (r#"["op","submit"]"#, r#"expected a JSON object, got array"#),
    (
        r#"{"op":"job","id":-1}"#,
        r#"field 'id' must be a u32: expected unsigned integer while deserializing integer"#,
    ),
    (
        r#"{"op":"advance","to_ms":1.5}"#,
        r#"field 'to_ms' must be an unsigned integer: expected unsigned integer while deserializing float"#,
    ),
    // 2⁶⁴ is refused, not saturated to u64::MAX.
    (
        r#"{"op":"advance","to_ms":18446744073709551616}"#,
        r#"field 'to_ms' must be an unsigned integer: integer out of range for u64"#,
    ),
];

#[test]
fn malformed_requests_get_their_exact_errors() {
    let handle = Daemon::spawn(manual_config()).unwrap();
    let mut client = Client::connect(handle.addr());

    let deep = format!(
        r#"{{"op":"submit","job":{}{}}}"#,
        "[".repeat(130),
        "]".repeat(130)
    );
    let deep_error = "malformed JSON: JSON syntax error at byte 148: JSON nesting too deep";
    for (line, expected) in MALFORMED
        .iter()
        .copied()
        .chain([(deep.as_str(), deep_error)])
    {
        let err = client.request(line);
        assert!(!bool_field(&err, "ok"), "{line} was accepted");
        assert!(
            matches!(field(&err, "error"), Value::Str(why) if why == expected),
            "{line}: got {:?}, want {expected}",
            field(&err, "error")
        );
    }
    // The first of duplicate keys wins, wherever a key repeats.
    let spec = serde_json::to_string(&job(1, "twice", 1, 3)).unwrap();
    let twice = format!(r#"{{"op":"submit","job":{spec},"op":"ping","job":1}}"#);
    assert_eq!(u64_field(&client.request(&twice), "id"), 0);

    handle.request_stop();
    let summary = handle.join().unwrap();
    assert_eq!(
        (summary.accepted, summary.malformed),
        (1, MALFORMED.len() as u64 + 1)
    );
}

#[test]
fn a_character_split_across_a_read_timeout_is_not_torn() {
    let dir = unique_dir("split-char");
    let path = dir.join("state.json");
    let config = ServeConfig {
        snapshot_path: Some(path.clone()),
        ..manual_config()
    };
    let handle = Daemon::spawn(config).unwrap();
    let mut client = Client::connect(handle.addr());

    let spec = serde_json::to_string(&job(1, "café", 1, 3)).unwrap();
    let line = format!(r#"{{"op":"submit","job":{spec}}}"#);
    // Cut inside the two-byte 'é', and pause past the reader's 250 ms
    // socket timeout so it retries with half a character buffered.
    let cut = line.find('é').expect("label is in the line") + 1;
    assert!(!line.is_char_boundary(cut));
    client.writer.write_all(&line.as_bytes()[..cut]).unwrap();
    std::thread::sleep(Duration::from_millis(600));
    client.writer.write_all(&line.as_bytes()[cut..]).unwrap();
    let resp = client.request(""); // ends the line
    assert!(bool_field(&resp, "ok"), "submit failed: {resp:?}");
    assert!(bool_field(&client.request(r#"{"op":"snapshot"}"#), "ok"));
    let written = std::fs::read_to_string(&path).unwrap();
    assert!(written.contains("café"), "the label arrived torn");

    // Bytes that are no character at all are one malformed request, and
    // the connection stays up.
    client.writer.write_all(b"\xC3\x28").unwrap();
    assert!(!bool_field(&client.request(""), "ok"));
    assert!(bool_field(&client.request(r#"{"op":"ping"}"#), "ok"));

    handle.request_stop();
    let summary = handle.join().unwrap();
    assert_eq!((summary.accepted, summary.malformed), (1, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_oversize_line_gets_one_error_and_only_its_connection_is_closed() {
    let handle = Daemon::spawn(manual_config()).unwrap();
    let mut hostile = Client::connect(handle.addr());

    // Twice the daemon's 8 MiB line cap, never terminated. The daemon
    // stops reading at the cap, so the write may fail part-way; the reply
    // is read alongside it.
    let mut sink = hostile.writer.try_clone().unwrap();
    let flood = std::thread::spawn(move || {
        let _ = sink.write_all(&vec![b'x'; 16 << 20]);
    });
    let mut response = String::new();
    hostile.reader.read_line(&mut response).unwrap();
    let err = serde_json::parse_value_str(response.trim()).unwrap();
    assert!(!bool_field(&err, "ok"));
    assert!(matches!(field(&err, "error"), Value::Str(why) if why.contains("exceeds")));
    // Then the daemon hangs up; on unread bytes, so a reset counts.
    let closed = hostile.reader.read_line(&mut String::new());
    assert!(matches!(closed, Ok(0) | Err(_)));
    flood.join().unwrap();

    let mut client = Client::connect(handle.addr());
    assert!(bool_field(&client.submit(&job(1, "after", 1, 3)), "ok"));
    let metrics = client.request(r#"{"op":"metrics"}"#);
    assert_eq!(u64_field(&metrics, "malformed"), 1);

    handle.request_stop();
    handle.join().unwrap();
}

#[test]
fn a_job_with_more_stages_than_stage_ids_is_refused_and_the_connection_serves_on() {
    let handle = Daemon::spawn(manual_config()).unwrap();
    let mut client = Client::connect(handle.addr());

    // One-task stages, one more than a `u16` stage id numbers: a ~4.6 MB
    // line, under the daemon's 8 MiB cap.
    let stage = StageSpec::uniform(StageKind::Map, 1, TaskSpec::new(SimDuration::from_secs(1)));
    let spec = lasmq_simulator::JobSpec::builder()
        .stages(vec![stage; lasmq_simulator::JobSpec::MAX_STAGES + 1])
        .build();
    let err = client.submit(&spec);
    assert!(!bool_field(&err, "ok"));
    assert!(matches!(field(&err, "error"), Value::Str(why) if why.contains("limit of 65536")));

    assert!(bool_field(&client.submit(&job(1, "after", 1, 3)), "ok"));
    client.advance(60_000);
    let status = client.status();
    assert_eq!(
        (u64_field(&status, "jobs"), u64_field(&status, "finished")),
        (1, 1)
    );

    handle.request_stop();
    let summary = handle.join().unwrap();
    assert_eq!(summary.accepted, 1);
}

#[test]
fn backpressure_defers_beyond_queue_cap_without_losing_jobs() {
    let config = ServeConfig {
        setup: SimSetup::trace_sim()
            .cluster(ClusterConfig::new(1, 4))
            .admission(Some(1)),
        queue_cap: Some(3),
        ..manual_config()
    };
    let handle = Daemon::spawn(config).unwrap();
    let mut client = Client::connect(handle.addr());

    // The first three fill the backlog (nothing has run yet under
    // manual pacing), the fourth is explicitly deferred — not dropped,
    // not queued.
    for i in 0..3u64 {
        let resp = client.submit(&job(i + 1, &format!("j{i}"), 1, 5));
        assert!(bool_field(&resp, "ok"), "submit {i} should be accepted");
    }
    let deferred = client.submit(&job(4, "overflow", 1, 5));
    assert!(!bool_field(&deferred, "ok"));
    assert!(
        bool_field(&deferred, "deferred"),
        "queue-full must say deferred"
    );
    assert!(
        field(&deferred, "error")
            .as_str()
            .unwrap()
            .contains("admission queue full"),
        "got {deferred:?}"
    );

    // Deferral is refusal, not loss: exactly the accepted jobs exist.
    let status = client.status();
    assert_eq!(u64_field(&status, "jobs"), 3);
    assert_eq!(u64_field(&status, "accepted"), 3);
    assert_eq!(u64_field(&status, "deferred"), 1);

    // Draining the backlog reopens admission; the client retries the
    // deferred job and every accepted job finishes.
    client.advance(60_000);
    let retry = client.submit(&job(4, "overflow", 1, 5));
    assert!(bool_field(&retry, "ok"), "retry after drain: {retry:?}");
    assert_eq!(u64_field(&retry, "id"), 3);
    client.advance(120_000);
    let status = client.status();
    assert_eq!(u64_field(&status, "jobs"), 4);
    assert_eq!(
        u64_field(&status, "finished"),
        4,
        "no accepted job was lost"
    );

    handle.request_stop();
    let summary = handle.join().unwrap();
    assert_eq!(summary.accepted, 4);
    assert_eq!(summary.deferred, 1);
}

#[test]
fn kill_restart_drain_is_byte_identical_to_uninterrupted_run() {
    let dir = unique_dir("identity");
    let uninterrupted_path = dir.join("uninterrupted.json");
    let restarted_path = dir.join("restarted.json");

    let batch1: Vec<_> = (0..6u64)
        .map(|i| job(i + 1, &format!("a{i}"), 2, 7))
        .collect();
    let batch2: Vec<_> = (0..4u64)
        .map(|i| job(i + 20, &format!("b{i}"), 3, 4))
        .collect();
    const T1: u64 = 12_000;
    const T2: u64 = 300_000;

    let config_for = |path: &PathBuf, resume: bool| ServeConfig {
        snapshot_path: Some(path.clone()),
        resume,
        ..manual_config()
    };

    // Run A: everything in one daemon lifetime.
    {
        let handle = Daemon::spawn(config_for(&uninterrupted_path, false)).unwrap();
        let mut client = Client::connect(handle.addr());
        for spec in &batch1 {
            assert!(bool_field(&client.submit(spec), "ok"));
        }
        client.advance(T1);
        for spec in &batch2 {
            assert!(bool_field(&client.submit(spec), "ok"));
        }
        client.advance(T2);
        handle.request_stop();
        let summary = handle.join().unwrap();
        assert_eq!(summary.finished, 10, "run A drained everything");
        assert_eq!(
            summary.final_snapshot.as_deref(),
            Some(uninterrupted_path.as_path())
        );
    }

    // Run B, first lifetime: batch1, advance to T1, then a kill
    // (request_stop is the in-process SIGTERM seam — same code path the
    // signal handler's latched flag takes).
    {
        let handle = Daemon::spawn(config_for(&restarted_path, false)).unwrap();
        let mut client = Client::connect(handle.addr());
        for spec in &batch1 {
            assert!(bool_field(&client.submit(spec), "ok"));
        }
        client.advance(T1);
        handle.request_stop();
        handle.join().unwrap();
    }

    // Run B, second lifetime: resume, batch2, drain to T2.
    {
        let handle = Daemon::spawn(config_for(&restarted_path, true)).unwrap();
        let mut client = Client::connect(handle.addr());
        let status = client.status();
        assert_eq!(u64_field(&status, "jobs"), 6, "resume restored batch1");
        assert_eq!(
            u64_field(&status, "accepted"),
            6,
            "counters survive restart"
        );
        assert!(
            u64_field(&status, "now_ms") > 0,
            "clock restored, not reset"
        );
        for spec in &batch2 {
            assert!(bool_field(&client.submit(spec), "ok"));
        }
        client.advance(T2);
        handle.request_stop();
        let summary = handle.join().unwrap();
        assert_eq!(summary.finished, 10, "run B drained everything");
    }

    let uninterrupted = std::fs::read(&uninterrupted_path).unwrap();
    let restarted = std::fs::read(&restarted_path).unwrap();
    assert_eq!(
        uninterrupted, restarted,
        "kill → restart → drain must leave byte-identical scheduler state"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_verb_writes_final_snapshot_and_restart_restores_counts() {
    let dir = unique_dir("shutdown");
    let path = dir.join("state.json");

    {
        let config = ServeConfig {
            snapshot_path: Some(path.clone()),
            ..manual_config()
        };
        let handle = Daemon::spawn(config).unwrap();
        let mut client = Client::connect(handle.addr());
        for i in 0..2u64 {
            assert!(bool_field(
                &client.submit(&job(i + 1, "durable", 1, 3)),
                "ok"
            ));
        }
        let ack = client.request(r#"{"op":"shutdown"}"#);
        assert!(bool_field(&ack, "ok") && bool_field(&ack, "stopping"));
        let summary = handle.join().unwrap();
        assert_eq!(summary.final_snapshot.as_deref(), Some(path.as_path()));
        assert_eq!(summary.accepted, 2);
    }
    assert!(path.exists(), "shutdown verb must write the final snapshot");

    {
        let config = ServeConfig {
            snapshot_path: Some(path.clone()),
            resume: true,
            ..manual_config()
        };
        let handle = Daemon::spawn(config).unwrap();
        let mut client = Client::connect(handle.addr());
        let status = client.status();
        assert_eq!(u64_field(&status, "jobs"), 2);
        assert_eq!(u64_field(&status, "accepted"), 2);
        // New submissions continue the dense id sequence.
        let resp = client.submit(&job(9, "post-restart", 1, 3));
        assert_eq!(u64_field(&resp, "id"), 2);
        handle.request_stop();
        handle.join().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshot_degrades_to_fresh_start() {
    let dir = unique_dir("corrupt");
    std::fs::create_dir_all(&dir).unwrap();

    for (name, damage) in [
        ("garbage.json", &b"{not json at all"[..]),
        ("empty.json", &b""[..]),
        ("wrong-shape.json", &br#"{"schema":1,"kind":"LasMq"}"#[..]),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, damage).unwrap();
        let config = ServeConfig {
            snapshot_path: Some(path.clone()),
            resume: true,
            ..manual_config()
        };
        // A damaged snapshot must not kill the daemon: it warns, starts
        // fresh, and serves normally.
        let handle = Daemon::spawn(config).unwrap();
        let mut client = Client::connect(handle.addr());
        let status = client.status();
        assert_eq!(u64_field(&status, "jobs"), 0, "{name}: fresh start");
        assert_eq!(u64_field(&status, "now_ms"), 0);
        let resp = client.submit(&job(1, "fresh", 1, 3));
        assert!(bool_field(&resp, "ok"), "{name}: daemon must be functional");
        handle.request_stop();
        // The shutdown snapshot then repairs the file in place.
        handle.join().unwrap();
        assert!(
            lasmq_serve::load_snapshot(&path).is_ok(),
            "{name}: final snapshot replaced the damaged file"
        );
    }

    // Missing file: resume silently starts fresh (first boot).
    let config = ServeConfig {
        snapshot_path: Some(dir.join("never-written.json")),
        resume: true,
        ..manual_config()
    };
    let handle = Daemon::spawn(config).unwrap();
    let mut client = Client::connect(handle.addr());
    assert_eq!(u64_field(&client.status(), "jobs"), 0);
    handle.request_stop();
    handle.join().unwrap();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wall_pacing_schedules_submissions_without_advance_requests() {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        // ~1000 sim-seconds per wall-millisecond: three 3-second jobs
        // finish within a handful of engine wakeups.
        pacing: Pacing::Wall {
            compression: 1_000_000.0,
        },
        ..ServeConfig::default()
    };
    let handle = Daemon::spawn(config).unwrap();
    let mut client = Client::connect(handle.addr());

    for i in 0..3u64 {
        let resp = client.submit(&job(0, &format!("wall{i}"), 1, 3));
        assert!(bool_field(&resp, "ok"));
    }
    // `advance` is a manual-pacing verb.
    let err = client.advance(10);
    assert!(!bool_field(&err, "ok"));
    assert!(field(&err, "error")
        .as_str()
        .unwrap()
        .contains("--manual-pacing"));

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = client.status();
        if u64_field(&status, "finished") == 3 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "wall-paced daemon never finished the jobs: {status:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let metrics = client.request(r#"{"op":"metrics"}"#);
    assert!(u64_field(field(&metrics, "decision"), "count") > 0);
    assert!(has_field(field(&metrics, "decision"), "p99_us"));

    handle.request_stop();
    let summary = handle.join().unwrap();
    assert_eq!(summary.finished, 3);
}

// The committed `SERVE_SNAPSHOT_SCHEMA` 1 fixture: a daemon paused mid-run,
// written by the commit before job specs stored a stage of identical tasks
// as one task and a count, with the status the daemon went on to report
// once resumed and drained. To write a fixture for a later schema, run
// `write_serve_snapshot_fixture` (ignored by default) at the commit whose
// format is to be pinned.

const SERVE_SNAPSHOT_V1: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/serve_snapshot_v1.json"
);
const SERVE_SNAPSHOT_V1_STATUS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/serve_snapshot_v1.status.json"
);

/// LAS_MQ on the trace-sim environment: Facebook-shaped submissions (one
/// stage of identical tasks each), two PUMA-shaped jobs with skewed stages
/// at 40 s, a second Facebook batch at 59 s so its tasks run at the pause,
/// then a stop at 60 s, which writes the final snapshot to `snapshot`.
fn run_fixture_daemon_to_pause(snapshot: &Path) {
    let config = ServeConfig {
        snapshot_path: Some(snapshot.to_path_buf()),
        ..manual_config()
    };
    let handle = Daemon::spawn(config).unwrap();
    let mut client = Client::connect(handle.addr());
    let batches = [
        FacebookTrace::new().jobs(12).load(0.7).seed(26).generate(),
        PumaWorkload::new().jobs(2).seed(26).generate(),
        FacebookTrace::new().jobs(6).load(0.7).seed(27).generate(),
    ];
    for (batch, advance_to_ms) in batches.iter().zip([40_000, 59_000, 60_000]) {
        for spec in batch {
            assert!(bool_field(&client.submit(spec), "ok"));
        }
        client.advance(advance_to_ms);
    }
    handle.request_stop();
    handle.join().unwrap();
}

/// Resumes a daemon from `snapshot`, drains it, and returns its status
/// without the wall-clock `uptime_ms`.
fn resume_and_drain(snapshot: &Path) -> String {
    let config = ServeConfig {
        snapshot_path: Some(snapshot.to_path_buf()),
        resume: true,
        ..manual_config()
    };
    let handle = Daemon::spawn(config).unwrap();
    let mut client = Client::connect(handle.addr());
    client.advance(20_000_000);
    let Value::Object(entries) = client.status() else {
        panic!("status is not an object")
    };
    handle.request_stop();
    handle.join().unwrap();
    let entries = entries.into_iter().filter(|(k, _)| k != "uptime_ms");
    serde_json::to_string(&Value::Object(entries.collect())).unwrap()
}

/// Counts the serialized stages of `value` with at least two tasks: those
/// whose tasks are all identical, and those whose tasks differ.
fn count_task_lists(value: &Value, identical: &mut usize, skewed: &mut usize) {
    match value {
        Value::Object(entries) => {
            for (key, inner) in entries {
                match (key.as_str(), inner) {
                    ("tasks", Value::Array(tasks)) if tasks.len() >= 2 => {
                        if tasks.windows(2).all(|w| w[0] == w[1]) {
                            *identical += 1;
                        } else {
                            *skewed += 1;
                        }
                    }
                    _ => count_task_lists(inner, identical, skewed),
                }
            }
        }
        Value::Array(items) => {
            for item in items {
                count_task_lists(item, identical, skewed);
            }
        }
        _ => {}
    }
}

/// Today's daemon loads the fixture, writes it back byte for byte and
/// drains it to the recorded status, so both stage forms keep their
/// serialized bytes and the load path reads the old files.
#[test]
fn parent_written_serve_snapshot_loads_rewrites_and_drains_identically() {
    let written = std::fs::read_to_string(SERVE_SNAPSHOT_V1).expect("fixture present");
    let recorded =
        std::fs::read_to_string(SERVE_SNAPSHOT_V1_STATUS).expect("recorded status present");

    // The fixture covers what it claims to: both stage shapes, and tasks
    // running at the pause.
    assert!(written.starts_with(r#"{"schema":1,"#));
    let tree = serde_json::parse_value_str(written.trim_end()).unwrap();
    let (mut identical, mut skewed) = (0, 0);
    count_task_lists(&tree, &mut identical, &mut skewed);
    assert!(identical >= 2, "no wide stage of identical tasks");
    assert!(skewed >= 2, "no skewed PUMA stages");
    assert!(
        written.contains(r#""running":[{"#),
        "nothing running at the pause"
    );

    // It is the run described above, and today's daemon still gets there.
    let dir = unique_dir("fixture");
    let reached = dir.join("reached.json");
    run_fixture_daemon_to_pause(&reached);
    assert!(
        std::fs::read_to_string(&reached).unwrap() == written,
        "the fixture's run no longer stops in the state the fixture holds"
    );

    // Loading and saving again writes the same bytes.
    let snap = lasmq_serve::load_snapshot(Path::new(SERVE_SNAPSHOT_V1)).expect("v1 loads");
    let rewritten = dir.join("rewritten.json");
    lasmq_serve::save_snapshot(&snap, &rewritten).unwrap();
    assert!(
        std::fs::read_to_string(&rewritten).unwrap() == written,
        "a loaded snapshot re-writes differently from the file it came from"
    );

    // A daemon resumed from the file drains to the recorded status.
    let resumed = dir.join("resumed.json");
    std::fs::copy(SERVE_SNAPSHOT_V1, &resumed).unwrap();
    assert_eq!(resume_and_drain(&resumed), recorded.trim_end());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[ignore = "writes the fixture; run at the commit whose format is to be pinned"]
fn write_serve_snapshot_fixture() {
    run_fixture_daemon_to_pause(Path::new(SERVE_SNAPSHOT_V1));
    let dir = unique_dir("write-fixture");
    std::fs::create_dir_all(&dir).unwrap();
    let resumed = dir.join("resumed.json");
    std::fs::copy(SERVE_SNAPSHOT_V1, &resumed).unwrap();
    let status = resume_and_drain(&resumed);
    std::fs::write(SERVE_SNAPSHOT_V1_STATUS, status + "\n").expect("status written");
    let _ = std::fs::remove_dir_all(&dir);
}
