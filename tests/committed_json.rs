//! Every committed JSON file reads through its typed reader and writes
//! back byte for byte, and also round-trips through the untyped `Value`
//! reader. The result cache, the snapshots and the policy artifact all
//! rest on the writer's float text, escapes and key order never moving.

use lasmq::schedulers::LinearPolicy;
use lasmq::serve::ServeSnapshot;
use lasmq::simulator::{SimSnapshot, SimulationReport};
use serde::{Deserialize, Serialize};

const SNAPSHOT_V2: &str = include_str!("../crates/simulator/tests/fixtures/snapshot_v2.json");
const SNAPSHOT_V2_REPORT: &str =
    include_str!("../crates/simulator/tests/fixtures/snapshot_v2.report.json");
const CACHE_ENTRY: &str =
    include_str!("../crates/campaign/tests/fixtures/fd0fa4afe15c69d43b2d3e5c0b8be167.json");
const SERVE_SNAPSHOT_V1: &str =
    include_str!("../crates/serve/tests/fixtures/serve_snapshot_v1.json");
const SERVE_STATUS_V1: &str =
    include_str!("../crates/serve/tests/fixtures/serve_snapshot_v1.status.json");
const POLICY_V1: &str = include_str!("../policies/learned-linear.v1.json");
/// Holds the old scheduler-state payloads as raw-string literals.
const STATE_FIXTURES: &str = include_str!("../crates/schedulers/tests/state_fixtures.rs");

/// Reads `text` (one document, plus the trailing newline some writers
/// add) as a `T`, writes it back and through `Value`, and compares bytes.
fn typed<T: Serialize + Deserialize>(name: &str, text: &str) {
    let json = text.strip_suffix('\n').unwrap_or(text);
    let value: T = serde_json::from_str(json).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(
        serde_json::to_string(&value).unwrap() == json,
        "{name}: the typed writer changed bytes"
    );
    untyped(name, json);
}

fn untyped(name: &str, json: &str) {
    let tree = serde_json::parse_value_str(json).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(
        serde_json::to_string(&tree).unwrap() == json,
        "{name}: the Value writer changed bytes"
    );
}

/// The `r#"{...}"#` literals of a Rust source file.
fn json_literals(source: &str) -> Vec<&str> {
    source
        .split("r#\"")
        .skip(1)
        .filter_map(|rest| rest.split_once("\"#").map(|(literal, _)| literal))
        .filter(|literal| literal.starts_with('{'))
        .collect()
}

#[test]
fn committed_json_rewrites_byte_for_byte() {
    typed::<SimSnapshot>("snapshot_v2.json", SNAPSHOT_V2);
    typed::<SimulationReport>("snapshot_v2.report.json", SNAPSHOT_V2_REPORT);
    typed::<SimulationReport>("cache entry", CACHE_ENTRY);
    typed::<ServeSnapshot>("serve_snapshot_v1.json", SERVE_SNAPSHOT_V1);
    typed::<LinearPolicy>("learned-linear.v1.json", POLICY_V1);
    // The status fixture leaves out the wall-clock `uptime_ms`, so no
    // typed reader takes it; the scheduler-state types are private to
    // their schedulers, whose own tests replay the payloads.
    untyped(
        "serve_snapshot_v1.status.json",
        SERVE_STATUS_V1.strip_suffix('\n').unwrap(),
    );
    let payloads = json_literals(STATE_FIXTURES);
    assert!(payloads.len() >= 5, "state payloads not found");
    for payload in payloads {
        untyped("state payload", payload);
    }
}
