//! `BENCHMARK.json` and the harness must declare the same workloads, metric
//! names, units and measuring time: the driver refuses a run whose result
//! line does not carry exactly the declared metrics.

use lasmq_benchmark::cli::{DEFAULT_SECONDS, WORKLOADS};
use lasmq_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use serde::Value;

fn declared() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repo root");
    serde_json::parse_value_str(&text).expect("BENCHMARK.json is valid JSON")
}

fn get<'a>(value: &'a Value, key: &str) -> &'a Value {
    serde::__get(value.as_object().expect("an object"), key)
        .unwrap_or_else(|| panic!("missing key {key}"))
}

fn names_and_units(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| {
            (
                get(m, "name").as_str().expect("a name").to_string(),
                get(m, "unit").as_str().expect("a unit").to_string(),
            )
        })
        .collect()
}

fn table(defs: &[MetricDef]) -> Vec<(String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string()))
        .collect()
}

#[test]
fn metric_lists_match_the_harness_tables() {
    let declared = declared();
    assert_eq!(
        names_and_units(get(&declared, "end_to_end")),
        table(END_TO_END)
    );
    assert_eq!(
        names_and_units(get(&declared, "per_layer")),
        table(PER_LAYER)
    );
}

#[test]
fn workloads_and_measuring_time_match_the_harness() {
    let declared = declared();
    let workloads: Vec<String> = get(&declared, "workloads")
        .as_array()
        .expect("a list")
        .iter()
        .map(|w| get(w, "name").as_str().expect("a name").to_string())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let seconds = <f64 as serde::Deserialize>::from_value(get(&declared, "run_seconds"))
        .expect("run_seconds is a number");
    assert_eq!(seconds, DEFAULT_SECONDS);
}

#[test]
fn setup_metric_is_declared_as_the_contract_requires() {
    let declared = declared();
    let setup = get(&declared, "end_to_end")
        .as_array()
        .expect("a list")
        .iter()
        .find(|m| get(m, "name").as_str() == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(get(setup, "unit").as_str(), Some("s"));
    assert_eq!(get(setup, "better").as_str(), Some("lower"));
}
