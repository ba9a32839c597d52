//! The committed learned-policy artifact, `policies/learned-linear.v1.json`,
//! is a `POLICY_SCHEMA_VERSION` 1 file that `repro --policy FILE` loads.
//! These tests pin that format: the artifact loads and re-serializes to
//! its exact bytes, every way of corrupting it is refused with a message
//! that says what is wrong, and the loaded policy can schedule.

use lasmq_schedulers::{LearnedScheduler, LinearPolicy, FEATURE_COUNT, POLICY_SCHEMA_VERSION};
use lasmq_simulator::testkit;
use lasmq_simulator::{JobView, SchedContext, Scheduler, Service, SimTime};

const ARTIFACT: &str = include_str!("../../../policies/learned-linear.v1.json");

#[test]
fn the_v1_artifact_loads_and_rewrites_its_exact_bytes() {
    assert_eq!(POLICY_SCHEMA_VERSION, 1);
    let policy = LinearPolicy::from_json(ARTIFACT).expect("the committed artifact loads");
    assert_eq!(policy.schema, 1);
    assert_eq!(policy.weights.len(), FEATURE_COUNT);
    assert_eq!(policy.to_json(), ARTIFACT);
}

#[test]
fn corrupted_copies_of_the_artifact_are_refused() {
    let foreign_schema = ARTIFACT.replacen("\"schema\":1", "\"schema\":2", 1);
    assert_ne!(
        foreign_schema, ARTIFACT,
        "schema field not found to replace"
    );
    let err = LinearPolicy::from_json(&foreign_schema).unwrap_err();
    assert!(err.contains("schema 2"), "{err}");

    let last_comma = ARTIFACT.rfind(',').expect("more than one weight");
    let eleven = format!("{}]}}", &ARTIFACT[..last_comma]);
    let err = LinearPolicy::from_json(&eleven).unwrap_err();
    assert!(err.contains("11 weights"), "{err}");

    let truncated = &ARTIFACT[..ARTIFACT.len() / 2];
    let err = LinearPolicy::from_json(truncated).unwrap_err();
    assert!(err.contains("malformed"), "{err}");
}

#[test]
fn a_scheduler_built_from_the_artifact_allocates() {
    let policy = LinearPolicy::from_json(ARTIFACT).unwrap();
    let mut sched = LearnedScheduler::new(policy);
    let views: Vec<JobView> = (0..4)
        .map(|i| JobView {
            held: i,
            attained: Service::from_container_secs(f64::from(i) * 10.0),
            ..testkit::view(i)
        })
        .collect();
    let plan = sched.allocate(&SchedContext::new(SimTime::from_secs(5), 12, &views));
    assert!(!plan.entries().is_empty());
    let granted: u32 = plan.entries().iter().map(|&(_, n)| n).sum();
    assert!(granted <= 12, "granted {granted} of 12 containers");
}
