//! The committed result-cache entry: one tiny cell's report, stored under
//! its fingerprint exactly as the campaign executor writes it.
//!
//! A cache directory holds result entries and campaign manifests, nothing
//! else. This pins the entry format: the file's name must still be the
//! cell's fingerprint (so a cache written before a change still hits after
//! it), the file must still load, re-serialize to its own bytes, and match
//! what a fresh simulation of the cell writes today.
//!
//! To re-record after an intended change, delete the old entry and run
//! `cargo test -p lasmq-campaign --test cache_fixture -- --ignored`. A
//! change of simulated bits is intended only together with a
//! `CACHE_SCHEMA_VERSION` bump, which renames the entry.

use std::fs;
use std::path::{Path, PathBuf};

use lasmq_campaign::{ResultCache, RunCell, SchedulerKind, SimSetup, WorkloadSpec};

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");

const RERECORD: &str = "re-record with `cargo test -p lasmq-campaign --test cache_fixture \
     -- --ignored` after deleting the old entry; an intended change of simulated bits \
     also bumps CACHE_SCHEMA_VERSION";

/// LAS_MQ on a 20-job Facebook trace, the smallest cell the paper's
/// figures are built from.
fn fixture_cell() -> RunCell {
    RunCell::new(
        "fixture",
        SchedulerKind::las_mq_simulations(),
        WorkloadSpec::Facebook {
            jobs: 20,
            seed: 11,
            load: None,
        },
        SimSetup::trace_sim(),
    )
}

/// The one `*.json` entry in the fixture directory.
fn committed_entry() -> PathBuf {
    let mut entries: Vec<PathBuf> = fs::read_dir(FIXTURES)
        .expect("fixture directory present")
        .map(|e| e.expect("readable directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    assert_eq!(entries.len(), 1, "expected one cache entry in {FIXTURES}");
    entries.pop().unwrap()
}

#[test]
fn committed_cache_entry_is_hit_and_reproduced_byte_for_byte() {
    let cell = fixture_cell();
    let path = committed_entry();
    let written = fs::read_to_string(&path).expect("fixture readable");

    let key = cell.fingerprint();
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    assert_eq!(stem, key, "the cell's fingerprint moved; {RERECORD}");

    let cache = ResultCache::new(Path::new(FIXTURES));
    let loaded = cache
        .load(&key)
        .unwrap_or_else(|| panic!("the entry no longer loads; {RERECORD}"));
    let reserialized = serde_json::to_string(&loaded).expect("report serializes");
    assert!(
        reserialized == written,
        "the loaded entry re-serializes to different bytes; {RERECORD}"
    );
    let fresh = cell.setup.run(cell.workload.generate(), &cell.scheduler);
    assert!(
        serde_json::to_string(&fresh).expect("report serializes") == written,
        "a fresh run of the cell writes different bytes; {RERECORD}"
    );
}

#[test]
#[ignore = "writes the fixture; run at the commit whose format is to be pinned"]
fn write_cache_fixture() {
    let cell = fixture_cell();
    let report = cell.setup.run(cell.workload.generate(), &cell.scheduler);
    ResultCache::new(Path::new(FIXTURES))
        .store(&cell.fingerprint(), &report)
        .expect("fixture written");
}
