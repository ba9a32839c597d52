//! Regression test for the ISSUE's central campaign guarantee: the same
//! experiment produces **byte-identical CSV output** no matter how many
//! worker threads execute it and no matter whether the results come from
//! live simulation or the on-disk cache.

use std::path::{Path, PathBuf};

use lasmq_campaign::ExecOptions;
use lasmq_experiments::table::TextTable;
use lasmq_experiments::{fig3, fig7, Scale};

/// Renders tables the way the `repro` binary does and returns the raw CSV
/// bytes, concatenated in table order.
fn csv_bytes(tables: &[TextTable], dir: &Path) -> Vec<u8> {
    std::fs::create_dir_all(dir).expect("csv dir");
    let mut all = Vec::new();
    for (i, t) in tables.iter().enumerate() {
        let path = dir.join(format!("table_{i}.csv"));
        t.write_csv(&path).expect("write csv");
        all.extend(std::fs::read(&path).expect("read csv back"));
    }
    all
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lasmq-determinism-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn csv_output_is_identical_across_threads_and_cache_state() {
    let scale = Scale::test();
    let cache = scratch("cache");

    // Serial, no cache: the reference output.
    let serial = fig3::run(&scale, &ExecOptions::with_threads(1).no_cache());
    // 8 workers, cold cache (populates it).
    let parallel = fig3::run(&scale, &ExecOptions::with_threads(8).cache_dir(&cache));
    // 8 workers again, warm cache (every cell replayed from disk).
    let warm = fig3::run(&scale, &ExecOptions::with_threads(8).cache_dir(&cache));

    let reference = csv_bytes(&serial.tables(), &scratch("serial"));
    assert_eq!(
        reference,
        csv_bytes(&parallel.tables(), &scratch("parallel")),
        "8-thread cold-cache CSV differs from serial CSV"
    );
    assert_eq!(
        reference,
        csv_bytes(&warm.tables(), &scratch("warm")),
        "warm-cache CSV differs from serial CSV"
    );
    let _ = std::fs::remove_dir_all(&cache);
}

/// Every file under `root`, as sorted `(relative path, bytes)` pairs.
fn dir_snapshot(root: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in std::fs::read_dir(dir).expect("read artifact dir") {
            let path = entry.expect("artifact dir entry").path();
            if path.is_dir() {
                walk(&path, root, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .expect("path under root")
                    .to_string_lossy()
                    .into_owned();
                out.push((rel, std::fs::read(&path).expect("read artifact")));
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, &mut out);
    out.sort();
    out
}

#[test]
fn telemetry_artifacts_are_identical_across_threads_and_cache_state() {
    let scale = Scale::test();
    let cache = scratch("telemetry-cache");
    let serial_dir = scratch("telemetry-serial");
    let parallel_dir = scratch("telemetry-parallel");
    let warm_dir = scratch("telemetry-warm");

    // Serial, no cache: the reference artifact tree.
    let serial = fig3::run(
        &scale,
        &ExecOptions::with_threads(1)
            .no_cache()
            .telemetry_dir(&serial_dir),
    );
    // 8 workers, cold cache (simulates and populates).
    let parallel = fig3::run(
        &scale,
        &ExecOptions::with_threads(8)
            .cache_dir(&cache)
            .telemetry_dir(&parallel_dir),
    );
    // 8 workers, warm cache (artifacts rebuilt from cached reports).
    let warm = fig3::run(
        &scale,
        &ExecOptions::with_threads(8)
            .cache_dir(&cache)
            .telemetry_dir(&warm_dir),
    );

    let reference = dir_snapshot(&serial_dir);
    assert!(
        !reference.is_empty(),
        "telemetry campaigns must write artifacts"
    );
    assert!(
        reference.iter().any(|(p, _)| p.ends_with("samples.csv")),
        "artifact tree must contain samples.csv files"
    );
    assert_eq!(
        reference,
        dir_snapshot(&parallel_dir),
        "8-thread cold-cache artifacts differ from serial artifacts"
    );
    assert_eq!(
        reference,
        dir_snapshot(&warm_dir),
        "warm-cache artifacts differ from serial artifacts"
    );

    // The derived queue-depth trace table is part of the tables and must
    // stay byte-identical too.
    assert_eq!(serial.tables().len(), 2, "telemetry adds the trace table");
    let reference_csv = csv_bytes(&serial.tables(), &scratch("telemetry-csv-serial"));
    assert_eq!(
        reference_csv,
        csv_bytes(&parallel.tables(), &scratch("telemetry-csv-parallel"))
    );
    assert_eq!(
        reference_csv,
        csv_bytes(&warm.tables(), &scratch("telemetry-csv-warm"))
    );

    for dir in [&cache, &serial_dir, &parallel_dir, &warm_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn trace_driven_experiment_is_identical_across_threads() {
    // fig7 covers the other workload families (Facebook trace + uniform
    // batch) and two different SimSetups in one campaign.
    let scale = Scale::test();
    let serial = fig7::run(&scale, &ExecOptions::with_threads(1).no_cache());
    let parallel = fig7::run(&scale, &ExecOptions::with_threads(8).no_cache());
    assert_eq!(serial.tables().len(), parallel.tables().len());
    assert_eq!(
        csv_bytes(&serial.tables(), &scratch("fig7-serial")),
        csv_bytes(&parallel.tables(), &scratch("fig7-parallel")),
        "fig7 CSV differs between 1 and 8 worker threads"
    );
}
