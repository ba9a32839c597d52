//! Per-cell telemetry artifacts on disk.
//!
//! When a campaign runs with a telemetry directory
//! ([`ExecOptions::telemetry_dir`](crate::ExecOptions::telemetry_dir)),
//! every cell whose report carries telemetry gets its own subdirectory
//! named after the (sanitized) cell label, holding:
//!
//! * `samples.csv` — the per-pass time series (queue depths, running and
//!   waiting jobs, container occupancy, utilization),
//! * `decisions.csv` — the typed decision-event log,
//! * `summary.json` — the [`TelemetrySummary`] headline numbers.
//!
//! All three are rendered deterministically from the report, so a warm
//! cache run reproduces them byte-for-byte: the cached report round-trips
//! telemetry losslessly and every float prints shortest-round-trip.
//!
//! Verified campaigns ([`ExecOptions::verify`](crate::ExecOptions::verify))
//! additionally write `invariants.json` — the engine's
//! [`InvariantReport`](lasmq_simulator::InvariantReport) for the cell —
//! without touching the telemetry CSVs, which stay byte-identical whether
//! or not the invariant checker was armed.

use std::io;
use std::path::{Path, PathBuf};

use lasmq_analysis::TelemetrySummary;
use lasmq_simulator::SimulationReport;

use crate::cache::write_atomic;

/// Maps a cell label to a safe single directory name: ASCII alphanumerics,
/// `-` and `_` pass through, everything else (including `/`) becomes `_`.
/// The campaign manifest names its files the same way.
pub fn sanitize_label(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Writes one cell's telemetry artifacts under `root/<sanitized label>/`.
///
/// Returns the cell's artifact directory, or `Ok(None)` without touching
/// the filesystem when the report carries no telemetry. Files are written
/// via a temporary name and renamed into place, so readers never observe a
/// half-written artifact.
///
/// # Errors
///
/// Propagates filesystem errors (unwritable directory, full disk).
pub fn write_cell_artifacts(
    root: &Path,
    label: &str,
    report: &SimulationReport,
) -> io::Result<Option<PathBuf>> {
    let Some(telemetry) = report.telemetry() else {
        return Ok(None);
    };
    let dir = root.join(sanitize_label(label));
    let summary = TelemetrySummary::from_telemetry(telemetry);
    let summary_json =
        serde_json::to_string(&summary).expect("telemetry summaries always serialize");
    write_atomic(&dir.join("samples.csv"), telemetry.samples_csv().as_bytes())?;
    write_atomic(
        &dir.join("decisions.csv"),
        telemetry.decisions_csv().as_bytes(),
    )?;
    write_atomic(&dir.join("summary.json"), summary_json.as_bytes())?;
    Ok(Some(dir))
}

/// Writes one cell's invariant-checker report under
/// `root/<sanitized label>/invariants.json`.
///
/// Returns the artifact path, or `Ok(None)` without touching the
/// filesystem when the report carries no invariant section (the run was
/// not verified — which is different from a verified run with zero
/// violations, whose report is present and clean).
///
/// # Errors
///
/// Propagates filesystem errors (unwritable directory, full disk).
pub fn write_invariant_artifact(
    root: &Path,
    label: &str,
    report: &SimulationReport,
) -> io::Result<Option<PathBuf>> {
    let Some(invariants) = report.invariants() else {
        return Ok(None);
    };
    let dir = root.join(sanitize_label(label));
    let json = serde_json::to_string(invariants).expect("invariant reports always serialize");
    let path = dir.join("invariants.json");
    write_atomic(&path, json.as_bytes())?;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasmq_simulator::{EngineStats, SimTime, Telemetry, TelemetrySample};
    use std::fs;

    fn report_with_telemetry() -> SimulationReport {
        let mut t = Telemetry::new();
        t.push_sample(TelemetrySample {
            at: SimTime::from_secs(1),
            running_jobs: 1,
            waiting_jobs: 0,
            used_containers: 2,
            total_containers: 4,
            queue_depths: vec![1, 0],
        });
        SimulationReport::new("test".into(), vec![], EngineStats::default()).with_telemetry(t)
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lasmq-artifacts-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sanitizes_labels() {
        assert_eq!(sanitize_label("fig3/rep0/LAS_MQ"), "fig3_rep0_LAS_MQ");
        assert_eq!(sanitize_label("plain-label_9"), "plain-label_9");
        assert_eq!(sanitize_label("a b:c"), "a_b_c");
    }

    #[test]
    fn writes_all_three_artifacts() {
        let root = scratch("write");
        let dir = write_cell_artifacts(&root, "fig3/rep0/Case 4", &report_with_telemetry())
            .unwrap()
            .expect("report has telemetry");
        assert_eq!(dir, root.join("fig3_rep0_Case_4"));
        let samples = fs::read_to_string(dir.join("samples.csv")).unwrap();
        assert!(samples.starts_with("t_ms,"), "{samples}");
        assert!(samples.contains("1000,1,0,2,4,0.5,1,0"), "{samples}");
        let decisions = fs::read_to_string(dir.join("decisions.csv")).unwrap();
        assert!(decisions.starts_with("t_ms,event,"), "{decisions}");
        let summary = fs::read_to_string(dir.join("summary.json")).unwrap();
        let parsed: TelemetrySummary = serde_json::from_str(&summary).unwrap();
        assert_eq!(parsed.samples, 1);
        assert_eq!(parsed.peak_queue_depth, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn telemetry_free_report_writes_nothing() {
        let root = scratch("empty");
        let report = SimulationReport::new("test".into(), vec![], EngineStats::default());
        assert!(write_cell_artifacts(&root, "x", &report).unwrap().is_none());
        assert!(!root.exists(), "no directory should be created");
    }

    #[test]
    fn invariant_artifact_written_only_for_verified_reports() {
        use lasmq_simulator::InvariantReport;

        let root = scratch("invariants");
        let plain = SimulationReport::new("test".into(), vec![], EngineStats::default());
        assert!(write_invariant_artifact(&root, "cell", &plain)
            .unwrap()
            .is_none());
        assert!(!root.exists());

        let invariants = InvariantReport {
            checks_run: 7,
            ..InvariantReport::default()
        };
        let verified = plain.with_invariants(invariants);
        let path = write_invariant_artifact(&root, "cell", &verified)
            .unwrap()
            .expect("verified report has an invariant section");
        assert_eq!(path, root.join("cell").join("invariants.json"));
        let parsed: InvariantReport =
            serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(parsed.checks_run, 7);
        assert!(parsed.is_clean());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn rewrites_are_byte_identical() {
        let root = scratch("stable");
        let report = report_with_telemetry();
        let dir = write_cell_artifacts(&root, "cell", &report)
            .unwrap()
            .unwrap();
        let first = fs::read(dir.join("samples.csv")).unwrap();
        write_cell_artifacts(&root, "cell", &report).unwrap();
        assert_eq!(first, fs::read(dir.join("samples.csv")).unwrap());
        let _ = fs::remove_dir_all(&root);
    }
}
