//! Durable daemon state: a [`SimSnapshot`] plus the daemon's own
//! counters, written atomically and reloaded on `--resume`.
//!
//! The write path serializes to a unique temp file in the destination
//! directory, then `rename`s it into place — a crash mid-write leaves
//! either the old snapshot or the new one, never a torn file. The load
//! path sorts damage into [`SnapshotLoadError`]'s three cases: a missing
//! file is a normal fresh start, an unreadable or invalid file is
//! *reported* and degrades to a fresh start rather than refusing to
//! serve.

use std::fmt;
use std::fs;
use std::io::Write;
use std::path::Path;
use std::process;

use lasmq_campaign::SchedulerKind;
use lasmq_simulator::SimSnapshot;
use serde::{Deserialize, Serialize};

/// Schema version of the daemon's snapshot envelope (the embedded
/// [`SimSnapshot`] carries its own engine schema version on top).
pub const SERVE_SNAPSHOT_SCHEMA: u32 = 1;

/// Everything a restarted daemon needs to continue byte-identically:
/// the paused engine, which policy was driving it, and the admission
/// counters the protocol reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeSnapshot {
    /// Envelope schema version ([`SERVE_SNAPSHOT_SCHEMA`]).
    pub schema: u32,
    /// The scheduling policy the daemon was running.
    pub kind: SchedulerKind,
    /// Submissions accepted over the daemon's lifetime.
    pub accepted: u64,
    /// Submissions deferred by backpressure over the daemon's lifetime.
    pub deferred: u64,
    /// The paused engine state.
    pub sim: SimSnapshot,
}

impl ServeSnapshot {
    /// Serializes to JSON (one line, byte-stable field order).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialization cannot fail")
    }
}

/// Why a snapshot could not be loaded, sorted so the daemon can degrade
/// by case: `Missing` is a silent fresh start, the others warn first.
#[derive(Debug)]
pub enum SnapshotLoadError {
    /// No snapshot file exists at the path — a normal fresh start.
    Missing,
    /// The file exists but could not be read.
    Unreadable(std::io::Error),
    /// The file was read but is not a valid snapshot (torn write,
    /// corruption, wrong schema, or a different scheduler).
    Invalid(String),
}

impl fmt::Display for SnapshotLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotLoadError::Missing => write!(f, "no snapshot file"),
            SnapshotLoadError::Unreadable(e) => write!(f, "snapshot unreadable: {e}"),
            SnapshotLoadError::Invalid(why) => write!(f, "snapshot invalid: {why}"),
        }
    }
}

impl std::error::Error for SnapshotLoadError {}

/// Writes `snapshot` to `path` atomically and durably: serialize to a
/// unique temp file in the same directory, fsync the file, rename into
/// place, then fsync the parent directory so the rename itself survives
/// power loss — without the last step a crash after `rename` returns can
/// still resurface the old snapshot (or nothing) on reboot.
///
/// # Errors
///
/// Any I/O failure creating, writing, syncing or renaming the temp file.
pub fn save_snapshot(snapshot: &ServeSnapshot, path: &Path) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        fs::create_dir_all(dir)?;
    }
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "snapshot".to_string());
    // Unique per process: concurrent daemons pointed at the same path
    // cannot clobber each other's half-written temp files.
    let tmp_name = format!(".{file_name}.{}.tmp", process::id());
    let tmp = match dir {
        Some(dir) => dir.join(&tmp_name),
        None => Path::new(&tmp_name).to_path_buf(),
    };
    let mut file = fs::File::create(&tmp)?;
    file.write_all(snapshot.to_json().as_bytes())?;
    file.write_all(b"\n")?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })?;
    sync_parent_dir(path)
}

/// Fsyncs the directory containing `path`, committing a just-renamed
/// entry to disk. On platforms where a directory cannot be opened as a
/// file the sync is skipped — the rename stays atomic, merely not
/// power-loss durable, which matches the pre-fsync behaviour.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let dir = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or_else(|| Path::new("."));
    match fs::File::open(dir) {
        Ok(handle) => handle.sync_all(),
        Err(_) => Ok(()),
    }
}

/// Loads a snapshot written by [`save_snapshot`].
///
/// # Errors
///
/// [`SnapshotLoadError::Missing`] when no file exists,
/// [`SnapshotLoadError::Unreadable`] on I/O failure, and
/// [`SnapshotLoadError::Invalid`] on malformed JSON or a schema version
/// this daemon does not understand.
pub fn load_snapshot(path: &Path) -> Result<ServeSnapshot, SnapshotLoadError> {
    let raw = match fs::read_to_string(path) {
        Ok(raw) => raw,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(SnapshotLoadError::Missing)
        }
        Err(e) => return Err(SnapshotLoadError::Unreadable(e)),
    };
    let snap: ServeSnapshot = serde_json::from_str(raw.trim_end())
        .map_err(|e| SnapshotLoadError::Invalid(e.to_string()))?;
    if snap.schema != SERVE_SNAPSHOT_SCHEMA {
        return Err(SnapshotLoadError::Invalid(format!(
            "snapshot schema v{} does not match daemon schema v{SERVE_SNAPSHOT_SCHEMA}",
            snap.schema
        )));
    }
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasmq_campaign::SimSetup;
    use lasmq_simulator::{JobSpec, SimDuration, SimTime, StageKind, StageSpec, TaskSpec};

    fn sample() -> ServeSnapshot {
        let kind = SchedulerKind::las_mq_simulations();
        let mut sim = SimSetup::trace_sim().build_simulation(
            vec![JobSpec::builder()
                .arrival(SimTime::from_secs(1))
                .stage(StageSpec::uniform(
                    StageKind::Map,
                    4,
                    TaskSpec::new(SimDuration::from_secs(30)),
                ))
                .build()],
            &kind,
        );
        sim.run_until(SimTime::from_secs(5));
        ServeSnapshot {
            schema: SERVE_SNAPSHOT_SCHEMA,
            kind,
            accepted: 1,
            deferred: 0,
            sim: sim.snapshot(),
        }
    }

    #[test]
    fn roundtrips_through_disk() {
        let dir = std::env::temp_dir().join(format!("lasmq-serve-snap-{}", process::id()));
        let path = dir.join("state.json");
        let snap = sample();
        save_snapshot(&snap, &path).unwrap();
        let back = load_snapshot(&path).unwrap();
        assert_eq!(back.schema, SERVE_SNAPSHOT_SCHEMA);
        assert_eq!(back.accepted, 1);
        assert_eq!(back.sim.to_json(), snap.sim.to_json());
        // No temp litter once the rename landed.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_distinguished() {
        let path = std::env::temp_dir().join("lasmq-serve-snap-definitely-missing.json");
        assert!(matches!(
            load_snapshot(&path),
            Err(SnapshotLoadError::Missing)
        ));
    }

    // The damage-mode taxonomy: every corruption shape must surface as
    // Invalid (never a panic, never a silent half-load).
    #[test]
    fn damage_modes_all_surface_as_invalid() {
        let dir = std::env::temp_dir().join(format!("lasmq-serve-damage-{}", process::id()));
        fs::create_dir_all(&dir).unwrap();
        let snap = sample();
        let json = snap.to_json();

        let truncated = &json[..json.len() / 2];
        let wrong_schema = json.replacen(r#""schema":1"#, r#""schema":999"#, 1);
        let cases: Vec<(&str, String)> = vec![
            ("garbage", "not json at all {{{".to_string()),
            ("empty", String::new()),
            ("truncated", truncated.to_string()),
            ("wrong-schema", wrong_schema),
            ("wrong-shape", r#"{"unexpected":"fields"}"#.to_string()),
        ];
        for (name, contents) in cases {
            let path = dir.join(format!("{name}.json"));
            fs::write(&path, contents).unwrap();
            match load_snapshot(&path) {
                Err(SnapshotLoadError::Invalid(_)) => {}
                other => panic!("{name}: expected Invalid, got {other:?}"),
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crashed_writer_litter_does_not_break_the_next_save() {
        // A writer that died between create and rename leaves a temp file
        // behind. The next save must land atomically anyway: its own temp
        // name is reclaimed (same pid), foreign-pid litter is ignored, and
        // the loader only ever sees the renamed snapshot.
        let dir = std::env::temp_dir().join(format!("lasmq-serve-litter-{}", process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        let own_tmp = dir.join(format!(".state.json.{}.tmp", process::id()));
        let foreign_tmp = dir.join(".state.json.99999999.tmp");
        fs::write(&own_tmp, "half-written garbage from a previous life").unwrap();
        fs::write(&foreign_tmp, "someone else's half-written garbage").unwrap();

        let snap = sample();
        save_snapshot(&snap, &path).unwrap();
        let back = load_snapshot(&path).unwrap();
        assert_eq!(back.sim.to_json(), snap.sim.to_json());
        // Our own stale temp was consumed by the rename; the foreign one
        // is untouched (it may belong to a live writer).
        assert!(
            !own_tmp.exists(),
            "own temp file should have been renamed away"
        );
        assert!(
            foreign_tmp.exists(),
            "foreign temp file must not be deleted"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn directory_at_snapshot_path_is_unreadable_not_a_panic() {
        // A directory squatting on the snapshot path is I/O damage, not a
        // fresh start: it must surface as Unreadable so the operator sees
        // it, and must not be confused with Missing (silent fresh start).
        let dir = std::env::temp_dir().join(format!("lasmq-serve-squat-{}", process::id()));
        let path = dir.join("state.json");
        fs::create_dir_all(&path).unwrap();
        match load_snapshot(&path) {
            Err(SnapshotLoadError::Unreadable(_)) => {}
            other => panic!("expected Unreadable, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_over_existing_snapshot_replaces_it_durably() {
        // Two saves in a row: the second fully replaces the first (no
        // append, no partial overwrite) and the parent-directory fsync
        // path executes without error on a plain filesystem.
        let dir = std::env::temp_dir().join(format!("lasmq-serve-resave-{}", process::id()));
        let path = dir.join("state.json");
        let mut snap = sample();
        save_snapshot(&snap, &path).unwrap();
        snap.accepted = 42;
        snap.deferred = 7;
        save_snapshot(&snap, &path).unwrap();
        let back = load_snapshot(&path).unwrap();
        assert_eq!(back.accepted, 42);
        assert_eq!(back.deferred, 7);
        fs::remove_dir_all(&dir).ok();
    }
}
