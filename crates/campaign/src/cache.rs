//! The content-addressed on-disk result cache.
//!
//! Each cache entry is one completed cell's full [`SimulationReport`],
//! stored as JSON under `<dir>/<fingerprint>.json`. Keys come from
//! [`RunCell::fingerprint`](crate::RunCell::fingerprint), so a hit can
//! only ever be the byte-identical description of the same run, and the
//! JSON float encoding is shortest-round-trip, so a report read back from
//! the cache is bit-identical to the one the simulation produced.
//!
//! Writes are atomic (`write_atomic`: unique temp file + rename), which
//! makes the cache safe under the campaign executor's concurrent workers
//! and under interrupted campaigns: a cell either has a complete entry or
//! none. Manifests and telemetry artifacts go through the same writer.
//!
//! Alongside result entries the cache can hold **mid-run checkpoints**
//! (`<dir>/<fingerprint>.ckpt.json`): a [`SimSnapshot`] of a cell paused
//! partway, written with the same atomic temp-file + rename discipline.
//! The snapshot JSON carries its own schema version
//! ([`SNAPSHOT_SCHEMA_VERSION`](lasmq_simulator::SNAPSHOT_SCHEMA_VERSION));
//! a checkpoint from an older engine fails to parse, and the executor
//! warns and restarts such a cell from scratch rather than restoring bad
//! state. Checkpoints are deleted once the cell's final result lands.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use lasmq_simulator::{SimSnapshot, SimulationReport};

/// Why a stored mid-run checkpoint could not be used.
///
/// Structured so callers can tell "nothing to resume" apart from "a
/// checkpoint exists but is unusable" — the executor stays silent on
/// [`Missing`](CheckpointError::Missing) and warns (then restarts the cell
/// from scratch) on everything else. Nothing here panics: a truncated,
/// corrupt or schema-mismatched `.ckpt.json` degrades to a fresh run.
#[derive(Debug)]
pub enum CheckpointError {
    /// No checkpoint file exists for the key.
    Missing,
    /// The checkpoint file exists but could not be read.
    Unreadable(io::Error),
    /// The file was read but does not decode as a snapshot this engine
    /// understands: truncated or corrupt JSON, or a
    /// [`SNAPSHOT_SCHEMA_VERSION`](lasmq_simulator::SNAPSHOT_SCHEMA_VERSION)
    /// from a different engine generation.
    Invalid(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Missing => write!(f, "no checkpoint"),
            CheckpointError::Unreadable(e) => write!(f, "checkpoint unreadable: {e}"),
            CheckpointError::Invalid(detail) => write!(f, "checkpoint invalid: {detail}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Default cache location, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = "target/campaign-cache";

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A directory of completed simulation results, keyed by run
/// fingerprint.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResultCache { dir: dir.into() }
    }

    /// The cache at [`DEFAULT_CACHE_DIR`].
    pub fn default_location() -> Self {
        ResultCache::new(DEFAULT_CACHE_DIR)
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry path for a fingerprint.
    pub fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Whether an entry exists for `key`.
    pub fn contains(&self, key: &str) -> bool {
        self.entry_path(key).is_file()
    }

    /// Loads the report stored under `key`. Unreadable or undecodable
    /// entries count as misses (the executor will simply re-run the
    /// cell and overwrite them).
    pub fn load(&self, key: &str) -> Option<SimulationReport> {
        let text = fs::read_to_string(self.entry_path(key)).ok()?;
        serde_json::from_str(&text).ok()
    }

    /// Stores `report` under `key`, atomically.
    pub fn store(&self, key: &str, report: &SimulationReport) -> io::Result<()> {
        let json = serde_json::to_string(report)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        write_atomic(&self.entry_path(key), json.as_bytes())
    }

    /// The mid-run checkpoint path for a fingerprint.
    pub fn checkpoint_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.ckpt.json"))
    }

    /// Whether a mid-run checkpoint exists for `key`.
    pub fn has_checkpoint(&self, key: &str) -> bool {
        self.checkpoint_path(key).is_file()
    }

    /// Loads the checkpoint stored under `key`, reporting *why* an unusable
    /// one failed instead of flattening everything into a miss.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Missing`] when no `.ckpt.json` exists,
    /// [`CheckpointError::Unreadable`] on IO failure, and
    /// [`CheckpointError::Invalid`] on truncated/corrupt JSON or a
    /// snapshot-schema mismatch.
    pub fn try_load_checkpoint(&self, key: &str) -> Result<SimSnapshot, CheckpointError> {
        let path = self.checkpoint_path(key);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(CheckpointError::Missing),
            Err(e) => return Err(CheckpointError::Unreadable(e)),
        };
        SimSnapshot::from_json(&text).map_err(|e| CheckpointError::Invalid(e.to_string()))
    }

    /// Stores a mid-run checkpoint under `key`, atomically (same
    /// temp-file + rename discipline as [`store`](Self::store), so a
    /// crash mid-write leaves the previous checkpoint intact).
    pub fn store_checkpoint(&self, key: &str, snapshot: &SimSnapshot) -> io::Result<()> {
        write_atomic(&self.checkpoint_path(key), snapshot.to_json().as_bytes())
    }

    /// Deletes the checkpoint for `key` (done once the final result is
    /// stored). Missing checkpoints are not an error.
    pub fn remove_checkpoint(&self, key: &str) -> io::Result<()> {
        match fs::remove_file(self.checkpoint_path(key)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

/// Writes `bytes` to `path` through a temp file in the same directory,
/// then a rename, creating the directory if needed. A crash mid-write
/// leaves the previous file (or none), never a torn one.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().unwrap_or(Path::new(""));
    fs::create_dir_all(dir)?;
    // Unique temp name so concurrent workers (or processes) writing the
    // same path never interleave; rename is atomic within a filesystem.
    let nonce = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!("tmp.{}.{nonce}.tmp", std::process::id()));
    fs::write(&tmp, bytes)?;
    match fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::SchedulerKind;
    use crate::run::RunCell;
    use crate::setup::SimSetup;
    use crate::workload::WorkloadSpec;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lasmq-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_then_load_round_trips_bit_identically() {
        let cell = RunCell::new(
            "t",
            SchedulerKind::las_mq_simulations(),
            WorkloadSpec::Facebook {
                jobs: 40,
                seed: 11,
                load: None,
            },
            SimSetup::trace_sim(),
        );
        let report = cell.setup.run(cell.workload.generate(), &cell.scheduler);
        let cache = ResultCache::new(temp_dir("roundtrip"));
        let key = cell.fingerprint();

        assert!(cache.load(&key).is_none());
        cache.store(&key, &report).unwrap();
        assert!(cache.contains(&key));

        let loaded = cache.load(&key).unwrap();
        assert_eq!(loaded.scheduler(), report.scheduler());
        assert_eq!(loaded.outcomes().len(), report.outcomes().len());
        for (a, b) in loaded.outcomes().iter().zip(report.outcomes()) {
            assert_eq!(
                a.true_size.as_container_secs().to_bits(),
                b.true_size.as_container_secs().to_bits()
            );
            assert_eq!(a.finish, b.finish);
        }
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_entries_are_misses() {
        let cache = ResultCache::new(temp_dir("corrupt"));
        fs::create_dir_all(cache.dir()).unwrap();
        fs::write(cache.entry_path("deadbeef"), "{not json").unwrap();
        assert!(cache.load("deadbeef").is_none());
        let _ = fs::remove_dir_all(cache.dir());
    }

    /// A genuine mid-run snapshot's JSON, for corrupting in tests.
    fn real_checkpoint_json() -> String {
        let cell = RunCell::new(
            "ckpt",
            SchedulerKind::las_mq_simulations(),
            WorkloadSpec::Facebook {
                jobs: 40,
                seed: 11,
                load: None,
            },
            SimSetup::trace_sim(),
        );
        let makespan = cell
            .setup
            .run(cell.workload.generate(), &cell.scheduler)
            .outcomes()
            .iter()
            .filter_map(|o| o.finish)
            .max()
            .expect("at least one job finished");
        let cut = lasmq_simulator::SimTime::from_millis(makespan.as_millis() / 2);
        let mut sim = cell
            .setup
            .build_simulation(cell.workload.generate(), &cell.scheduler);
        sim.snapshot_at(cut)
            .expect("workload still running at half makespan")
            .to_json()
    }

    #[test]
    fn unusable_checkpoints_yield_structured_errors_not_panics() {
        let cache = ResultCache::new(temp_dir("ckpt-errors"));
        fs::create_dir_all(cache.dir()).unwrap();

        // Nothing stored: a miss, distinct from damage.
        assert!(matches!(
            cache.try_load_checkpoint("absent"),
            Err(CheckpointError::Missing)
        ));

        // Corrupt JSON.
        fs::write(cache.checkpoint_path("corrupt"), "{not json").unwrap();
        let err = cache.try_load_checkpoint("corrupt").unwrap_err();
        assert!(
            matches!(&err, CheckpointError::Invalid(d) if d.contains("malformed")),
            "unexpected error: {err}"
        );

        // Truncated write (e.g. the disk filled mid-write of a non-atomic
        // copy): also Invalid, also not a panic.
        let json = real_checkpoint_json();
        fs::write(cache.checkpoint_path("truncated"), &json[..json.len() / 2]).unwrap();
        assert!(matches!(
            cache.try_load_checkpoint("truncated"),
            Err(CheckpointError::Invalid(_))
        ));

        // A snapshot stamped with a foreign schema version: parses as JSON
        // but is refused with the version mismatch spelled out.
        let foreign = json.replacen(
            &format!("\"schema\":{}", lasmq_simulator::SNAPSHOT_SCHEMA_VERSION),
            "\"schema\":999",
            1,
        );
        assert_ne!(foreign, json, "schema field must be present to rewrite");
        fs::write(cache.checkpoint_path("foreign"), foreign).unwrap();
        let err = cache.try_load_checkpoint("foreign").unwrap_err();
        assert!(
            matches!(&err, CheckpointError::Invalid(d) if d.contains("schema v999")),
            "unexpected error: {err}"
        );

        let _ = fs::remove_dir_all(cache.dir());
    }
}
