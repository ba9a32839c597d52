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

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use lasmq_simulator::SimulationReport;
use serde::Serialize;

/// Address space reserved for one entry's text while it is written (see
/// [`ResultCache::store`]).
const STORE_RESERVE: usize = 64 << 20;

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
        // An entry is megabytes of text. Reserved past the allocator's
        // mmap ceiling (32 MiB for glibc), the buffer is mapped on its
        // own and only the pages written become resident; dropping it
        // unmaps them. Grown from empty instead, it ends up on a worker's
        // heap, which keeps those pages after the store: about 1.5 MiB
        // more peak RSS on a cold campaign.
        let mut json = String::with_capacity(STORE_RESERVE);
        report.write_json(&mut json);
        write_atomic(&self.entry_path(key), json.as_bytes())
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
}
