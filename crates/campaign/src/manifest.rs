//! Campaign manifests: the journal that makes campaigns resumable and
//! inspectable.
//!
//! Before executing any cells, the executor writes
//! `<cache-dir>/manifest-<name>.json` listing every cell's label and
//! fingerprint. Completed cells land in the cache as they finish, so an
//! interrupted campaign needs no recovery step: re-running it hits the
//! cache for everything already done, and `repro campaign-status` reads
//! the manifests back to show how far each campaign got.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::artifacts::sanitize_label;
use crate::cache::{write_atomic, ResultCache};
use crate::run::RunCell;

/// One cell's entry in a manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestCell {
    /// The cell's display label.
    pub label: String,
    /// The cell's content address.
    pub key: String,
}

/// The persisted description of one campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// The campaign name (e.g. `"fig5"`).
    pub name: String,
    /// Cells in declaration order.
    pub cells: Vec<ManifestCell>,
}

impl Manifest {
    /// A manifest for `cells` whose fingerprints are `keys`.
    pub fn new(name: impl Into<String>, cells: &[RunCell], keys: &[String]) -> Self {
        Manifest {
            name: name.into(),
            cells: cells
                .iter()
                .zip(keys)
                .map(|(c, k)| ManifestCell {
                    label: c.label.clone(),
                    key: k.clone(),
                })
                .collect(),
        }
    }

    /// The manifest path for a campaign name under `dir`.
    pub fn path_for(dir: &Path, name: &str) -> PathBuf {
        // Campaign names are experiment identifiers (fig5, ext_load, …);
        // keep the file name safe regardless.
        dir.join(format!("manifest-{}.json", sanitize_label(name)))
    }

    /// Writes the manifest under `dir` atomically, returning its path: a
    /// kill mid-write leaves the previous manifest, never a torn one that
    /// [`load_all`](Self::load_all) would drop.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = Manifest::path_for(dir, &self.name);
        let json = serde_json::to_string(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        write_atomic(&path, json.as_bytes())?;
        Ok(path)
    }

    /// Loads every manifest under `dir`, sorted by campaign name.
    pub fn load_all(dir: &Path) -> Vec<Manifest> {
        let Ok(entries) = fs::read_dir(dir) else {
            return Vec::new();
        };
        let mut manifests: Vec<Manifest> = entries
            .flatten()
            .filter(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy();
                name.starts_with("manifest-") && name.ends_with(".json")
            })
            .filter_map(|e| {
                let text = fs::read_to_string(e.path()).ok()?;
                serde_json::from_str(&text).ok()
            })
            .collect();
        manifests.sort_by(|a, b| a.name.cmp(&b.name));
        manifests
    }

    /// How many of this campaign's cells have cached results.
    pub fn cached_cells(&self, cache: &ResultCache) -> usize {
        self.cells.iter().filter(|c| cache.contains(&c.key)).count()
    }
}

/// A human-readable status report over every manifest in `dir` (what
/// `repro campaign-status` prints). Returns `None` when no campaign has
/// ever run against this cache directory.
pub fn status_report(dir: &Path) -> Option<String> {
    let manifests = Manifest::load_all(dir);
    if manifests.is_empty() {
        return None;
    }
    let cache = ResultCache::new(dir);
    let width = manifests.iter().map(|m| m.name.len()).max().unwrap_or(0);
    let mut out = String::new();
    out.push_str(&format!("campaign cache: {}\n", dir.display()));
    for m in &manifests {
        let cached = m.cached_cells(&cache);
        let total = m.cells.len();
        let state = if cached == total {
            "complete"
        } else {
            "partial"
        };
        out.push_str(&format!(
            "  {:<width$} {:>4}/{:<4} cells cached  [{state}]\n",
            m.name, cached, total
        ));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::SchedulerKind;
    use crate::setup::SimSetup;
    use crate::workload::WorkloadSpec;

    fn cells() -> Vec<RunCell> {
        vec![
            RunCell::new(
                "a",
                SchedulerKind::Fifo,
                WorkloadSpec::Uniform {
                    jobs: 2,
                    tasks_per_job: 3,
                    seed: 1,
                    load: None,
                },
                SimSetup::trace_sim(),
            ),
            RunCell::new(
                "b",
                SchedulerKind::Fair,
                WorkloadSpec::Uniform {
                    jobs: 2,
                    tasks_per_job: 3,
                    seed: 1,
                    load: None,
                },
                SimSetup::trace_sim(),
            ),
        ]
    }

    #[test]
    fn manifests_round_trip_and_report_status() {
        let dir = std::env::temp_dir().join(format!("lasmq-manifest-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        let cells = cells();
        let keys: Vec<String> = cells.iter().map(|c| c.fingerprint()).collect();
        let manifest = Manifest::new("unit", &cells, &keys);
        // A rewrite replaces the file in place and leaves no temp file.
        manifest.write(&dir).unwrap();
        let path = manifest.write(&dir).unwrap();
        assert_eq!(path, Manifest::path_for(&dir, "unit"));
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");

        let loaded = Manifest::load_all(&dir);
        assert_eq!(loaded, vec![manifest.clone()]);

        // No results yet: 0 cached; after one run: 1 cached.
        let cache = ResultCache::new(&dir);
        assert_eq!(manifest.cached_cells(&cache), 0);
        let report = cells[0]
            .setup
            .run(cells[0].workload.generate(), &cells[0].scheduler);
        cache.store(&keys[0], &report).unwrap();
        assert_eq!(manifest.cached_cells(&cache), 1);

        let status = status_report(&dir).unwrap();
        assert!(status.contains("unit"), "{status}");
        assert!(status.contains("1/2"), "{status}");

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_has_no_status() {
        let dir = std::env::temp_dir().join(format!("lasmq-manifest-empty-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        assert!(status_report(&dir).is_none());
    }
}
