//! One campaign cell and its content address.

use serde::Serialize;

use crate::kind::SchedulerKind;
use crate::setup::SimSetup;
use crate::workload::WorkloadSpec;

/// Version stamp mixed into every fingerprint. Bump when the simulation
/// engine, a generator, or the report format changes meaning, so stale
/// cache entries can never be mistaken for current results.
///
/// v2: reports may embed telemetry and setups carry `record_telemetry`,
/// so v1 entries no longer describe what a run would produce today.
///
/// v3: setups carry `check_invariants` and verified reports embed an
/// invariant section, so v2 entries describe neither.
///
/// v4: reports carry `EngineStats::events_processed` and setups carry
/// a pass-mode switch, so v3 entries lack both fields.
///
/// v5: setups lost the pass-mode and event-queue-backend switches (one
/// engine path), so v4 cell descriptions no longer match.
///
/// v6: telemetry's decision log is a journal of `SimEvent`s, so v5
/// telemetry-bearing reports no longer parse.
pub const CACHE_SCHEMA_VERSION: u32 = 6;

/// One unit of campaign work: run `workload` under `scheduler` in
/// `setup`.
///
/// The `label` is presentation-only; it names the cell in telemetry and
/// manifests but is deliberately excluded from the content address, so
/// identical runs declared by different experiments share one cache
/// entry.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunCell {
    /// Display label (e.g. `"fig5/rep0/LAS_MQ"`).
    pub label: String,
    /// The scheduler under test.
    pub scheduler: SchedulerKind,
    /// The workload description.
    pub workload: WorkloadSpec,
    /// The simulation environment.
    pub setup: SimSetup,
}

impl RunCell {
    /// A new cell.
    pub fn new(
        label: impl Into<String>,
        scheduler: SchedulerKind,
        workload: WorkloadSpec,
        setup: SimSetup,
    ) -> Self {
        RunCell {
            label: label.into(),
            scheduler,
            workload,
            setup,
        }
    }

    /// The cell's content address: a 128-bit FNV-1a hash (as 32 hex
    /// digits) over the canonical JSON of the full run description plus
    /// [`CACHE_SCHEMA_VERSION`]. Everything that can change the
    /// simulation's outcome — scheduler configuration, workload knobs,
    /// environment — feeds the hash; the label does not.
    pub fn fingerprint(&self) -> String {
        format!("{:032x}", fnv1a_128(self.descriptor().as_bytes()))
    }

    /// The canonical JSON the fingerprint hashes:
    /// `{"schema":..,"scheduler":..,"workload":..,"setup":..}`.
    fn descriptor(&self) -> String {
        let mut json = String::from("{\"schema\":");
        CACHE_SCHEMA_VERSION.write_json(&mut json);
        json.push_str(",\"scheduler\":");
        self.scheduler.write_json(&mut json);
        json.push_str(",\"workload\":");
        self.workload.write_json(&mut json);
        json.push_str(",\"setup\":");
        self.setup.write_json(&mut json);
        json.push('}');
        json
    }
}

/// 128-bit FNV-1a.
fn fnv1a_128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= b as u128;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(label: &str, seed: u64) -> RunCell {
        RunCell::new(
            label,
            SchedulerKind::las_mq_simulations(),
            WorkloadSpec::Facebook {
                jobs: 100,
                seed,
                load: None,
            },
            SimSetup::trace_sim(),
        )
    }

    #[test]
    fn descriptor_matches_the_untyped_tree() {
        use serde::Value;
        let c = cell("a", 3);
        let tree = Value::Object(vec![
            ("schema".into(), CACHE_SCHEMA_VERSION.to_value()),
            ("scheduler".into(), c.scheduler.to_value()),
            ("workload".into(), c.workload.to_value()),
            ("setup".into(), c.setup.to_value()),
        ]);
        assert_eq!(c.descriptor(), serde_json::to_string(&tree).unwrap());
    }

    #[test]
    fn fingerprints_are_stable_and_label_blind() {
        let a = cell("fig7/heavy/LAS_MQ", 42);
        let b = cell("something-else-entirely", 42);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), a.fingerprint());
        assert_eq!(a.fingerprint().len(), 32);
    }

    #[test]
    fn fingerprints_separate_different_runs() {
        let base = cell("x", 42);
        let other_seed = cell("x", 43);
        assert_ne!(base.fingerprint(), other_seed.fingerprint());

        let other_sched = RunCell {
            scheduler: SchedulerKind::Fifo,
            ..base.clone()
        };
        assert_ne!(base.fingerprint(), other_sched.fingerprint());

        let other_setup = RunCell {
            setup: SimSetup::uniform_sim(),
            ..base.clone()
        };
        assert_ne!(base.fingerprint(), other_setup.fingerprint());
    }

    #[test]
    fn fnv_reference_values() {
        // FNV-1a 128 of the empty string is the offset basis.
        assert_eq!(fnv1a_128(b""), 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d);
        assert_ne!(fnv1a_128(b"a"), fnv1a_128(b"b"));
    }
}
