//! Shared helper for the benches that print a series before timing.
//!
//! The paper's tables and figures are `repro <figure>` and every timing
//! claim is measured by the `benchmark/` harness. What stays here is what
//! neither covers: `ablation_extensions` (the extension tables, at
//! [`Scale::bench`]) and `snapshot_restore` (which also times the policy
//! trainer's fork evaluation), plus the `perf-smoke` event-count gate.
//!
//! [`Scale::bench`]: lasmq_experiments::Scale::bench

use std::sync::Once;

use lasmq_experiments::table::TextTable;

static HEADER: Once = Once::new();

/// Prints a figure's tables exactly once per bench process, prefixed with
/// a reproduction banner.
pub fn print_series(figure: &str, tables: &[TextTable]) {
    HEADER.call_once(|| {
        println!("\n--- LAS_MQ paper series (reduced bench scale; run `repro` for full scale) ---");
    });
    println!("\n### {figure}");
    for t in tables {
        println!("{t}");
    }
}
