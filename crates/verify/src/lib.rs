//! Simulation oracle for the LAS_MQ reproduction.
//!
//! Three layers of defense against silent engine bugs:
//!
//! 1. **Runtime invariant checker** — lives in `lasmq-simulator`
//!    ([`SimulationBuilder::check_invariants`](lasmq_simulator::SimulationBuilder::check_invariants));
//!    audits container conservation, clock monotonicity, task accounting,
//!    scheduler queue consistency, and snapshot fidelity after every event
//!    batch, reporting structured
//!    [`InvariantViolation`](lasmq_simulator::InvariantViolation)s instead
//!    of panicking.
//! 2. **Reference executor** ([`mod@reference`]) — a deliberately naive O(n²)
//!    re-implementation of the engine's admission and
//!    container-assignment semantics, sharing vocabulary types but no
//!    engine code.
//! 3. **Differential harness** ([`diff`]) — runs any (workload,
//!    scheduler, cluster) cell through both executors and diffs the
//!    completion traces, with the invariant checker armed on the engine
//!    side. Adversarial inputs come from
//!    [`lasmq_workload::adversarial`].
//!
//! The `verify-smoke` binary sweeps the paper's scheduler lineup over a
//! PUMA cell and a Facebook-trace cell; `tests/differential.rs` fuzzes
//! hundreds of adversarial cells through the harness.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod diff;
pub mod reference;

pub use diff::{run_differential, DiffCell, DiffResult};
pub use reference::{run_reference, RefOutcome, ReferenceConfig};
