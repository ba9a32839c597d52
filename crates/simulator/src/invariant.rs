//! Structured runtime invariants for the simulation engine.
//!
//! When a simulation is built with
//! [`SimulationBuilder::check_invariants`](crate::SimulationBuilder::check_invariants),
//! the engine audits its own state after every event batch, and every
//! scheduling pass between the scheduler's answer and its application, and
//! records any breach as an [`InvariantViolation`] instead of panicking. The
//! per-batch invariants are the ones every later optimisation must preserve:
//!
//! * **container conservation** — containers used cluster-wide equal the sum
//!   of per-job holdings, and no node holds more than its capacity;
//! * **clock monotonicity** — the event clock never moves backwards between
//!   batches;
//! * **task accounting** — per job, completed + running + unstarted tasks
//!   balance the spec, and holdings equal the widths of running attempts;
//! * **queue consistency** — the scheduler's internal queue structure (for
//!   LAS_MQ, the multilevel queue) contains each admitted job exactly once
//!   at a self-consistent position;
//! * **snapshot fidelity** — a snapshot serialized from live state
//!   round-trips through JSON bit-identically (sampled, as it is the one
//!   expensive check).
//!
//! The per-pass ones are the two promises the engine and a scheduler make
//! each other, audited before the engine clamps and applies the plan:
//!
//! * **view sanity** — each job has one view, progress lies in `[0, 1]`,
//!   remaining ≥ unstarted tasks, attained ≥ attained-in-stage service, the
//!   stage index is within the job, and holdings sum to at most capacity;
//! * **plan discipline** — the plan names only jobs it was shown, and its
//!   final targets (last entry per job wins, as the engine applies them)
//!   exceed neither a job's useful demand nor, summed, the cluster. The
//!   engine *tolerates* a sloppy plan by clamping, which makes the plan's
//!   priority order meaningless; the checker reports it;
//! * **work conservation** — the final targets sum to all the capacity the
//!   jobs could use. A class of its own, so a deliberately lazy policy's
//!   report stays readable by class.
//!
//! Violations surface through
//! [`SimulationReport::invariants`](crate::SimulationReport::invariants), so
//! campaigns and the differential harness in `lasmq-verify` can fail a run
//! without the engine aborting mid-simulation.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ids::JobId;
use crate::sched::{AllocationPlan, SchedContext};

/// At most this many violations are stored verbatim; further breaches only
/// bump [`InvariantReport::violations_total`], so a systematically broken
/// run cannot balloon its report.
pub const MAX_RECORDED_VIOLATIONS: usize = 64;

/// The class of invariant a violation breaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InvariantKind {
    /// Cluster-wide or per-node container bookkeeping went out of balance.
    ContainerConservation,
    /// The event clock moved backwards between batches.
    ClockMonotonicity,
    /// A job's task/holding counters stopped balancing its spec.
    TaskAccounting,
    /// The scheduler's queue structure lost internal consistency.
    QueueConsistency,
    /// A live snapshot failed to round-trip through JSON bit-identically.
    SnapshotFidelity,
    /// A pass showed the scheduler an inconsistent set of job views.
    ViewSanity,
    /// A plan named an unknown job, or its final targets exceeded a job's
    /// useful demand or the cluster's capacity.
    PlanDiscipline,
    /// A plan left containers idle that the shown jobs could have used.
    WorkConservation,
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            InvariantKind::ContainerConservation => "container-conservation",
            InvariantKind::ClockMonotonicity => "clock-monotonicity",
            InvariantKind::TaskAccounting => "task-accounting",
            InvariantKind::QueueConsistency => "queue-consistency",
            InvariantKind::SnapshotFidelity => "snapshot-fidelity",
            InvariantKind::ViewSanity => "view-sanity",
            InvariantKind::PlanDiscipline => "plan-discipline",
            InvariantKind::WorkConservation => "work-conservation",
        };
        f.write_str(name)
    }
}

/// One detected invariant breach: what broke, when, and a human-readable
/// description of the inconsistent state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InvariantViolation {
    /// The invariant class that failed.
    pub kind: InvariantKind,
    /// Simulation time of the check, in milliseconds.
    pub at_ms: u64,
    /// What exactly was inconsistent (counters, job ids, expected/actual).
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} @ {}ms] {}", self.kind, self.at_ms, self.detail)
    }
}

/// The outcome of running the invariant checker over a whole simulation.
///
/// Present in a [`SimulationReport`](crate::SimulationReport) only when the
/// simulation was built with `check_invariants(true)`; its absence means
/// checking was off, not that the run was clean.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct InvariantReport {
    /// How many per-batch check passes ran.
    pub checks_run: u64,
    /// Total violations detected, including any beyond the storage cap.
    pub violations_total: u64,
    /// The first [`MAX_RECORDED_VIOLATIONS`] violations, in detection order.
    pub violations: Vec<InvariantViolation>,
}

impl InvariantReport {
    /// Whether every check passed.
    pub fn is_clean(&self) -> bool {
        self.violations_total == 0
    }

    /// Records a violation, storing at most [`MAX_RECORDED_VIOLATIONS`]
    /// verbatim.
    pub fn record(&mut self, kind: InvariantKind, at_ms: u64, detail: String) {
        self.violations_total += 1;
        if self.violations.len() < MAX_RECORDED_VIOLATIONS {
            self.violations.push(InvariantViolation {
                kind,
                at_ms,
                detail,
            });
        }
    }

    /// Audits one scheduling pass: the views `ctx` showed the scheduler and
    /// the `plan` it answered with, before the engine clamps and applies
    /// it. `slot_of` maps a job to its slot in `ctx.jobs()` (`None` for a
    /// job without a view); `finals` is scratch for the final target per
    /// slot, so a pass costs O(views + plan entries).
    pub(crate) fn audit_pass(
        &mut self,
        ctx: &SchedContext<'_>,
        plan: &AllocationPlan,
        slot_of: impl Fn(JobId) -> Option<usize>,
        finals: &mut Vec<u32>,
    ) {
        use InvariantKind::{PlanDiscipline, ViewSanity, WorkConservation};
        let at = ctx.now().as_millis();
        let mut breach = |kind, detail: String| self.record(kind, at, detail);
        let views = ctx.jobs();
        let capacity = u64::from(ctx.total_containers());

        // Final targets first: the last entry per job wins, as the engine
        // applies the plan.
        finals.clear();
        finals.resize(views.len(), 0);
        for &(id, target) in plan.entries() {
            match slot_of(id).and_then(|slot| finals.get_mut(slot)) {
                Some(last) => *last = target,
                None => breach(PlanDiscipline, format!("plan references unknown {id}")),
            }
        }

        let (mut held, mut demand, mut planned) = (0u64, 0u64, 0u64);
        for (slot, (view, &target)) in views.iter().zip(finals.iter()).enumerate() {
            let id = view.id;
            if slot_of(id) != Some(slot) {
                breach(
                    ViewSanity,
                    format!("{id}: a second view, or one at the wrong slot"),
                );
            }
            let progress = view.stage_progress;
            if !(0.0..=1.0).contains(&progress) {
                breach(
                    ViewSanity,
                    format!("{id}: progress {progress} outside [0, 1]"),
                );
            }
            let (remaining, unstarted) = (view.remaining_tasks, view.unstarted_tasks);
            if remaining < unstarted {
                breach(
                    ViewSanity,
                    format!("{id}: remaining {remaining} < unstarted {unstarted}"),
                );
            }
            if view.attained.as_container_secs() + 1e-9 < view.attained_stage.as_container_secs() {
                breach(ViewSanity, format!("{id}: stage service exceeds total"));
            }
            let (stage, stages) = (view.stage_index, view.stage_count);
            if stage >= stages {
                breach(
                    ViewSanity,
                    format!("{id}: stage index {stage} out of {stages}"),
                );
            }
            let useful = view.max_useful_allocation();
            if target > useful {
                breach(
                    PlanDiscipline,
                    format!("{id}: target {target} exceeds useful demand {useful}"),
                );
            }
            held += u64::from(view.held);
            demand += u64::from(useful);
            planned += u64::from(target);
        }
        if held > capacity {
            breach(
                ViewSanity,
                format!("held containers {held} exceed capacity {capacity}"),
            );
        }
        if planned > capacity {
            breach(
                PlanDiscipline,
                format!("plan allocates {planned} of {capacity} containers"),
            );
        }
        let usable = demand.min(capacity);
        if planned < usable {
            breach(
                WorkConservation,
                format!("not work-conserving: planned {planned} of {usable} usable"),
            );
        }
    }
}

impl fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(f, "{} checks, no violations", self.checks_run)
        } else {
            write!(
                f,
                "{} checks, {} violation(s); first: {}",
                self.checks_run,
                self.violations_total,
                self.violations
                    .first()
                    .map(|v| v.to_string())
                    .unwrap_or_default()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report_displays_check_count() {
        let report = InvariantReport {
            checks_run: 12,
            ..InvariantReport::default()
        };
        assert!(report.is_clean());
        assert_eq!(report.to_string(), "12 checks, no violations");
    }

    #[test]
    fn record_caps_stored_violations() {
        let mut report = InvariantReport::default();
        for i in 0..(MAX_RECORDED_VIOLATIONS as u64 + 10) {
            report.record(InvariantKind::TaskAccounting, i, format!("breach {i}"));
        }
        assert_eq!(report.violations.len(), MAX_RECORDED_VIOLATIONS);
        assert_eq!(report.violations_total, MAX_RECORDED_VIOLATIONS as u64 + 10);
        assert!(!report.is_clean());
    }

    #[test]
    fn violation_round_trips_through_json() {
        let violation = InvariantViolation {
            kind: InvariantKind::ContainerConservation,
            at_ms: 1500,
            detail: "used 5 != held 4".to_string(),
        };
        let json = serde_json::to_string(&violation).unwrap();
        let back: InvariantViolation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, violation);
        assert_eq!(
            back.to_string(),
            "[container-conservation @ 1500ms] used 5 != held 4"
        );
    }
}
