//! Extension experiment: warm-state what-if forking.
//!
//! Scheduler comparisons usually restart the world per arm: every policy
//! replays the same cold-start transient before its steady-state behaviour
//! shows. This experiment uses the snapshot subsystem instead: it warms a
//! PUMA cluster under one donor policy to a fork point (the median job
//! arrival, when the cluster is saturated and a backlog exists), takes
//! **one** [`SimSnapshot`](lasmq_simulator::SimSnapshot) — round-tripped
//! through JSON, exactly as a snapshot file would be — and
//! [`fork`](lasmq_simulator::Simulation::fork)s it across all four lineup
//! schedulers ([`warm_fork`](crate::warm_fork) builds that snapshot).
//! Every arm inherits the identical warm state: same running
//! tasks, same occupancy, same admission backlog, same pending events.
//! Whatever differs afterwards is attributable to the policy switch alone
//! (the paired-comparison variance-reduction classic, here with *state*
//! pairing on top of workload pairing).
//!
//! FIFO's arm doubles as the control: forking into the donor's own policy
//! shows the fork overhead is a re-plan, not a perturbation.

use lasmq_campaign::{ExecOptions, SchedulerKind, SimSetup, WorkloadSpec};
use lasmq_simulator::SimTime;

use crate::scale::Scale;
use crate::table::{fmt_num, TextTable};
use crate::warm_fork::{donor_snapshot, post_fork_mean_response, run_forks, DONOR};

/// One forked scheduler arm's post-fork outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmRow {
    /// The scheduler the snapshot was forked into.
    pub scheduler: String,
    /// Mean response (s) over jobs that finished after the fork point —
    /// the jobs whose fate the new policy could still influence.
    pub post_fork_mean_response: f64,
    /// Jobs completed by the end of the arm's run.
    pub completed: usize,
    /// The arm's makespan in seconds.
    pub makespan_secs: f64,
}

/// The experiment's output.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmstartResult {
    /// The policy that warmed the cluster.
    pub warmup_scheduler: String,
    /// The fork point (simulated time).
    pub fork_at: SimTime,
    /// Jobs still unfinished at the fork point.
    pub active_at_fork: usize,
    /// Jobs already finished at the fork point (their outcomes are shared
    /// warm-up history, identical across arms).
    pub finished_at_fork: usize,
    /// One row per forked arm, in lineup order.
    pub arms: Vec<ArmRow>,
}

impl WarmstartResult {
    /// The arm row for a scheduler name.
    pub fn arm(&self, scheduler: &str) -> Option<&ArmRow> {
        self.arms.iter().find(|a| a.scheduler == scheduler)
    }

    /// The rendered table.
    pub fn tables(&self) -> Vec<TextTable> {
        let mut t = TextTable::new(
            format!(
                "Extension: warm-state fork comparison (warmed under {} to t={}s; \
                 {} jobs in flight, {} already done)",
                self.warmup_scheduler,
                fmt_num(self.fork_at.as_secs_f64()),
                self.active_at_fork,
                self.finished_at_fork,
            ),
            vec![
                "forked into".into(),
                "post-fork mean response (s)".into(),
                "completed".into(),
                "makespan (s)".into(),
            ],
        );
        for arm in &self.arms {
            t.row(vec![
                arm.scheduler.clone(),
                fmt_num(arm.post_fork_mean_response),
                arm.completed.to_string(),
                fmt_num(arm.makespan_secs),
            ]);
        }
        vec![t]
    }
}

/// Runs the warm-start fork comparison, its arms on `exec`'s workers.
pub fn run(scale: &Scale, exec: &ExecOptions) -> WarmstartResult {
    let workload = WorkloadSpec::Puma {
        jobs: scale.puma_jobs,
        mean_interval_secs: 50.0,
        seed: scale.seed,
        geo_bandwidth_mb_per_s: None,
    };
    let snapshot = donor_snapshot(&SimSetup::testbed(), &workload);
    let fork_at = snapshot.now();
    let active_at_fork = snapshot.total_jobs() - snapshot.finished_jobs();
    let finished_at_fork = snapshot.finished_jobs();

    let arms = run_forks(&snapshot, &SchedulerKind::paper_lineup_experiments(), exec)
        .expect("lineup schedulers fork from a non-oracle snapshot")
        .into_iter()
        .map(|report| ArmRow {
            scheduler: report.scheduler().to_string(),
            post_fork_mean_response: post_fork_mean_response(&report, fork_at).unwrap_or(f64::NAN),
            completed: report.completed_count(),
            makespan_secs: report.stats().makespan.as_secs_f64(),
        })
        .collect();

    WarmstartResult {
        warmup_scheduler: DONOR.to_string(),
        fork_at,
        active_at_fork,
        finished_at_fork,
        arms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_test_scale(threads: usize) -> WarmstartResult {
        run(&Scale::test(), &ExecOptions::with_threads(threads))
    }

    #[test]
    fn forks_all_four_arms_from_one_warm_snapshot() {
        let r = run_test_scale(2);
        let names: Vec<&str> = r.arms.iter().map(|a| a.scheduler.as_str()).collect();
        assert_eq!(names, ["LAS_MQ", "LAS", "FAIR", "FIFO"]);
        assert_eq!(r.warmup_scheduler, "FIFO");
        assert!(r.fork_at > SimTime::ZERO);
        assert!(r.active_at_fork > 0, "fork point must land mid-run");
        for arm in &r.arms {
            assert_eq!(arm.completed, Scale::test().puma_jobs);
            assert!(arm.post_fork_mean_response.is_finite());
            assert!(arm.makespan_secs >= r.fork_at.as_secs_f64());
        }
    }

    #[test]
    fn shared_warmup_history_is_identical_across_arms() {
        // Jobs finished before the fork are warm-up history: every arm
        // must report them with the same finish times.
        let r = run_test_scale(1);
        assert!(
            r.finished_at_fork + r.active_at_fork == Scale::test().puma_jobs,
            "fork bookkeeping must cover the workload"
        );
        // The run is deterministic end to end, for any worker count.
        assert_eq!(r, run_test_scale(4));
    }

    #[test]
    fn tables_render_one_row_per_arm() {
        let r = run_test_scale(2);
        let tables = r.tables();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].row_count(), 4);
    }
}
