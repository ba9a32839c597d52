//! The LAS_MQ scheduler: Algorithms 1 and 2 of the paper.
//!
//! Each scheduling pass:
//!
//! 1. **Update job orders** (Algorithm 1): compute every job's effective
//!    service — precise past-stage service plus the stage-aware estimate
//!    for the current stage (§III-B) — demote jobs whose service exceeds
//!    their queue's threshold, and sort each queue by the container demand
//!    of the jobs' remaining tasks (§III-C).
//! 2. **Job scheduling** (Algorithm 2): split the cluster across queues by
//!    weighted fair sharing (avoiding starvation of demoted jobs), walk
//!    each queue in order granting `min(rᵢ, jrt)` containers per job, and
//!    finally share any remaining containers with jobs that can still use
//!    them (work conservation).
//!
//! Step 1 is *incremental*: per-queue demand sums are running totals, and
//! the queues are never sorted — [`MultilevelQueue`] keeps each one
//! ascending by `(remaining demand, arrival seq)` at all times, so
//! refreshing a job moves that one job (a binary search plus the shift of
//! the members it passes) and a pass costs nothing for the jobs that did
//! not change. With the engine's changed-job hint
//! ([`SchedContext::changed`]) only changed jobs are refreshed: an
//! unchanged view implies an unchanged effective service and demand, and
//! demotion is monotonic, so unchanged jobs can never move. Without the
//! hint every view is refreshed, which is the same code over more jobs and
//! produces bit-identical plans.

use lasmq_simulator::{
    AllocationPlan, JobId, JobView, QueueDemotion, SchedContext, Scheduler, Service, SimTime,
};

use lasmq_schedulers::share::{weighted_shares_into, ShareRequest, ShareScratch};

use crate::config::{LasMqConfig, QueueOrdering, QueueSharing};
use crate::estimate::effective_service;
use crate::mlq::MultilevelQueue;

/// One queued job in a serialized LAS_MQ snapshot: its id, FIFO rank and
/// monotonic demotion key. Queues are written in `seq` order — a function
/// of membership alone, where the live order also follows the derived
/// demand keys — and read in any order.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct QueuedJobState {
    job: u32,
    seq: u64,
    max_effective: f64,
}

/// A pending (undrained) demotion in a serialized LAS_MQ snapshot.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct DemotionState {
    job: u32,
    from_queue: u32,
    to_queue: u32,
    effective: f64,
}

/// The full serialized form of LAS_MQ's mutable state. Thresholds and
/// weights are *not* stored — they are pure functions of the configuration
/// and re-derived on restore, so a snapshot cannot smuggle in a
/// mismatched lineup.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct LasMqState {
    queues: Vec<Vec<QueuedJobState>>,
    next_seq: u64,
    demotions: Vec<DemotionState>,
}

/// Sentinel for [`CachedDemand::contrib_queue`]: the job currently
/// contributes demand to no queue.
const NO_QUEUE: u32 = u32::MAX;

/// Per-job demand snapshot from the last time the job's view was
/// refreshed. The defaults are the fallbacks for jobs not refreshed yet:
/// an unknown `remaining_demand` (sorts last) and `max_useful = 0` (never
/// granted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CachedDemand {
    /// `JobView::remaining_demand` — under
    /// [`QueueOrdering::RemainingDemand`] also the demand the job is keyed
    /// by in its queue.
    remaining_demand: u32,
    /// `JobView::max_useful_allocation` — the grant cap, also summed into
    /// [`LasMq::queue_demand`].
    max_useful: u32,
    /// Which queue's demand sum currently includes `max_useful`
    /// ([`NO_QUEUE`] if none).
    contrib_queue: u32,
}

impl CachedDemand {
    const EMPTY: CachedDemand = CachedDemand {
        remaining_demand: MultilevelQueue::UNKNOWN_DEMAND,
        max_useful: 0,
        contrib_queue: NO_QUEUE,
    };
}

/// The paper's contribution: multilevel-feedback-queue job scheduling
/// without prior size information.
///
/// # Examples
///
/// Running LAS_MQ in the simulator:
///
/// ```
/// use lasmq_core::{LasMq, LasMqConfig};
/// use lasmq_simulator::{
///     ClusterConfig, JobSpec, SimDuration, Simulation, StageKind, StageSpec, TaskSpec,
/// };
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let jobs = (0..4).map(|i| {
///     JobSpec::builder()
///         .arrival(lasmq_simulator::SimTime::from_secs(i))
///         .stage(StageSpec::uniform(
///             StageKind::Map,
///             4,
///             TaskSpec::new(SimDuration::from_secs(5)),
///         ))
///         .build()
/// });
/// let report = Simulation::builder()
///     .cluster(ClusterConfig::single_node(8))
///     .jobs(jobs)
///     .build(LasMq::new(LasMqConfig::paper_experiments()))?
///     .run();
/// assert!(report.all_completed());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LasMq {
    config: LasMqConfig,
    thresholds: Vec<lasmq_simulator::Service>,
    weights: Vec<f64>,
    mlq: MultilevelQueue,
    /// Demotions since the engine last drained them (telemetry).
    demotions: Vec<QueueDemotion>,
    /// Last-refreshed demand per job, indexed by `JobId::index()`
    /// ([`CachedDemand::EMPTY`] for jobs never seen or completed).
    job_cache: Vec<CachedDemand>,
    /// Running per-queue demand: `queue_demand[q]` is the sum of
    /// `max_useful` over every cached job contributing to queue `q` —
    /// maintained by [`refresh_job`](Self::refresh_job) and
    /// [`on_job_completed`](Scheduler::on_job_completed) so a pass never
    /// re-walks every queue member.
    queue_demand: Vec<u64>,
    /// Epoch-stamped per-job grants for the current pass, indexed by
    /// `JobId::index()`: an entry counts only if its stamp equals
    /// [`pass_epoch`](Self::pass_epoch). Replaces a per-pass `HashMap`
    /// without any per-pass clearing cost.
    granted: Vec<(u64, u32)>,
    /// Monotonic pass counter validating `granted` stamps. Starts at 0 and
    /// is bumped before use, so the zero stamp never matches.
    pass_epoch: u64,
    /// Reused per-pass buffers: capped per-queue demands, share requests,
    /// allotments and the share computation's working memory. Hold no
    /// meaningful state between passes.
    demands_buf: Vec<u32>,
    req_buf: Vec<ShareRequest>,
    allot_buf: Vec<u32>,
    share_scratch: ShareScratch,
    /// The `(capacity, demands)` inputs that produced the current
    /// `allot_buf`. Allotments are a pure function of those inputs (weights
    /// and sharing mode are fixed at construction), and the per-queue
    /// demands saturate at capacity, so busy periods repeat them pass after
    /// pass — a hit skips the whole weighted-share computation.
    allot_memo: Option<(u32, Vec<u32>)>,
}

impl LasMq {
    /// Creates the scheduler from its configuration.
    pub fn new(config: LasMqConfig) -> Self {
        let thresholds = config.thresholds();
        let weights = config.weight_vector();
        let mlq = MultilevelQueue::new(config.num_queues());
        let queue_demand = vec![0; config.num_queues()];
        LasMq {
            config,
            thresholds,
            weights,
            mlq,
            demotions: Vec::new(),
            job_cache: Vec::new(),
            queue_demand,
            granted: Vec::new(),
            pass_epoch: 0,
            demands_buf: Vec::new(),
            req_buf: Vec::new(),
            allot_buf: Vec::new(),
            share_scratch: ShareScratch::default(),
            allot_memo: None,
        }
    }

    /// With the paper's testbed defaults (k = 10, α₁ = 100, p = 10).
    pub fn with_paper_defaults() -> Self {
        LasMq::new(LasMqConfig::paper_experiments())
    }

    /// The active configuration.
    pub fn config(&self) -> &LasMqConfig {
        &self.config
    }

    /// The queue a job currently sits in (for tests and introspection).
    pub fn queue_of(&self, job: JobId) -> Option<usize> {
        self.mlq.queue_of(job)
    }

    /// Per-queue job counts.
    pub fn queue_lengths(&self) -> Vec<usize> {
        self.mlq.queue_lengths()
    }

    /// Algorithm 1, per job: refresh the job's effective service, demote it
    /// if warranted, and fold its current demand into the cache — moving
    /// its `max_useful` contribution to whichever queue it now sits in and
    /// the job to its new rank there if its sort key moved.
    ///
    /// Only *changed* jobs need this: demotion tracks the monotonic maximum
    /// of the effective service, and an unchanged view reproduces the same
    /// effective service and demand, so refreshing an unchanged job is a
    /// no-op.
    fn refresh_job(&mut self, view: &JobView) {
        // Defensive: jobs normally enter via `on_job_admitted`. Callers
        // iterate views in admission order so defensively inserted jobs
        // receive deterministic sequence numbers.
        self.mlq.insert(view.id);
        let effective = effective_service(
            view,
            self.config.stage_awareness(),
            self.config.min_progress_for_estimate(),
        );
        let before = self.mlq.queue_of(view.id);
        let after = self.mlq.observe(view.id, effective, &self.thresholds);
        if let (Some(from), Some(to)) = (before, after) {
            if to != from {
                self.demotions.push(QueueDemotion {
                    job: view.id,
                    from_queue: from as u32,
                    to_queue: to as u32,
                    effective,
                });
            }
        }
        let current = after.expect("job was just inserted");

        let idx = view.id.index();
        if idx >= self.job_cache.len() {
            self.job_cache.resize(idx + 1, CachedDemand::EMPTY);
            self.granted.resize(idx + 1, (0, 0));
        }
        let old = self.job_cache[idx];
        let max_useful = view.max_useful_allocation();
        let remaining_demand = view.remaining_demand();
        let fresh = CachedDemand {
            remaining_demand,
            max_useful,
            contrib_queue: current as u32,
        };
        if fresh == old {
            // Same queue, same demand: nothing below would move. A running
            // job whose only change is accrued service lands here.
            return;
        }
        if old.contrib_queue != NO_QUEUE {
            self.queue_demand[old.contrib_queue as usize] -= u64::from(old.max_useful);
        }
        self.queue_demand[current] += u64::from(max_useful);
        if remaining_demand != old.remaining_demand
            && self.config.ordering() == QueueOrdering::RemainingDemand
        {
            // The in-queue sort key moved. Under `Fifo` the structure is
            // never told a demand, which leaves the arrival seq as the
            // whole key.
            self.mlq.set_demand(view.id, remaining_demand);
        }
        self.job_cache[idx] = fresh;
    }

    /// How many containers each queue receives this pass, written into
    /// `self.allot_buf` (buffers reused across passes).
    fn queue_allotments(&mut self, capacity: u32) {
        match self.config.sharing() {
            QueueSharing::Weighted => {
                self.req_buf.clear();
                self.req_buf.extend(
                    self.demands_buf
                        .iter()
                        .zip(&self.weights)
                        .map(|(&demand, &weight)| ShareRequest::new(demand, weight)),
                );
                weighted_shares_into(
                    capacity,
                    &self.req_buf,
                    &mut self.share_scratch,
                    &mut self.allot_buf,
                );
            }
            QueueSharing::StrictPriority => {
                let mut remaining = capacity;
                self.allot_buf.clear();
                self.allot_buf
                    .extend(self.demands_buf.iter().map(|&demand| {
                        let r = demand.min(remaining);
                        remaining -= r;
                        r
                    }));
            }
        }
    }
}

impl Scheduler for LasMq {
    fn name(&self) -> &str {
        "LAS_MQ"
    }

    fn reads_stage_progress(&self) -> bool {
        // The stage-aware estimate (§III-B) is the only reader.
        self.config.stage_awareness()
    }

    fn on_job_admitted(&mut self, view: &JobView, _now: SimTime) {
        self.mlq.insert(view.id);
    }

    fn on_job_completed(&mut self, job: JobId, _now: SimTime) {
        self.mlq.remove(job);
        if let Some(entry) = self.job_cache.get_mut(job.index()) {
            if entry.contrib_queue != NO_QUEUE {
                self.queue_demand[entry.contrib_queue as usize] -= u64::from(entry.max_useful);
            }
            *entry = CachedDemand::EMPTY;
        }
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
        self.pass_epoch += 1;
        let views = ctx.jobs();

        // Algorithm 1: refresh effective service, demote, re-rank and
        // update the demand cache — for the jobs the engine says changed,
        // or for every job when it does not say.
        match ctx.changed() {
            Some(changed) => changed
                .iter()
                .for_each(|&slot| self.refresh_job(&views[slot])),
            None => views.iter().for_each(|view| self.refresh_job(view)),
        }

        let capacity = ctx.total_containers();

        // Per-queue useful demand, saturating at capacity — read straight
        // off the maintained running sums.
        self.demands_buf.clear();
        self.demands_buf.extend(
            self.queue_demand
                .iter()
                .map(|&sum| sum.min(u64::from(capacity)) as u32),
        );
        let memo_hit = matches!(
            &self.allot_memo,
            Some((cap, demands)) if *cap == capacity && *demands == self.demands_buf
        );
        if !memo_hit {
            self.queue_allotments(capacity);
            let (cap, demands) = self.allot_memo.get_or_insert_with(|| (0, Vec::new()));
            *cap = capacity;
            demands.clear();
            demands.extend_from_slice(&self.demands_buf);
        }

        // Algorithm 2: walk queues in priority order, granting
        // min(rᵢ, job demand) to each job in queue order.
        let LasMq {
            mlq,
            job_cache,
            granted,
            pass_epoch,
            allot_buf,
            ..
        } = self;
        let epoch = *pass_epoch;
        let k = mlq.num_queues();
        let mut assigned_total: u32 = 0;
        for (i, &allotment) in allot_buf.iter().enumerate().take(k) {
            let mut budget = allotment;
            for &job in mlq.jobs_in(i) {
                if budget == 0 {
                    break;
                }
                let max_useful = job_cache
                    .get(job.index())
                    .map(|c| c.max_useful)
                    .unwrap_or(0);
                let grant = max_useful.min(budget);
                if grant > 0 {
                    plan.push(job, grant);
                    granted[job.index()] = (epoch, grant);
                    budget -= grant;
                    assigned_total += grant;
                }
            }
        }

        // Work conservation (Algorithm 2, last line): hand every remaining
        // container to jobs that can still use one, highest queue first.
        let mut leftover = capacity - assigned_total.min(capacity);
        if leftover > 0 {
            'outer: for i in 0..k {
                for &job in mlq.jobs_in(i) {
                    if leftover == 0 {
                        break 'outer;
                    }
                    let max_useful = job_cache
                        .get(job.index())
                        .map(|c| c.max_useful)
                        .unwrap_or(0);
                    let already = match granted.get(job.index()) {
                        Some(&(stamp, g)) if stamp == epoch => g,
                        _ => 0,
                    };
                    let unmet = max_useful.saturating_sub(already);
                    let extra = unmet.min(leftover);
                    if extra > 0 {
                        // Last entry wins: raise the job's target.
                        plan.push(job, already + extra);
                        granted[job.index()] = (epoch, already + extra);
                        leftover -= extra;
                    }
                }
            }
        }
    }

    fn queue_depths(&self) -> Option<Vec<u32>> {
        Some(self.mlq.queue_lengths().iter().map(|&n| n as u32).collect())
    }

    fn drain_demotions(&mut self) -> Vec<QueueDemotion> {
        std::mem::take(&mut self.demotions)
    }

    fn snapshot_state(&self) -> Option<String> {
        let queues: Vec<Vec<QueuedJobState>> = (0..self.mlq.num_queues())
            .map(|i| {
                let mut queue: Vec<QueuedJobState> = self
                    .mlq
                    .jobs_in(i)
                    .iter()
                    .map(|&j| QueuedJobState {
                        job: u32::from(j),
                        seq: self.mlq.seq_of(j).expect("queued job has a seq"),
                        max_effective: self
                            .mlq
                            .max_effective_of(j)
                            .expect("queued job has a demotion key"),
                    })
                    .collect();
                queue.sort_unstable_by_key(|entry| entry.seq);
                queue
            })
            .collect();
        let state = LasMqState {
            queues,
            next_seq: self.mlq.next_seq(),
            demotions: self
                .demotions
                .iter()
                .map(|d| DemotionState {
                    job: u32::from(d.job),
                    from_queue: d.from_queue,
                    to_queue: d.to_queue,
                    effective: d.effective.as_container_secs(),
                })
                .collect(),
        };
        Some(serde_json::to_string(&state).expect("LAS_MQ state serialization cannot fail"))
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        let state: LasMqState =
            serde_json::from_str(state).map_err(|e| format!("malformed LAS_MQ state: {e}"))?;
        if state.queues.len() != self.config.num_queues() {
            return Err(format!(
                "snapshot has {} queues but this configuration has {}",
                state.queues.len(),
                self.config.num_queues()
            ));
        }
        let mut mlq = MultilevelQueue::new(self.config.num_queues());
        for (qi, queue) in state.queues.iter().enumerate() {
            for entry in queue {
                mlq.restore_job(JobId::new(entry.job), qi, entry.seq, entry.max_effective)?;
            }
        }
        mlq.set_next_seq(state.next_seq)?;
        self.mlq = mlq;
        // Demands are derived state, not snapshotted — neither the cache
        // nor the queues' demand keys: the engine marks every active job
        // changed after a restore, so the first pass refreshes and re-ranks
        // them all.
        self.job_cache.clear();
        self.queue_demand = vec![0; self.config.num_queues()];
        self.granted.clear();
        self.demotions = state
            .demotions
            .iter()
            .map(|d| QueueDemotion {
                job: JobId::new(d.job),
                from_queue: d.from_queue,
                to_queue: d.to_queue,
                effective: Service::from_container_secs(d.effective),
            })
            .collect();
        Ok(())
    }

    fn check_consistency(&self) -> Result<(), String> {
        self.mlq.check_consistent()?;
        // Every job must be keyed by the demand the cache last saw for it
        // (by none under `Fifo`), the running demand sums must agree with a
        // from-scratch rewalk of the cached entries, and every contributing
        // job must actually sit in the queue its contribution is booked
        // under.
        let keyed = self.config.ordering() == QueueOrdering::RemainingDemand;
        let mut sums = vec![0u64; self.mlq.num_queues()];
        for (i, sum) in sums.iter_mut().enumerate() {
            for &job in self.mlq.jobs_in(i) {
                let cached = self.job_cache.get(job.index());
                let expected = match cached {
                    Some(entry) if keyed => entry.remaining_demand,
                    _ => MultilevelQueue::UNKNOWN_DEMAND,
                };
                if self.mlq.demand_of(job) != Some(expected) {
                    return Err(format!(
                        "{job} is keyed by demand {:?} but its cached demand is {expected}",
                        self.mlq.demand_of(job)
                    ));
                }
                let Some(entry) = cached else {
                    continue;
                };
                if entry.contrib_queue == NO_QUEUE {
                    continue;
                }
                if entry.contrib_queue as usize != i {
                    return Err(format!(
                        "{job} sits in queue {i} but its demand is booked under queue {}",
                        entry.contrib_queue
                    ));
                }
                *sum += u64::from(entry.max_useful);
            }
        }
        if sums != self.queue_demand {
            return Err(format!(
                "cached per-queue demand {:?} diverged from recomputed {:?}",
                self.queue_demand, sums
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use lasmq_simulator::Service;

    fn view(
        id: u32,
        attained: f64,
        attained_stage: f64,
        progress: f64,
        remaining: u32,
        unstarted: u32,
        held: u32,
    ) -> JobView {
        JobView {
            id: JobId::new(id),
            arrival: SimTime::from_secs(id as u64),
            admitted_at: SimTime::from_secs(id as u64),
            priority: 1,
            attained: Service::from_container_secs(attained),
            attained_stage: Service::from_container_secs(attained_stage),
            stage_index: 0,
            stage_count: 1,
            stage_progress: progress,
            remaining_tasks: remaining,
            unstarted_tasks: unstarted,
            containers_per_task: 1,
            held,
            oracle: None,
        }
    }

    fn config() -> LasMqConfig {
        // Thresholds 10, 100 with 3 queues.
        LasMqConfig::paper_experiments()
            .with_num_queues(3)
            .with_first_threshold(10.0)
    }

    fn admit_all(sched: &mut LasMq, views: &[JobView]) {
        for v in views {
            sched.on_job_admitted(v, SimTime::ZERO);
        }
    }

    #[test]
    fn new_jobs_start_in_the_top_queue() {
        let mut sched = LasMq::new(config());
        let views = vec![view(0, 0.0, 0.0, 0.0, 10, 10, 0)];
        admit_all(&mut sched, &views);
        assert_eq!(sched.queue_of(JobId::new(0)), Some(0));
    }

    #[test]
    fn attained_service_demotes_jobs() {
        let mut sched = LasMq::new(config());
        let views = vec![
            view(0, 5.0, 5.0, 0.0, 10, 10, 0),     // stays in queue 0
            view(1, 50.0, 50.0, 0.0, 10, 10, 0),   // queue 1
            view(2, 500.0, 500.0, 0.0, 10, 10, 0), // queue 2
        ];
        admit_all(&mut sched, &views);
        let ctx = SchedContext::new(SimTime::ZERO, 12, &views);
        let _ = sched.allocate(&ctx);
        assert_eq!(sched.queue_of(JobId::new(0)), Some(0));
        assert_eq!(sched.queue_of(JobId::new(1)), Some(1));
        assert_eq!(sched.queue_of(JobId::new(2)), Some(2));
    }

    #[test]
    fn stage_awareness_demotes_before_threshold_is_consumed() {
        // Attained only 5 (below the 10 threshold), but at 2% of a huge
        // stage… wait, 5/0.25 = 20 > 10: the estimate demotes early.
        let mut sched = LasMq::new(config());
        let views = vec![view(0, 5.0, 5.0, 0.25, 100, 90, 10)];
        admit_all(&mut sched, &views);
        let ctx = SchedContext::new(SimTime::ZERO, 12, &views);
        let _ = sched.allocate(&ctx);
        assert_eq!(sched.queue_of(JobId::new(0)), Some(1));

        // Without stage awareness the same job stays put.
        let mut plain = LasMq::new(config().with_stage_awareness(false));
        admit_all(&mut plain, &views);
        let _ = plain.allocate(&SchedContext::new(SimTime::ZERO, 12, &views));
        assert_eq!(plain.queue_of(JobId::new(0)), Some(0));
    }

    #[test]
    fn top_queue_jobs_outrank_demoted_jobs() {
        let mut sched = LasMq::new(config());
        let views = vec![
            view(0, 500.0, 500.0, 0.0, 100, 100, 0), // big, queue 2
            view(1, 0.0, 0.0, 0.0, 4, 4, 0),         // small newcomer
        ];
        admit_all(&mut sched, &views);
        let ctx = SchedContext::new(SimTime::ZERO, 12, &views);
        let plan = sched.allocate(&ctx);
        // The newcomer's full demand is served; with geometric weights the
        // big job still gets a share (no starvation) plus all leftovers.
        assert_eq!(plan.target_for(JobId::new(1)), Some(4));
        assert_eq!(plan.target_for(JobId::new(0)), Some(8));
        assert_eq!(
            plan.entries()[0].0,
            JobId::new(1),
            "top queue is served first"
        );
    }

    #[test]
    fn weighted_sharing_avoids_starvation() {
        let mut sched = LasMq::new(config());
        // Both queues saturated: demand everywhere.
        let views = vec![
            view(0, 0.0, 0.0, 0.0, 100, 100, 0),         // queue 0
            view(1, 5_000.0, 5_000.0, 0.0, 100, 100, 0), // queue 2
        ];
        admit_all(&mut sched, &views);
        let ctx = SchedContext::new(SimTime::ZERO, 12, &views);
        let plan = sched.allocate(&ctx);
        let low = plan.target_for(JobId::new(1)).unwrap_or(0);
        assert!(low > 0, "demoted job must keep progressing, got {low}");
        assert!(
            plan.target_for(JobId::new(0)).unwrap() > low,
            "top queue weighs more"
        );
    }

    #[test]
    fn strict_priority_starves_lower_queues() {
        let mut sched = LasMq::new(config().with_sharing(QueueSharing::StrictPriority));
        let views = vec![
            view(0, 0.0, 0.0, 0.0, 100, 100, 0),
            view(1, 5_000.0, 5_000.0, 0.0, 100, 100, 0),
        ];
        admit_all(&mut sched, &views);
        let plan = sched.allocate(&SchedContext::new(SimTime::ZERO, 12, &views));
        assert_eq!(plan.target_for(JobId::new(0)), Some(12));
        assert_eq!(plan.target_for(JobId::new(1)), None);
    }

    #[test]
    fn in_queue_ordering_prefers_smaller_remaining_demand() {
        let mut sched = LasMq::new(config());
        let views = vec![
            view(0, 0.0, 0.0, 0.0, 50, 50, 0), // bulky
            view(1, 0.0, 0.0, 0.0, 3, 3, 0),   // nearly done
        ];
        admit_all(&mut sched, &views);
        let plan = sched.allocate(&SchedContext::new(SimTime::ZERO, 10, &views));
        assert_eq!(plan.entries()[0].0, JobId::new(1));
        assert_eq!(plan.target_for(JobId::new(1)), Some(3));

        // FIFO ordering keeps arrival order instead.
        let mut fifo = LasMq::new(config().with_ordering(QueueOrdering::Fifo));
        admit_all(&mut fifo, &views);
        let plan = fifo.allocate(&SchedContext::new(SimTime::ZERO, 10, &views));
        assert_eq!(plan.entries()[0].0, JobId::new(0));
    }

    #[test]
    fn a_demand_only_change_re_ranks_the_job_only_when_demand_is_the_sort_key() {
        for (ordering, order) in [
            (QueueOrdering::Fifo, [0, 1]),
            (QueueOrdering::RemainingDemand, [1, 0]),
        ] {
            let mut sched = LasMq::new(config().with_ordering(ordering));
            let mut views = vec![
                view(0, 0.0, 0.0, 0.0, 30, 30, 0),
                view(1, 0.0, 0.0, 0.0, 50, 50, 0),
            ];
            admit_all(&mut sched, &views);
            let _ = sched.allocate(&SchedContext::new(SimTime::ZERO, 10, &views));
            assert_eq!(sched.mlq.jobs_in(0), [JobId::new(0), JobId::new(1)]);
            // Job 1 sheds most of its tasks: same queue, smaller demand.
            views[1].remaining_tasks = 20;
            views[1].unstarted_tasks = 20;
            sched.refresh_job(&views[1]);
            assert_eq!(sched.mlq.jobs_in(0), order.map(JobId::new), "{ordering:?}");
            sched.check_consistency().unwrap();
        }
    }

    #[test]
    fn plan_is_work_conserving() {
        let mut sched = LasMq::new(config());
        let views = vec![
            view(0, 0.0, 0.0, 0.0, 2, 2, 0),
            view(1, 50.0, 50.0, 0.0, 100, 100, 0),
        ];
        admit_all(&mut sched, &views);
        let plan = sched.allocate(&SchedContext::new(SimTime::ZERO, 20, &views));
        // Total demand 102 > 20, so all 20 containers must be planned.
        let mut final_targets: HashMap<JobId, u32> = HashMap::new();
        for &(j, t) in plan.entries() {
            final_targets.insert(j, t);
        }
        let total: u32 = final_targets.values().sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn demotions_are_reported_and_drained() {
        let mut sched = LasMq::new(config());
        let views = vec![
            view(0, 50.0, 50.0, 0.0, 10, 10, 0), // belongs in queue 1
            view(1, 2.0, 2.0, 0.0, 10, 10, 0),   // stays in queue 0
        ];
        admit_all(&mut sched, &views);
        let _ = sched.allocate(&SchedContext::new(SimTime::ZERO, 12, &views));
        let demotions = sched.drain_demotions();
        assert_eq!(demotions.len(), 1);
        assert_eq!(demotions[0].job, JobId::new(0));
        assert_eq!(demotions[0].from_queue, 0);
        assert_eq!(demotions[0].to_queue, 1);
        assert!(sched.drain_demotions().is_empty(), "drain clears the list");
        assert_eq!(sched.queue_depths(), Some(vec![1, 1, 0]));
    }

    #[test]
    fn completed_jobs_leave_the_queues() {
        let mut sched = LasMq::new(config());
        let views = vec![view(0, 0.0, 0.0, 0.0, 1, 1, 0)];
        admit_all(&mut sched, &views);
        assert_eq!(sched.queue_lengths().iter().sum::<usize>(), 1);
        sched.on_job_completed(JobId::new(0), SimTime::ZERO);
        assert_eq!(sched.queue_lengths().iter().sum::<usize>(), 0);
    }

    #[test]
    fn single_queue_degenerates_to_ordered_fifo_like_service() {
        // k = 1: no thresholds, everything in one queue — the Fig. 8(a)
        // leftmost point.
        let mut sched = LasMq::new(LasMqConfig::paper_experiments().with_num_queues(1));
        let views = vec![
            view(0, 1_000.0, 1_000.0, 0.0, 10, 10, 0),
            view(1, 0.0, 0.0, 0.0, 10, 10, 0),
        ];
        admit_all(&mut sched, &views);
        let plan = sched.allocate(&SchedContext::new(SimTime::ZERO, 10, &views));
        assert_eq!(plan.total_target(), 10);
    }
}
