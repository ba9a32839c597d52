//! The Fair Sojourn Protocol (FSP) over (optionally noisy) size estimates.
//!
//! FSP (Friedman & Henderson, SIGMETRICS 2003) runs a *virtual* processor-
//! sharing system on the side: every admitted job progresses in the virtual
//! system at an equal share of the cluster's capacity, and the *real*
//! cluster is devoted to jobs in the order they complete in the virtual
//! system. The result is SRPT-like mean response with PS-like fairness —
//! no job finishes later than it would have under plain processor sharing
//! (when sizes are known exactly).
//!
//! That "known exactly" is the catch the robustness campaign probes: the
//! virtual system needs each job's *size* to know when it virtually
//! completes. This implementation feeds it estimates from the shared
//! [`SizeNoise`] model — at `sigma = 0` they are the oracle's truth, at
//! higher sigmas an under-estimated giant virtually completes early and
//! then monopolizes the real cluster, exactly the failure mode §III-B
//! predicts for size-based policies.
//!
//! Determinism: the virtual clock advances only inside
//! [`allocate`](Scheduler::allocate) by `now − last_pass`, with
//! water-filling resolved smallest-virtual-remaining-first (ties by job
//! id). The engine and the naive reference executor run scheduling passes
//! at identical instants, so both integrate the virtual system over
//! identical interval chunks and the differential oracle sees bit-identical
//! decisions.

use lasmq_simulator::{AllocationPlan, JobId, JobView, SchedContext, Scheduler, SimTime};

use crate::grant_in_order;
use crate::noise::SizeNoise;

/// One job's state in the virtual processor-sharing system.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct VirtualJob {
    /// The job id (`u32` form, for the serialized snapshot).
    job: u32,
    /// The frozen (possibly corrupted) total-size estimate, container-secs.
    estimate: f64,
    /// Service still owed in the virtual PS system, container-secs.
    virtual_remaining: f64,
    /// Virtual completion rank, assigned when `virtual_remaining` hits 0.
    finished_rank: Option<u64>,
    /// Whether the job really completed (it stays in the virtual system —
    /// its virtual copy still consumes virtual capacity until it virtually
    /// finishes, as in the true protocol — but is no longer schedulable).
    departed: bool,
}

/// The fair sojourn protocol scheduler.
///
/// # Examples
///
/// ```
/// use lasmq_schedulers::Fsp;
/// use lasmq_simulator::Scheduler;
///
/// let fsp = Fsp::new(0.0, 0);
/// assert!(fsp.requires_oracle());
/// assert_eq!(fsp.name(), "FSP");
/// ```
#[derive(Debug, Clone)]
pub struct Fsp {
    noise: SizeNoise,
    /// Virtual jobs, sorted by job id (kept sorted on insert; ids are
    /// unique). Sorted order makes snapshots byte-stable and the
    /// water-filling iteration order deterministic.
    jobs: Vec<VirtualJob>,
    /// Simulation instant the virtual system has been advanced to.
    advanced_to: SimTime,
    /// Next virtual completion rank to assign.
    next_rank: u64,
}

impl Fsp {
    /// FSP whose virtual system sees size estimates corrupted by
    /// log-normal noise of scale `sigma` (`0` = exact sizes), with `seed`
    /// pinning the per-job draws.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn new(sigma: f64, seed: u64) -> Self {
        Fsp {
            noise: SizeNoise::new(sigma, 0.0, seed),
            jobs: Vec::new(),
            advanced_to: SimTime::ZERO,
            next_rank: 0,
        }
    }

    fn position(&self, job: JobId) -> Result<usize, usize> {
        self.jobs.binary_search_by_key(&u32::from(job), |v| v.job)
    }

    /// Admits any job in `views` the virtual system has not seen yet.
    /// Estimates are frozen at first contact.
    fn admit_new(&mut self, views: &[JobView]) {
        for view in views {
            if let Err(slot) = self.position(view.id) {
                let true_size = view
                    .oracle
                    .expect("engine guarantees oracle info for oracle schedulers")
                    .total_size;
                let estimate = self.noise.estimate(view.id, true_size).as_container_secs();
                self.jobs.insert(
                    slot,
                    VirtualJob {
                        job: u32::from(view.id),
                        estimate,
                        virtual_remaining: estimate,
                        finished_rank: None,
                        departed: false,
                    },
                );
            }
        }
    }

    /// Advances the virtual PS system to `now`: `capacity × dt`
    /// container-seconds of virtual work, water-filled equally across
    /// virtually unfinished jobs, finishing them smallest-remaining-first.
    fn advance_virtual(&mut self, now: SimTime, capacity: u32) {
        let dt = now.saturating_since(self.advanced_to).as_secs_f64();
        self.advanced_to = now;
        if dt <= 0.0 {
            return;
        }
        let mut work = capacity as f64 * dt;
        loop {
            // The active set: virtually unfinished jobs, smallest first
            // (ties by id — `jobs` is id-sorted, and the sort is stable).
            let mut active: Vec<usize> = (0..self.jobs.len())
                .filter(|&i| self.jobs[i].finished_rank.is_none())
                .collect();
            if active.is_empty() || work <= 0.0 {
                return;
            }
            active.sort_by(|&a, &b| {
                self.jobs[a]
                    .virtual_remaining
                    .total_cmp(&self.jobs[b].virtual_remaining)
            });
            let n = active.len() as f64;
            let smallest = self.jobs[active[0]].virtual_remaining;
            if work >= smallest * n {
                // Enough work to virtually finish the smallest job(s):
                // drain `smallest` from everyone, rank the finishers, and
                // water-fill the rest with what remains.
                work -= smallest * n;
                for &i in &active {
                    let v = &mut self.jobs[i];
                    v.virtual_remaining -= smallest;
                    if v.virtual_remaining <= 1e-9 {
                        v.virtual_remaining = 0.0;
                        v.finished_rank = Some(self.next_rank);
                        self.next_rank += 1;
                    }
                }
            } else {
                let share = work / n;
                for &i in &active {
                    self.jobs[i].virtual_remaining -= share;
                }
                return;
            }
        }
    }

    /// The scheduling key for a job: virtually finished jobs first, in
    /// virtual completion order, then unfinished jobs by virtual remaining.
    fn priority_key(&self, job: JobId) -> (u64, f64) {
        match self.position(job) {
            Ok(i) => {
                let v = &self.jobs[i];
                match v.finished_rank {
                    Some(rank) => (rank, 0.0),
                    None => (u64::MAX, v.virtual_remaining),
                }
            }
            // Unknown jobs (cannot happen after `admit_new`) go last.
            Err(_) => (u64::MAX, f64::INFINITY),
        }
    }
}

/// Serialized state: every virtual job (sorted by id) plus the virtual
/// clock and the next completion rank.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct FspState {
    jobs: Vec<VirtualJob>,
    advanced_to_ms: u64,
    next_rank: u64,
}

impl Scheduler for Fsp {
    fn name(&self) -> &str {
        "FSP"
    }

    fn requires_oracle(&self) -> bool {
        true
    }

    fn on_job_completed(&mut self, job: JobId, _now: SimTime) {
        if let Ok(i) = self.position(job) {
            if self.jobs[i].finished_rank.is_some() {
                // Virtually done too — nothing left to simulate for it.
                self.jobs.remove(i);
            } else {
                // Really done but virtually still owed service: keep the
                // virtual copy (it competes for virtual capacity, delaying
                // other jobs' virtual finishes, as in true FSP).
                self.jobs[i].departed = true;
            }
        }
    }

    fn snapshot_state(&self) -> Option<String> {
        let state = FspState {
            jobs: self.jobs.clone(),
            advanced_to_ms: self.advanced_to.as_millis(),
            next_rank: self.next_rank,
        };
        Some(serde_json::to_string(&state).expect("FSP state serialization cannot fail"))
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        let state: FspState =
            serde_json::from_str(state).map_err(|e| format!("malformed FSP state: {e}"))?;
        if state.jobs.windows(2).any(|w| w[0].job >= w[1].job) {
            return Err("FSP state jobs are not strictly id-sorted".to_string());
        }
        self.jobs = state.jobs;
        self.advanced_to = SimTime::from_millis(state.advanced_to_ms);
        self.next_rank = state.next_rank;
        Ok(())
    }

    fn check_consistency(&self) -> Result<(), String> {
        for w in self.jobs.windows(2) {
            if w[0].job >= w[1].job {
                return Err(format!(
                    "virtual jobs out of order: {} before {}",
                    w[0].job, w[1].job
                ));
            }
        }
        for v in &self.jobs {
            if !v.virtual_remaining.is_finite() || v.virtual_remaining < 0.0 {
                return Err(format!(
                    "job {} has invalid virtual remaining {}",
                    v.job, v.virtual_remaining
                ));
            }
            if let Some(rank) = v.finished_rank {
                if rank >= self.next_rank {
                    return Err(format!(
                        "job {} carries rank {rank} but only {} were assigned",
                        v.job, self.next_rank
                    ));
                }
                if v.virtual_remaining != 0.0 {
                    return Err(format!(
                        "job {} is virtually finished but has remaining {}",
                        v.job, v.virtual_remaining
                    ));
                }
            }
        }
        Ok(())
    }

    fn allocate(&mut self, ctx: &SchedContext<'_>) -> AllocationPlan {
        self.admit_new(ctx.jobs());
        self.advance_virtual(ctx.now(), ctx.total_containers());
        let jobs = ctx.jobs();
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by(|&a, &b| {
            let (ra, va) = self.priority_key(jobs[a].id);
            let (rb, vb) = self.priority_key(jobs[b].id);
            ra.cmp(&rb)
                .then_with(|| va.total_cmp(&vb))
                .then_with(|| jobs[a].arrival.cmp(&jobs[b].arrival))
                .then_with(|| jobs[a].id.cmp(&jobs[b].id))
        });
        grant_in_order(order.into_iter().map(|i| &jobs[i]), ctx.total_containers())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasmq_simulator::{OracleInfo, Service};

    fn view(id: u32, size: f64) -> JobView {
        JobView {
            id: JobId::new(id),
            arrival: SimTime::ZERO,
            admitted_at: SimTime::ZERO,
            priority: 1,
            attained: Service::ZERO,
            attained_stage: Service::ZERO,
            stage_index: 0,
            stage_count: 1,
            stage_progress: 0.0,
            remaining_tasks: 100,
            unstarted_tasks: 100,
            containers_per_task: 1,
            held: 0,
            oracle: Some(OracleInfo {
                total_size: Service::from_container_secs(size),
                remaining: Service::from_container_secs(size),
            }),
        }
    }

    #[test]
    fn smallest_job_virtually_finishes_first_and_gets_the_cluster() {
        let mut fsp = Fsp::new(0.0, 0);
        let jobs = vec![view(0, 1_000.0), view(1, 10.0)];
        // First pass at t = 0 admits both; nothing has virtually finished,
        // so the smaller virtual remaining leads.
        let plan = fsp.allocate(&SchedContext::new(SimTime::ZERO, 10, &jobs));
        assert_eq!(plan.entries()[0].0, JobId::new(1));
        // Advance far enough for job 1 to virtually complete (10 c·s at
        // 10 containers shared 2 ways = 2 s); it must stay first.
        let plan = fsp.allocate(&SchedContext::new(SimTime::from_secs(5), 10, &jobs));
        assert_eq!(plan.entries()[0].0, JobId::new(1));
        let (rank, _) = fsp.priority_key(JobId::new(1));
        assert_eq!(rank, 0, "job 1 virtually finished first");
        fsp.check_consistency().unwrap();
    }

    #[test]
    fn virtual_ps_is_fair_across_equal_jobs() {
        let mut fsp = Fsp::new(0.0, 0);
        let jobs = vec![view(0, 100.0), view(1, 100.0)];
        fsp.allocate(&SchedContext::new(SimTime::ZERO, 10, &jobs));
        fsp.allocate(&SchedContext::new(SimTime::from_secs(4), 10, &jobs));
        // 40 container-secs of virtual work split two ways: 20 each.
        assert_eq!(fsp.jobs[0].virtual_remaining, 80.0);
        assert_eq!(fsp.jobs[1].virtual_remaining, 80.0);
    }

    #[test]
    fn departed_jobs_keep_consuming_virtual_capacity() {
        let mut fsp = Fsp::new(0.0, 0);
        let jobs = vec![view(0, 100.0), view(1, 100.0)];
        fsp.allocate(&SchedContext::new(SimTime::ZERO, 10, &jobs));
        // Job 0 really completes while still virtually unfinished.
        fsp.on_job_completed(JobId::new(0), SimTime::from_secs(1));
        let remaining = vec![view(1, 100.0)];
        fsp.allocate(&SchedContext::new(SimTime::from_secs(3), 10, &remaining));
        // 30 c·s of virtual work still split 2 ways — the ghost gets half.
        assert_eq!(fsp.jobs.len(), 2);
        assert!(fsp.jobs[0].departed);
        assert_eq!(fsp.jobs[1].virtual_remaining, 85.0);
    }

    #[test]
    fn chunked_and_single_advance_agree_at_identical_instants() {
        let jobs = vec![view(0, 300.0), view(1, 40.0), view(2, 7.0)];
        let mut a = Fsp::new(0.7, 9);
        let mut b = Fsp::new(0.7, 9);
        for t in [0u64, 1, 2, 5, 9] {
            a.allocate(&SchedContext::new(SimTime::from_secs(t), 10, &jobs));
            b.allocate(&SchedContext::new(SimTime::from_secs(t), 10, &jobs));
        }
        assert_eq!(a.snapshot_state(), b.snapshot_state());
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let mut fsp = Fsp::new(1.0, 3);
        let jobs = vec![view(0, 500.0), view(1, 5.0), view(2, 50.0)];
        fsp.allocate(&SchedContext::new(SimTime::ZERO, 10, &jobs));
        fsp.allocate(&SchedContext::new(SimTime::from_secs(2), 10, &jobs));
        let snap = fsp.snapshot_state().unwrap();
        let mut restored = Fsp::new(1.0, 3);
        restored.restore_state(&snap).unwrap();
        assert_eq!(restored.snapshot_state().unwrap(), snap);
        // And the restored instance keeps making identical decisions.
        let ctx = SchedContext::new(SimTime::from_secs(7), 10, &jobs);
        assert_eq!(restored.allocate(&ctx), fsp.allocate(&ctx));
    }

    #[test]
    fn malformed_state_is_rejected() {
        let mut fsp = Fsp::new(0.0, 0);
        assert!(fsp.restore_state("not json").is_err());
        let out_of_order = r#"{"jobs":[{"job":2,"estimate":1.0,"virtual_remaining":1.0,
            "finished_rank":null,"departed":false},{"job":1,"estimate":1.0,
            "virtual_remaining":1.0,"finished_rank":null,"departed":false}],
            "advanced_to_ms":0,"next_rank":0}"#;
        assert!(fsp.restore_state(out_of_order).is_err());
    }
}
