//! The Fair Sojourn Protocol (FSP) and its HFSP-style variant, over
//! (optionally noisy) size estimates: one virtual processor-sharing core.
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
//! HFSP ("Hadoop Fair Sojourn Protocol", Pastorelli et al., *Practical
//! Size-based Scheduling for MapReduce Workloads*) adapts FSP to a world
//! where sizes are *guessed*. It is the same algorithm with two additions,
//! and [`Fsp::hfsp`] is the same struct with both switched on:
//!
//! * **Progressive refinement** — once the current stage's observed
//!   progress clears [`MIN_PROGRESS`], the stage's size is re-projected
//!   from attained service (`attained_stage / progress`, the same
//!   projection LAS_MQ's stage awareness uses), prior stages are counted
//!   at their observed cost, and unobserved future stages keep a prorated
//!   share of the initial guess. The virtual remaining moves by the
//!   estimate delta (never below zero).
//! * **Aging** — jobs observed *waiting* (zero containers held while
//!   wanting more) progress through the virtual system at
//!   `1 + AGING_WEIGHT` times the equal share, so a job stuck behind a
//!   mis-estimated giant virtually finishes sooner and reclaims priority.
//!
//! Plain FSP never marks a job waiting, so every weight is exactly `1.0`
//! and the weighted water-filling below *is* equal-share PS, bit for bit
//! (`x / 1.0`, `1.0 · x` and a sum of `n` ones are exact in IEEE
//! arithmetic).
//!
//! Determinism: the virtual clock advances only inside
//! [`allocate_into`](Scheduler::allocate_into) by `now − last_pass`, with
//! water-filling resolved smallest-time-to-virtual-finish-first (ties by
//! job id), and estimates are refined from pass-visible data only. The
//! engine and the naive reference executor run scheduling passes at
//! identical instants, so both integrate the virtual system over identical
//! interval chunks and the differential oracle sees bit-identical
//! decisions.

use lasmq_simulator::{AllocationPlan, JobId, JobView, SchedContext, Scheduler, SimTime};

use crate::noise::SizeNoise;
use crate::{grant_in_order, oracle_info};

/// Observed stage progress below which HFSP trusts the initial estimate
/// unrefined (same spirit as LAS_MQ's `min_progress` guard: a division by
/// near-zero progress projects garbage).
pub const MIN_PROGRESS: f64 = 0.05;

/// Extra virtual-progress weight for HFSP's waiting jobs (a waiting job
/// ages at `1 + AGING_WEIGHT` times the equal share).
pub const AGING_WEIGHT: f64 = 1.0;

/// One job's state in the virtual processor-sharing system.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct VirtualJob {
    /// The job id (`u32` form, for the serialized snapshot).
    job: u32,
    /// The frozen (possibly corrupted) initial size guess, container-secs.
    initial_estimate: f64,
    /// The current total-size estimate, container-secs (HFSP refines it;
    /// under plain FSP it stays the initial guess).
    refined_estimate: f64,
    /// Service still owed in the virtual PS system, container-secs.
    virtual_remaining: f64,
    /// Virtual completion rank, assigned when `virtual_remaining` hits 0.
    finished_rank: Option<u64>,
    /// Whether the job really completed. Its virtual copy stays — it still
    /// consumes virtual capacity until it virtually finishes, as in the
    /// true protocol — but is no longer schedulable.
    departed: bool,
    /// Whether the job was waiting (held nothing, wanted more) at the last
    /// pass — HFSP's aging trigger for the *next* virtual interval.
    waiting: bool,
}

impl VirtualJob {
    fn weight(&self) -> f64 {
        if self.waiting && !self.departed {
            1.0 + AGING_WEIGHT
        } else {
            1.0
        }
    }
}

/// The fair sojourn protocol scheduler, plain ([`Fsp::new`]) or with
/// HFSP's estimate refinement and aging ([`Fsp::hfsp`]).
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
/// assert_eq!(Fsp::hfsp(1.0, 7).name(), "HFSP");
/// ```
#[derive(Debug, Clone)]
pub struct Fsp {
    /// Whether this is the HFSP variant (refinement and aging on).
    hfsp: bool,
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
            hfsp: false,
            noise: SizeNoise::new(sigma, 0.0, seed),
            jobs: Vec::new(),
            advanced_to: SimTime::ZERO,
            next_rank: 0,
        }
    }

    /// The HFSP-style variant: the same noisy initial guesses as
    /// [`Fsp::new`], refined from observed stage progress, with waiting
    /// jobs aged through the virtual system.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn hfsp(sigma: f64, seed: u64) -> Self {
        Fsp {
            hfsp: true,
            ..Fsp::new(sigma, seed)
        }
    }

    fn position(&self, job: JobId) -> Result<usize, usize> {
        self.jobs.binary_search_by_key(&u32::from(job), |v| v.job)
    }

    /// Admits any job in `views` the virtual system has not seen yet.
    /// Initial estimates are frozen at first contact.
    fn admit_new(&mut self, views: &[JobView]) {
        for view in views {
            if let Err(slot) = self.position(view.id) {
                let estimate = self
                    .noise
                    .estimate(view.id, oracle_info(view).total_size)
                    .as_container_secs();
                self.jobs.insert(
                    slot,
                    VirtualJob {
                        job: u32::from(view.id),
                        initial_estimate: estimate,
                        refined_estimate: estimate,
                        virtual_remaining: estimate,
                        finished_rank: None,
                        departed: false,
                        waiting: false,
                    },
                );
            }
        }
    }

    /// HFSP's refined total-size estimate from what the job has observably
    /// done: prior stages at their true (attained) cost, the current stage
    /// projected from its progress counter once trustworthy, unobserved
    /// future stages at a prorated share of the initial guess.
    fn refined_estimate(initial: f64, view: &JobView) -> f64 {
        let attained = view.attained.as_container_secs();
        let attained_stage = view.attained_stage.as_container_secs();
        if view.stage_progress < MIN_PROGRESS || attained_stage <= 0.0 {
            return initial.max(attained);
        }
        let past = (attained - attained_stage).max(0.0);
        let stage_projected = (attained_stage / view.stage_progress).max(attained_stage);
        let future_stages = view.stage_count.saturating_sub(view.stage_index + 1);
        let future_guess = if view.stage_count > 0 {
            initial * future_stages as f64 / view.stage_count as f64
        } else {
            0.0
        };
        (past + stage_projected + future_guess).max(attained)
    }

    /// HFSP only: re-projects every visible job's estimate and shifts its
    /// virtual remaining by the delta; also records the waiting flags the
    /// *next* virtual interval ages by.
    fn refine(&mut self, views: &[JobView]) {
        for view in views {
            if let Ok(i) = self.position(view.id) {
                let v = &mut self.jobs[i];
                let refined = Self::refined_estimate(v.initial_estimate, view);
                if v.finished_rank.is_none() {
                    let delta = refined - v.refined_estimate;
                    v.virtual_remaining = (v.virtual_remaining + delta).max(0.0);
                }
                v.refined_estimate = refined;
                v.waiting = view.held == 0 && view.wants_more();
            }
        }
    }

    /// Advances the virtual PS system to `now`: `capacity × dt`
    /// container-seconds of virtual work, water-filled by weight across
    /// virtually unfinished jobs, finishing them
    /// smallest-time-to-finish-first.
    fn advance_virtual(&mut self, now: SimTime, capacity: u32) {
        let dt = now.saturating_since(self.advanced_to).as_secs_f64();
        self.advanced_to = now;
        if dt <= 0.0 {
            return;
        }
        let mut work = capacity as f64 * dt;
        loop {
            // The active set: virtually unfinished jobs keyed by time to
            // virtual finish (remaining over weight), soonest first; ties
            // resolve by id since `jobs` is id-sorted and the sort is
            // stable.
            let mut active: Vec<(f64, usize)> = self
                .jobs
                .iter()
                .enumerate()
                .filter(|(_, v)| v.finished_rank.is_none())
                .map(|(i, v)| (v.virtual_remaining / v.weight(), i))
                .collect();
            if active.is_empty() || work <= 0.0 {
                return;
            }
            active.sort_by(|a, b| a.0.total_cmp(&b.0));
            let total_weight: f64 = active.iter().map(|&(_, i)| self.jobs[i].weight()).sum();
            let t_min = active[0].0;
            if work >= t_min * total_weight {
                // Enough work to virtually finish the soonest job(s):
                // drain `t_min` of virtual time from everyone, rank the
                // finishers, and water-fill the rest with what remains.
                work -= t_min * total_weight;
                for &(_, i) in &active {
                    let v = &mut self.jobs[i];
                    v.virtual_remaining -= v.weight() * t_min;
                    if v.virtual_remaining <= 1e-9 {
                        v.virtual_remaining = 0.0;
                        v.finished_rank = Some(self.next_rank);
                        self.next_rank += 1;
                    }
                }
                // A ghost that has now virtually finished too has nothing
                // left to simulate.
                self.jobs
                    .retain(|v| !(v.departed && v.finished_rank.is_some()));
            } else {
                let t = work / total_weight;
                for &(_, i) in &active {
                    let v = &mut self.jobs[i];
                    v.virtual_remaining -= v.weight() * t;
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

    /// What [`check_consistency`](Scheduler::check_consistency) audits and
    /// [`restore_state`](Scheduler::restore_state) refuses to load.
    fn audit(jobs: &[VirtualJob], next_rank: u64) -> Result<(), String> {
        for w in jobs.windows(2) {
            if w[0].job >= w[1].job {
                return Err(format!(
                    "virtual jobs out of order: {} before {}",
                    w[0].job, w[1].job
                ));
            }
        }
        for v in jobs {
            if !v.virtual_remaining.is_finite() || v.virtual_remaining < 0.0 {
                return Err(format!(
                    "job {} has invalid virtual remaining {}",
                    v.job, v.virtual_remaining
                ));
            }
            if !v.refined_estimate.is_finite() || v.refined_estimate < 0.0 {
                return Err(format!(
                    "job {} has invalid refined estimate {}",
                    v.job, v.refined_estimate
                ));
            }
            if let Some(rank) = v.finished_rank {
                if rank >= next_rank {
                    return Err(format!(
                        "job {} carries rank {rank} but only {next_rank} were assigned",
                        v.job
                    ));
                }
                if v.virtual_remaining != 0.0 {
                    return Err(format!(
                        "job {} is virtually finished but has remaining {}",
                        v.job, v.virtual_remaining
                    ));
                }
                if v.departed {
                    return Err(format!(
                        "job {} is both departed and virtually finished",
                        v.job
                    ));
                }
            }
        }
        Ok(())
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
        if self.hfsp {
            "HFSP"
        } else {
            "FSP"
        }
    }

    fn requires_oracle(&self) -> bool {
        true
    }

    fn reads_stage_progress(&self) -> bool {
        // Only HFSP's estimate refinement divides by the progress counter.
        self.hfsp
    }

    fn on_job_completed(&mut self, job: JobId, _now: SimTime) {
        if let Ok(i) = self.position(job) {
            if self.jobs[i].finished_rank.is_some() {
                // Virtually done too — nothing left to simulate for it.
                self.jobs.remove(i);
            } else {
                // Really done but virtually still owed service: keep the
                // virtual copy (it competes for virtual capacity, delaying
                // other jobs' virtual finishes, as in true FSP) until
                // `advance_virtual` ranks it.
                self.jobs[i].departed = true;
                self.jobs[i].waiting = false;
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
        let state: FspState = serde_json::from_str(state)
            .map_err(|e| format!("malformed {} state: {e}", self.name()))?;
        Self::audit(&state.jobs, state.next_rank)?;
        self.jobs = state.jobs;
        self.advanced_to = SimTime::from_millis(state.advanced_to_ms);
        self.next_rank = state.next_rank;
        Ok(())
    }

    fn check_consistency(&self) -> Result<(), String> {
        Self::audit(&self.jobs, self.next_rank)
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
        self.admit_new(ctx.jobs());
        // Advance over [last, now] with the *previous* pass's waiting
        // flags, then (HFSP) refine estimates and flags from the fresh
        // views.
        self.advance_virtual(ctx.now(), ctx.total_containers());
        if self.hfsp {
            self.refine(ctx.jobs());
        }
        let mut order: Vec<_> = ctx
            .jobs()
            .iter()
            .map(|j| (self.priority_key(j.id), j))
            .collect();
        order.sort_by(|((ra, va), a), ((rb, vb), b)| {
            ra.cmp(rb)
                .then_with(|| va.total_cmp(vb))
                .then_with(|| a.arrival.cmp(&b.arrival))
                .then_with(|| a.id.cmp(&b.id))
        });
        grant_in_order(
            plan,
            order.into_iter().map(|(_, j)| j),
            ctx.total_containers(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasmq_simulator::{testkit, OracleInfo, Service};

    fn view(id: u32, size: f64) -> JobView {
        JobView {
            oracle: Some(OracleInfo {
                total_size: Service::from_container_secs(size),
                remaining: Service::from_container_secs(size),
            }),
            ..testkit::view(id)
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
    fn a_finished_trace_leaves_no_virtual_jobs_behind() {
        for mut sched in [Fsp::new(0.0, 0), Fsp::hfsp(0.0, 0)] {
            let name = sched.name().to_string();
            let jobs = vec![view(0, 300.0), view(1, 40.0), view(2, 7.0)];
            sched.allocate(&SchedContext::new(SimTime::ZERO, 10, &jobs));
            let at_start = sched.snapshot_state().unwrap();
            // Job 2 virtually finishes (rank 0) before it really does; jobs
            // 0 and 1 really finish while virtually still owed service.
            sched.allocate(&SchedContext::new(SimTime::from_secs(3), 10, &jobs));
            sched.on_job_completed(JobId::new(0), SimTime::from_secs(3));
            sched.on_job_completed(JobId::new(1), SimTime::from_secs(3));
            sched.on_job_completed(JobId::new(2), SimTime::from_secs(4));
            assert_eq!(sched.jobs.len(), 2, "{name}: the two ghosts remain");
            // Each ghost must go the moment it virtually finishes (28.5 of
            // the next 70 c·s rank job 1; job 0 needs far more).
            sched.allocate(&SchedContext::new(SimTime::from_secs(10), 10, &[]));
            assert_eq!(sched.jobs.len(), 1, "{name}: the ranked ghost is gone");
            sched.check_consistency().unwrap();
            sched.allocate(&SchedContext::new(SimTime::from_secs(100), 10, &[]));
            assert!(sched.jobs.is_empty(), "{name}: the table is empty");
            sched.check_consistency().unwrap();
            let drained = sched.snapshot_state().unwrap();
            assert!(
                drained.len() < at_start.len(),
                "{name}: payload grew from {at_start} to {drained}"
            );
        }
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
    fn fsp_snapshot_round_trips_bit_identically() {
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
        assert!(Fsp::hfsp(0.0, 0).restore_state("{").is_err());
        let entry = |job: u32, rank: &str, departed: bool| {
            format!(
                r#"{{"job":{job},"initial_estimate":1.0,"refined_estimate":1.0,
                "virtual_remaining":0.0,"finished_rank":{rank},"departed":{departed},
                "waiting":false}}"#
            )
        };
        let state = |jobs: &[String]| {
            format!(
                r#"{{"jobs":[{}],"advanced_to_ms":0,"next_rank":1}}"#,
                jobs.join(",")
            )
        };
        let sound = state(&[entry(1, "null", true), entry(2, "0", false)]);
        fsp.restore_state(&sound).unwrap();
        let out_of_order = state(&[entry(2, "null", false), entry(1, "null", false)]);
        assert!(fsp.restore_state(&out_of_order).is_err());
        let dead_ghost = state(&[entry(1, "0", true)]);
        assert!(fsp.restore_state(&dead_ghost).is_err());
    }

    #[test]
    fn hfsp_exact_estimates_order_small_jobs_first() {
        let mut hfsp = Fsp::hfsp(0.0, 0);
        let jobs = vec![view(0, 500.0), view(1, 5.0), view(2, 50.0)];
        let plan = hfsp.allocate(&SchedContext::new(SimTime::ZERO, 10, &jobs));
        assert_eq!(plan.entries()[0].0, JobId::new(1));
        hfsp.check_consistency().unwrap();
    }

    #[test]
    fn progress_refines_a_bad_initial_guess() {
        // The initial guess says 10 c·s, but at 50 % stage progress the job
        // has already attained 100 c·s — projection says 200.
        let refined_view = JobView {
            attained: Service::from_container_secs(100.0),
            attained_stage: Service::from_container_secs(100.0),
            stage_progress: 0.5,
            ..view(0, 10.0)
        };
        let refined = Fsp::refined_estimate(10.0, &refined_view);
        assert_eq!(refined, 200.0);

        // Below the progress floor, the guess stands (floored at attained).
        let early = JobView {
            attained: Service::from_container_secs(2.0),
            attained_stage: Service::from_container_secs(2.0),
            stage_progress: 0.01,
            ..view(0, 10.0)
        };
        assert_eq!(Fsp::refined_estimate(10.0, &early), 10.0);
    }

    #[test]
    fn refinement_moves_virtual_remaining_by_the_delta() {
        let mut hfsp = Fsp::hfsp(0.0, 0);
        let jobs = vec![view(0, 100.0)];
        hfsp.allocate(&SchedContext::new(SimTime::ZERO, 10, &jobs));
        assert_eq!(hfsp.jobs[0].virtual_remaining, 100.0);
        // The job turns out twice as large as guessed.
        let progressed = JobView {
            attained: Service::from_container_secs(100.0),
            attained_stage: Service::from_container_secs(100.0),
            stage_progress: 0.5,
            held: 10,
            ..view(0, 100.0)
        };
        let jobs = vec![progressed];
        hfsp.allocate(&SchedContext::new(SimTime::ZERO, 10, &jobs));
        assert_eq!(hfsp.jobs[0].refined_estimate, 200.0);
        assert_eq!(hfsp.jobs[0].virtual_remaining, 200.0);
    }

    #[test]
    fn plain_fsp_neither_refines_nor_ages() {
        let mut fsp = Fsp::new(0.0, 0);
        let progressed = JobView {
            attained: Service::from_container_secs(100.0),
            attained_stage: Service::from_container_secs(100.0),
            stage_progress: 0.5,
            held: 10,
            ..view(0, 100.0)
        };
        let jobs = vec![progressed, view(1, 100.0)];
        fsp.allocate(&SchedContext::new(SimTime::ZERO, 10, &jobs));
        fsp.allocate(&SchedContext::new(SimTime::from_secs(3), 10, &jobs));
        // The waiter gets no aging bonus and the evidence of a doubled
        // size is ignored: 30 c·s split evenly off the initial guesses.
        assert!(!fsp.jobs[1].waiting);
        assert_eq!(fsp.jobs[0].refined_estimate, 100.0);
        assert_eq!(fsp.jobs[0].virtual_remaining, 85.0);
        assert_eq!(fsp.jobs[1].virtual_remaining, 85.0);
    }

    #[test]
    fn waiting_jobs_age_faster_through_the_virtual_system() {
        let mut hfsp = Fsp::hfsp(0.0, 0);
        // Job 0 holds the cluster; job 1 waits.
        let holder = JobView {
            held: 10,
            ..view(0, 100.0)
        };
        let jobs = vec![holder, view(1, 100.0)];
        hfsp.allocate(&SchedContext::new(SimTime::ZERO, 10, &jobs));
        assert!(hfsp.jobs[1].waiting);
        assert!(!hfsp.jobs[0].waiting);
        // 30 c·s of virtual work, weights 1 vs 2: the waiter gets 20.
        hfsp.allocate(&SchedContext::new(SimTime::from_secs(3), 10, &jobs));
        assert_eq!(hfsp.jobs[0].virtual_remaining, 90.0);
        assert_eq!(hfsp.jobs[1].virtual_remaining, 80.0);
    }

    #[test]
    fn hfsp_snapshot_round_trips_bit_identically() {
        let mut hfsp = Fsp::hfsp(1.5, 11);
        let jobs = vec![view(0, 500.0), view(1, 5.0), view(2, 50.0)];
        hfsp.allocate(&SchedContext::new(SimTime::ZERO, 10, &jobs));
        hfsp.allocate(&SchedContext::new(SimTime::from_secs(2), 10, &jobs));
        hfsp.on_job_completed(JobId::new(1), SimTime::from_secs(2));
        let snap = hfsp.snapshot_state().unwrap();
        let mut restored = Fsp::hfsp(1.5, 11);
        restored.restore_state(&snap).unwrap();
        assert_eq!(restored.snapshot_state().unwrap(), snap);
        let remaining = vec![view(0, 500.0), view(2, 50.0)];
        let ctx = SchedContext::new(SimTime::from_secs(5), 10, &remaining);
        assert_eq!(restored.allocate(&ctx), hfsp.allocate(&ctx));
    }
}
