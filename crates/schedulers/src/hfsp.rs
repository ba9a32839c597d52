//! An HFSP-style scheduler: FSP with progressive estimate refinement and
//! aging.
//!
//! HFSP ("Hadoop Fair Sojourn Protocol", Pastorelli et al., *Practical
//! Size-based Scheduling for MapReduce Workloads*) adapts FSP to a world
//! where sizes are *guessed*: each job starts with a rough size estimate,
//! the estimate is refined as the job's tasks actually complete, and
//! waiting jobs are *aged* so an estimation mistake cannot starve them
//! forever. This implementation is an HFSP-style variant on the same
//! virtual processor-sharing machinery as [`Fsp`](crate::Fsp):
//!
//! * **Initial guess** — the oracle size corrupted by the shared
//!   [`SizeNoise`] model (`sigma = 0` = exact).
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
//! All state advances only inside `allocate` from pass-visible data, so
//! the engine and the reference executor make bit-identical decisions.

use lasmq_simulator::{AllocationPlan, JobId, JobView, SchedContext, Scheduler, SimTime};

use crate::grant_in_order;
use crate::noise::SizeNoise;

/// Observed stage progress below which the initial estimate is trusted
/// unrefined (same spirit as LAS_MQ's `min_progress` guard: a division by
/// near-zero progress projects garbage).
pub const MIN_PROGRESS: f64 = 0.05;

/// Extra virtual-progress weight for waiting jobs (a waiting job ages at
/// `1 + AGING_WEIGHT` times the equal share).
pub const AGING_WEIGHT: f64 = 1.0;

/// One job's state in the virtual system.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct VirtualJob {
    /// The job id (`u32` form, for the serialized snapshot).
    job: u32,
    /// The frozen initial size guess, container-secs.
    initial_estimate: f64,
    /// The current (refined) total-size estimate, container-secs.
    refined_estimate: f64,
    /// Service still owed in the virtual system, container-secs.
    virtual_remaining: f64,
    /// Virtual completion rank, assigned when `virtual_remaining` hits 0.
    finished_rank: Option<u64>,
    /// Whether the job really completed (virtual ghost; see [`Fsp`]).
    departed: bool,
    /// Whether the job was waiting (held nothing, wanted more) at the last
    /// pass — the aging trigger for the *next* virtual interval.
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

/// The HFSP-style scheduler.
///
/// # Examples
///
/// ```
/// use lasmq_schedulers::Hfsp;
/// use lasmq_simulator::Scheduler;
///
/// let hfsp = Hfsp::new(1.0, 7);
/// assert!(hfsp.requires_oracle());
/// assert_eq!(hfsp.name(), "HFSP");
/// ```
#[derive(Debug, Clone)]
pub struct Hfsp {
    noise: SizeNoise,
    /// Virtual jobs, sorted by job id (unique), for byte-stable snapshots
    /// and deterministic iteration.
    jobs: Vec<VirtualJob>,
    /// Simulation instant the virtual system has been advanced to.
    advanced_to: SimTime,
    /// Next virtual completion rank to assign.
    next_rank: u64,
}

impl Hfsp {
    /// HFSP whose initial guesses carry log-normal noise of scale `sigma`
    /// (`0` = exact), with `seed` pinning the per-job draws.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn new(sigma: f64, seed: u64) -> Self {
        Hfsp {
            noise: SizeNoise::new(sigma, 0.0, seed),
            jobs: Vec::new(),
            advanced_to: SimTime::ZERO,
            next_rank: 0,
        }
    }

    fn position(&self, job: JobId) -> Result<usize, usize> {
        self.jobs.binary_search_by_key(&u32::from(job), |v| v.job)
    }

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

    /// The refined total-size estimate from what the job has observably
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

    /// Re-projects every visible job's estimate and shifts its virtual
    /// remaining by the delta; also records the waiting flags the *next*
    /// virtual interval ages by.
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

    /// Advances the weighted virtual PS system to `now`. Waiting jobs
    /// carry weight `1 + AGING_WEIGHT`; work is water-filled by weight,
    /// finishing jobs smallest-weighted-remaining-first.
    fn advance_virtual(&mut self, now: SimTime, capacity: u32) {
        let dt = now.saturating_since(self.advanced_to).as_secs_f64();
        self.advanced_to = now;
        if dt <= 0.0 {
            return;
        }
        let mut work = capacity as f64 * dt;
        loop {
            let mut active: Vec<usize> = (0..self.jobs.len())
                .filter(|&i| self.jobs[i].finished_rank.is_none())
                .collect();
            if active.is_empty() || work <= 0.0 {
                return;
            }
            // Order by time-to-virtual-finish (remaining over weight);
            // ties resolve by id since `jobs` is id-sorted and the sort is
            // stable.
            active.sort_by(|&a, &b| {
                let ta = self.jobs[a].virtual_remaining / self.jobs[a].weight();
                let tb = self.jobs[b].virtual_remaining / self.jobs[b].weight();
                ta.total_cmp(&tb)
            });
            let total_weight: f64 = active.iter().map(|&i| self.jobs[i].weight()).sum();
            let first = &self.jobs[active[0]];
            let t_min = first.virtual_remaining / first.weight();
            if work >= t_min * total_weight {
                work -= t_min * total_weight;
                for &i in &active {
                    let v = &mut self.jobs[i];
                    v.virtual_remaining -= v.weight() * t_min;
                    if v.virtual_remaining <= 1e-9 {
                        v.virtual_remaining = 0.0;
                        v.finished_rank = Some(self.next_rank);
                        self.next_rank += 1;
                    }
                }
            } else {
                let t = work / total_weight;
                for &i in &active {
                    let v = &mut self.jobs[i];
                    v.virtual_remaining -= v.weight() * t;
                }
                return;
            }
        }
    }

    fn priority_key(&self, job: JobId) -> (u64, f64) {
        match self.position(job) {
            Ok(i) => {
                let v = &self.jobs[i];
                match v.finished_rank {
                    Some(rank) => (rank, 0.0),
                    None => (u64::MAX, v.virtual_remaining),
                }
            }
            Err(_) => (u64::MAX, f64::INFINITY),
        }
    }
}

/// Serialized state: the virtual jobs (sorted by id), the virtual clock,
/// and the next completion rank.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct HfspState {
    jobs: Vec<VirtualJob>,
    advanced_to_ms: u64,
    next_rank: u64,
}

impl Scheduler for Hfsp {
    fn name(&self) -> &str {
        "HFSP"
    }

    fn requires_oracle(&self) -> bool {
        true
    }

    fn on_job_completed(&mut self, job: JobId, _now: SimTime) {
        if let Ok(i) = self.position(job) {
            if self.jobs[i].finished_rank.is_some() {
                self.jobs.remove(i);
            } else {
                self.jobs[i].departed = true;
                self.jobs[i].waiting = false;
            }
        }
    }

    fn snapshot_state(&self) -> Option<String> {
        let state = HfspState {
            jobs: self.jobs.clone(),
            advanced_to_ms: self.advanced_to.as_millis(),
            next_rank: self.next_rank,
        };
        Some(serde_json::to_string(&state).expect("HFSP state serialization cannot fail"))
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        let state: HfspState =
            serde_json::from_str(state).map_err(|e| format!("malformed HFSP state: {e}"))?;
        if state.jobs.windows(2).any(|w| w[0].job >= w[1].job) {
            return Err("HFSP state jobs are not strictly id-sorted".to_string());
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
            if !v.refined_estimate.is_finite() || v.refined_estimate < 0.0 {
                return Err(format!(
                    "job {} has invalid refined estimate {}",
                    v.job, v.refined_estimate
                ));
            }
            if let Some(rank) = v.finished_rank {
                if rank >= self.next_rank {
                    return Err(format!(
                        "job {} carries rank {rank} but only {} were assigned",
                        v.job, self.next_rank
                    ));
                }
            }
        }
        Ok(())
    }

    fn allocate(&mut self, ctx: &SchedContext<'_>) -> AllocationPlan {
        self.admit_new(ctx.jobs());
        // Advance over [last, now] with the *previous* pass's waiting
        // flags, then refine estimates and flags from the fresh views.
        self.advance_virtual(ctx.now(), ctx.total_containers());
        self.refine(ctx.jobs());
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
    fn exact_estimates_order_small_jobs_first() {
        let mut hfsp = Hfsp::new(0.0, 0);
        let jobs = vec![view(0, 500.0), view(1, 5.0), view(2, 50.0)];
        let plan = hfsp.allocate(&SchedContext::new(SimTime::ZERO, 10, &jobs));
        assert_eq!(plan.entries()[0].0, JobId::new(1));
        hfsp.check_consistency().unwrap();
    }

    #[test]
    fn progress_refines_a_bad_initial_guess() {
        // The initial guess says 10 c·s, but at 50 % stage progress the job
        // has already attained 100 c·s — projection says 200.
        let mut refined_view = view(0, 10.0);
        refined_view.attained = Service::from_container_secs(100.0);
        refined_view.attained_stage = Service::from_container_secs(100.0);
        refined_view.stage_progress = 0.5;
        let refined = Hfsp::refined_estimate(10.0, &refined_view);
        assert_eq!(refined, 200.0);

        // Below the progress floor, the guess stands (floored at attained).
        let mut early = view(0, 10.0);
        early.attained = Service::from_container_secs(2.0);
        early.attained_stage = Service::from_container_secs(2.0);
        early.stage_progress = 0.01;
        assert_eq!(Hfsp::refined_estimate(10.0, &early), 10.0);
    }

    #[test]
    fn refinement_moves_virtual_remaining_by_the_delta() {
        let mut hfsp = Hfsp::new(0.0, 0);
        let jobs = vec![view(0, 100.0)];
        hfsp.allocate(&SchedContext::new(SimTime::ZERO, 10, &jobs));
        assert_eq!(hfsp.jobs[0].virtual_remaining, 100.0);
        // The job turns out twice as large as guessed.
        let mut progressed = view(0, 100.0);
        progressed.attained = Service::from_container_secs(100.0);
        progressed.attained_stage = Service::from_container_secs(100.0);
        progressed.stage_progress = 0.5;
        progressed.held = 10;
        let jobs = vec![progressed];
        hfsp.allocate(&SchedContext::new(SimTime::ZERO, 10, &jobs));
        assert_eq!(hfsp.jobs[0].refined_estimate, 200.0);
        assert_eq!(hfsp.jobs[0].virtual_remaining, 200.0);
    }

    #[test]
    fn waiting_jobs_age_faster_through_the_virtual_system() {
        let mut hfsp = Hfsp::new(0.0, 0);
        // Job 0 holds the cluster; job 1 waits.
        let mut holder = view(0, 100.0);
        holder.held = 10;
        let waiter = view(1, 100.0);
        let jobs = vec![holder, waiter];
        hfsp.allocate(&SchedContext::new(SimTime::ZERO, 10, &jobs));
        assert!(hfsp.jobs[1].waiting);
        assert!(!hfsp.jobs[0].waiting);
        // 30 c·s of virtual work, weights 1 vs 2: the waiter gets 20.
        hfsp.allocate(&SchedContext::new(SimTime::from_secs(3), 10, &jobs));
        assert_eq!(hfsp.jobs[0].virtual_remaining, 90.0);
        assert_eq!(hfsp.jobs[1].virtual_remaining, 80.0);
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let mut hfsp = Hfsp::new(1.5, 11);
        let jobs = vec![view(0, 500.0), view(1, 5.0), view(2, 50.0)];
        hfsp.allocate(&SchedContext::new(SimTime::ZERO, 10, &jobs));
        hfsp.allocate(&SchedContext::new(SimTime::from_secs(2), 10, &jobs));
        hfsp.on_job_completed(JobId::new(1), SimTime::from_secs(2));
        let snap = hfsp.snapshot_state().unwrap();
        let mut restored = Hfsp::new(1.5, 11);
        restored.restore_state(&snap).unwrap();
        assert_eq!(restored.snapshot_state().unwrap(), snap);
        let remaining = vec![view(0, 500.0), view(2, 50.0)];
        let ctx = SchedContext::new(SimTime::from_secs(5), 10, &remaining);
        assert_eq!(restored.allocate(&ctx), hfsp.allocate(&ctx));
    }

    #[test]
    fn malformed_state_is_rejected() {
        let mut hfsp = Hfsp::new(0.0, 0);
        assert!(hfsp.restore_state("{").is_err());
    }
}
