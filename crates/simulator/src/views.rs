//! The engine's view cache: one [`JobView`] per active admitted job, in
//! admission order, handed to the scheduler as one slice every pass.
//!
//! The live views are `buf[head..]`. Admission appends a view. A finished
//! job's view is retired at once, by shifting whichever side of its slot is
//! shorter: the prefix one place right (the dead view lands at `head`, and
//! `head` moves past it) or the suffix one place left. Only the moved
//! views' slots are patched, so a retirement costs O(min(prefix, suffix))
//! instead of a sweep over every live view. The dead prefix is dropped
//! (`drain(..head)`) once it outgrows the live part, which keeps the buffer
//! under twice the live views and costs O(1) amortized per retirement.
//!
//! Slots handed out — [`slot`](ViewCache::slot),
//! [`changed`](ViewCache::changed) — are indices into
//! [`live`](ViewCache::live): the head offset never leaves this module.

use std::ops::Range;

use crate::ids::JobId;
use crate::sched::JobView;
use crate::time::Service;

/// Position of a job without a view in [`ViewCache::pos`].
const ABSENT: usize = usize::MAX;

/// The active admitted jobs' views, their slots, and the slots the last
/// refresh round changed.
#[derive(Debug, Default)]
pub(crate) struct ViewCache {
    /// Dead views in `..head`, live ones in `head..`.
    buf: Vec<JobView>,
    head: usize,
    /// Job index → position in `buf` (`ABSENT` when the job has no view).
    /// Grown on admission, so it spans the jobs admitted so far.
    pos: Vec<usize>,
    /// Live slots refreshed in the current round, ascending once the round
    /// is finished.
    changed: Vec<usize>,
    /// Slots patched because their view moved.
    #[cfg(test)]
    moved: u64,
    /// Views rebuilt by [`refresh`](Self::refresh).
    #[cfg(test)]
    pub(crate) rebuilt: u64,
    /// Views updated by [`accrue`](Self::accrue).
    #[cfg(test)]
    pub(crate) accrued: u64,
}

impl ViewCache {
    /// The live views, in admission order: what a pass shows the scheduler.
    pub(crate) fn live(&self) -> &[JobView] {
        &self.buf[self.head..]
    }

    /// `id`'s slot in [`live`](Self::live), or `None` if it has no view.
    pub(crate) fn slot(&self, id: JobId) -> Option<usize> {
        match self.pos.get(id.index()) {
            Some(&at) if at != ABSENT => Some(at - self.head),
            _ => None,
        }
    }

    /// `id`'s live view, or `None` if it has none.
    pub(crate) fn view_of(&self, id: JobId) -> Option<&JobView> {
        match self.pos.get(id.index()) {
            Some(&at) if at != ABSENT => Some(&self.buf[at]),
            _ => None,
        }
    }

    /// The live slots refreshed in the current round, ascending: the
    /// scheduler's change hint. An admission or a retirement moves slots,
    /// so either one empties the list.
    pub(crate) fn changed(&self) -> &[usize] {
        &self.changed
    }

    /// Appends the view of a newly admitted job.
    pub(crate) fn admit(&mut self, view: JobView) {
        let i = view.id.index();
        if i >= self.pos.len() {
            self.pos.resize(i + 1, ABSENT);
        }
        debug_assert_eq!(self.pos[i], ABSENT, "{} admitted twice", view.id);
        self.pos[i] = self.buf.len();
        self.buf.push(view);
        self.changed.clear();
    }

    /// Drops `id`'s view, keeping the rest in admission order, by moving
    /// the shorter side of its slot.
    pub(crate) fn retire(&mut self, id: JobId) {
        let at = std::mem::replace(&mut self.pos[id.index()], ABSENT);
        debug_assert!(at != ABSENT && at >= self.head, "{id} has no live view");
        let last = self.buf.len() - 1;
        if at - self.head <= last - at {
            self.buf[self.head..=at].rotate_right(1);
            self.head += 1;
            self.repoint(self.head..at + 1);
            if self.head > self.buf.len() - self.head {
                self.buf.drain(..self.head);
                self.head = 0;
                self.repoint(0..self.buf.len());
            }
        } else {
            self.buf[at..].rotate_left(1);
            self.buf.pop();
            self.repoint(at..last);
        }
        self.changed.clear();
    }

    /// Re-records the positions of the views in `buf[range]`, which moved.
    fn repoint(&mut self, range: Range<usize>) {
        #[cfg(test)]
        {
            self.moved += range.len() as u64;
        }
        for at in range {
            self.pos[self.buf[at].id.index()] = at;
        }
    }

    /// Starts a refresh round: no slot has changed yet.
    pub(crate) fn begin_refresh(&mut self) {
        self.changed.clear();
    }

    /// Lists `id`'s live slot as changed and returns its position in
    /// `buf`. A job is refreshed at most once per round.
    fn mark(&mut self, id: JobId) -> usize {
        let at = self.pos[id.index()];
        debug_assert_ne!(at, ABSENT, "refreshed {id} has no view");
        self.changed.push(at - self.head);
        at
    }

    /// Replaces the live view of `view.id` and lists its slot as changed.
    pub(crate) fn refresh(&mut self, view: JobView) {
        #[cfg(test)]
        {
            self.rebuilt += 1;
        }
        let at = self.mark(view.id);
        self.buf[at] = view;
    }

    /// Writes a job's accrued service into its live view and lists its
    /// slot as changed: the whole refresh of a job whose only change since
    /// its view was built is the service its running attempts accrued.
    pub(crate) fn accrue(&mut self, id: JobId, attained: Service, attained_stage: Service) {
        #[cfg(test)]
        {
            self.accrued += 1;
        }
        let at = self.mark(id);
        let view = &mut self.buf[at];
        view.attained = attained;
        view.attained_stage = attained_stage;
    }

    /// Ends a refresh round: the changed slots in ascending order.
    pub(crate) fn finish_refresh(&mut self) {
        self.changed.sort_unstable();
    }

    /// `id`'s position in the whole buffer, dead prefix included: a slot
    /// map that is off by the head, for the checker's mutation tests.
    #[cfg(test)]
    pub(crate) fn buffer_position(&self, id: JobId) -> Option<usize> {
        self.pos.get(id.index()).copied().filter(|&at| at != ABSENT)
    }

    /// Whether a dead prefix precedes the live views.
    #[cfg(test)]
    pub(crate) fn has_dead_prefix(&self) -> bool {
        self.head > 0
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use proptest::TestRng;

    use super::*;
    use crate::testkit::{view, BudgetedGreedy};
    use crate::{
        ClusterConfig, JobSpec, SimDuration, SimSnapshot, SimTime, Simulation, StageKind,
        StageSpec, TaskSpec,
    };

    /// The reference model: a plain vector whose retire is an
    /// order-preserving sweep, with its changed slots.
    #[derive(Default)]
    struct Model {
        views: Vec<JobView>,
        changed: Vec<usize>,
    }

    impl Model {
        fn slot(&self, id: JobId) -> Option<usize> {
            self.views.iter().position(|v| v.id == id)
        }

        fn retire(&mut self, id: JobId) {
            self.views.retain(|v| v.id != id);
            self.changed.clear();
        }
    }

    fn agree(cache: &ViewCache, model: &Model, ids: u32) -> Result<(), TestCaseError> {
        prop_assert_eq!(cache.live(), &model.views[..]);
        for i in 0..ids {
            let id = JobId::new(i);
            prop_assert_eq!(cache.slot(id), model.slot(id), "slot of {}", id);
        }
        prop_assert_eq!(cache.changed(), &model.changed[..]);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn the_cache_agrees_with_the_sweep_model(
            // Ops below `grow` admit, 8 and 9 refresh, the rest retire: the
            // cache grows in some cases and drains in others.
            grow in 3u8..6,
            steps in prop::collection::vec((0u8..10, 0u64..u64::MAX, 1u32..4), 1..400),
        ) {
            let (mut cache, mut model) = (ViewCache::default(), Model::default());
            let mut next_id = 0;
            for (stamp, &(op, draw, k)) in steps.iter().enumerate() {
                let live = model.views.len();
                let pick = |n: usize| (draw % n as u64) as usize;
                if op < grow {
                    // Id gaps: jobs still waiting for admission have no view.
                    next_id += k;
                    let v = view(next_id - 1);
                    cache.admit(v.clone());
                    model.views.push(v);
                    model.changed.clear();
                } else if live == 0 {
                    continue;
                } else if op >= 8 {
                    // A refresh round over up to `k` distinct live jobs,
                    // listed out of order, each rebuilt or given accrued
                    // service.
                    cache.begin_refresh();
                    model.changed.clear();
                    let first = pick(live);
                    for slot in (first..live).take(k as usize).rev() {
                        let fresh = if draw >> (32 + slot % 32) & 1 == 0 {
                            let fresh = JobView {
                                held: stamp as u32,
                                ..model.views[slot].clone()
                            };
                            cache.refresh(fresh.clone());
                            fresh
                        } else {
                            let service = Service::from_container_secs(stamp as f64);
                            cache.accrue(model.views[slot].id, service, service);
                            JobView {
                                attained: service,
                                attained_stage: service,
                                ..model.views[slot].clone()
                            }
                        };
                        model.views[slot] = fresh;
                        model.changed.push(slot);
                    }
                    cache.finish_refresh();
                    model.changed.sort_unstable();
                } else {
                    let slot = match op % 3 {
                        0 => 0,
                        1 => live - 1,
                        _ => pick(live),
                    };
                    let id = model.views[slot].id;
                    cache.retire(id);
                    model.retire(id);
                }
                agree(&cache, &model, next_id)?;
            }
        }
    }

    /// How a retirement order picks the live slot to retire, given the live
    /// count.
    type Order = fn(usize) -> usize;

    /// Retires `n` views in `order`, returning the slots the cache patched
    /// and the slots an order-preserving sweep patches: every surviving
    /// view's.
    fn retirement_cost(n: u32, order: Order) -> (u64, u64) {
        let mut cache = ViewCache::default();
        for i in 0..n {
            cache.admit(view(i));
        }
        let mut sweep = 0;
        for live in (1..=n as usize).rev() {
            let id = cache.live()[order(live)].id;
            cache.retire(id);
            sweep += live as u64 - 1;
        }
        assert!(cache.live().is_empty());
        (cache.moved, sweep)
    }

    #[test]
    fn retirements_at_either_end_move_a_linear_number_of_views() {
        const N: u32 = 10_000;
        let bound = 2 * u64::from(N);
        let orders: [(&str, Order); 2] = [("front-first", |_| 0), ("back-first", |live| live - 1)];
        for (name, order) in orders {
            let (moved, sweep) = retirement_cost(N, order);
            assert!(moved <= bound, "{name}: {moved} moves for {N} views");
            assert!(sweep > bound, "{name}: the sweep would pass too ({sweep})");
        }
    }

    #[test]
    fn middle_out_retirement_moves_at_most_half_of_what_the_sweep_does() {
        // The shorter side of the middle slot is half the live views, so
        // this is the worst order: quadratic, but half the sweep's work.
        const N: u32 = 10_000;
        let n = u64::from(N);
        let bound = n * n / 4 + 2 * n;
        let (moved, sweep) = retirement_cost(N, |live| live / 2);
        assert!(moved <= bound, "middle-out: {moved} moves for {N} views");
        assert!(
            sweep > bound,
            "middle-out: the sweep would pass too ({sweep})"
        );
    }

    /// 64 one-task jobs admitted together on 64 containers under the armed
    /// checker, the job at admission slot `i` finishing `rank[i] + 1`
    /// seconds in.
    fn one_task_jobs(rank: &[u64]) -> Simulation<BudgetedGreedy> {
        let job = |secs| {
            JobSpec::builder()
                .stage(StageSpec::uniform(
                    StageKind::Map,
                    1,
                    TaskSpec::new(SimDuration::from_secs(secs)),
                ))
                .build()
        };
        Simulation::builder()
            .cluster(ClusterConfig::single_node(64))
            .check_invariants(true)
            .jobs(rank.iter().map(|&r| job(r + 1)))
            .build(BudgetedGreedy)
            .unwrap()
    }

    #[test]
    fn the_engine_keeps_every_promise_behind_a_dead_prefix() {
        let front_first: Vec<u64> = (0..64).collect();
        // Job 0 first, so the back-first retirements shift suffixes behind
        // a dead prefix.
        let back_first: Vec<u64> = (0..64).map(|i| (64 - i) % 64).collect();
        let mut shuffled = front_first.clone();
        let mut rng = TestRng::deterministic("shuffled");
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for (name, rank) in [
            ("front-first", front_first),
            ("back-first", back_first),
            ("shuffled", shuffled),
        ] {
            let uninterrupted = one_task_jobs(&rank).run();
            let audit = uninterrupted.invariants().unwrap();
            assert!(audit.is_clean(), "{name}: {audit}");
            let finish_order: Vec<u64> = uninterrupted
                .outcomes()
                .iter()
                .map(|o| o.finish.unwrap().as_millis() / 1000 - 1)
                .collect();
            assert_eq!(finish_order, rank, "{name}");

            // Pause behind a dead prefix. A restore rebuilds the cache
            // without one, and the rest of the run must not notice.
            let mut sim = one_task_jobs(&rank);
            while !sim.view_cache().has_dead_prefix() {
                assert!(
                    sim.step_batch(SimTime::from_secs(3600)),
                    "{name}: no front retirement"
                );
            }
            let snap = SimSnapshot::from_json(&sim.snapshot().to_json()).unwrap();
            let resumed = Simulation::restore(snap, BudgetedGreedy).unwrap();
            assert!(!resumed.view_cache().has_dead_prefix());
            assert_eq!(
                serde_json::to_string(&resumed.run()).unwrap(),
                serde_json::to_string(&uninterrupted).unwrap(),
                "{name}"
            );
        }
    }
}
