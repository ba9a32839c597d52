//! The multilevel queue data structure (Fig. 2 of the paper).
//!
//! `k` priority queues; every new job enters queue 1 (index 0, highest
//! priority) and is *demoted* — never promoted — once the service it has
//! received (or is estimated to receive, with stage awareness) exceeds its
//! queue's threshold. Demotion is monotonic in the *maximum* effective
//! service observed so far, so a temporarily shrinking estimate cannot
//! bounce a job back up and destabilize the ordering.
//!
//! **A queue's stored order is its sorted order.** Each job carries an
//! in-queue key `(demand, seq)` — the caller-supplied container demand
//! ([`set_demand`](MultilevelQueue::set_demand),
//! [`UNKNOWN_DEMAND`](MultilevelQueue::UNKNOWN_DEMAND) until first told;
//! a caller that never tells gets plain FIFO) ahead of the unique arrival
//! sequence number — and every queue is strictly ascending by it at all
//! times. The key is a strict total order, so that order is unique and
//! nothing ever has to restore it: each operation finds the one job it
//! concerns by binary search on the key (O(log n) entry lookups) and moves
//! only that job, an O(n) `memmove` of 4-byte ids at worst and nothing at
//! all when the job appends at the tail or keeps its rank.

use std::collections::HashSet;

use lasmq_simulator::{JobId, Service};

/// A job's in-queue sort key `(demand, seq)`: a strict total order,
/// because `seq` is unique.
type Key = (u32, u64);

#[derive(Debug, Clone, Copy)]
struct Entry {
    queue: usize,
    /// The caller-supplied half of the in-queue key.
    demand: u32,
    seq: u64,
    max_effective: f64,
}

impl Entry {
    fn key(&self) -> Key {
        (self.demand, self.seq)
    }
}

/// Queue membership and in-queue order for LAS_MQ.
///
/// # Examples
///
/// ```
/// use lasmq_core::mlq::MultilevelQueue;
/// use lasmq_simulator::{JobId, Service};
///
/// let thresholds = vec![Service::from_container_secs(100.0)];
/// let mut mlq = MultilevelQueue::new(2);
/// let (a, b) = (JobId::new(0), JobId::new(1));
/// mlq.insert(a);
/// mlq.insert(b);
/// mlq.set_demand(a, 40);
/// mlq.set_demand(b, 8);
/// assert_eq!(mlq.jobs_in(0), [b, a], "smaller demand first");
/// mlq.observe(b, Service::from_container_secs(150.0), &thresholds);
/// assert_eq!(mlq.queue_of(b), Some(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MultilevelQueue {
    /// Each queue strictly ascending by its members' [`Entry::key`].
    queues: Vec<Vec<JobId>>,
    /// Per-job entries addressed by `JobId::index()` (job ids are dense
    /// per run). One lookup here is what a binary-search probe costs.
    index: Vec<Option<Entry>>,
    /// Number of `Some` entries in `index` (= total queued jobs).
    live: usize,
    next_seq: u64,
}

impl MultilevelQueue {
    /// The demand half of a job's key until [`set_demand`](Self::set_demand)
    /// says otherwise: such jobs sort after every job with a known demand,
    /// in arrival order among themselves.
    pub const UNKNOWN_DEMAND: u32 = u32::MAX;

    /// `k` empty queues.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "at least one queue is required");
        MultilevelQueue {
            queues: vec![Vec::new(); k],
            index: Vec::new(),
            live: 0,
            next_seq: 0,
        }
    }

    fn entry(&self, job: JobId) -> Option<&Entry> {
        self.index.get(job.index()).and_then(Option::as_ref)
    }

    fn entry_mut(&mut self, job: JobId) -> Option<&mut Entry> {
        self.index.get_mut(job.index()).and_then(Option::as_mut)
    }

    fn key_of(&self, job: JobId) -> Key {
        self.entry(job).expect("queued job must be indexed").key()
    }

    /// Where in `queue` (all of one queue, or a run of it) a job keyed
    /// `key` belongs: the number of members whose key is below it. A key
    /// past the tail (every admission) costs one comparison.
    fn rank_in(&self, queue: &[JobId], key: Key) -> usize {
        match queue.last() {
            Some(&tail) if self.key_of(tail) > key => {
                queue.partition_point(|&member| self.key_of(member) < key)
            }
            _ => queue.len(),
        }
    }

    /// The position of a queued `job` (whose entry is `entry`) in its queue.
    fn position_of(&self, job: JobId, entry: &Entry) -> usize {
        let queue = &self.queues[entry.queue];
        let pos = queue.partition_point(|&member| self.key_of(member) < entry.key());
        debug_assert_eq!(
            queue.get(pos),
            Some(&job),
            "{job} is not where its key says"
        );
        pos
    }

    /// Stores `entry` for `job` (growing the table to cover it) and places
    /// the job in `entry.queue` at the rank its key has there.
    fn enqueue(&mut self, job: JobId, entry: Entry) {
        let idx = job.index();
        if idx >= self.index.len() {
            self.index.resize(idx + 1, None);
        }
        debug_assert!(self.index[idx].is_none(), "{job} inserted twice");
        self.index[idx] = Some(entry);
        self.live += 1;
        let pos = self.rank_in(&self.queues[entry.queue], entry.key());
        self.queues[entry.queue].insert(pos, job);
    }

    /// Takes a queued job out of its queue and the index, keeping the
    /// order of the rest; returns its entry.
    fn dequeue(&mut self, job: JobId) -> Option<Entry> {
        let entry = *self.entry(job)?;
        let pos = self.position_of(job, &entry);
        self.queues[entry.queue].remove(pos);
        self.index[job.index()] = None;
        self.live -= 1;
        Some(entry)
    }

    /// Number of queues.
    pub fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// Total jobs across all queues.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no job is enqueued.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Admits a new job to the highest-priority queue, behind every member
    /// (its demand is unknown and its seq the newest: an append).
    /// Idempotent: a job already present keeps its position.
    pub fn insert(&mut self, job: JobId) {
        if self.entry(job).is_some() {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.enqueue(
            job,
            Entry {
                queue: 0,
                demand: Self::UNKNOWN_DEMAND,
                seq,
                max_effective: 0.0,
            },
        );
    }

    /// Removes a completed job, keeping the order of the rest: O(log n) to
    /// find it plus the `memmove` of the members behind it. Idempotent.
    pub fn remove(&mut self, job: JobId) {
        self.dequeue(job);
    }

    /// Tells the structure the demand half of `job`'s key and moves the job
    /// — only it — to where the new key ranks in its queue. A key that
    /// moved without changing rank (the common case: the head job's demand
    /// shrinking) costs two neighbour comparisons; otherwise one binary
    /// search over the side it moves towards and one rotation of the run
    /// it passes. No-op for unknown jobs.
    pub fn set_demand(&mut self, job: JobId, demand: u32) {
        let Some(old) = self.entry(job).copied() else {
            return;
        };
        if old.demand == demand {
            return;
        }
        let pos = self.position_of(job, &old);
        let key = (demand, old.seq);
        self.index[job.index()] = Some(Entry { demand, ..old });
        let queue = &self.queues[old.queue];
        if key < old.key() {
            if pos > 0 && self.key_of(queue[pos - 1]) > key {
                let to = self.rank_in(&queue[..pos - 1], key);
                self.queues[old.queue][to..=pos].rotate_right(1);
            }
        } else if pos + 1 < queue.len() && self.key_of(queue[pos + 1]) < key {
            let to = pos + 2 + self.rank_in(&queue[pos + 2..], key);
            self.queues[old.queue][pos..to].rotate_left(1);
        }
    }

    /// The queue index a job currently sits in.
    pub fn queue_of(&self, job: JobId) -> Option<usize> {
        self.entry(job).map(|e| e.queue)
    }

    /// The arrival sequence number of a job (its FIFO rank).
    pub fn seq_of(&self, job: JobId) -> Option<u64> {
        self.entry(job).map(|e| e.seq)
    }

    /// The demand half of a job's key as last set
    /// ([`UNKNOWN_DEMAND`](Self::UNKNOWN_DEMAND) if never).
    pub fn demand_of(&self, job: JobId) -> Option<u32> {
        self.entry(job).map(|e| e.demand)
    }

    /// Jobs in queue `i`, ascending by `(demand, seq)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn jobs_in(&self, i: usize) -> &[JobId] {
        &self.queues[i]
    }

    /// Records an observation of a job's effective service and demotes it
    /// if the (monotonically tracked) maximum now exceeds its queue's
    /// threshold — Algorithm 1's movement rule: the job lands in the first
    /// queue whose threshold is at least the observed service, at the rank
    /// its key has there.
    ///
    /// Returns the job's (possibly new) queue, or `None` for unknown jobs.
    pub fn observe(
        &mut self,
        job: JobId,
        effective: Service,
        thresholds: &[Service],
    ) -> Option<usize> {
        debug_assert_eq!(thresholds.len() + 1, self.queues.len());
        let entry = self.entry_mut(job)?;
        entry.max_effective = entry.max_effective.max(effective.as_container_secs());
        // Relative epsilon: service accrual and the stage-awareness
        // division both carry float rounding, and job sizes routinely sit
        // *exactly on* a threshold (e.g. size-10⁴ jobs vs α₅ = 10⁴). A
        // nanoscale overshoot must not demote a job past the queue its true
        // service belongs to.
        let within = |t: &Service| entry.max_effective <= t.as_container_secs() * (1.0 + 1e-6);
        let current = entry.queue;
        // Still within the current queue's threshold (or in the last
        // queue): the scan below would stop at or before `current`.
        if thresholds.get(current).is_none_or(within) {
            return Some(current);
        }
        let target = thresholds
            .iter()
            .position(within)
            .unwrap_or(thresholds.len());
        if target <= current {
            return Some(current);
        }
        let mut entry = self.dequeue(job).expect("observed job is queued");
        entry.queue = target;
        self.enqueue(job, entry);
        Some(target)
    }

    /// Per-queue job counts (handy for tests and introspection).
    pub fn queue_lengths(&self) -> Vec<usize> {
        self.queues.iter().map(Vec::len).collect()
    }

    /// The maximum effective service observed for a job so far (the
    /// monotonic demotion key). `None` for unknown jobs.
    pub fn max_effective_of(&self, job: JobId) -> Option<f64> {
        self.entry(job).map(|e| e.max_effective)
    }

    /// The next arrival sequence number to be issued. Together with
    /// per-job [`seq_of`](Self::seq_of) values this fully determines FIFO
    /// tie-breaking, so snapshots capture it.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Re-inserts a snapshotted job into queue `queue` with its original
    /// arrival `seq` and monotonic `max_effective` key. Its demand is
    /// unknown again (derived state, not snapshotted), so it is placed by
    /// `seq` and a queue's jobs may be replayed in any order. Finish by
    /// calling [`set_next_seq`](Self::set_next_seq).
    ///
    /// # Errors
    ///
    /// Returns a message if `queue` is out of range or the job is already
    /// present.
    pub fn restore_job(
        &mut self,
        job: JobId,
        queue: usize,
        seq: u64,
        max_effective: f64,
    ) -> Result<(), String> {
        if queue >= self.queues.len() {
            return Err(format!(
                "queue {queue} out of range (structure has {})",
                self.queues.len()
            ));
        }
        if self.entry(job).is_some() {
            return Err(format!("{job} restored twice"));
        }
        self.enqueue(
            job,
            Entry {
                queue,
                demand: Self::UNKNOWN_DEMAND,
                seq,
                max_effective,
            },
        );
        Ok(())
    }

    /// Sets the next arrival sequence number (the last step of restoring a
    /// snapshot).
    ///
    /// # Errors
    ///
    /// Returns a message if two restored jobs share a seq (the in-queue key
    /// would stop being a total order) or `next_seq` is not beyond every
    /// restored job's seq (later inserts would collide with restored FIFO
    /// ranks).
    pub fn set_next_seq(&mut self, next_seq: u64) -> Result<(), String> {
        let mut issued = HashSet::with_capacity(self.live);
        for entry in self.index.iter().flatten() {
            if !issued.insert(entry.seq) {
                return Err(format!("seq {} was restored twice", entry.seq));
            }
            if next_seq <= entry.seq {
                return Err(format!(
                    "next_seq {next_seq} collides with an issued seq {}",
                    entry.seq
                ));
            }
        }
        self.next_seq = next_seq;
        Ok(())
    }

    /// Checks the structure's invariants without panicking: every queue is
    /// strictly ascending by `(demand, seq)` (which also guarantees each
    /// job appears in at most one slot of it), every member has an index
    /// entry naming that queue, every seq was actually issued, and the
    /// index holds nothing else. O(total jobs).
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found. Used by the
    /// engine's runtime invariant checker via
    /// [`Scheduler::check_consistency`](lasmq_simulator::Scheduler::check_consistency).
    pub fn check_consistent(&self) -> Result<(), String> {
        let queued: usize = self.queues.iter().map(Vec::len).sum();
        let indexed = self.index.iter().flatten().count();
        if indexed != self.live {
            return Err(format!(
                "{indexed} live index entries but a recorded count of {}",
                self.live
            ));
        }
        if queued != indexed {
            return Err(format!(
                "{queued} queued job slot(s) but {indexed} index entries"
            ));
        }
        for (qi, queue) in self.queues.iter().enumerate() {
            let mut previous: Option<(JobId, Key)> = None;
            for &job in queue {
                let Some(entry) = self.entry(job) else {
                    return Err(format!("{job} is queued but missing from the index"));
                };
                if entry.queue != qi {
                    return Err(format!(
                        "{job} sits in queue {qi} but is indexed in queue {}",
                        entry.queue
                    ));
                }
                if entry.seq >= self.next_seq {
                    return Err(format!(
                        "{job} carries seq {} but only {} have been issued",
                        entry.seq, self.next_seq
                    ));
                }
                if let Some((ahead, key)) = previous {
                    if key >= entry.key() {
                        return Err(format!(
                            "queue {qi} is out of order: {ahead} keyed {key:?} sits ahead of \
                             {job} keyed {:?}",
                            entry.key()
                        ));
                    }
                }
                previous = Some((job, entry.key()));
            }
        }
        Ok(())
    }

    /// Panicking wrapper around [`check_consistent`](Self::check_consistent),
    /// for tests.
    ///
    /// # Panics
    ///
    /// Panics if the structure is inconsistent.
    pub fn assert_consistent(&self) {
        if let Err(detail) = self.check_consistent() {
            panic!("multilevel queue inconsistent: {detail}");
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn thresholds(values: &[f64]) -> Vec<Service> {
        values
            .iter()
            .map(|&v| Service::from_container_secs(v))
            .collect()
    }

    #[test]
    fn new_jobs_enter_queue_zero_in_order() {
        let mut mlq = MultilevelQueue::new(3);
        for i in 0..4 {
            mlq.insert(JobId::new(i));
        }
        assert_eq!(mlq.jobs_in(0).len(), 4);
        assert_eq!(mlq.seq_of(JobId::new(0)), Some(0));
        assert_eq!(mlq.seq_of(JobId::new(3)), Some(3));
        assert_eq!(mlq.len(), 4);
    }

    #[test]
    fn demotion_follows_thresholds() {
        let t = thresholds(&[10.0, 100.0]);
        let mut mlq = MultilevelQueue::new(3);
        let j = JobId::new(0);
        mlq.insert(j);
        assert_eq!(
            mlq.observe(j, Service::from_container_secs(5.0), &t),
            Some(0)
        );
        assert_eq!(
            mlq.observe(j, Service::from_container_secs(50.0), &t),
            Some(1)
        );
        assert_eq!(
            mlq.observe(j, Service::from_container_secs(5_000.0), &t),
            Some(2)
        );
        assert_eq!(mlq.queue_lengths(), vec![0, 0, 1]);
    }

    #[test]
    fn demotion_is_monotonic_under_shrinking_estimates() {
        let t = thresholds(&[10.0]);
        let mut mlq = MultilevelQueue::new(2);
        let j = JobId::new(0);
        mlq.insert(j);
        mlq.observe(j, Service::from_container_secs(20.0), &t);
        assert_eq!(mlq.queue_of(j), Some(1));
        // The estimate later shrinks below the threshold — no promotion.
        mlq.observe(j, Service::from_container_secs(1.0), &t);
        assert_eq!(mlq.queue_of(j), Some(1));
    }

    #[test]
    fn jobs_can_skip_queues() {
        // A stage-awareness estimate can jump several thresholds at once.
        let t = thresholds(&[1.0, 10.0, 100.0, 1_000.0]);
        let mut mlq = MultilevelQueue::new(5);
        let j = JobId::new(0);
        mlq.insert(j);
        mlq.observe(j, Service::from_container_secs(500.0), &t);
        assert_eq!(mlq.queue_of(j), Some(3));
    }

    #[test]
    fn remove_is_idempotent_and_insert_too() {
        let mut mlq = MultilevelQueue::new(2);
        let j = JobId::new(7);
        mlq.insert(j);
        mlq.insert(j);
        assert_eq!(mlq.len(), 1);
        mlq.remove(j);
        mlq.remove(j);
        assert!(mlq.is_empty());
        assert_eq!(mlq.queue_of(j), None);
    }

    fn ids(jobs: &[JobId]) -> Vec<usize> {
        jobs.iter().map(|j| j.index()).collect()
    }

    #[test]
    fn a_queue_is_ordered_by_demand_then_arrival() {
        let mut mlq = MultilevelQueue::new(1);
        for i in 0..5 {
            mlq.insert(JobId::new(i));
        }
        assert_eq!(
            ids(mlq.jobs_in(0)),
            [0, 1, 2, 3, 4],
            "unknown demands: FIFO"
        );
        mlq.set_demand(JobId::new(3), 7);
        mlq.set_demand(JobId::new(1), 7);
        mlq.set_demand(JobId::new(4), 2);
        mlq.assert_consistent();
        // Known demands ascending, ties by arrival, unknown demands last.
        assert_eq!(ids(mlq.jobs_in(0)), [4, 1, 3, 0, 2]);
        // A key that moves without changing rank stays put...
        mlq.set_demand(JobId::new(1), 3);
        assert_eq!(ids(mlq.jobs_in(0)), [4, 1, 3, 0, 2]);
        // ...and one that does moves past exactly the jobs it outranks,
        // in either direction.
        mlq.set_demand(JobId::new(4), 9);
        assert_eq!(ids(mlq.jobs_in(0)), [1, 3, 4, 0, 2]);
        mlq.set_demand(JobId::new(2), 1);
        assert_eq!(ids(mlq.jobs_in(0)), [2, 1, 3, 4, 0]);
        mlq.assert_consistent();
    }

    /// The benchmark's regime: thousands of jobs in one queue, completions
    /// at the head, demotions out of the middle (alternating between two
    /// points, so demoted jobs reach the lower queue out of key order).
    /// Order and membership are asserted after every single step.
    #[test]
    fn backlog_scale_head_drain_and_mid_queue_demotion() {
        const JOBS: u32 = 5_000;
        let t = thresholds(&[10.0]);
        let mut mlq = MultilevelQueue::new(2);
        for i in 0..JOBS {
            mlq.insert(JobId::new(i));
            // Duplicate demands on purpose: 50 jobs share each value.
            mlq.set_demand(JobId::new(i), i / 50);
        }
        let mut top: Vec<JobId> = (0..JOBS).map(JobId::new).collect();
        let mut demoted: Vec<JobId> = Vec::new();
        assert_eq!(mlq.jobs_in(0), top);
        while !top.is_empty() {
            let head = top.remove(0);
            mlq.remove(head);
            if !top.is_empty() {
                let middle = top.remove(top.len() / (2 + top.len() % 2));
                let at = demoted.partition_point(|&j| j < middle);
                demoted.insert(at, middle);
                let queue = mlq.observe(middle, Service::from_container_secs(50.0), &t);
                assert_eq!(queue, Some(1));
            }
            assert_eq!(mlq.jobs_in(0), top);
            assert_eq!(mlq.jobs_in(1), demoted);
            assert_eq!(mlq.len(), top.len() + demoted.len());
            assert_eq!(mlq.queue_of(head), None);
            mlq.assert_consistent();
        }
        assert_eq!(demoted.len(), JOBS as usize / 2);
    }

    #[test]
    fn the_checker_catches_an_order_drift() {
        let mut mlq = MultilevelQueue::new(1);
        for i in 0..3 {
            mlq.insert(JobId::new(i));
        }
        // Test-only: no public API can produce an unsorted queue.
        mlq.queues[0].swap(0, 2);
        let detail = mlq.check_consistent().unwrap_err();
        assert!(detail.contains("out of order"), "{detail}");
    }

    #[test]
    fn restore_accepts_any_listed_order_but_not_a_shared_seq() {
        let mut mlq = MultilevelQueue::new(2);
        for (job, seq) in [(2, 5), (0, 1), (1, 3)] {
            mlq.restore_job(JobId::new(job), 1, seq, 20.0).unwrap();
        }
        mlq.set_next_seq(6).unwrap();
        mlq.assert_consistent();
        assert_eq!(ids(mlq.jobs_in(1)), [0, 1, 2]);
        assert!(mlq.restore_job(JobId::new(1), 0, 9, 0.0).is_err());
        assert!(mlq.restore_job(JobId::new(3), 2, 9, 0.0).is_err());
        assert!(mlq.set_next_seq(5).unwrap_err().contains("collides"));
        mlq.restore_job(JobId::new(3), 0, 3, 0.0).unwrap();
        assert!(mlq.set_next_seq(6).unwrap_err().contains("twice"));
    }

    /// Where the full threshold scan puts a job whose maximum effective
    /// service is `max_effective`: `observe` without its fast path.
    fn scanned_queue(max_effective: f64, thresholds: &[Service]) -> usize {
        thresholds
            .iter()
            .position(|t| max_effective <= t.as_container_secs() * (1.0 + 1e-6))
            .unwrap_or(thresholds.len())
    }

    /// An observed service: anywhere over the thresholds' span, or on a
    /// threshold's edge — at it, at the tolerance `t·(1 + 1e-6)`, or one
    /// ulp either side of the tolerance.
    fn observed_service(thresholds: Vec<Service>) -> impl Strategy<Value = f64> {
        let edges = thresholds.len();
        prop_oneof![
            (0.0f64..13.0).prop_map(|exp| 10f64.powf(exp) - 1.0),
            (0..edges, 0u8..4).prop_map(move |(i, edge)| {
                let t = thresholds[i].as_container_secs();
                let tolerance = t * (1.0 + 1e-6);
                match edge {
                    0 => t,
                    1 => tolerance,
                    2 => tolerance.next_up(),
                    _ => tolerance.next_down(),
                }
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// `observe` returns at once while a job stays within its queue's
        /// threshold; over any sequence of observations on the paper's
        /// thresholds it places and demotes every job as the full scan
        /// from queue 0 does.
        #[test]
        fn observe_agrees_with_the_full_scan(
            steps in prop::collection::vec(
                (0u32..4, observed_service(crate::LasMqConfig::paper_experiments().thresholds())),
                1..60,
            ),
        ) {
            let t = crate::LasMqConfig::paper_experiments().thresholds();
            let mut mlq = MultilevelQueue::new(t.len() + 1);
            let mut model = [(0usize, 0.0f64); 4];
            for job in 0..4 {
                mlq.insert(JobId::new(job));
            }
            for (job, service) in steps {
                let (queue, max) = &mut model[job as usize];
                *max = max.max(service);
                let from = *queue;
                *queue = from.max(scanned_queue(*max, &t));
                let id = JobId::new(job);
                let got = mlq.observe(id, Service::from_container_secs(service), &t);
                prop_assert_eq!(got, Some(*queue), "observing {} for {}", service, id);
                prop_assert_eq!(mlq.max_effective_of(id), Some(*max));
                for (other, &(queue, _)) in model.iter().enumerate() {
                    let members = mlq.jobs_in(queue);
                    prop_assert!(members.contains(&JobId::new(other as u32)));
                }
            }
            mlq.assert_consistent();
        }
    }

    #[test]
    fn observe_unknown_job_is_none() {
        let mut mlq = MultilevelQueue::new(2);
        assert_eq!(
            mlq.observe(JobId::new(9), Service::ZERO, &thresholds(&[1.0])),
            None
        );
    }

    #[test]
    #[should_panic(expected = "at least one queue")]
    fn zero_queues_panics() {
        let _ = MultilevelQueue::new(0);
    }
}
