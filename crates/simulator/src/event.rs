//! The discrete-event core: event kinds and a deterministic event queue.
//!
//! Events at equal timestamps are delivered in insertion order (a
//! monotonically increasing sequence number breaks ties), which makes every
//! simulation run a pure function of its inputs and seed.
//!
//! # Implementation
//!
//! The queue is a hierarchical timing wheel (a calendar queue): three
//! 256-slot levels of 1 ms / 256 ms / 65.536 s granularity plus an
//! unsorted overflow list for events beyond the ~4.66 h horizon. Pushes and
//! pops are O(1) amortized — each event is relocated at most three times as
//! the cursor advances — where a `BinaryHeap` pays O(log n) per operation
//! on heaps that hold every pending arrival of a trace (24k+ entries for
//! the Facebook trace, 1M+ for the million-job workload). The unit tests
//! check its (time, insertion-seq) delivery order against a plain
//! `BinaryHeap` model.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use crate::ids::{JobId, StageId, TaskId};
use crate::time::SimTime;

/// Something that happens at an instant of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Event {
    /// A job is submitted to the cluster.
    JobArrival {
        /// The arriving job.
        job: JobId,
    },
    /// A task attempt finishes. `attempt` guards against stale events: if
    /// the attempt was superseded (a speculative copy finished first), the
    /// engine ignores the event.
    TaskFinish {
        /// The job the task belongs to.
        job: JobId,
        /// The stage the task belongs to.
        stage: StageId,
        /// The task within the stage.
        task: TaskId,
        /// Attempt number distinguishing re-runs and speculative copies.
        attempt: u32,
    },
    /// Periodic scheduling quantum: accrue service, re-evaluate queue
    /// placement, rebalance allocations.
    Tick,
    /// An immediate full scheduling pass requested by the engine (coalesced:
    /// at most one outstanding at a time).
    Resched,
}

/// One pending event with its delivery time and tie-breaking sequence
/// number, as exposed by [`EventQueue::snapshot_entries`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventEntry {
    /// Delivery time.
    pub at: SimTime,
    /// Insertion-order tie breaker (unique per queue lifetime).
    pub seq: u64,
    /// The event payload.
    pub event: Event,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    at: SimTime,
    seq: u64,
    event: Event,
}

// BinaryHeap is a max-heap; invert the ordering to pop earliest first.
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Slots per wheel level (and the shift between adjacent levels).
const SLOT_BITS: u32 = 8;
const SLOTS: usize = 1 << SLOT_BITS;
/// Bitmap words covering one level's occupancy.
const BITMAP_WORDS: usize = SLOTS / 64;

/// The most entries' capacity (8 KiB at 32 B an entry) a drained buffer
/// keeps when it is handed to a wheel slot or kept as the spare; a larger
/// one goes back to the allocator. Buffers rotate among the 768 slots, so
/// without a bound each grows toward the largest batch ever seen. Measured
/// at the end of the benchmark's runs: a 250,000-job Facebook trace kept
/// 753k entries' capacity (23 MiB) with at most 250k ever live, and a
/// 20,000-job ScaleTrace run 1.76M (54 MiB). With the bound they keep 97k
/// and 37k, at most 771 buffers × 256. A hot slot, whose batches stay
/// below the bound, keeps reusing its buffer: dropping every buffer
/// instead cost the Facebook run 17 % of its events/s.
const RETAINED_ENTRIES: usize = 256;

/// Empties `buf`, keeping its allocation only up to [`RETAINED_ENTRIES`].
fn recycle(buf: &mut Vec<Entry>) {
    if buf.capacity() > RETAINED_ENTRIES {
        *buf = Vec::new();
    } else {
        buf.clear();
    }
}

/// One wheel level: 256 slots, an occupancy bitmap, and a live-entry count.
#[derive(Debug, Default)]
struct Level {
    slots: Vec<Vec<Entry>>,
    bits: [u64; BITMAP_WORDS],
    len: usize,
}

impl Level {
    fn new() -> Self {
        Level {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            bits: [0; BITMAP_WORDS],
            len: 0,
        }
    }

    fn push(&mut self, slot: usize, e: Entry) {
        self.slots[slot].push(e);
        self.bits[slot / 64] |= 1u64 << (slot % 64);
        self.len += 1;
    }

    /// Moves the slot's entries out, leaving `into`'s drained buffer (its
    /// capacity bounded by [`recycle`]) behind, and clears its occupancy
    /// bit.
    fn take_slot(&mut self, slot: usize, into: &mut Vec<Entry>) {
        debug_assert!(into.is_empty());
        recycle(into);
        std::mem::swap(into, &mut self.slots[slot]);
        self.bits[slot / 64] &= !(1u64 << (slot % 64));
        self.len -= into.len();
    }
}

/// First set bit at index ≥ `from`, if any.
fn next_set_bit(bits: &[u64; BITMAP_WORDS], from: usize) -> Option<usize> {
    if from >= SLOTS {
        return None;
    }
    let mut word_idx = from / 64;
    let mut word = bits[word_idx] & (!0u64 << (from % 64));
    loop {
        if word != 0 {
            return Some(word_idx * 64 + word.trailing_zeros() as usize);
        }
        word_idx += 1;
        if word_idx == BITMAP_WORDS {
            return None;
        }
        word = bits[word_idx];
    }
}

/// The hierarchical timing wheel.
///
/// Invariants between public operations:
///
/// * `batch` holds exactly the entries at time `cur` (the front of the
///   queue), served from `batch_head` in seq order;
/// * the `past` heap holds entries pushed at times `< cur` (possible after
///   the cursor advanced ahead of a caller's clock — e.g. restored runs
///   re-submitting at the restore time);
/// * wheel levels and `overflow` hold only entries at times `> cur`, placed
///   window-aligned: level 0 shares `cur`'s 256 ms window, level 1 its
///   65.536 s window, level 2 its ~4.66 h window, `overflow` the rest;
/// * whenever the queue is non-empty its minimum entry is materialized in
///   `batch` or `past`, so `peek_time` is `&self` and O(1).
#[derive(Debug)]
struct CalendarQueue {
    levels: [Level; 3],
    overflow: Vec<Entry>,
    past: BinaryHeap<Entry>,
    batch: Vec<Entry>,
    batch_head: usize,
    /// Time of the current batch; the wheel cursor.
    cur: u64,
    len: usize,
    /// Recycled spare buffer for the overflow re-partition.
    spare: Vec<Entry>,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        CalendarQueue {
            levels: [Level::new(), Level::new(), Level::new()],
            overflow: Vec::new(),
            past: BinaryHeap::new(),
            batch: Vec::new(),
            batch_head: 0,
            cur: 0,
            len: 0,
            spare: Vec::new(),
        }
    }
}

impl CalendarQueue {
    fn len(&self) -> usize {
        self.len
    }

    /// Entries at the front (batch remainder + past), used to decide
    /// whether the wheel must be advanced to restore the invariant.
    fn front_len(&self) -> usize {
        (self.batch.len() - self.batch_head) + self.past.len()
    }

    fn push(&mut self, e: Entry) {
        self.len += 1;
        self.place(e);
        if self.front_len() == 0 {
            // The entry landed in the wheel and nothing earlier is
            // materialized: advance so the minimum is always at the front.
            self.advance_wheel();
        }
    }

    /// Routes one entry to the structure that owns its time, relative to
    /// the current cursor.
    fn place(&mut self, e: Entry) {
        let t = e.at.as_millis();
        if t == self.cur {
            self.batch.push(e);
        } else if t < self.cur {
            self.past.push(e);
        } else if t >> SLOT_BITS == self.cur >> SLOT_BITS {
            self.levels[0].push((t & 0xFF) as usize, e);
        } else if t >> (2 * SLOT_BITS) == self.cur >> (2 * SLOT_BITS) {
            self.levels[1].push(((t >> SLOT_BITS) & 0xFF) as usize, e);
        } else if t >> (3 * SLOT_BITS) == self.cur >> (3 * SLOT_BITS) {
            self.levels[2].push(((t >> (2 * SLOT_BITS)) & 0xFF) as usize, e);
        } else {
            self.overflow.push(e);
        }
    }

    fn peek(&self) -> Option<&Entry> {
        // Everything in `past` is strictly earlier than the batch (and the
        // batch strictly earlier than the wheel), so the order of these
        // checks is the delivery order.
        if let Some(e) = self.past.peek() {
            return Some(e);
        }
        self.batch.get(self.batch_head)
    }

    fn pop(&mut self) -> Option<Entry> {
        let e = if let Some(e) = self.past.pop() {
            e
        } else if let Some(&e) = self.batch.get(self.batch_head) {
            self.batch_head += 1;
            e
        } else {
            debug_assert_eq!(self.len, 0, "non-empty queue with no front entry");
            return None;
        };
        self.len -= 1;
        if self.front_len() == 0 {
            if self.past.capacity() > RETAINED_ENTRIES {
                self.past = BinaryHeap::new();
            }
            if self.len > 0 {
                self.advance_wheel();
            } else {
                // Nothing hands the drained batch to a slot: bound it here.
                recycle(&mut self.batch);
                self.batch_head = 0;
            }
        }
        Some(e)
    }

    /// Moves the cursor to the earliest non-empty wheel position and loads
    /// its entries as the new batch, cascading outer levels inward as
    /// windows open. Amortized O(1): each entry moves at most three times
    /// over its lifetime.
    fn advance_wheel(&mut self) {
        debug_assert!(self.front_len() == 0 && self.len > 0);
        self.batch.clear();
        self.batch_head = 0;
        // Window bases are threaded as locals because outer-level cascades
        // re-anchor them; `self.cur` only moves when a level-0 slot loads.
        // Scans start strictly after the cursor's own slot; opening a new
        // window resets the inner scan to slot 0.
        let mut w0 = self.cur & !0xFF;
        let mut w1 = self.cur & !0xFFFF;
        let mut w2 = self.cur & !0xFF_FFFF;
        let mut from0 = (self.cur & 0xFF) as usize + 1;
        let mut from1 = ((self.cur >> SLOT_BITS) & 0xFF) as usize + 1;
        let mut from2 = ((self.cur >> (2 * SLOT_BITS)) & 0xFF) as usize + 1;
        loop {
            if self.levels[0].len > 0 {
                let s = next_set_bit(&self.levels[0].bits, from0)
                    .expect("level-0 entries sit at or after the cursor");
                self.cur = w0 | s as u64;
                let mut batch = std::mem::take(&mut self.batch);
                self.levels[0].take_slot(s, &mut batch);
                self.batch = batch;
                return;
            }
            if self.levels[1].len > 0 {
                let s = next_set_bit(&self.levels[1].bits, from1)
                    .expect("level-1 entries sit at or after the cursor");
                w0 = w1 | ((s as u64) << SLOT_BITS);
                from0 = 0;
                let mut moving = std::mem::take(&mut self.spare);
                self.levels[1].take_slot(s, &mut moving);
                for e in moving.drain(..) {
                    debug_assert_eq!(e.at.as_millis() & !0xFF, w0);
                    self.levels[0].push((e.at.as_millis() & 0xFF) as usize, e);
                }
                recycle(&mut moving);
                self.spare = moving;
                continue;
            }
            if self.levels[2].len > 0 {
                let s = next_set_bit(&self.levels[2].bits, from2)
                    .expect("level-2 entries sit at or after the cursor");
                w1 = w2 | ((s as u64) << (2 * SLOT_BITS));
                from1 = 0;
                // `w0`/`from0` are refined by the level-1 branch next round.
                let mut moving = std::mem::take(&mut self.spare);
                self.levels[2].take_slot(s, &mut moving);
                for e in moving.drain(..) {
                    debug_assert_eq!(e.at.as_millis() & !0xFFFF, w1);
                    self.levels[1].push(((e.at.as_millis() >> SLOT_BITS) & 0xFF) as usize, e);
                }
                recycle(&mut moving);
                self.spare = moving;
                continue;
            }
            // Only the overflow remains: open the earliest ~4.66 h window
            // it mentions and pull that window's entries into level 2.
            // Runs once per opened window, so the O(overflow) partition
            // amortizes away.
            debug_assert!(!self.overflow.is_empty(), "wheel accounted for len");
            let min_top = self
                .overflow
                .iter()
                .map(|e| e.at.as_millis() >> (3 * SLOT_BITS))
                .min()
                .expect("overflow is non-empty");
            w2 = min_top << (3 * SLOT_BITS);
            from2 = 0;
            let mut kept = std::mem::take(&mut self.spare);
            for e in self.overflow.drain(..) {
                if e.at.as_millis() >> (3 * SLOT_BITS) == min_top {
                    self.levels[2].push(((e.at.as_millis() >> (2 * SLOT_BITS)) & 0xFF) as usize, e);
                } else {
                    kept.push(e);
                }
            }
            std::mem::swap(&mut self.overflow, &mut kept);
            recycle(&mut kept);
            self.spare = kept;
        }
    }

    /// The capacity of every buffer the queue owns, live or drained.
    #[cfg(test)]
    fn capacities(&self) -> impl Iterator<Item = usize> + '_ {
        let slots = self.levels.iter().flat_map(|l| l.slots.iter());
        slots
            .chain([&self.batch, &self.spare, &self.overflow])
            .map(Vec::capacity)
            .chain([self.past.capacity()])
    }

    fn snapshot_into(&self, out: &mut Vec<EventEntry>) {
        let wheels = self.levels.iter().flat_map(|l| l.slots.iter().flatten());
        let pending = self
            .past
            .iter()
            .chain(&self.batch[self.batch_head..])
            .chain(wheels)
            .chain(&self.overflow);
        out.extend(pending.map(|e| EventEntry {
            at: e.at,
            seq: e.seq,
            event: e.event,
        }));
    }
}

/// A deterministic time-ordered event queue.
///
/// # Examples
///
/// ```
/// use lasmq_simulator::event::{Event, EventQueue};
/// use lasmq_simulator::{JobId, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(5), Event::Tick);
/// q.push(SimTime::from_secs(1), Event::JobArrival { job: JobId::new(0) });
/// let (at, event) = q.pop().unwrap();
/// assert_eq!(at, SimTime::from_secs(1));
/// assert!(matches!(event, Event::JobArrival { .. }));
/// ```
#[derive(Debug, Default)]
pub struct EventQueue {
    cal: CalendarQueue,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `event` at time `at`.
    pub fn push(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.cal.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, breaking timestamp ties by
    /// insertion order.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.cal.pop().map(|e| (e.at, e.event))
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.cal.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.cal.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pending events in delivery order (time, then insertion order),
    /// without draining the queue. Used to snapshot mid-run state.
    pub fn snapshot_entries(&self) -> Vec<EventEntry> {
        let mut entries = Vec::new();
        self.snapshot_entries_into(&mut entries);
        entries
    }

    /// [`snapshot_entries`](Self::snapshot_entries) into a caller-owned
    /// buffer, so repeated snapshots (e.g. the engine's sampled
    /// snapshot-fidelity check) reuse one allocation instead of filling a
    /// fresh `Vec` each time. `(at, seq)` pairs are unique, so the unstable
    /// sort is deterministic.
    pub fn snapshot_entries_into(&self, out: &mut Vec<EventEntry>) {
        out.clear();
        self.cal.snapshot_into(out);
        out.sort_unstable_by(|a, b| a.at.cmp(&b.at).then_with(|| a.seq.cmp(&b.seq)));
    }

    /// Rebuilds a queue from snapshotted entries, preserving the original
    /// sequence numbers (so restored tie-breaking matches the original run)
    /// and the next sequence number to hand out.
    pub fn from_snapshot(mut entries: Vec<EventEntry>, next_seq: u64) -> Self {
        // Snapshot writers emit delivery order already; sort defensively so
        // per-slot FIFO order holds for any caller.
        entries.sort_unstable_by(|a, b| a.at.cmp(&b.at).then_with(|| a.seq.cmp(&b.seq)));
        let mut cal = CalendarQueue::default();
        for e in entries {
            cal.push(Entry {
                at: e.at,
                seq: e.seq,
                event: e.event,
            });
        }
        EventQueue { cal, next_seq }
    }

    /// The sequence number the next [`push`](EventQueue::push) will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), Event::Tick);
        q.push(SimTime::from_secs(1), Event::Tick);
        q.push(SimTime::from_secs(2), Event::Tick);
        let times: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_millis())
            .collect();
        assert_eq!(times, vec![1_000, 2_000, 3_000]);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..5 {
            q.push(t, Event::JobArrival { job: JobId::new(i) });
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::JobArrival { job } => job.index(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(7), Event::Resched);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop().unwrap();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    /// Cheap deterministic pseudo-random stream for the differential tests.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Pushes a tick into the wheel and into its reference model: a plain
    /// binary heap over the same (time, insertion-seq) order.
    fn push_both(wheel: &mut EventQueue, heap: &mut BinaryHeap<Entry>, at: SimTime) {
        let (seq, event) = (wheel.next_seq(), Event::Tick);
        wheel.push(at, event);
        heap.push(Entry { at, seq, event });
    }

    /// The wheel and the heap model must agree pop-for-pop on arbitrary
    /// interleavings of pushes and pops, including times that land in
    /// every level and the overflow, and times equal to / before the
    /// current cursor.
    #[test]
    fn wheel_matches_heap_on_random_interleavings() {
        for seed in 0..8u64 {
            let mut rng = seed.wrapping_mul(0xA076_1D64_78BD_642F) + 1;
            let mut wheel = EventQueue::new();
            let mut heap: BinaryHeap<Entry> = BinaryHeap::new();
            let mut low_water = 0u64; // last popped time: pushes stay >= it
            for _ in 0..4_000 {
                let roll = splitmix(&mut rng);
                if roll.is_multiple_of(3) && !wheel.is_empty() {
                    let a = wheel.pop();
                    let b = heap.pop().map(|e| (e.at, e.event));
                    assert_eq!(a, b, "seed {seed}");
                    low_water = a.unwrap().0.as_millis();
                } else {
                    // Mix near-future (level 0/1), far-future (level 2 /
                    // overflow) and exactly-now times.
                    let span = match splitmix(&mut rng) % 5 {
                        0 => 0,
                        1 => splitmix(&mut rng) % 0x100,
                        2 => splitmix(&mut rng) % 0x1_0000,
                        3 => splitmix(&mut rng) % 0x100_0000,
                        _ => splitmix(&mut rng) % 0x4000_0000,
                    };
                    let at = SimTime::from_millis(low_water + span);
                    push_both(&mut wheel, &mut heap, at);
                }
                assert_eq!(wheel.len(), heap.len());
                assert_eq!(wheel.peek_time(), heap.peek().map(|e| e.at));
            }
            while let Some(a) = wheel.pop() {
                assert_eq!(Some(a), heap.pop().map(|e| (e.at, e.event)), "seed {seed}");
            }
            assert!(heap.is_empty());
        }
    }

    /// Pushes earlier than the cursor (possible when a restored run
    /// re-submits at the restore clock) are delivered first, in (time, seq)
    /// order.
    #[test]
    fn past_pushes_are_delivered_first() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1_000), Event::Tick);
        // The cursor materializes the minimum: it now sits at 1000 ms.
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1_000)));
        q.push(SimTime::from_millis(10), Event::Resched);
        q.push(SimTime::from_millis(5), Event::Resched);
        q.push(SimTime::from_millis(10), Event::Tick);
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t.as_millis(), e))
            .collect();
        assert_eq!(
            order,
            vec![
                (5, Event::Resched),
                (10, Event::Resched),
                (10, Event::Tick),
                (1_000, Event::Tick),
            ]
        );
    }

    /// Snapshotting mid-drain and restoring must preserve both the pending
    /// set (with original seqs) and the next seq to hand out; the snapshot
    /// lists the entries in the heap model's delivery order.
    #[test]
    fn snapshot_round_trip_preserves_order_and_seqs() {
        let mut q = EventQueue::new();
        let mut model: BinaryHeap<Entry> = BinaryHeap::new();
        let mut rng = 7u64;
        for _ in 0..500 {
            let at = SimTime::from_millis(splitmix(&mut rng) % 2_000_000);
            push_both(&mut q, &mut model, at);
        }
        for _ in 0..120 {
            assert_eq!(q.pop(), model.pop().map(|e| (e.at, e.event)));
        }
        let entries = q.snapshot_entries();
        assert_eq!(entries.len(), q.len());
        let mut restored = EventQueue::from_snapshot(entries.clone(), q.next_seq());
        assert_eq!(restored.next_seq(), q.next_seq());
        assert_eq!(restored.len(), q.len());
        for want in &entries {
            let e = model.pop().unwrap();
            assert_eq!((e.at, e.seq, e.event), (want.at, want.seq, want.event));
            assert_eq!(restored.pop(), Some((want.at, want.event)));
            assert_eq!(q.pop(), Some((want.at, want.event)));
        }
        assert!(restored.is_empty());
        assert!(model.is_empty());
    }

    /// A queue that jumps across several overflow windows (multi-day gaps)
    /// keeps delivering in order — exercises the repeated overflow
    /// re-partition.
    #[test]
    fn sparse_far_future_times_cascade_correctly() {
        let mut q = EventQueue::new();
        let day = 86_400_000u64;
        let times = [5 * day, 2 * day, 9 * day, 2 * day + 1, 0, 9 * day];
        for &t in &times {
            q.push(SimTime::from_millis(t), Event::Tick);
        }
        let mut sorted: Vec<u64> = times.to_vec();
        sorted.sort();
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_millis())
            .collect();
        assert_eq!(popped, sorted);
    }

    /// Once every burst is drained, no buffer keeps more than
    /// `RETAINED_ENTRIES` of capacity, whichever structure the burst
    /// passed through: a 100k-entry same-millisecond batch, bursts that
    /// cascade from each wheel level and the overflow, and a restored
    /// queue's past heap.
    #[test]
    fn drained_bursts_leave_bounded_buffers() {
        let burst = |q: &mut EventQueue, heap: &mut BinaryHeap<Entry>, at: u64, n: usize| {
            for _ in 0..n {
                push_both(q, heap, SimTime::from_millis(at));
            }
        };
        let mut q = EventQueue::new();
        let mut heap = BinaryHeap::new();
        // The cursor sits at 1 ms, so the 5 ms burst fills a level-0 slot.
        push_both(&mut q, &mut heap, SimTime::from_millis(1));
        burst(&mut q, &mut heap, 5, 100_000);
        // One burst per level-1, level-2 and overflow window, and a spread
        // of small ones that reuse slots.
        for at in [300, 70_000, 20_000_000, 40_000_000] {
            burst(&mut q, &mut heap, at, 10_000);
        }
        for k in 0..2_000u64 {
            burst(&mut q, &mut heap, 50_000_000 + 97 * k, 3);
        }
        while let Some(a) = q.pop() {
            assert_eq!(Some(a), heap.pop().map(|e| (e.at, e.event)));
        }
        assert!(heap.is_empty());
        let kept = q.cal.capacities().max().unwrap();
        assert!(
            kept <= RETAINED_ENTRIES,
            "a drained buffer kept {kept} entries"
        );

        // A restored queue re-submitting before its cursor fills the past
        // heap; draining it frees that too.
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1_000_000), Event::Tick);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1_000_000)));
        for t in 0..10_000 {
            q.push(SimTime::from_millis(t), Event::Resched);
        }
        while q.pop().is_some() {}
        let kept = q.cal.capacities().max().unwrap();
        assert!(
            kept <= RETAINED_ENTRIES,
            "a drained buffer kept {kept} entries"
        );
    }

    /// Interleaving pushes at the *current* batch time with pops keeps
    /// FIFO order within the timestamp (the engine pushes Resched events
    /// at `now` while draining `now`'s batch).
    #[test]
    fn pushes_at_current_time_join_the_batch_in_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(42);
        q.push(t, Event::JobArrival { job: JobId::new(0) });
        assert_eq!(q.pop(), Some((t, Event::JobArrival { job: JobId::new(0) })));
        // The cursor now sits at 42; same-time pushes keep arriving.
        q.push(t, Event::JobArrival { job: JobId::new(1) });
        q.push(t, Event::JobArrival { job: JobId::new(2) });
        assert_eq!(q.pop(), Some((t, Event::JobArrival { job: JobId::new(1) })));
        q.push(t, Event::JobArrival { job: JobId::new(3) });
        assert_eq!(q.pop(), Some((t, Event::JobArrival { job: JobId::new(2) })));
        assert_eq!(q.pop(), Some((t, Event::JobArrival { job: JobId::new(3) })));
        assert!(q.is_empty());
    }
}
