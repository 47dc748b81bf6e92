//! The future-event list: a time-ordered priority queue with a deterministic
//! FIFO tie-break.
//!
//! Two events scheduled for the same instant fire in the order they were
//! scheduled. This is what makes same-seed runs byte-for-byte reproducible.
//!
//! # The calendar queue
//!
//! [`EventQueue`] is a bucketed *calendar queue* in the style of Brown
//! (CACM 1988), built for the mail simulations' hot path. Time is divided
//! into power-of-two-wide *days*; each day hashes onto a ring of buckets.
//! The current day is kept extracted into a sorted `front` vector consumed
//! by a cursor, so `pop`, `peek_time` and the same-instant
//! [`ready`](EventQueue::ready) view are O(1) and allocation-free in steady
//! state. Pushes binary-insert into the front (same day) or append to a
//! bucket (later day); days beyond the ring spill into a small ordered
//! overflow map. Payloads live in a generation-checked
//! [`Pool`](crate::pool::Pool), so the structures that get sorted and
//! shuffled are 24-byte index entries, and freed slots recycle without
//! touching the allocator. The ring resizes (and re-picks its day width
//! from the observed inter-event gaps) when the pending count outgrows or
//! undershoots it, keeping inserts and pops amortized O(1) where an ordered
//! map pays O(log n) per event.
//!
//! The *ready set* — every event scheduled for the earliest pending
//! instant — lets a [`Scheduler`](crate::sched::Scheduler) pick which one
//! fires next during schedule exploration.
//!
//! [`OracleQueue`] is the reference implementation the calendar queue is
//! checked against: a plain `BTreeMap<(time, seq), E>` with the same
//! observable behaviour. Differential tests (`tests/queue_differential.rs`)
//! and the kernel throughput benchmark's before-side use it; the engine
//! never does.

use std::collections::BTreeMap;

use crate::pool::{Handle, Pool};
use crate::time::SimTime;

/// Monotonic sequence number used to break ties between events scheduled for
/// the same instant.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub struct EventSeq(pub u64);

/// A 24-byte index entry: where and when, with the payload parked in the
/// pool behind a generation-checked handle.
#[derive(Clone, Copy, Debug)]
struct Entry {
    ticks: u64,
    seq: u64,
    slot: Handle,
}

impl Entry {
    fn key(&self) -> (u64, u64) {
        (self.ticks, self.seq)
    }
}

/// Smallest bucket-ring size; the ring never shrinks below this.
const MIN_BUCKETS: usize = 16;
/// Largest bucket-ring size; growth stops here.
const MAX_BUCKETS: usize = 1 << 20;
/// Initial day width exponent: 2^20 ticks ≈ one simulated time unit.
const INITIAL_SHIFT: u32 = 20;
/// Widest permitted day (2^40 ticks); keeps day arithmetic well away from
/// the u64 edge while still covering any realistic event horizon per day.
const MAX_SHIFT: u32 = 40;
/// Empty days scanned on a refill before jumping straight to the earliest
/// pending day. Bounds worst-case refill latency on sparse queues.
const SCAN_LIMIT: u64 = 64;

struct Calendar<E> {
    pool: Pool<E>,
    /// All pending entries whose day precedes `current_day`, sorted by
    /// `(ticks, seq)`; `front[cursor..]` is the unconsumed suffix.
    front: Vec<Entry>,
    cursor: usize,
    /// The next day the refill scan will visit. Every pending entry with an
    /// earlier day is in `front` — that invariant is what lets `peek_time`
    /// and `ready` take `&self`.
    current_day: u64,
    /// Ring of unsorted buckets; day `d` hashes to `buckets[d & mask]`.
    buckets: Vec<Vec<Entry>>,
    shift: u32,
    in_buckets: usize,
    /// Entries whose day falls beyond the ring's reach from `current_day`.
    overflow: BTreeMap<(u64, u64), Handle>,
    len: usize,
    /// Ring rebuilds (growth or shrink) since construction.
    resizes: u64,
}

impl<E> Calendar<E> {
    fn with_capacity(capacity: usize) -> Self {
        Calendar {
            pool: Pool::with_capacity(capacity),
            front: Vec::new(),
            cursor: 0,
            current_day: 0,
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            shift: INITIAL_SHIFT,
            in_buckets: 0,
            overflow: BTreeMap::new(),
            len: 0,
            resizes: 0,
        }
    }

    fn mask(&self) -> u64 {
        self.buckets.len() as u64 - 1
    }

    fn day_of(&self, ticks: u64) -> u64 {
        ticks >> self.shift
    }

    /// Files an entry into front, ring, or overflow according to its day.
    /// Does not touch `len` and does not restore the front invariant.
    fn place(&mut self, e: Entry) {
        let day = self.day_of(e.ticks);
        if day < self.current_day {
            let key = e.key();
            let pos = self.cursor + self.front[self.cursor..].partition_point(|x| x.key() < key);
            self.front.insert(pos, e);
        } else if day - self.current_day < self.buckets.len() as u64 {
            let idx = usize::try_from(day & self.mask()).unwrap_or(0);
            self.buckets[idx].push(e);
            self.in_buckets += 1;
        } else {
            self.overflow.insert(e.key(), e.slot);
        }
    }

    /// Re-establishes `cursor < front.len()` whenever the queue is
    /// non-empty, by extracting the earliest non-empty day into `front`.
    fn refill(&mut self) {
        debug_assert!(self.front.is_empty() && self.cursor == 0 && self.len > 0);
        let mut d = self.current_day;
        let mut scanned = 0u64;
        loop {
            let idx = usize::try_from(d & self.mask()).unwrap_or(0);
            let shift = self.shift;
            let b = &mut self.buckets[idx];
            if !b.is_empty() {
                if b.iter().all(|e| e.ticks >> shift == d) {
                    // The whole bucket belongs to this day — the common
                    // case once the ring outspans the event horizon, so no
                    // later day aliases onto this slot. Move it wholesale:
                    // one memcpy, and both buffers keep their capacity for
                    // reuse (the front in particular must not restart at
                    // exact capacity, or same-day pushes reallocate it).
                    self.in_buckets -= b.len();
                    self.front.append(b);
                } else {
                    let mut i = 0;
                    while i < b.len() {
                        if b[i].ticks >> shift == d {
                            self.front.push(b.swap_remove(i));
                            self.in_buckets -= 1;
                        } else {
                            i += 1;
                        }
                    }
                }
            }
            while let Some((&(t, _), _)) = self.overflow.first_key_value() {
                if t >> self.shift > d {
                    break;
                }
                if let Some(((t, s), slot)) = self.overflow.pop_first() {
                    self.front.push(Entry {
                        ticks: t,
                        seq: s,
                        slot,
                    });
                }
            }
            if !self.front.is_empty() {
                self.front.sort_unstable_by_key(Entry::key);
                self.current_day = d.saturating_add(1);
                return;
            }
            scanned += 1;
            d = d.saturating_add(1);
            if scanned >= SCAN_LIMIT.min(self.buckets.len() as u64) {
                // Sparse stretch: jump straight to the earliest pending day.
                let bucket_min = self
                    .buckets
                    .iter()
                    .flatten()
                    .map(|e| e.ticks >> self.shift)
                    .min();
                let over_min = self
                    .overflow
                    .first_key_value()
                    .map(|(&(t, _), _)| t >> self.shift);
                match bucket_min.into_iter().chain(over_min).min() {
                    Some(m) => d = m,
                    // Unreachable while `len > 0`; bail rather than spin.
                    None => return,
                }
                scanned = 0;
            }
        }
    }

    /// Restores the front invariant after a mutation that may have consumed
    /// or removed the last front entry.
    fn maintain_front(&mut self) {
        if self.cursor >= self.front.len() {
            self.front.clear();
            self.cursor = 0;
            if self.len > 0 {
                self.refill();
            }
        }
    }

    fn push(&mut self, ticks: u64, seq: u64, event: E) {
        let slot = self.pool.insert(event);
        self.len += 1;
        self.place(Entry { ticks, seq, slot });
        self.maintain_front();
        if self.len > self.buckets.len() * 2 && self.buckets.len() < MAX_BUCKETS {
            self.resize(self.buckets.len() * 2);
        }
    }

    fn pop(&mut self) -> Option<(u64, u64, E)> {
        let e = *self.front.get(self.cursor)?;
        // The sorted front is the exact future pop order, so the payload a
        // few pops ahead can be pulled toward cache while this pop's work
        // retires — on multi-gigabyte pending sets the cold slot read is
        // the dominant per-pop cost. `black_box` keeps the speculative
        // read from being optimized away.
        if let Some(ahead) = self.front.get(self.cursor + 4) {
            std::hint::black_box(self.pool.get(ahead.slot).is_some());
        }
        let val = self.pool.take(e.slot)?;
        self.cursor += 1;
        self.len -= 1;
        self.maintain_front();
        if self.buckets.len() > MIN_BUCKETS && self.len < self.buckets.len() / 4 {
            self.resize(self.buckets.len() / 2);
        }
        Some((e.ticks, e.seq, val))
    }

    fn peek(&self) -> Option<&Entry> {
        self.front.get(self.cursor)
    }

    fn remove(&mut self, ticks: u64, seq: u64) -> Option<E> {
        let day = self.day_of(ticks);
        if day < self.current_day {
            let key = (ticks, seq);
            let rel = self.front[self.cursor..].partition_point(|x| x.key() < key);
            let pos = self.cursor + rel;
            if self.front.get(pos).map(Entry::key) == Some(key) {
                let e = self.front.remove(pos);
                let val = self.pool.take(e.slot)?;
                self.len -= 1;
                self.maintain_front();
                return Some(val);
            }
            return None;
        }
        if day - self.current_day < self.buckets.len() as u64 {
            let idx = usize::try_from(day & self.mask()).unwrap_or(0);
            let b = &mut self.buckets[idx];
            if let Some(i) = b.iter().position(|x| x.key() == (ticks, seq)) {
                let e = b.swap_remove(i);
                self.in_buckets -= 1;
                let val = self.pool.take(e.slot)?;
                self.len -= 1;
                return Some(val);
            }
        }
        // The entry may predate a window advance: pushed to overflow when
        // its day was out of the ring's reach, even if that day is within
        // reach now.
        let slot = self.overflow.remove(&(ticks, seq))?;
        let val = self.pool.take(slot)?;
        self.len -= 1;
        Some(val)
    }

    fn clear(&mut self) {
        self.pool.clear();
        self.front.clear();
        self.cursor = 0;
        for b in &mut self.buckets {
            b.clear();
        }
        self.in_buckets = 0;
        self.overflow.clear();
        self.len = 0;
    }

    /// Rebuilds the ring at `nbuckets` buckets, re-estimating the day width
    /// from the observed spread of pending events.
    fn resize(&mut self, nbuckets: usize) {
        self.resizes += 1;
        let mut all: Vec<Entry> = Vec::with_capacity(self.len);
        all.extend_from_slice(&self.front[self.cursor..]);
        self.front.clear();
        self.cursor = 0;
        for b in &mut self.buckets {
            all.append(b);
        }
        self.in_buckets = 0;
        while let Some(((t, s), slot)) = self.overflow.pop_first() {
            all.push(Entry {
                ticks: t,
                seq: s,
                slot,
            });
        }
        debug_assert_eq!(all.len(), self.len);
        self.shift = estimate_shift(&mut all, self.shift);
        self.buckets.resize_with(nbuckets, Vec::new);
        if let Some(min) = all.iter().map(|e| e.ticks).min() {
            self.current_day = min >> self.shift;
        }
        for e in all {
            self.place(e);
        }
        self.maintain_front();
    }
}

/// Picks a day-width exponent so that the events nearest the head land a
/// few per day: the calendar sweet spot where the sorted front stays short
/// but refills rarely walk empty days. The density estimate deliberately
/// counts duplicate instants — many events per tick must *narrow* the day,
/// because a wide current day swallows thousands of events and every push
/// that lands inside it pays a linear front insertion. For the same reason
/// a sample saturated by one instant picks the narrowest day rather than
/// keeping the inherited width: total duplicate saturation is the strongest
/// possible density signal, not a reason to stand pat.
fn estimate_shift(entries: &mut [Entry], current: u32) -> u32 {
    if entries.len() < 8 {
        return current;
    }
    let k = entries.len().min(256);
    entries.select_nth_unstable_by_key(k - 1, Entry::key);
    let head = &entries[..k];
    let lo = head.iter().map(|e| e.ticks).min().unwrap_or(0);
    let hi = head.iter().map(|e| e.ticks).max().unwrap_or(0);
    if lo == hi {
        return 1;
    }
    // Aim for roughly four head-adjacent events per day: with k events
    // spanning `hi - lo` ticks, a day of `4 * span / k` ticks holds ~4.
    let width = ((hi - lo).saturating_mul(4) / k as u64).max(1);
    let bits = 64 - width.leading_zeros();
    bits.clamp(1, MAX_SHIFT)
}

/// A point-in-time structural snapshot of an [`EventQueue`], for the
/// kernel profiler ([`prof`](crate::prof)) and queue-health telemetry.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct QueueStats {
    /// Pending events.
    pub depth: usize,
    /// Unconsumed entries in the sorted current-day front.
    pub front: usize,
    /// Entries parked in the bucket ring.
    pub in_buckets: usize,
    /// Entries in the far-future overflow map.
    pub overflow: usize,
    /// Bucket-ring size.
    pub buckets: usize,
    /// Ring rebuilds (growth or shrink) since construction.
    pub resizes: u64,
    /// Payload-pool live values.
    pub pool_live: usize,
    /// Payload-pool slot high-water mark.
    pub pool_capacity: usize,
    /// Payload-pool inserts served by recycling.
    pub pool_hits: u64,
    /// Payload-pool inserts that found no free slot.
    pub pool_misses: u64,
    /// Payload-pool slab growths.
    pub pool_grows: u64,
}

/// A future-event list holding events of type `E`.
///
/// # Examples
///
/// ```
/// use lems_sim::queue::EventQueue;
/// use lems_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_units(2.0), "later");
/// q.push(SimTime::from_units(1.0), "sooner");
/// q.push(SimTime::from_units(1.0), "sooner-but-second");
///
/// assert_eq!(q.pop().unwrap().1, "sooner");
/// assert_eq!(q.pop().unwrap().1, "sooner-but-second");
/// assert_eq!(q.pop().unwrap().1, "later");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    cal: Calendar<E>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::with_capacity(0)
    }

    /// Creates an empty queue whose payload pool is pre-sized for
    /// `capacity` simultaneously-pending events.
    ///
    /// Steady-state scheduling never allocates once the pool has warmed up
    /// to the peak pending count; pre-sizing reaches that state in one
    /// contiguous allocation instead of a doubling ladder, which matters
    /// for multi-gigabyte pending sets where reallocation churn fragments
    /// the slab across the address space.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            cal: Calendar::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `at`. Returns the sequence number
    /// assigned to the event (useful for cancellation bookkeeping).
    pub fn push(&mut self, at: SimTime, event: E) -> EventSeq {
        let seq = EventSeq(self.next_seq);
        self.next_seq += 1;
        self.cal.push(at.as_ticks(), seq.0, event);
        seq
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_with_seq().map(|(at, _, e)| (at, e))
    }

    /// Removes and returns the earliest event together with its sequence
    /// number.
    pub fn pop_with_seq(&mut self) -> Option<(SimTime, EventSeq, E)> {
        self.cal
            .pop()
            .map(|(t, s, e)| (SimTime::from_ticks(t), EventSeq(s), e))
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.cal.peek().map(|e| SimTime::from_ticks(e.ticks))
    }

    /// Iterates over the *ready set*: every event scheduled for the earliest
    /// pending instant, in scheduling (sequence) order. Empty when the queue
    /// is empty.
    ///
    /// The view borrows payloads in place — nothing is cloned or moved.
    pub fn ready(&self) -> impl Iterator<Item = (SimTime, EventSeq, &E)> {
        let c = &self.cal;
        let head = c.peek().map_or(0, |e| e.ticks);
        c.front[c.cursor..]
            .iter()
            .take_while(move |e| e.ticks == head)
            .map_while(|e| {
                c.pool
                    .get(e.slot)
                    .map(|p| (SimTime::from_ticks(e.ticks), EventSeq(e.seq), p))
            })
    }

    /// Removes a specific event by its firing time and sequence number.
    /// Used by schedulers to fire a ready event other than the head.
    pub fn remove(&mut self, at: SimTime, seq: EventSeq) -> Option<E> {
        self.cal.remove(at.as_ticks(), seq.0)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.cal.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// A structural snapshot for queue-health telemetry.
    pub fn stats(&self) -> QueueStats {
        let c = &self.cal;
        let pool = c.pool.stats();
        QueueStats {
            depth: c.len,
            front: c.front.len().saturating_sub(c.cursor),
            in_buckets: c.in_buckets,
            overflow: c.overflow.len(),
            buckets: c.buckets.len(),
            resizes: c.resizes,
            pool_live: pool.live,
            pool_capacity: pool.capacity,
            pool_hits: pool.hits,
            pool_misses: pool.misses,
            pool_grows: pool.grows,
        }
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.cal.clear();
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("scheduled_total", &self.next_seq)
            .finish_non_exhaustive()
    }
}

/// The reference future-event list: a `BTreeMap` keyed by
/// `(time, sequence)`, with the same observable behaviour as
/// [`EventQueue`] — pop order, sequence numbering, ready set, targeted
/// removal — at O(log n) per operation.
///
/// It exists to be compared against: the differential tests drive both
/// queues through identical command sequences, and the kernel benchmark
/// measures it as the before-side of the calendar queue. The simulation
/// engine never uses it.
pub struct OracleQueue<E> {
    map: BTreeMap<(SimTime, EventSeq), E>,
    next_seq: u64,
}

impl<E> Default for OracleQueue<E> {
    fn default() -> Self {
        OracleQueue::new()
    }
}

impl<E> OracleQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        OracleQueue {
            map: BTreeMap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `at`; see [`EventQueue::push`].
    pub fn push(&mut self, at: SimTime, event: E) -> EventSeq {
        let seq = EventSeq(self.next_seq);
        self.next_seq += 1;
        self.map.insert((at, seq), event);
        seq
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_with_seq().map(|(at, _, e)| (at, e))
    }

    /// Removes and returns the earliest event with its sequence number.
    pub fn pop_with_seq(&mut self) -> Option<(SimTime, EventSeq, E)> {
        self.map.pop_first().map(|((at, seq), e)| (at, seq, e))
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.map.first_key_value().map(|((at, _), _)| *at)
    }

    /// Every event scheduled for the earliest pending instant, in
    /// sequence order; see [`EventQueue::ready`].
    pub fn ready(&self) -> impl Iterator<Item = (SimTime, EventSeq, &E)> {
        let head = self.peek_time();
        self.map
            .iter()
            .take_while(move |((at, _), _)| Some(*at) == head)
            .map(|(&(at, seq), e)| (at, seq, e))
    }

    /// Removes a specific event by its firing time and sequence number.
    pub fn remove(&mut self, at: SimTime, seq: EventSeq) -> Option<E> {
        self.map.remove(&(at, seq))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ticks(30), 3);
        q.push(SimTime::from_ticks(10), 1);
        q.push(SimTime::from_ticks(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ticks(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_ticks(7), 0);
        assert_eq!(q.peek_time(), Some(SimTime::from_ticks(7)));
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 1);
    }

    #[test]
    fn ready_set_covers_exactly_the_earliest_instant() {
        let mut q = EventQueue::new();
        let mut oracle = OracleQueue::new();
        for (t, e) in [(5, "a"), (5, "b"), (9, "c")] {
            q.push(SimTime::from_ticks(t), e);
            oracle.push(SimTime::from_ticks(t), e);
        }
        let ready: Vec<&str> = q.ready().map(|(_, _, e)| *e).collect();
        assert_eq!(ready, vec!["a", "b"]);
        let oracle_ready: Vec<&str> = oracle.ready().map(|(_, _, e)| *e).collect();
        assert_eq!(oracle_ready, ready);
    }

    #[test]
    fn remove_targets_a_specific_entry() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ticks(5);
        q.push(t, "a");
        let seq_b = q.push(t, "b");
        q.push(t, "c");
        assert_eq!(q.remove(t, seq_b), Some("b"));
        assert_eq!(q.remove(t, seq_b), None);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "c"]);
    }

    #[test]
    fn far_future_events_survive_in_overflow() {
        let mut q = EventQueue::new();
        q.push(SimTime::MAX, 99);
        q.push(SimTime::from_ticks(u64::MAX - 1), 98);
        q.push(SimTime::from_ticks(1), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_ticks(1)));
        assert_eq!(q.pop(), Some((SimTime::from_ticks(1), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_ticks(u64::MAX - 1), 98)));
        assert_eq!(q.pop(), Some((SimTime::MAX, 99)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn bucket_rotation_across_many_days() {
        // Spread events far beyond MIN_BUCKETS days so the ring wraps and
        // the refill scan needs its jump-to-minimum path.
        let mut q = EventQueue::new();
        let day = 1u64 << INITIAL_SHIFT;
        for i in (0..200u64).rev() {
            q.push(SimTime::from_ticks(i * 37 * day), i);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn growth_and_shrink_keep_order() {
        // Push enough to force ring growth, drain to force shrink, and keep
        // checking order against a sorted reference throughout.
        let mut q = EventQueue::new();
        let mut expect: Vec<(u64, u64)> = Vec::new();
        for i in 0..5000u64 {
            let t = (i * 7919) % 1024 * 1000;
            let seq = q.push(SimTime::from_ticks(t), i);
            expect.push((t, seq.0));
        }
        expect.sort_unstable();
        let mut got = Vec::new();
        while let Some((t, s, _)) = q.pop_with_seq() {
            got.push((t.as_ticks(), s.0));
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn remove_reaches_front_bucket_and_overflow() {
        let mut q = EventQueue::new();
        let near = SimTime::from_ticks(10);
        let later = SimTime::from_ticks(5 << INITIAL_SHIFT);
        let far = SimTime::from_ticks(u64::MAX / 2);
        let s_near = q.push(near, "front");
        let s_later = q.push(later, "bucket");
        let s_far = q.push(far, "overflow");
        assert_eq!(q.remove(later, s_later), Some("bucket"));
        assert_eq!(q.remove(far, s_far), Some("overflow"));
        assert_eq!(q.remove(near, s_near), Some("front"));
        assert!(q.is_empty());
        assert_eq!(q.remove(near, s_near), None);
    }

    #[test]
    fn stats_reflect_structure_and_resizes() {
        let mut q = EventQueue::new();
        let fresh = q.stats();
        assert_eq!(fresh.depth, 0);
        assert_eq!(fresh.buckets, MIN_BUCKETS);
        assert_eq!(fresh.resizes, 0);
        for i in 0..5000u64 {
            q.push(SimTime::from_ticks(i * 1000), i);
        }
        let s = q.stats();
        assert_eq!(s.depth, 5000);
        assert_eq!(
            s.front + s.in_buckets + s.overflow,
            5000,
            "every pending entry is in exactly one structure"
        );
        assert!(s.resizes > 0, "growth to 5000 events rebuilds the ring");
        assert_eq!(s.pool_misses, s.pool_grows);
        while q.pop().is_some() {}
        let drained = q.stats();
        assert_eq!(drained.depth, 0);
        assert_eq!(drained.pool_live, 0);
        assert!(drained.resizes >= s.resizes, "shrink also counts");
    }

    #[test]
    fn interleaved_push_pop_tracks_oracle() {
        // A quick deterministic differential check; the exhaustive
        // command-sequence version lives in tests/queue_differential.rs.
        let mut cal = EventQueue::new();
        let mut base = OracleQueue::new();
        let mut x = 9u64;
        for round in 0..10_000u64 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let t = SimTime::from_ticks((x >> 33) % 500_000);
            cal.push(t, round);
            base.push(t, round);
            if x.is_multiple_of(3) {
                assert_eq!(cal.pop_with_seq(), base.pop_with_seq());
            }
            assert_eq!(cal.peek_time(), base.peek_time());
            assert_eq!(cal.len(), base.len());
        }
        while !base.is_empty() {
            assert_eq!(cal.pop_with_seq(), base.pop_with_seq());
        }
        assert!(cal.pop().is_none());
    }

    proptest! {
        /// Popping always yields events in non-decreasing time order, and
        /// within equal times in scheduling order.
        #[test]
        fn pop_order_is_sorted_and_stable(times in proptest::collection::vec(0u64..50, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_ticks(t), i);
            }
            let mut prev: Option<(SimTime, usize)> = None;
            while let Some((t, idx)) = q.pop() {
                if let Some((pt, pidx)) = prev {
                    prop_assert!(t >= pt);
                    if t == pt {
                        prop_assert!(idx > pidx);
                    }
                }
                prev = Some((t, idx));
            }
        }

        /// The head of the ready set is always what `pop` would return.
        #[test]
        fn ready_head_matches_pop(times in proptest::collection::vec(0u64..10, 1..100)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_ticks(t), i);
            }
            while !q.is_empty() {
                let head = q.ready().next().map(|(at, seq, e)| (at, seq, *e));
                let popped = q.pop_with_seq();
                prop_assert_eq!(head, popped);
            }
        }
    }
}
