//! Deterministic future event list with two interchangeable backends.
//!
//! Events fire in timestamp order; events with equal timestamps fire in
//! the order they were scheduled (a monotonic sequence number breaks
//! ties), so every simulation run is exactly reproducible. The ordering
//! contract is identical under both backends:
//!
//! * [`QueueBackend::Calendar`] (the default) — a calendar queue after
//!   Brown (CACM 1988): a power-of-two array of time-bucketed bins, each
//!   holding a small binary heap. `schedule` is O(1) amortized and `pop`
//!   is O(1) when the event population is dense in time (the common case
//!   for packet workloads: every in-flight frame has a near-future
//!   arrival). Because two events with equal timestamps always land in
//!   the same bucket, the per-bucket heap's `(time, seq)` order *is* the
//!   global order — the tie-break is preserved exactly.
//! * [`QueueBackend::Heap`] — the classic global `BinaryHeap`, O(log n)
//!   per operation. Kept as the reference implementation for
//!   differential tests and as the comparison arm of `bench net`'s
//!   event-core sweep.
//!
//! Cancellation is lazy in both backends: a cancelled entry stays in its
//! bin until it surfaces at `pop`/`peek_time`, at which point it is
//! dropped and its bookkeeping reclaimed. When cancelled entries
//! outnumber live ones the queue compacts in O(n), so a schedule/cancel
//! churn loop holds memory proportional to the *live* population, not
//! the all-time schedule count.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Handle to a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle(u64);

/// Which storage strategy an [`EventQueue`] uses. The observable
/// pop-stream is identical; only the cost profile differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueBackend {
    /// Bucketed calendar queue: O(1) amortized when events are dense in
    /// time, degrades toward a bucket scan when they are sparse.
    #[default]
    Calendar,
    /// Single global binary heap: O(log n) always.
    Heap,
}

impl QueueBackend {
    /// Short stable name, used as the backend label in bench artifacts.
    pub fn name(self) -> &'static str {
        match self {
            QueueBackend::Calendar => "calendar",
            QueueBackend::Heap => "heap",
        }
    }
}

struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

/// Smallest bucket count the calendar shrinks to.
const MIN_BUCKETS: usize = 16;
/// Largest bucket count the calendar grows to.
const MAX_BUCKETS: usize = 1 << 20;
/// Bucket-width ceiling (ns). Keeps the year-scan window arithmetic far
/// from u64 overflow even with a million buckets.
const MAX_WIDTH: u64 = 1 << 40;
/// Bucket width before the first rebuild gives a sample to estimate
/// from: ~1 µs, matching the cost model's typical event spacing.
const INITIAL_WIDTH: u64 = 1_024;

struct Calendar<E> {
    buckets: Vec<BinaryHeap<Scheduled<E>>>,
    /// Nanoseconds of simulated time per bucket (`>= 1`).
    width: u64,
    /// Total stored entries (including lazily-cancelled ones).
    len: usize,
    /// Bucket the dequeue scan starts from.
    cur_slot: usize,
    /// Exclusive upper bound of `cur_slot`'s current one-year window.
    cur_top: u64,
}

impl<E> Calendar<E> {
    fn new() -> Self {
        Calendar {
            buckets: (0..MIN_BUCKETS).map(|_| BinaryHeap::new()).collect(),
            width: INITIAL_WIDTH,
            len: 0,
            cur_slot: 0,
            cur_top: INITIAL_WIDTH,
        }
    }

    fn slot_of(&self, at: u64) -> usize {
        ((at / self.width) as usize) & (self.buckets.len() - 1)
    }

    /// Exclusive top of the bucket window containing `at`.
    fn window_top(&self, at: u64) -> u64 {
        (at / self.width)
            .saturating_add(1)
            .saturating_mul(self.width)
    }

    fn push(&mut self, s: Scheduled<E>) {
        let slot = self.slot_of(s.at.0);
        // The dequeue scan assumes every stored time is at or after the
        // cursor window's start. An insert earlier than that (legal any
        // time `now` trails the stored minimum) pulls the cursor back to
        // its own window, re-establishing the invariant.
        if s.at.0 < self.cur_top.saturating_sub(self.width) {
            self.cur_slot = slot;
            self.cur_top = self.window_top(s.at.0);
        }
        self.buckets[slot].push(s);
        self.len += 1;
        if self.len > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.rebuild();
        }
    }

    /// Bucket holding the globally-minimal `(time, seq)` entry.
    ///
    /// Scans one "year" (every bucket once) from the cursor, accepting a
    /// bucket top only if it falls inside that bucket's current window —
    /// an entry in a later year waits for a later lap. If a whole year
    /// turns up nothing (sparse population), falls back to a direct
    /// search over all bucket tops: the documented heap-like degradation
    /// mode.
    fn min_slot(&self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let n = self.buckets.len();
        let mut slot = self.cur_slot;
        let mut top = self.cur_top;
        for _ in 0..n {
            if let Some(s) = self.buckets[slot].peek() {
                if s.at.0 < top {
                    return Some(slot);
                }
            }
            slot = (slot + 1) & (n - 1);
            top = top.saturating_add(self.width);
        }
        let mut best: Option<(SimTime, u64, usize)> = None;
        for (i, b) in self.buckets.iter().enumerate() {
            if let Some(s) = b.peek() {
                if best.is_none_or(|(at, seq, _)| (s.at, s.seq) < (at, seq)) {
                    best = Some((s.at, s.seq, i));
                }
            }
        }
        best.map(|(_, _, i)| i)
    }

    fn peek(&self) -> Option<&Scheduled<E>> {
        self.min_slot().and_then(|slot| self.buckets[slot].peek())
    }

    fn pop_min(&mut self) -> Option<Scheduled<E>> {
        let slot = self.min_slot()?;
        let s = self.buckets[slot].pop().expect("min_slot bucket nonempty");
        self.len -= 1;
        self.cur_slot = slot;
        self.cur_top = self.window_top(s.at.0);
        if self.len < self.buckets.len() / 4 && self.buckets.len() > MIN_BUCKETS {
            self.rebuild();
        }
        Some(s)
    }

    fn drain_all(&mut self) -> Vec<Scheduled<E>> {
        let mut out = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            out.extend(b.drain());
        }
        self.len = 0;
        out
    }

    fn rebuild(&mut self) {
        let entries = self.drain_all();
        self.rebuild_from(entries);
    }

    /// Re-bucket `entries` into a calendar sized and widthed for them.
    /// O(n), but every threshold crossing that triggers it moved Ω(n)
    /// entries, so the amortized cost per operation stays O(1).
    fn rebuild_from(&mut self, entries: Vec<Scheduled<E>>) {
        let n = entries
            .len()
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        self.width = estimate_width(&entries);
        self.buckets = (0..n).map(|_| BinaryHeap::new()).collect();
        self.len = entries.len();
        let min = entries.iter().map(|s| s.at.0).min();
        for s in entries {
            let slot = self.slot_of(s.at.0);
            self.buckets[slot].push(s);
        }
        match min {
            // Restart the scan at the earliest entry's own window: every
            // stored time is >= it, so nothing hides behind the cursor.
            Some(at) => {
                self.cur_slot = self.slot_of(at);
                self.cur_top = self.window_top(at);
            }
            None => {
                self.cur_slot = 0;
                self.cur_top = self.width;
            }
        }
    }
}

/// Bucket width ≈ 3× the mean inter-event gap, estimated from a
/// deterministic sample's interquartile span (robust to a few outliers
/// at either extreme). Brown's rule of thumb: a handful of events per
/// bucket keeps both the per-bucket heaps and the year scan short.
fn estimate_width<E>(entries: &[Scheduled<E>]) -> u64 {
    if entries.len() < 2 {
        return INITIAL_WIDTH;
    }
    let m = entries.len().min(64);
    let stride = entries.len() / m;
    let mut sample: Vec<u64> = (0..m).map(|i| entries[i * stride].at.0).collect();
    sample.sort_unstable();
    let lo = sample[m / 4];
    let hi = sample[(3 * m) / 4];
    // The middle half of the sample spans roughly half the population.
    let gap = (hi - lo) / ((entries.len() as u64) / 2).max(1);
    (3 * gap).clamp(1, MAX_WIDTH)
}

enum Store<E> {
    Heap(BinaryHeap<Scheduled<E>>),
    Calendar(Calendar<E>),
}

impl<E> Store<E> {
    fn len(&self) -> usize {
        match self {
            Store::Heap(h) => h.len(),
            Store::Calendar(c) => c.len,
        }
    }

    fn push(&mut self, s: Scheduled<E>) {
        match self {
            Store::Heap(h) => h.push(s),
            Store::Calendar(c) => c.push(s),
        }
    }

    fn peek(&self) -> Option<&Scheduled<E>> {
        match self {
            Store::Heap(h) => h.peek(),
            Store::Calendar(c) => c.peek(),
        }
    }

    fn pop_min(&mut self) -> Option<Scheduled<E>> {
        match self {
            Store::Heap(h) => h.pop(),
            Store::Calendar(c) => c.pop_min(),
        }
    }

    fn drain_all(&mut self) -> Vec<Scheduled<E>> {
        match self {
            Store::Heap(h) => h.drain().collect(),
            Store::Calendar(c) => c.drain_all(),
        }
    }

    fn rebuild_from(&mut self, entries: Vec<Scheduled<E>>) {
        match self {
            Store::Heap(h) => *h = entries.into(),
            Store::Calendar(c) => c.rebuild_from(entries),
        }
    }
}

/// A discrete-event queue over event payloads of type `E`.
///
/// # Examples
///
/// ```
/// use pf_sim::queue::EventQueue;
/// use pf_sim::time::{SimDuration, SimTime};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule(SimTime(2_000), "late");
/// q.schedule(SimTime(1_000), "early");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t, e), (SimTime(1_000), "early"));
/// ```
pub struct EventQueue<E> {
    store: Store<E>,
    next_seq: u64,
    /// Sequence numbers scheduled but not yet fired or cancelled.
    pending: HashSet<u64>,
    /// Sequence numbers lazily cancelled (skipped at pop time, reclaimed
    /// by compaction when they outnumber the live population).
    cancelled: HashSet<u64>,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero on the default backend.
    pub fn new() -> Self {
        Self::with_backend(QueueBackend::default())
    }

    /// Creates an empty queue on an explicitly chosen backend.
    pub fn with_backend(backend: QueueBackend) -> Self {
        let store = match backend {
            QueueBackend::Heap => Store::Heap(BinaryHeap::new()),
            QueueBackend::Calendar => Store::Calendar(Calendar::new()),
        };
        EventQueue {
            store,
            next_seq: 0,
            pending: HashSet::new(),
            cancelled: HashSet::new(),
            now: SimTime::ZERO,
        }
    }

    /// Which backend this queue stores events in.
    pub fn backend(&self) -> QueueBackend {
        match self.store {
            Store::Heap(_) => QueueBackend::Heap,
            Store::Calendar(_) => QueueBackend::Calendar,
        }
    }

    /// The timestamp of the most recently popped event (the current virtual
    /// time).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to the current time: the event
    /// fires next, preserving determinism rather than panicking (callers
    /// computing `now + cost` never hit this; it guards direct misuse).
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventHandle {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert(seq);
        self.store.push(Scheduled { at, seq, event });
        EventHandle(seq)
    }

    /// Cancels a previously scheduled event. Returns `true` if the event
    /// had not yet fired or been cancelled.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        // Lazy cancellation: the stored entry is skipped at pop time.
        if self.pending.remove(&handle.0) {
            self.cancelled.insert(handle.0);
            self.maybe_compact();
            true
        } else {
            false
        }
    }

    /// Removes and returns the earliest pending event, advancing `now`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(s) = self.store.pop_min() {
            if self.cancelled.remove(&s.seq) {
                continue;
            }
            self.pending.remove(&s.seq);
            self.now = s.at;
            return Some((s.at, s.event));
        }
        None
    }

    /// The timestamp of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Pop lazily-cancelled entries off the front first.
        loop {
            let seq = match self.store.peek() {
                Some(s) if self.cancelled.contains(&s.seq) => s.seq,
                Some(s) => return Some(s.at),
                None => return None,
            };
            self.store.pop_min();
            self.cancelled.remove(&seq);
        }
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.store.len() - self.cancelled.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries physically stored, *including* lazily-cancelled ones not
    /// yet reclaimed. Exposed so tests can pin that schedule/cancel
    /// churn keeps storage proportional to the live population.
    pub fn stored_len(&self) -> usize {
        self.store.len()
    }

    /// Compacts once dead entries outnumber live ones: rebuilds the
    /// store retaining only live events. Each compaction removes more
    /// entries than it keeps, so the cost amortizes to O(1) per cancel.
    fn maybe_compact(&mut self) {
        if self.cancelled.len() <= self.pending.len().max(MIN_BUCKETS) {
            return;
        }
        let entries = self.store.drain_all();
        let live: Vec<Scheduled<E>> = entries
            .into_iter()
            .filter(|s| !self.cancelled.contains(&s.seq))
            .collect();
        self.cancelled.clear();
        self.store.rebuild_from(live);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use crate::time::SimDuration;

    fn both_backends() -> [QueueBackend; 2] {
        [QueueBackend::Calendar, QueueBackend::Heap]
    }

    #[test]
    fn default_backend_is_calendar() {
        assert_eq!(EventQueue::<u32>::new().backend(), QueueBackend::Calendar);
    }

    #[test]
    fn orders_by_time() {
        for backend in both_backends() {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(SimTime(30), 3);
            q.schedule(SimTime(10), 1);
            q.schedule(SimTime(20), 2);
            assert_eq!(q.pop(), Some((SimTime(10), 1)));
            assert_eq!(q.pop(), Some((SimTime(20), 2)));
            assert_eq!(q.pop(), Some((SimTime(30), 3)));
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn equal_times_fire_in_schedule_order() {
        for backend in both_backends() {
            let mut q = EventQueue::with_backend(backend);
            for i in 0..100 {
                q.schedule(SimTime(5), i);
            }
            for i in 0..100 {
                assert_eq!(q.pop(), Some((SimTime(5), i)));
            }
        }
    }

    #[test]
    fn now_advances_with_pop() {
        for backend in both_backends() {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(SimTime(42), ());
            assert_eq!(q.now(), SimTime::ZERO);
            q.pop();
            assert_eq!(q.now(), SimTime(42));
        }
    }

    #[test]
    fn past_events_are_clamped() {
        for backend in both_backends() {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(SimTime(100), "a");
            q.pop();
            q.schedule(SimTime(50), "late"); // in the past
            assert_eq!(q.pop(), Some((SimTime(100), "late")));
        }
    }

    #[test]
    fn cancellation() {
        for backend in both_backends() {
            let mut q = EventQueue::with_backend(backend);
            let h1 = q.schedule(SimTime(10), 1);
            let h2 = q.schedule(SimTime(20), 2);
            assert!(q.cancel(h1));
            assert!(!q.cancel(h1), "double cancel reports false");
            assert_eq!(q.len(), 1);
            assert_eq!(q.peek_time(), Some(SimTime(20)));
            assert_eq!(q.pop(), Some((SimTime(20), 2)));
            assert!(!q.cancel(h2), "already fired");
        }
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        for backend in both_backends() {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(SimTime(10), 1);
            assert_eq!(q.pop(), Some((SimTime(10), 1)));
            q.schedule(q.now() + SimDuration::from_nanos(5), 2);
            assert_eq!(q.pop(), Some((SimTime(15), 2)));
        }
    }

    #[test]
    fn calendar_survives_growth_and_drain_of_a_large_population() {
        let mut q = EventQueue::with_backend(QueueBackend::Calendar);
        let mut rng = SplitMix64::new(7);
        for i in 0..20_000u64 {
            q.schedule(SimTime(rng.below(1 << 32)), i);
        }
        let mut last = SimTime::ZERO;
        let mut n = 0usize;
        while let Some((at, _)) = q.pop() {
            assert!(at >= last, "pops must be time-ordered");
            last = at;
            n += 1;
        }
        assert_eq!(n, 20_000);
    }

    #[test]
    fn calendar_handles_sparse_far_future_events() {
        // Events much farther apart than any bucket year: exercises the
        // direct-search fallback after an empty lap.
        let mut q = EventQueue::with_backend(QueueBackend::Calendar);
        q.schedule(SimTime(1), "near");
        q.schedule(SimTime(3_600_000_000_000), "hour");
        q.schedule(SimTime(86_400_000_000_000), "day");
        assert_eq!(q.pop(), Some((SimTime(1), "near")));
        assert_eq!(q.pop(), Some((SimTime(3_600_000_000_000), "hour")));
        assert_eq!(q.pop(), Some((SimTime(86_400_000_000_000), "day")));
    }

    #[test]
    fn schedule_after_long_idle_advance() {
        // Popping a far-future event moves the calendar cursor a long
        // way; later near-cursor scheduling must still order correctly.
        for backend in both_backends() {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(SimTime(100_000_000_000), "far");
            assert_eq!(q.pop(), Some((SimTime(100_000_000_000), "far")));
            let base = SimTime(100_000_000_000);
            q.schedule(base + SimDuration::from_micros(5), "b");
            q.schedule(base + SimDuration::from_micros(1), "a");
            assert_eq!(q.pop(), Some((base + SimDuration::from_micros(1), "a")));
            assert_eq!(q.pop(), Some((base + SimDuration::from_micros(5), "b")));
        }
    }

    /// The backends must pop byte-identical `(time, value)` streams
    /// under randomized schedule/cancel/peek/pop interleavings — mostly
    /// up to 600 operations, about one case in 32 a 4,000-operation run —
    /// over dense (2^20 ns) and sparse (2^24 ns) time ranges.
    #[test]
    fn calendar_and_heap_pop_identical_streams() {
        crate::rng::check(0xD1FF, 256, |rng| {
            let mut cal = EventQueue::with_backend(QueueBackend::Calendar);
            let mut heap = EventQueue::with_backend(QueueBackend::Heap);
            let span = if rng.chance(0.5) { 1 << 20 } else { 1 << 24 };
            let ops = if rng.chance(1.0 / 32.0) {
                4_000
            } else {
                1 + rng.below(600)
            };
            let mut handles = Vec::new();
            for i in 0..ops {
                match rng.below(10) {
                    0..=5 => {
                        let at = SimTime(rng.below(span));
                        let hc = cal.schedule(at, i);
                        let hh = heap.schedule(at, i);
                        handles.push((hc, hh));
                    }
                    6 => {
                        if !handles.is_empty() {
                            let k = rng.below(handles.len() as u64) as usize;
                            let (hc, hh) = handles.swap_remove(k);
                            assert_eq!(cal.cancel(hc), heap.cancel(hh));
                        }
                    }
                    7 => assert_eq!(cal.peek_time(), heap.peek_time()),
                    _ => assert_eq!(cal.pop(), heap.pop()),
                }
                assert_eq!(cal.len(), heap.len());
                assert_eq!(cal.now(), heap.now());
            }
            loop {
                let (a, b) = (cal.pop(), heap.pop());
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        });
    }

    /// Regression for the unbounded-bookkeeping bug: a schedule/cancel
    /// churn loop must hold storage proportional to the live population,
    /// not the all-time schedule count.
    #[test]
    fn churn_holds_memory_flat() {
        for backend in both_backends() {
            let mut q = EventQueue::with_backend(backend);
            // A stable population of live timers that keeps getting
            // rescheduled — the pattern World's kernel timers produce.
            let mut live: Vec<EventHandle> =
                (0..64).map(|i| q.schedule(SimTime(1_000 + i), i)).collect();
            for round in 0..50_000u64 {
                let h = live.remove((round % 64) as usize);
                assert!(q.cancel(h));
                live.push(q.schedule(SimTime(2_000 + round), round));
                assert_eq!(q.len(), 64);
                assert!(
                    q.stored_len() <= 2 * q.len() + 2 * MIN_BUCKETS,
                    "stored {} entries for {} live after {} churn rounds",
                    q.stored_len(),
                    q.len(),
                    round + 1
                );
            }
        }
    }

    #[test]
    fn len_excludes_cancelled_entries() {
        for backend in both_backends() {
            let mut q = EventQueue::with_backend(backend);
            let a = q.schedule(SimTime(10), ());
            q.schedule(SimTime(20), ());
            assert_eq!(q.len(), 2);
            q.cancel(a);
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
        }
    }
}
