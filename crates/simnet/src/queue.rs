//! The engine's event queue: a calendar-queue / hierarchical-timer-wheel
//! hybrid.
//!
//! The original engine kept every pending event in one global
//! `BinaryHeap`, paying `O(log n)` comparisons — and the cache misses of
//! sifting through megabytes of entries — on every push and pop once
//! sweeps queue hundreds of thousands of timers. [`EventWheel`] replaces
//! it with the classic calendar-queue layout:
//!
//! * **current** — the drained current bucket, sorted descending by
//!   `(at, seq)` and popped from the back, so the hot pop is a branch
//!   and a `Vec::pop`. Sorting one bucket with pdqsort amortizes far
//!   cheaper per entry than sifting a binary heap. A small **late**
//!   heap absorbs pushes that land inside the current window after the
//!   bucket was drained (network-delay-scale offsets); the pop takes
//!   the minimum of the two heads.
//! * **wheel** — `NUM_BUCKETS` unsorted `Vec` buckets, each spanning
//!   `BUCKET_WIDTH_US` microseconds of simulated time. A push inside
//!   the wheel horizon is an `O(1)` append; ordering is deferred until
//!   the cursor reaches the bucket and sorts it into `current`.
//! * **overflow** — entries beyond the wheel horizon (~2 s out: crash
//!   restart timers, schedule milestones), kept in a min-heap and pulled
//!   into the wheel as the horizon advances past them.
//!
//! **Exact ordering.** Every entry carries the engine's global `(at,
//! seq)` key, `seq` strictly increasing across pushes, and pops are
//! globally ordered by that key — bit-for-bit the order the old
//! `BinaryHeap` produced, including FIFO tie-breaking. The differential
//! proptest in `tests/queue_proptest.rs` pins this against
//! [`HeapQueue`], the retained reference implementation.
//!
//! The module is exposed (`#[doc(hidden)]`) so the differential tests
//! can drive both queues directly and the repo benchmark's dispatch
//! probe can time the wheel; it is not part of the crate's supported
//! API.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Microseconds covered by one wheel bucket (power of two so the
/// bucket index is a shift, not a division).
const BUCKET_WIDTH_US: u64 = 1 << 10; // 1.024 ms
/// Number of wheel buckets (power of two). Horizon ≈ 2.1 s of simulated
/// time: network delays (~100 µs), disk writes (~ms) and think-time
/// timers (~1 s) all land on the wheel; only rare far-future entries
/// (crash restarts, schedule milestones) overflow.
const NUM_BUCKETS: usize = 1 << 11;
const BUCKET_MASK: usize = NUM_BUCKETS - 1;

/// One queued entry: the global ordering key plus the caller's payload.
#[derive(Debug)]
struct Item<T> {
    at: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Item<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Item<T> {}
impl<T> PartialOrd for Item<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Item<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Calendar-queue / timer-wheel hybrid with exact `(at, seq)` pop order.
///
/// `at` is absolute simulated microseconds; `seq` must be unique and
/// strictly increasing across pushes (the engine's global sequence
/// number), which makes the order total and FIFO on time ties.
#[derive(Debug)]
pub struct EventWheel<T> {
    /// The drained current bucket, sorted descending by `(at, seq)` so
    /// the minimum pops from the back in O(1).
    current: Vec<Item<T>>,
    /// Entries with `at < cursor_time + BUCKET_WIDTH_US` that arrived
    /// after the current bucket was drained (or behind a cursor that
    /// peeked ahead of the caller's clock), min-heap by `(at, seq)`.
    late: BinaryHeap<Reverse<Item<T>>>,
    /// `buckets[(at / width) % n]` holds entries in the wheel horizon,
    /// unsorted. The cursor's own bucket is always empty: its window
    /// routes to `current`/`late`.
    buckets: Vec<Vec<Item<T>>>,
    /// Index of the current bucket (`cursor_time / width % n`).
    cursor: usize,
    /// Start of the current bucket window; multiple of the width and
    /// monotonically non-decreasing.
    cursor_time: u64,
    /// Entries held across all wheel buckets.
    wheel_len: usize,
    /// Entries at or past the wheel horizon, min-heap by `(at, seq)` so
    /// redistribution pops exactly the entries that fit the new horizon
    /// instead of scanning everything parked here.
    overflow: BinaryHeap<Reverse<Item<T>>>,
    len: usize,
}

impl<T> Default for EventWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventWheel<T> {
    /// An empty wheel anchored at time zero.
    pub fn new() -> Self {
        EventWheel {
            current: Vec::new(),
            late: BinaryHeap::new(),
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            cursor: 0,
            cursor_time: 0,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Minimum `at` parked beyond the horizon (`u64::MAX` when none).
    fn overflow_min(&self) -> u64 {
        self.overflow
            .peek()
            .map_or(u64::MAX, |Reverse(entry)| entry.at)
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues `item` at `(at, seq)`.
    pub fn push(&mut self, at: u64, seq: u64, item: T) {
        self.len += 1;
        let entry = Item { at, seq, item };
        if at < self.cursor_time + BUCKET_WIDTH_US {
            self.late.push(Reverse(entry));
        } else if at < self.horizon() {
            let idx = ((at / BUCKET_WIDTH_US) as usize) & BUCKET_MASK;
            self.wheel_len += 1;
            if let Some(bucket) = self.buckets.get_mut(idx) {
                bucket.push(entry);
            }
        } else {
            self.overflow.push(Reverse(entry));
        }
    }

    /// Pops the minimum `(at, seq)` entry if its time is `<= limit`;
    /// returns `None` (without popping) when the queue is empty or the
    /// earliest entry lies past the limit.
    #[expect(
        clippy::expect_used,
        reason = "each pop takes the entry peeked just above"
    )]
    pub fn pop_before(&mut self, limit: u64) -> Option<(u64, u64, T)> {
        loop {
            // Entries parked in overflow go stale once the cursor (and
            // with it the horizon) advances past them: from then on a
            // fresh push can land in a *bucket* at a later time than a
            // stale overflow entry. Fold overflow back into the wheel
            // before deciding any pop, so the near < wheel < overflow
            // time ordering is restored and pops stay globally minimal.
            if self.overflow_min() < self.horizon() {
                self.redistribute_overflow();
            }
            // The in-window minimum is the smaller of the sorted
            // current bucket's back and the late heap's head; `seq` is
            // globally unique, so the `(at, seq)` comparison is total.
            let take_current = match (self.current.last(), self.late.peek()) {
                (Some(cur), late) => {
                    late.is_none_or(|Reverse(l)| (cur.at, cur.seq) < (l.at, l.seq))
                }
                (None, Some(_)) => false,
                (None, None) => {
                    if self.wheel_len == 0 {
                        let min = self.overflow_min();
                        if self.overflow.is_empty() || min > limit {
                            return None;
                        }
                        self.rebase_to_overflow(min);
                    } else {
                        self.advance_to_next_bucket();
                    }
                    continue;
                }
            };
            let entry = if take_current {
                if self.current.last().expect("peeked entry").at > limit {
                    return None;
                }
                self.current.pop().expect("peeked entry")
            } else {
                if self.late.peek().expect("peeked entry").0.at > limit {
                    return None;
                }
                let Reverse(entry) = self.late.pop().expect("peeked entry");
                entry
            };
            self.len -= 1;
            return Some((entry.at, entry.seq, entry.item));
        }
    }

    /// Steps the cursor forward to the next non-empty bucket and makes
    /// it the sorted `current` window. Caller guarantees the current
    /// window is drained and `wheel_len > 0`, which bounds the walk to
    /// one revolution.
    #[expect(
        clippy::indexing_slicing,
        reason = "`cursor` is masked with `BUCKET_MASK`, below `NUM_BUCKETS`"
    )]
    fn advance_to_next_bucket(&mut self) {
        loop {
            self.cursor_time += BUCKET_WIDTH_US;
            self.cursor = (self.cursor + 1) & BUCKET_MASK;
            if !self.buckets[self.cursor].is_empty() {
                break;
            }
        }
        debug_assert!(self.current.is_empty(), "advance over undrained window");
        // Swap hands the drained window's capacity to the emptied
        // bucket, so neither side reallocates on refill.
        std::mem::swap(&mut self.current, &mut self.buckets[self.cursor]);
        self.wheel_len -= self.current.len();
        // Descending, so the minimum pops from the back in O(1).
        self.current.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Re-anchors an empty wheel at the earliest overflow entry (`min`,
    /// already peeked by the caller) and pulls the overflow prefix that
    /// fits the new horizon. At least the minimum entry always lands in
    /// the new window, so callers make progress.
    fn rebase_to_overflow(&mut self, min: u64) {
        debug_assert_eq!(self.wheel_len, 0, "rebase with populated wheel");
        debug_assert!(self.current.is_empty(), "rebase with populated window");
        debug_assert!(self.late.is_empty(), "rebase with populated late heap");
        self.cursor_time = min - min % BUCKET_WIDTH_US;
        self.cursor = ((self.cursor_time / BUCKET_WIDTH_US) as usize) & BUCKET_MASK;
        self.redistribute_overflow();
    }

    /// Moves every overflow entry that now fits inside the horizon into
    /// the current window (via `late` — `current` must stay sorted) or
    /// its wheel bucket. The overflow is a min-heap, so this pops
    /// exactly the entries that move and touches nothing else.
    #[expect(
        clippy::expect_used,
        clippy::indexing_slicing,
        reason = "the pop takes the entry peeked just above, and `idx` is masked with `BUCKET_MASK`"
    )]
    fn redistribute_overflow(&mut self) {
        let horizon = self.horizon();
        while let Some(Reverse(head)) = self.overflow.peek() {
            if head.at >= horizon {
                break;
            }
            let Reverse(entry) = self.overflow.pop().expect("peeked entry");
            if entry.at < self.cursor_time + BUCKET_WIDTH_US {
                self.late.push(Reverse(entry));
            } else {
                let idx = ((entry.at / BUCKET_WIDTH_US) as usize) & BUCKET_MASK;
                self.wheel_len += 1;
                self.buckets[idx].push(entry);
            }
        }
    }

    fn horizon(&self) -> u64 {
        self.cursor_time + (NUM_BUCKETS as u64) * BUCKET_WIDTH_US
    }

    /// Keeps only entries whose payload satisfies `keep`. Used by the
    /// engine's crash-time purge of dead-incarnation work.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        self.current.retain(|entry| keep(&entry.item));
        let late = std::mem::take(&mut self.late);
        self.late = late
            .into_iter()
            .filter(|Reverse(entry)| keep(&entry.item))
            .collect();
        for bucket in &mut self.buckets {
            let before = bucket.len();
            bucket.retain(|entry| keep(&entry.item));
            self.wheel_len -= before - bucket.len();
        }
        let overflow = std::mem::take(&mut self.overflow);
        self.overflow = overflow
            .into_iter()
            .filter(|Reverse(entry)| keep(&entry.item))
            .collect();
        self.len = self.current.len() + self.late.len() + self.wheel_len + self.overflow.len();
    }

    /// Visits every queued entry as `(at, seq, &payload)`, in no
    /// particular order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, &T)> {
        self.current
            .iter()
            .chain(self.late.iter().map(|Reverse(entry)| entry))
            .chain(self.buckets.iter().flatten())
            .chain(self.overflow.iter().map(|Reverse(entry)| entry))
            .map(|entry| (entry.at, entry.seq, &entry.item))
    }
}

/// The retained reference implementation: the engine's original global
/// `BinaryHeap`, with the same API as [`EventWheel`]. It exists so the
/// differential proptest and the dispatch benches can compare the wheel
/// against the exact semantics (and speed) the engine shipped with.
#[derive(Debug, Default)]
pub struct HeapQueue<T> {
    heap: BinaryHeap<Reverse<Item<T>>>,
}

impl<T> HeapQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Queues `item` at `(at, seq)`.
    pub fn push(&mut self, at: u64, seq: u64, item: T) {
        self.heap.push(Reverse(Item { at, seq, item }));
    }

    /// Pops the minimum `(at, seq)` entry if its time is `<= limit`.
    #[expect(
        clippy::expect_used,
        reason = "the pop takes the entry peeked just above"
    )]
    pub fn pop_before(&mut self, limit: u64) -> Option<(u64, u64, T)> {
        match self.heap.peek() {
            Some(Reverse(entry)) if entry.at <= limit => {
                let Reverse(entry) = self.heap.pop().expect("peeked entry");
                Some((entry.at, entry.seq, entry.item))
            }
            _ => None,
        }
    }

    /// Keeps only entries whose payload satisfies `keep`.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let heap = std::mem::take(&mut self.heap);
        self.heap = heap
            .into_iter()
            .filter(|Reverse(entry)| keep(&entry.item))
            .collect();
    }

    /// Visits every queued entry as `(at, seq, &payload)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, &T)> {
        self.heap
            .iter()
            .map(|Reverse(entry)| (entry.at, entry.seq, &entry.item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(wheel: &mut EventWheel<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some(popped) = wheel.pop_before(u64::MAX) {
            out.push(popped);
        }
        out
    }

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut w = EventWheel::new();
        w.push(50, 0, 1u32);
        w.push(10, 1, 2);
        w.push(10, 2, 3);
        w.push(9_999_999, 3, 4); // overflow
        w.push(10, 4, 5);
        let popped: Vec<u32> = drain(&mut w).into_iter().map(|(_, _, x)| x).collect();
        assert_eq!(popped, vec![2, 3, 5, 1, 4]);
    }

    #[test]
    fn respects_limit_without_popping() {
        let mut w = EventWheel::new();
        w.push(100, 0, 1u32);
        assert_eq!(w.pop_before(99), None);
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_before(100), Some((100, 0, 1)));
        assert!(w.is_empty());
    }

    #[test]
    fn late_push_behind_advanced_cursor_still_pops_first() {
        let mut w = EventWheel::new();
        // Force the cursor deep into the future, then push behind it —
        // the pattern a driver produces when its clock trails a peeked
        // limit.
        w.push(5_000_000, 0, 1u32);
        assert_eq!(w.pop_before(4_999_999), None);
        w.push(100, 1, 2);
        assert_eq!(w.pop_before(u64::MAX), Some((100, 1, 2)));
        assert_eq!(w.pop_before(u64::MAX), Some((5_000_000, 0, 1)));
    }

    #[test]
    fn overflow_rebase_preserves_order() {
        let mut w = EventWheel::new();
        // All far past the initial horizon, spread over many rebases.
        for (i, tag) in (0..100u64).zip(0u32..) {
            w.push(10_000_000 + i * 3_000_000, i, tag);
        }
        let popped: Vec<u64> = drain(&mut w).into_iter().map(|(at, _, _)| at).collect();
        let mut sorted = popped.clone();
        sorted.sort_unstable();
        assert_eq!(popped, sorted);
        assert_eq!(popped.len(), 100);
    }

    #[test]
    fn retain_updates_len_and_overflow_min() {
        let mut w = EventWheel::new();
        w.push(10, 0, 1u32);
        w.push(2_000, 1, 2);
        w.push(50_000_000, 2, 3);
        w.push(60_000_000, 3, 4);
        w.retain(|&x| x % 2 == 0);
        assert_eq!(w.len(), 2);
        let popped: Vec<u32> = drain(&mut w).into_iter().map(|(_, _, x)| x).collect();
        assert_eq!(popped, vec![2, 4]);
    }

    #[test]
    fn iter_visits_every_region() {
        let mut w = EventWheel::new();
        w.push(10, 0, 1u32); // near
        w.push(5_000, 1, 2); // wheel
        w.push(50_000_000, 2, 3); // overflow
        let mut seen: Vec<u32> = w.iter().map(|(_, _, &x)| x).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2, 3]);
    }

    // Regression: an entry parked in overflow goes stale once the
    // cursor advances far enough that the horizon passes it. It must
    // still pop in global order — before any later bucket entry — and
    // must pop at all even when steady wheel traffic (periodic timers)
    // keeps the wheel from ever running dry.
    #[test]
    fn stale_overflow_entry_pops_in_global_order() {
        let mut w = EventWheel::new();
        w.push(3_000_000, 0, 1u32); // beyond the initial ~2.1 s horizon
        w.push(1_000_000, 1, 2); // wheel bucket
        assert_eq!(w.pop_before(1_000_000), Some((1_000_000, 1, 2)));
        // Cursor now sits near 1 s; horizon ≈ 3.1 s has passed the
        // overflow entry. A fresh push lands in a bucket *after* it.
        w.push(3_500_000, 2, 3);
        assert_eq!(w.pop_before(u64::MAX), Some((3_000_000, 0, 1)));
        assert_eq!(w.pop_before(u64::MAX), Some((3_500_000, 2, 3)));
        assert!(w.is_empty());
    }

    #[test]
    fn overflow_delivered_despite_continuous_wheel_traffic() {
        // A periodic 1 ms tick that re-arms forever, plus one far-out
        // entry: the far entry must come out at its time, not never.
        let mut w = EventWheel::new();
        let far = 5_000_000u64;
        w.push(far, 0, 0u32);
        let mut seq = 1u64;
        let mut tick = 1_000u64;
        w.push(tick, seq, 1);
        let mut saw_far = false;
        for _ in 0..10_000 {
            let (at, _, v) = w.pop_before(u64::MAX).expect("queue never empties");
            if v == 0 {
                assert_eq!(at, far);
                saw_far = true;
                break;
            }
            assert_eq!(at, tick);
            tick += 1_000;
            seq += 1;
            w.push(tick, seq, 1);
        }
        assert!(saw_far, "overflow entry starved by wheel traffic");
    }

    #[test]
    fn heap_queue_matches_on_a_mixed_sequence() {
        let mut wheel = EventWheel::new();
        let mut heap = HeapQueue::new();
        let mut state = 42u64;
        let mut at = 0u64;
        for (seq, tag) in (0..10_000u64).zip(0u32..) {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let delta = (state >> 33) % 3_000_000;
            at += delta % 7; // mostly ties and small steps
            let t = at + delta;
            wheel.push(t, seq, tag);
            heap.push(t, seq, tag);
        }
        loop {
            let a = wheel.pop_before(u64::MAX);
            let b = heap.pop_before(u64::MAX);
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
