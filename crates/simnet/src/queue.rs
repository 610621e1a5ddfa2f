//! The engine's event queue: one binary heap ordered by `(at, seq)`.
//!
//! Every entry carries the engine's global `(at, seq)` key, `seq`
//! strictly increasing across pushes, so pops come out in time order
//! with FIFO tie-breaking. The engine holds a few thousand entries at
//! most (1 049 / 5 319 / 2 127 at peak on the repo benchmark's three
//! workloads), so a heap's `O(log n)` is a dozen comparisons (DESIGN
//! §2.1.1).
//!
//! The module is exposed (`#[doc(hidden)]`) so the repo benchmark's
//! dispatch probe can time the queue; it is not part of the crate's
//! supported API.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

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

/// Min-heap of payloads keyed by `(at, seq)`.
///
/// `at` is absolute simulated microseconds; `seq` must be unique and
/// strictly increasing across pushes (the engine's global sequence
/// number), which makes the order total and FIFO on time ties.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Item<T>>>,
}

/// The queue's name while it was a calendar wheel. The repo benchmark's
/// dispatch probe (`benchmark/src/probes.rs`, which is kept byte for
/// byte) still imports it by that name.
#[doc(hidden)]
pub type EventWheel<T> = EventQueue<T>;

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
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

    /// Pops the minimum `(at, seq)` entry if its time is `<= limit`;
    /// returns `None` (without popping) when the queue is empty or the
    /// earliest entry lies past the limit.
    pub fn pop_before(&mut self, limit: u64) -> Option<(u64, u64, T)> {
        let head = self.heap.peek_mut()?;
        if head.0.at > limit {
            return None;
        }
        let Reverse(entry) = PeekMut::pop(head);
        Some((entry.at, entry.seq, entry.item))
    }

    /// Keeps only entries whose payload satisfies `keep`. Used by the
    /// engine's crash-time purge of dead-incarnation work.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        self.heap.retain(|Reverse(entry)| keep(&entry.item));
    }

    /// Visits every queued entry as `(at, seq, &payload)`, in no
    /// particular order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, &T)> {
        self.heap
            .iter()
            .map(|Reverse(entry)| (entry.at, entry.seq, &entry.item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(queue: &mut EventQueue<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some(popped) = queue.pop_before(u64::MAX) {
            out.push(popped);
        }
        out
    }

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q = EventQueue::new();
        q.push(50, 0, 1u32);
        q.push(10, 1, 2);
        q.push(10, 2, 3);
        q.push(9_999_999, 3, 4);
        q.push(10, 4, 5);
        let popped: Vec<u32> = drain(&mut q).into_iter().map(|(_, _, x)| x).collect();
        assert_eq!(popped, vec![2, 3, 5, 1, 4]);
    }

    #[test]
    fn respects_limit_without_popping() {
        let mut q = EventQueue::new();
        q.push(100, 0, 1u32);
        assert_eq!(q.pop_before(99), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_before(100), Some((100, 0, 1)));
        assert!(q.is_empty());
    }

    #[test]
    fn retain_keeps_len_and_order() {
        let mut q = EventQueue::new();
        q.push(10, 0, 1u32);
        q.push(2_000, 1, 2);
        q.push(50_000_000, 2, 3);
        q.push(60_000_000, 3, 4);
        q.retain(|&x| x % 2 == 0);
        assert_eq!(q.len(), 2);
        let popped: Vec<u32> = drain(&mut q).into_iter().map(|(_, _, x)| x).collect();
        assert_eq!(popped, vec![2, 4]);
    }

    #[test]
    fn iter_visits_every_entry() {
        let mut q = EventQueue::new();
        q.push(10, 0, 1u32);
        q.push(5_000, 1, 2);
        q.push(50_000_000, 2, 3);
        let mut seen: Vec<u32> = q.iter().map(|(_, _, &x)| x).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2, 3]);
    }
}
