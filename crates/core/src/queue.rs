//! The asynchronous persistent queue abstraction (paper §2).
//!
//! Treplica's primary programming interface is a totally ordered
//! persistent queue: `enqueue` is asynchronous, `dequeue` blocking, and
//! a replica that crashes and rebinds is guaranteed to observe every
//! element in the same order as everyone else. In this reproduction the
//! consensus machinery produces the ordered elements and
//! [`PersistentQueue`] is the delivery-side view: it enforces the total
//! order invariant (strictly increasing `(slot, index)` positions, no
//! duplicates) and holds elements until the application consumes them —
//! including during recovery, while the checkpoint is still loading
//! from disk.
//!
//! With group commit a single consensus slot orders a whole batch of
//! updates; `index` is the update's position inside its batch, so the
//! delivery order is lexicographic on `(slot, index)`.

use std::collections::VecDeque;

use paxos::{Batch, ProposalId, Slot};

/// One totally ordered element.
///
/// The element stays in the batch consensus decided: the entry holds a
/// handle on that shared batch and the element's position in it, so
/// queueing an update copies nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueEntry<A> {
    /// The consensus slot that ordered this element.
    pub slot: Slot,
    /// Position of this element inside its batch (0 for the head; always
    /// 0 when batching is disabled).
    pub index: u32,
    /// The proposal that produced it.
    pub pid: ProposalId,
    /// Configuration epoch the slot was decided under (slots below a
    /// reconfiguration fence carry the old epoch, slots at or above it
    /// the new one).
    pub epoch: u64,
    batch: Batch<A>,
}

impl<A> QueueEntry<A> {
    /// The element itself, borrowed from the shared batch.
    /// [`PersistentQueue::push_batch`] makes one entry per item, so this
    /// is `None` for no entry the queue hands out.
    pub fn action(&self) -> Option<&A> {
        self.batch.items.get(self.index as usize).map(|(_, a)| a)
    }
}

/// Delivery-side view of the asynchronous persistent queue.
///
/// ```
/// use treplica::PersistentQueue;
/// use paxos::{Batch, ProposalId, ReplicaId, Slot};
/// let mut q = PersistentQueue::new();
/// let pid = ProposalId { node: ReplicaId(0), epoch: 0, seq: 1 };
/// q.push_batch(Slot(4), 0, &Batch::single(pid, "action"));
/// assert_eq!(q.try_dequeue().unwrap().action(), Some(&"action"));
/// ```
#[derive(Debug)]
pub struct PersistentQueue<A> {
    entries: VecDeque<QueueEntry<A>>,
    /// All pushed slots are strictly above this.
    last_slot: Option<Slot>,
}

impl<A> PersistentQueue<A> {
    /// An empty queue.
    pub fn new() -> Self {
        PersistentQueue {
            entries: VecDeque::new(),
            last_slot: None,
        }
    }

    /// Pushes the updates of a decided batch in total order: one element
    /// per item, front to back, at positions `(slot, 0)`, `(slot, 1)`, ….
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not strictly greater than every slot pushed
    /// before — the consensus layer guarantees in-order, gap-checked
    /// delivery, so a violation here is a protocol bug, not an input
    /// error.
    pub fn push_batch(&mut self, slot: Slot, epoch: u64, batch: &Batch<A>) {
        if let Some(last_slot) = self.last_slot {
            assert!(
                slot > last_slot,
                "total order violation: {slot} after {last_slot}"
            );
        }
        self.last_slot = Some(slot);
        for (index, (pid, _)) in batch.items.iter().enumerate() {
            self.entries.push_back(QueueEntry {
                slot,
                index: crate::wire::len_u32(index),
                pid: *pid,
                epoch,
                batch: batch.clone(),
            });
        }
    }

    /// Removes and returns the next element, if any (the non-blocking
    /// core of the paper's blocking `dequeue`).
    pub fn try_dequeue(&mut self) -> Option<QueueEntry<A>> {
        self.entries.pop_front()
    }

    /// Elements currently waiting.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no elements are waiting.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The highest slot observed.
    pub fn last_slot(&self) -> Option<Slot> {
        self.last_slot
    }
}

impl<A> Default for PersistentQueue<A> {
    fn default() -> Self {
        PersistentQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxos::ReplicaId;

    fn pid(seq: u64) -> ProposalId {
        ProposalId {
            node: ReplicaId(0),
            epoch: 0,
            seq,
        }
    }

    fn batch(items: &[(u64, &'static str)]) -> Batch<&'static str> {
        Batch::new(items.iter().map(|&(seq, a)| (pid(seq), a)).collect())
    }

    fn drain(q: &mut PersistentQueue<&'static str>) -> Vec<&'static str> {
        std::iter::from_fn(|| q.try_dequeue())
            .map(|e| *e.action().expect("one entry per item"))
            .collect()
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = PersistentQueue::new();
        q.push_batch(Slot(1), 0, &batch(&[(1, "a")]));
        q.push_batch(Slot(2), 0, &batch(&[(2, "b")]));
        assert_eq!(q.len(), 2);
        assert_eq!(drain(&mut q), vec!["a", "b"]);
        assert!(q.try_dequeue().is_none());
    }

    #[test]
    fn batch_entries_ordered_by_index_and_share_the_batch() {
        let mut q = PersistentQueue::new();
        let b = batch(&[(1, "a"), (2, "b"), (3, "c")]);
        q.push_batch(Slot(5), 7, &b);
        q.push_batch(Slot(6), 7, &batch(&[(4, "d")]));
        let entries: Vec<_> = std::iter::from_fn(|| q.try_dequeue()).collect();
        let positions: Vec<_> = entries.iter().map(|e| (e.slot.0, e.index)).collect();
        assert_eq!(positions, vec![(5, 0), (5, 1), (5, 2), (6, 0)]);
        let pids: Vec<_> = entries.iter().map(|e| e.pid.seq).collect();
        assert_eq!(pids, vec![1, 2, 3, 4]);
        let actions: Vec<_> = entries.iter().map(|e| *e.action().unwrap()).collect();
        assert_eq!(actions, vec!["a", "b", "c", "d"]);
        assert!(entries.iter().all(|e| e.epoch == 7));
        // Queueing copied nothing: the entries point into the batch.
        assert!(std::ptr::eq(entries[1].action().unwrap(), &b.items[1].1));
    }

    #[test]
    #[should_panic(expected = "total order violation")]
    fn out_of_order_push_panics() {
        let mut q = PersistentQueue::new();
        q.push_batch(Slot(5), 0, &batch(&[(1, "a")]));
        q.push_batch(Slot(5), 0, &batch(&[(2, "b")]));
    }

    #[test]
    fn gaps_in_slots_are_fine() {
        // No-op slots are filtered before the queue; gaps are expected.
        let mut q = PersistentQueue::new();
        q.push_batch(Slot(1), 0, &batch(&[(1, "a")]));
        q.push_batch(Slot(7), 0, &batch(&[(2, "b")]));
        assert_eq!(q.last_slot(), Some(Slot(7)));
    }

    #[test]
    fn empty_queue_reports_empty() {
        let q: PersistentQueue<&str> = PersistentQueue::default();
        assert!(q.is_empty());
        assert_eq!(q.last_slot(), None);
    }
}
