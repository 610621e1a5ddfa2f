//! The proposer role: issues proposals and retries orphans.
//!
//! A proposal may be orphaned by a fast-round collision (the recovery
//! decides the competing value and this one lands nowhere) or by plain
//! message loss. The proposer keeps every proposal pending until its id
//! is delivered locally, re-submitting after a timeout; learner-side
//! deduplication keeps retries exactly-once.

use std::collections::BTreeMap;

use crate::types::{ProposalId, ReplicaId};

/// A proposal awaiting delivery.
#[derive(Debug, Clone)]
pub struct PendingProposal<V> {
    /// The value proposed.
    pub value: V,
    /// Driver-clock deadline (µs) after which it is re-submitted.
    pub deadline: u64,
    /// Number of submissions so far.
    pub attempts: u32,
}

/// Volatile proposer state.
#[derive(Debug)]
pub struct Proposer<V> {
    id: ReplicaId,
    epoch: u64,
    next_seq: u64,
    pending: BTreeMap<ProposalId, PendingProposal<V>>,
}

impl<V: Clone> Proposer<V> {
    /// Creates the proposer for replica `id` running as process
    /// incarnation `epoch` (restarts must use a fresh epoch).
    pub fn new(id: ReplicaId, epoch: u64) -> Self {
        Proposer {
            id,
            epoch,
            next_seq: 0,
            pending: BTreeMap::new(),
        }
    }

    /// Registers a new proposal, returning its id.
    pub fn submit(&mut self, value: V, now: u64, retry_us: u64) -> ProposalId {
        let pid = ProposalId {
            node: self.id,
            epoch: self.epoch,
            seq: self.next_seq,
        };
        self.next_seq = self.next_seq.saturating_add(1);
        self.pending.insert(
            pid,
            PendingProposal {
                value,
                deadline: now.saturating_add(retry_us),
                attempts: 1,
            },
        );
        pid
    }

    /// Marks `pid` delivered; returns whether it was pending here.
    pub fn delivered(&mut self, pid: ProposalId) -> bool {
        self.pending.remove(&pid).is_some()
    }

    /// Proposals whose deadline has passed; bumps their deadline (with
    /// exponential backoff, capped at 8× the base interval, so retry
    /// storms cannot amplify congestion) and attempt count, returning
    /// `(pid, value)` pairs to re-submit.
    pub fn expired(&mut self, now: u64, retry_us: u64) -> Vec<(ProposalId, V)> {
        let mut out = Vec::new();
        for (pid, p) in self.pending.iter_mut() {
            if now >= p.deadline {
                let backoff = retry_us.saturating_mul(1 << p.attempts.min(3));
                p.deadline = now.saturating_add(backoff);
                p.attempts = p.attempts.saturating_add(1);
                out.push((*pid, p.value.clone()));
            }
        }
        out
    }

    /// Number of proposals awaiting delivery.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Iterates over pending proposals (for tests/metrics).
    pub fn pending(&self) -> impl Iterator<Item = (&ProposalId, &PendingProposal<V>)> {
        self.pending.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_assigns_unique_ids() {
        let mut p: Proposer<&str> = Proposer::new(ReplicaId(3), 0);
        let a = p.submit("a", 0, 100);
        let b = p.submit("b", 0, 100);
        assert_ne!(a, b);
        assert_eq!(a.node, ReplicaId(3));
        assert_eq!(p.pending_len(), 2);
    }

    #[test]
    fn delivered_clears_pending() {
        let mut p: Proposer<&str> = Proposer::new(ReplicaId(0), 0);
        let a = p.submit("a", 0, 100);
        assert!(p.delivered(a));
        assert!(!p.delivered(a), "second delivery is not pending");
        assert_eq!(p.pending_len(), 0);
    }

    #[test]
    fn expiry_backs_off_exponentially() {
        let mut p: Proposer<&str> = Proposer::new(ReplicaId(0), 0);
        let a = p.submit("a", 0, 100);
        assert!(p.expired(50, 100).is_empty());
        // First expiry at deadline 100: re-arms with 2× backoff.
        let again = p.expired(120, 100);
        assert_eq!(again, vec![(a, "a")]);
        assert!(p.expired(310, 100).is_empty(), "backoff deadline is 320");
        let third = p.expired(330, 100);
        assert_eq!(third.len(), 1);
        assert_eq!(p.pending().next().unwrap().1.attempts, 3);
        // Backoff caps at 8× the base interval.
        p.expired(10_000, 100);
        p.expired(20_000, 100);
        let last = p.pending().next().unwrap().1;
        assert!(last.deadline <= 20_000 + 800);
    }
}
