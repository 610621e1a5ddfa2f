//! The learner role: quorum detection, in-order delivery, catch-up.
//!
//! Learners watch the `Accepted` announcements broadcast by acceptors.
//! A slot decides when a single `(ballot, decree)` gathers the ballot's
//! quorum — the classic majority for classic ballots, ⌈3N/4⌉ for fast
//! ballots. Decided decrees are delivered in contiguous slot order; real
//! values are deduplicated by [`ProposalId`] so collision-recovery
//! re-proposals and proposer retries stay exactly-once. The dedup set
//! stores runs of consecutive `seq` per proposer incarnation rather than
//! one entry per id: proposers retry every id until it is delivered, so
//! gaps close and the set stays as small as the ids still in flight.

use std::collections::BTreeMap;
use std::ops::Bound;

use crate::types::{Ballot, Decree, ProposalId, Quorums, Reconfig, ReplicaId, Slot};

/// One delivery produced by the learner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<V> {
    /// The decided slot.
    pub slot: Slot,
    /// Proposal identity.
    pub pid: ProposalId,
    /// The decided value.
    pub value: V,
}

/// Votes gathered for one undecided slot.
#[derive(Debug)]
struct SlotVotes<V> {
    /// ballot → (acceptor → decree). An acceptor votes at most once per
    /// ballot for a slot.
    by_ballot: BTreeMap<Ballot, BTreeMap<ReplicaId, Decree<V>>>,
    /// First time (driver clock, µs) a vote was recorded — used by the
    /// coordinator's collision timeout.
    first_vote_at: u64,
}

/// The delivered ids, as runs of consecutive `seq` within one proposer
/// incarnation `(node, epoch)`: the first id of each run maps to the
/// run's last `seq`. It answers `insert` and `contains` as a
/// `BTreeSet<ProposalId>` would, in O(gaps) memory instead of O(ids).
#[derive(Debug, Default)]
struct PidRuns {
    runs: BTreeMap<ProposalId, u64>,
}

impl PidRuns {
    /// The run at or before `pid` in its incarnation: its first id and
    /// last `seq`.
    fn run_before(&self, pid: ProposalId) -> Option<(ProposalId, u64)> {
        self.runs
            .range(..=pid)
            .next_back()
            .filter(|(first, _)| first.node == pid.node && first.epoch == pid.epoch)
            .map(|(first, last)| (*first, *last))
    }

    fn contains(&self, pid: ProposalId) -> bool {
        self.run_before(pid)
            .is_some_and(|(_, last)| pid.seq <= last)
    }

    /// Adds `pid`; false if it was already there. Extends the run that
    /// ends just below it, and merges the run that starts just above.
    fn insert(&mut self, pid: ProposalId) -> bool {
        let first = match self.run_before(pid) {
            Some((_, last)) if pid.seq <= last => return false,
            Some((first, last)) if last.checked_add(1) == Some(pid.seq) => first,
            _ => pid,
        };
        let after = pid
            .seq
            .checked_add(1)
            .and_then(|seq| self.runs.remove(&ProposalId { seq, ..pid }));
        self.runs.insert(first, after.unwrap_or(pid.seq));
        true
    }
}

/// The learner.
#[derive(Debug)]
pub struct Learner<V> {
    quorums: Quorums,
    votes: BTreeMap<Slot, SlotVotes<V>>,
    decided: BTreeMap<Slot, Decree<V>>,
    next_deliver: Slot,
    delivered_pids: PidRuns,
    truncated_below: Slot,
    /// A decided `Reconfig` sitting at the delivery watermark: the
    /// fence. Delivery stops here until the replica applies the
    /// membership switch and calls [`Learner::ack_reconfig`].
    pending_reconfig: Option<(Slot, Reconfig)>,
}

/// The distinct decrees among `votes` with their vote counts, in order
/// of first appearance (acceptor order). Quorums are tiny (N ≤ a handful
/// of replicas), so each decree is counted by comparing it against the
/// other votes in place: deterministic, and nothing to allocate.
fn count_votes<V: Eq>(
    votes: &BTreeMap<ReplicaId, Decree<V>>,
) -> impl Iterator<Item = (&Decree<V>, usize)> {
    votes.values().enumerate().filter_map(move |(i, d)| {
        if votes.values().take(i).any(|seen| seen == d) {
            return None;
        }
        let later = votes
            .values()
            .skip(i.saturating_add(1))
            .filter(|v| *v == d)
            .count();
        Some((d, later.saturating_add(1)))
    })
}

impl<V: Clone + Eq> Learner<V> {
    /// Creates a learner for an ensemble of `n` replicas, delivering from
    /// slot `start` (0 for a fresh ensemble; the checkpoint watermark for
    /// a recovering replica).
    pub fn new(quorums: Quorums, start: Slot) -> Self {
        Learner {
            quorums,
            votes: BTreeMap::new(),
            decided: BTreeMap::new(),
            next_deliver: start,
            delivered_pids: PidRuns::default(),
            truncated_below: start,
            pending_reconfig: None,
        }
    }

    /// Switches the quorum arithmetic to a new epoch's `N` (applied by
    /// the replica exactly at the reconfiguration fence).
    pub fn set_quorums(&mut self, quorums: Quorums) {
        self.quorums = quorums;
    }

    /// Slots below this are decided and delivered locally.
    pub fn next_deliver(&self) -> Slot {
        self.next_deliver
    }

    /// Whether `slot` is known decided.
    pub fn is_decided(&self, slot: Slot) -> bool {
        slot < self.next_deliver || self.decided.contains_key(&slot)
    }

    /// Number of retained decided entries (metrics/tests).
    pub fn decided_len(&self) -> usize {
        self.decided.len()
    }

    fn required(&self, ballot: Ballot) -> usize {
        if ballot.is_fast() {
            self.quorums.fast()
        } else {
            self.quorums.classic()
        }
    }

    /// Records an `Accepted` announcement; returns any new in-order
    /// deliveries it unlocked.
    pub fn on_accepted(
        &mut self,
        from: ReplicaId,
        ballot: Ballot,
        slot: Slot,
        decree: Decree<V>,
        now: u64,
    ) -> Vec<Delivery<V>> {
        if self.is_decided(slot) {
            return Vec::new();
        }
        // Decision check for this ballot.
        let needed = self.required(ballot);
        let entry = self.votes.entry(slot).or_insert_with(|| SlotVotes {
            by_ballot: BTreeMap::new(),
            first_vote_at: now,
        });
        let ballot_votes = entry.by_ballot.entry(ballot).or_default();
        ballot_votes.insert(from, decree);

        // Scan votes in acceptor order, not hash order: at most one
        // decree can reach the quorum, but replays must take identical
        // paths bit-for-bit.
        let winner = count_votes(ballot_votes)
            .find(|(_, n)| *n >= needed)
            .map(|(d, _)| d)
            .cloned();
        match winner {
            Some(decree) => {
                self.votes.remove(&slot);
                self.record_decided(slot, decree);
                self.drain_deliveries()
            }
            None => Vec::new(),
        }
    }

    /// Merges externally learned decided entries (catch-up replies);
    /// returns unlocked deliveries.
    pub fn on_learned(&mut self, entries: Vec<(Slot, Decree<V>)>) -> Vec<Delivery<V>> {
        for (slot, decree) in entries {
            if !self.is_decided(slot) {
                self.votes.remove(&slot);
                self.record_decided(slot, decree);
            }
        }
        self.drain_deliveries()
    }

    fn record_decided(&mut self, slot: Slot, decree: Decree<V>) {
        self.decided.insert(slot, decree);
    }

    fn drain_deliveries(&mut self) -> Vec<Delivery<V>> {
        let mut out = Vec::new();
        while let Some(decree) = self.decided.get(&self.next_deliver) {
            match decree {
                Decree::Value(pid, value) => {
                    if self.delivered_pids.insert(*pid) {
                        out.push(Delivery {
                            slot: self.next_deliver,
                            pid: *pid,
                            value: value.clone(),
                        });
                    }
                }
                Decree::Noop => {}
                Decree::Reconfig(rc) => {
                    // The fence: everything below this slot is delivered
                    // under the old epoch. Stop here; the replica applies
                    // the membership switch and resumes delivery with
                    // `ack_reconfig`.
                    self.pending_reconfig = Some((self.next_deliver, rc.clone()));
                    break;
                }
            }
            self.next_deliver = self.next_deliver.next();
        }
        out
    }

    /// Takes the reconfiguration decree blocking delivery, if any.
    pub fn take_reconfig(&mut self) -> Option<(Slot, Reconfig)> {
        self.pending_reconfig.take()
    }

    /// Acknowledges the fence at `slot` after the membership switch was
    /// applied (or found stale): delivery resumes past it. Returns the
    /// deliveries unlocked by crossing the fence.
    pub fn ack_reconfig(&mut self, slot: Slot) -> Vec<Delivery<V>> {
        if self.next_deliver == slot {
            self.next_deliver = slot.next();
        }
        self.drain_deliveries()
    }

    /// Whether `pid` has been delivered already (proposer retry check).
    pub fn was_delivered(&self, pid: ProposalId) -> bool {
        self.delivered_pids.contains(pid)
    }

    /// Serves a catch-up request: decided entries from
    /// `max(from_slot, truncated_below)`, at most `cap` of them.
    ///
    /// Returns `(entries, truncated_below, decided_upto)`.
    pub fn serve_learn(&self, from_slot: Slot, cap: usize) -> (Vec<(Slot, Decree<V>)>, Slot, Slot) {
        let start = from_slot.max(self.truncated_below);
        let entries: Vec<(Slot, Decree<V>)> = self
            .decided
            .range(start..)
            .take(cap)
            .map(|(s, d)| (*s, d.clone()))
            .collect();
        (entries, self.truncated_below, self.next_deliver)
    }

    /// Slots that look like fast-round casualties needing coordinator
    /// recovery: undecided, carrying votes, below the highest voted slot
    /// or older than `timeout_us`, and provably or plausibly stuck.
    ///
    /// Two triggers:
    /// * **impossibility** — enough acceptors voted differently that no
    ///   value can still reach the fast quorum;
    /// * **staleness** — votes have sat for `timeout_us` without a
    ///   decision (covers lost messages and crashed acceptors).
    pub fn stuck_slots(&self, now: u64, timeout_us: u64) -> Vec<Slot> {
        let mut out = Vec::new();
        for (slot, sv) in &self.votes {
            let stale = now.saturating_sub(sv.first_vote_at) >= timeout_us;
            let impossible = sv.by_ballot.iter().any(|(ballot, votes)| {
                if !ballot.is_fast() {
                    return false;
                }
                let needed = self.quorums.fast();
                let top = count_votes(votes).map(|(_, n)| n).max().unwrap_or(0);
                // `votes` may hold ballots cast before a membership
                // change shrank the ensemble.
                let unvoted = self.quorums.n().saturating_sub(votes.len());
                top.saturating_add(unvoted) < needed
            });
            if stale || impossible {
                out.push(*slot);
            }
        }
        out
    }

    /// Whether delivery is blocked by a gap: some slot above the
    /// delivery watermark is already decided (so the watermark slot can
    /// never be filled by ongoing traffic — it must be learned), or
    /// votes have been sitting above an undelivered hole for longer
    /// than `timeout_us`.
    ///
    /// Asked on every tick, so it reads the two map ends that decide the
    /// answer instead of the retained history. It relies on two facts:
    /// both maps are sorted by slot, so `decided` has a key above the
    /// watermark iff its last key is one; and `votes` holds undecided
    /// slots only (a slot leaves it when it decides), so the range above
    /// the watermark is the in-flight window, however much of `decided`
    /// is kept for peers' catch-up. The bound is excluded rather than
    /// `next_deliver.next()..` because `Slot::next` saturates.
    pub fn gapped(&self, now: u64, timeout_us: u64) -> bool {
        if self
            .decided
            .last_key_value()
            .is_some_and(|(s, _)| *s > self.next_deliver)
        {
            return true;
        }
        self.votes
            .range((Bound::Excluded(self.next_deliver), Bound::Unbounded))
            .any(|(_, sv)| now.saturating_sub(sv.first_vote_at) >= timeout_us)
    }

    /// Jumps delivery past `slot` after an external state transfer: the
    /// application state now covers everything below `slot`, so decided
    /// entries and votes below it are dropped without delivery.
    pub fn fast_forward(&mut self, slot: Slot) {
        if slot <= self.next_deliver {
            return;
        }
        self.decided = self.decided.split_off(&slot);
        self.votes = self.votes.split_off(&slot);
        self.next_deliver = slot;
        if self.truncated_below < slot {
            self.truncated_below = slot;
        }
        // A fence below the transfer watermark was subsumed by the
        // snapshot (which carries the membership it installed).
        if self
            .pending_reconfig
            .as_ref()
            .is_some_and(|(s, _)| *s < slot)
        {
            self.pending_reconfig = None;
        }
    }

    /// Delivers anything contiguous from the current watermark (used
    /// after [`Learner::fast_forward`]).
    pub fn drain(&mut self) -> Vec<Delivery<V>> {
        self.drain_deliveries()
    }

    /// Drops decided entries below `upto` (after a checkpoint covers
    /// them). Also forgets votes for slots below `upto`.
    pub fn truncate(&mut self, upto: Slot) {
        if upto <= self.truncated_below {
            return;
        }
        self.decided = self.decided.split_off(&upto);
        self.votes = self.votes.split_off(&upto);
        self.truncated_below = upto;
    }

    /// First retained decided slot boundary.
    pub fn truncated_below(&self) -> Slot {
        self.truncated_below
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn pid(node: u32, seq: u64) -> ProposalId {
        ProposalId {
            node: ReplicaId(node),
            epoch: 0,
            seq,
        }
    }

    fn learner() -> Learner<&'static str> {
        Learner::new(Quorums::new(5), Slot::ZERO)
    }

    #[test]
    fn classic_decides_on_majority() {
        let mut l = learner();
        let b = Ballot::classic(1, ReplicaId(0));
        let d = Decree::Value(pid(0, 1), "v");
        assert!(l
            .on_accepted(ReplicaId(0), b, Slot(0), d.clone(), 0)
            .is_empty());
        assert!(l
            .on_accepted(ReplicaId(1), b, Slot(0), d.clone(), 0)
            .is_empty());
        let out = l.on_accepted(ReplicaId(2), b, Slot(0), d, 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].slot, Slot(0));
        assert_eq!(out[0].value, "v");
        assert_eq!(l.next_deliver(), Slot(1));
    }

    #[test]
    fn fast_requires_three_quarters() {
        let mut l = learner();
        let b = Ballot::fast(1, ReplicaId(0));
        let d = Decree::Value(pid(1, 1), "v");
        for i in 0..3 {
            assert!(l
                .on_accepted(ReplicaId(i), b, Slot(0), d.clone(), 0)
                .is_empty());
        }
        // 4th vote = ⌈3·5/4⌉ = 4 → decided.
        let out = l.on_accepted(ReplicaId(3), b, Slot(0), d, 0);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn duplicate_votes_from_same_acceptor_count_once() {
        let mut l = learner();
        let b = Ballot::classic(1, ReplicaId(0));
        let d = Decree::Value(pid(0, 1), "v");
        l.on_accepted(ReplicaId(0), b, Slot(0), d.clone(), 0);
        l.on_accepted(ReplicaId(0), b, Slot(0), d.clone(), 0);
        let out = l.on_accepted(ReplicaId(0), b, Slot(0), d, 0);
        assert!(out.is_empty(), "one acceptor is not a quorum");
    }

    #[test]
    fn delivery_is_in_order_and_gap_blocked() {
        let mut l = learner();
        let b = Ballot::classic(1, ReplicaId(0));
        let d1 = Decree::Value(pid(0, 1), "one");
        for i in 0..3 {
            l.on_accepted(ReplicaId(i), b, Slot(1), d1.clone(), 0);
        }
        assert_eq!(l.next_deliver(), Slot(0), "slot 1 decided but 0 missing");
        let d0 = Decree::Value(pid(0, 2), "zero");
        let mut out = Vec::new();
        for i in 0..3 {
            out.extend(l.on_accepted(ReplicaId(i), b, Slot(0), d0.clone(), 0));
        }
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].value, "zero");
        assert_eq!(out[1].value, "one");
        assert_eq!(l.next_deliver(), Slot(2));
    }

    #[test]
    fn noop_advances_without_delivery() {
        let mut l = learner();
        let b = Ballot::classic(1, ReplicaId(0));
        let mut out = Vec::new();
        for i in 0..3 {
            out.extend(l.on_accepted(ReplicaId(i), b, Slot(0), Decree::Noop, 0));
        }
        assert!(out.is_empty());
        assert_eq!(l.next_deliver(), Slot(1));
    }

    #[test]
    fn duplicate_pid_across_slots_delivered_once() {
        let mut l = learner();
        let b = Ballot::classic(1, ReplicaId(0));
        let d = Decree::Value(pid(2, 7), "dup");
        let mut out = Vec::new();
        for i in 0..3 {
            out.extend(l.on_accepted(ReplicaId(i), b, Slot(0), d.clone(), 0));
        }
        for i in 0..3 {
            out.extend(l.on_accepted(ReplicaId(i), b, Slot(1), d.clone(), 0));
        }
        assert_eq!(out.len(), 1, "same pid decided twice delivers once");
        assert_eq!(l.next_deliver(), Slot(2));
        assert!(l.was_delivered(pid(2, 7)));
    }

    #[test]
    fn fast_collision_impossibility_detected() {
        let mut l = learner();
        let b = Ballot::fast(1, ReplicaId(0));
        // 5 replicas, fast quorum 4: a 2-2 split with 1 unvoted is stuck.
        l.on_accepted(ReplicaId(0), b, Slot(0), Decree::Value(pid(0, 1), "a"), 10);
        l.on_accepted(ReplicaId(1), b, Slot(0), Decree::Value(pid(0, 1), "a"), 10);
        l.on_accepted(ReplicaId(2), b, Slot(0), Decree::Value(pid(1, 1), "z"), 10);
        assert!(
            l.stuck_slots(10, 1_000_000).is_empty(),
            "3 votes: still winnable"
        );
        l.on_accepted(ReplicaId(3), b, Slot(0), Decree::Value(pid(1, 1), "z"), 10);
        assert_eq!(l.stuck_slots(10, 1_000_000), vec![Slot(0)]);
    }

    #[test]
    fn votes_are_counted_per_distinct_decree_in_acceptor_order() {
        let votes: BTreeMap<ReplicaId, Decree<&str>> = ["a", "b", "a", "c", "b", "a"]
            .into_iter()
            .zip(0..)
            .map(|(v, i)| (ReplicaId(i), Decree::Value(pid(0, 1), v)))
            .collect();
        let counts: Vec<(&str, usize)> = count_votes(&votes)
            .map(|(d, n)| match d {
                Decree::Value(_, v) => (*v, n),
                other => panic!("only values were cast: {other:?}"),
            })
            .collect();
        assert_eq!(counts, vec![("a", 3), ("b", 2), ("c", 1)]);
        assert_eq!(
            count_votes(&BTreeMap::<ReplicaId, Decree<&str>>::new()).count(),
            0
        );
    }

    #[test]
    fn stale_votes_reported_after_timeout() {
        let mut l = learner();
        let b = Ballot::fast(1, ReplicaId(0));
        l.on_accepted(ReplicaId(0), b, Slot(3), Decree::Value(pid(0, 1), "a"), 100);
        assert!(l.stuck_slots(500, 1_000).is_empty());
        assert_eq!(l.stuck_slots(1_200, 1_000), vec![Slot(3)]);
    }

    #[test]
    fn serve_learn_respects_truncation_and_cap() {
        let mut l = learner();
        let b = Ballot::classic(1, ReplicaId(0));
        for s in 0..6u64 {
            let d = Decree::Value(pid(0, s), "v");
            for i in 0..3 {
                l.on_accepted(ReplicaId(i), b, Slot(s), d.clone(), 0);
            }
        }
        l.truncate(Slot(2));
        let (entries, trunc, upto) = l.serve_learn(Slot(0), 3);
        assert_eq!(trunc, Slot(2));
        assert_eq!(upto, Slot(6));
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].0, Slot(2));
    }

    #[test]
    fn on_learned_merges_and_delivers() {
        let mut l = learner();
        let out = l.on_learned(vec![
            (Slot(0), Decree::Value(pid(0, 1), "a")),
            (Slot(1), Decree::Noop),
            (Slot(2), Decree::Value(pid(0, 2), "b")),
        ]);
        assert_eq!(out.len(), 2);
        assert_eq!(l.next_deliver(), Slot(3));
    }

    #[test]
    fn late_votes_for_decided_slot_ignored() {
        let mut l = learner();
        let b = Ballot::classic(1, ReplicaId(0));
        let d = Decree::Value(pid(0, 1), "v");
        for i in 0..3 {
            l.on_accepted(ReplicaId(i), b, Slot(0), d.clone(), 0);
        }
        let out = l.on_accepted(ReplicaId(4), b, Slot(0), d, 0);
        assert!(out.is_empty());
    }

    #[test]
    fn reconfig_decree_fences_delivery() {
        let mut l = learner();
        let b = Ballot::classic(1, ReplicaId(0));
        let rc = Reconfig {
            epoch: 1,
            add: vec![],
            remove: vec![ReplicaId(4)],
        };
        // Decide slots 0 (value), 1 (reconfig), 2 (value) out of order.
        let out = l.on_learned(vec![
            (Slot(0), Decree::Value(pid(0, 1), "a")),
            (Slot(1), Decree::Reconfig(rc.clone())),
            (Slot(2), Decree::Value(pid(0, 2), "b")),
        ]);
        // Delivery stops at the fence: only slot 0 comes out.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].slot, Slot(0));
        assert_eq!(l.next_deliver(), Slot(1), "watermark parked at fence");
        let (slot, got) = l.take_reconfig().expect("fence surfaced");
        assert_eq!(slot, Slot(1));
        assert_eq!(got, rc);
        // New epoch has N=4: classic quorum drops to 3.
        l.set_quorums(Quorums::new(4));
        let resumed = l.ack_reconfig(Slot(1));
        assert_eq!(resumed.len(), 1);
        assert_eq!(resumed[0].slot, Slot(2));
        assert_eq!(l.next_deliver(), Slot(3));
        // Quorum rule now follows the new N.
        let d = Decree::Value(pid(0, 3), "c");
        assert!(l
            .on_accepted(ReplicaId(0), b, Slot(3), d.clone(), 0)
            .is_empty());
        assert!(l
            .on_accepted(ReplicaId(1), b, Slot(3), d.clone(), 0)
            .is_empty());
        let out = l.on_accepted(ReplicaId(2), b, Slot(3), d, 0);
        assert_eq!(out.len(), 1, "3 of 4 decides under the new epoch");
    }

    /// `gapped` as it was while it walked everything retained: the
    /// oracle the two-ended read is compared against.
    fn gapped_by_scan(l: &Learner<&'static str>, now: u64, timeout_us: u64) -> bool {
        if l.decided.keys().any(|s| *s > l.next_deliver) {
            return true;
        }
        l.votes.iter().any(|(s, sv)| {
            *s > l.next_deliver && now.saturating_sub(sv.first_vote_at) >= timeout_us
        })
    }

    #[test]
    fn gapped_by_a_decided_slot_or_a_stale_vote_above_a_hole() {
        let check = |l: &Learner<&'static str>, expect: bool, what: &str| {
            for now in [0, 999, 1_000, 5_000] {
                assert_eq!(
                    l.gapped(now, 1_000),
                    gapped_by_scan(l, now, 1_000),
                    "{what}, now {now}"
                );
            }
            assert_eq!(l.gapped(5_000, 1_000), expect, "{what}");
        };
        let b = Ballot::fast(1, ReplicaId(0));
        let mut l = learner();
        check(&l, false, "empty");
        // A long decided, delivered prefix retained for catch-up.
        l.on_learned((0..500).map(|s| (Slot(s), Decree::Noop)).collect());
        assert_eq!((l.next_deliver(), l.decided_len()), (Slot(500), 500));
        check(&l, false, "decided prefix only");
        // A vote at the watermark is not above a hole, however stale.
        l.on_accepted(ReplicaId(0), b, Slot(500), Decree::Noop, 0);
        check(&l, false, "stale vote at the watermark");
        // Votes above the hole: gapped once they are stale.
        l.on_accepted(ReplicaId(0), b, Slot(502), Decree::Noop, 4_500);
        check(&l, false, "fresh vote above the hole");
        l.on_accepted(ReplicaId(1), b, Slot(503), Decree::Noop, 100);
        check(&l, true, "stale vote above the hole");
        // A decided slot above the hole: gapped at once.
        let mut l = learner();
        l.on_learned((0..500).map(|s| (Slot(s), Decree::Noop)).collect());
        l.on_learned(vec![(Slot(501), Decree::Noop)]);
        assert!(l.gapped(0, 1_000));
        check(&l, true, "decided slot above the hole");
        // Truncation keeps the slot above the hole; fast-forward closes it.
        l.truncate(Slot(400));
        check(&l, true, "after truncate");
        l.fast_forward(Slot(502));
        check(&l, false, "after fast-forward past the hole");
        // `Slot::next` saturates: at the last slot "above the watermark"
        // is empty, and a stale vote there is still a vote at it.
        let mut l = Learner::new(Quorums::new(5), Slot(u64::MAX));
        l.on_accepted(ReplicaId(0), b, Slot(u64::MAX), Decree::Noop, 0);
        check(&l, false, "stale vote at the saturated watermark");
    }

    /// One step of the differential case below. Slots are offsets from
    /// the delivery watermark at the time the step runs.
    #[derive(Debug, Clone)]
    enum Op {
        Accepted {
            acceptor: u32,
            fast: bool,
            offset: u64,
            value: u32,
            dt: u64,
        },
        Learned {
            offset: u64,
            len: u64,
        },
        LearnedReconfig {
            offset: u64,
        },
        AckReconfig,
        Truncate {
            back: u64,
        },
        FastForward {
            ahead: u64,
        },
    }

    fn op() -> impl Strategy<Value = Op> {
        let accepted = (0u32..5, 0u8..2, 0u64..6, 0u32..2, 0u64..600).prop_map(
            |(acceptor, fast, offset, value, dt)| Op::Accepted {
                acceptor,
                fast: fast == 0,
                offset,
                value,
                dt,
            },
        );
        prop_oneof![
            12 => accepted,
            3 => (0u64..4, 1u64..4).prop_map(|(offset, len)| Op::Learned { offset, len }),
            1 => (0u64..3).prop_map(|offset| Op::LearnedReconfig { offset }),
            // The shim has no `Just`.
            1 => (0u8..1).prop_map(|_| Op::AckReconfig),
            1 => (0u64..8).prop_map(|back| Op::Truncate { back }),
            1 => (0u64..4).prop_map(|ahead| Op::FastForward { ahead }),
        ]
    }

    /// Applies one step; `clock` advances with each vote.
    fn apply(l: &mut Learner<&'static str>, clock: &mut u64, op: Op) {
        let at = |offset: u64| Slot(l.next_deliver().0 + offset);
        match op {
            Op::Accepted {
                acceptor,
                fast,
                offset,
                value,
                dt,
            } => {
                *clock += dt;
                let ballot = if fast {
                    Ballot::fast(1, ReplicaId(0))
                } else {
                    Ballot::classic(2, ReplicaId(0))
                };
                let slot = at(offset);
                let decree = Decree::Value(pid(value, slot.0), "v");
                l.on_accepted(ReplicaId(acceptor), ballot, slot, decree, *clock);
            }
            Op::Learned { offset, len } => {
                let from = at(offset).0;
                l.on_learned(
                    (from..from + len)
                        .map(|s| (Slot(s), Decree::Noop))
                        .collect(),
                );
            }
            // At offset 0 this parks the fence: `decided` then holds the
            // watermark slot itself until the acknowledgement.
            Op::LearnedReconfig { offset } => {
                let rc = Reconfig {
                    epoch: 1,
                    add: vec![],
                    remove: vec![],
                };
                l.on_learned(vec![(at(offset), Decree::Reconfig(rc))]);
            }
            Op::AckReconfig => {
                if let Some((slot, _)) = l.take_reconfig() {
                    l.ack_reconfig(slot);
                }
            }
            Op::Truncate { back } => l.truncate(Slot(l.next_deliver().0.saturating_sub(back))),
            Op::FastForward { ahead } => {
                l.fast_forward(at(ahead));
                l.drain();
            }
        }
    }

    /// An `insert` (or else a `contains`) of an id of one of six
    /// incarnations. Its `seq` is below 40, so most gaps close and some
    /// never do, or one of the four largest, where `seq + 1` overflows.
    fn pid_op() -> impl Strategy<Value = (bool, ProposalId)> {
        (0u8..2, 0u32..3, 0u64..2, 0u64..44).prop_map(|(insert, node, epoch, seq)| {
            let seq = seq.checked_sub(40).map_or(seq, |top| u64::MAX - top);
            let pid = ProposalId {
                node: ReplicaId(node),
                epoch,
                seq,
            };
            (insert == 0, pid)
        })
    }

    proptest! {
        // The CI `miri` job runs this crate's unit tests: a hundredth of
        // the steps there keeps it inside its time limit.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

        /// Random histories — votes around the watermark on a fast and a
        /// classic ballot, learned runs, a `Reconfig` left at the fence,
        /// truncation, fast-forward — with `gapped` compared against the
        /// scan after every step.
        #[test]
        fn gapped_equals_the_scan_over_random_histories(
            ops in proptest::collection::vec(op(), 1..if cfg!(miri) { 60 } else { 400 })
        ) {
            let mut l = learner();
            let mut clock = 0;
            for (step, op) in ops.into_iter().enumerate() {
                apply(&mut l, &mut clock, op);
                for now in [0, clock, clock + 1_000, u64::MAX] {
                    for timeout_us in [0, 1, 1_000] {
                        prop_assert_eq!(
                            l.gapped(now, timeout_us),
                            gapped_by_scan(&l, now, timeout_us),
                            "step {}, now {}, timeout {}", step, now, timeout_us
                        );
                    }
                }
            }
        }

        /// `PidRuns` against the set it replaces, fed the same stream of
        /// `insert` and `contains` calls: duplicates, out-of-order `seq`
        /// and gaps across several nodes and epochs. Every answer is the
        /// set's, and there is one run per maximal stretch of the set:
        /// one per incarnation plus one per gap still open in it.
        #[test]
        fn pid_runs_answer_as_the_set_does(
            ops in proptest::collection::vec(pid_op(), 1..if cfg!(miri) { 60 } else { 400 })
        ) {
            let mut runs = PidRuns::default();
            let mut set = std::collections::BTreeSet::new();
            for (step, (insert, pid)) in ops.into_iter().enumerate() {
                if insert {
                    prop_assert_eq!(runs.insert(pid), set.insert(pid), "step {}, {}", step, pid);
                }
                prop_assert_eq!(runs.contains(pid), set.contains(&pid), "step {}, {}", step, pid);
                let mut stretches = 0;
                let mut prev: Option<ProposalId> = None;
                for p in &set {
                    let extends = prev.is_some_and(|q| {
                        (q.node, q.epoch) == (p.node, p.epoch) && q.seq.checked_add(1) == Some(p.seq)
                    });
                    if !extends {
                        stretches += 1;
                    }
                    prev = Some(*p);
                }
                prop_assert_eq!(runs.runs.len(), stretches, "step {}", step);
            }
        }
    }

    #[test]
    fn learner_starting_at_checkpoint_ignores_older_slots() {
        let mut l: Learner<&str> = Learner::new(Quorums::new(5), Slot(10));
        let b = Ballot::classic(1, ReplicaId(0));
        let out = l.on_accepted(ReplicaId(0), b, Slot(3), Decree::Value(pid(0, 1), "v"), 0);
        assert!(out.is_empty());
        assert!(
            l.is_decided(Slot(3)),
            "pre-checkpoint slots count as decided"
        );
        assert_eq!(l.next_deliver(), Slot(10));
    }
}
