//! The acceptor role.
//!
//! One acceptor runs inside every replica. Its durable state is the
//! promise/acceptance log; every state change is expressed as a
//! [`Record`] that must reach stable storage *before* the corresponding
//! protocol message leaves the node (see [`AcceptorOut`]).
//!
//! Multi-instance structure: one promised ballot (`rnd_global`) covers
//! all slots, the multi-Paxos optimization that lets a stable coordinator
//! skip phase 1. Fast Paxos collision recovery, however, re-runs phase 1
//! for a *single* slot; those claims are kept as per-slot overrides
//! (`slot_rnd`) so the surrounding fast round stays open.

use std::collections::BTreeMap;

use crate::msg::{AcceptedReport, Msg, Record};
use crate::ring::SeqRing;
use crate::types::{Ballot, Decree, ProposalId, ReplicaId, Slot};

/// Destination of a message an acceptor wants to send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// Unicast to one replica.
    One(ReplicaId),
    /// Broadcast to every replica (including the local one).
    All,
}

/// What an acceptor handler wants done, with durability ordering:
/// if `record` is `Some`, the send must be withheld until the record is
/// durable. Every handler answers with at most one message — a promise
/// to the coordinator or an acceptance to everyone — so there is no
/// list to allocate.
#[derive(Debug)]
pub struct AcceptorOut<V> {
    /// Record to persist before sending, if any.
    pub record: Option<Record<V>>,
    /// Message to emit (after persistence, when `record` is `Some`).
    pub send: Option<(Dest, Msg<V>)>,
}

impl<V> AcceptorOut<V> {
    fn nothing() -> Self {
        AcceptorOut {
            record: None,
            send: None,
        }
    }

    fn gated(record: Record<V>, dest: Dest, msg: Msg<V>) -> Self {
        AcceptorOut {
            record: Some(record),
            send: Some((dest, msg)),
        }
    }
}

/// The acceptor's volatile image of its durable state.
#[derive(Debug)]
pub struct Acceptor<V> {
    /// Highest ballot promised for the whole log.
    rnd_global: Ballot,
    /// Per-slot promise overrides from single-slot (recovery) prepares.
    slot_rnd: BTreeMap<Slot, Ballot>,
    /// Accepted decree per slot, with the ballot of acceptance: the
    /// slots from the truncation watermark on, in one ring. A slot the
    /// ring does not admit (one [`crate::RING_SPAN`] or more from the
    /// others) is declined, as if its message were lost.
    accepted: SeqRing<(Ballot, Decree<V>)>,
    /// When `rnd_global` is fast and an `Any` arrived: fast accepts are
    /// allowed at free slots at or after this point.
    any_from: Option<Slot>,
    /// Monotone cursor for assigning fast proposals to slots.
    fast_cursor: Slot,
    /// Proposals fast-accepted in the current fast round, until a new
    /// ballot, a recovery that overwrites their slot, or `truncate`
    /// drops them: a proposer retry for one of these is ignored instead
    /// of burning a fresh slot.
    fast_pids: BTreeMap<ProposalId, Slot>,
}

impl<V: Clone> Acceptor<V> {
    /// A fresh acceptor with empty durable state.
    pub fn new() -> Self {
        Acceptor {
            rnd_global: Ballot::BOTTOM,
            slot_rnd: BTreeMap::new(),
            accepted: SeqRing::new(),
            any_from: None,
            fast_cursor: Slot::ZERO,
            fast_pids: BTreeMap::new(),
        }
    }

    /// Rebuilds an acceptor by replaying its durable log.
    ///
    /// The fast window (`any_from`) is *not* restored: it is volatile by
    /// design — after a crash the acceptor must hear a fresh `Any` before
    /// fast-accepting again, which is safe (it merely declines the fast
    /// path until the coordinator refreshes it).
    pub fn recover<I>(records: I) -> Self
    where
        I: IntoIterator<Item = Record<V>>,
    {
        let mut a = Acceptor::new();
        for record in records {
            match record {
                Record::Promised(ballot) => {
                    if ballot.round == u64::MAX {
                        // never produced; defensive
                        continue;
                    }
                    if ballot > a.rnd_global {
                        a.rnd_global = ballot;
                    }
                }
                Record::Accepted {
                    ballot,
                    slot,
                    decree,
                } => {
                    let replace = match a.accepted.get(slot.0) {
                        Some((b, _)) => ballot >= *b,
                        None => true,
                    };
                    // Each record was admitted when it was written, and
                    // the log is cut at every checkpoint, so its slots
                    // span far less than `RING_SPAN`: none is refused.
                    if replace && a.accepted.insert(slot.0, (ballot, decree)).is_err() {
                        continue;
                    }
                    if slot >= a.fast_cursor {
                        a.fast_cursor = slot.next();
                    }
                }
            }
        }
        a
    }

    /// The globally promised ballot.
    pub fn promised(&self) -> Ballot {
        self.rnd_global
    }

    /// Effective promised ballot for one slot (global promise or a
    /// per-slot recovery override, whichever is higher).
    fn effective_rnd(&self, slot: Slot) -> Ballot {
        match self.slot_rnd.get(&slot) {
            Some(b) => (*b).max(self.rnd_global),
            None => self.rnd_global,
        }
    }

    /// Whether the fast path is currently open.
    pub fn fast_window_open(&self) -> bool {
        self.any_from.is_some() && self.rnd_global.is_fast()
    }

    /// Number of slots with an accepted decree (for tests/metrics).
    pub fn accepted_len(&self) -> usize {
        self.accepted.len()
    }

    fn reports_from(&self, from_slot: Slot, only_slot: Option<Slot>) -> Vec<AcceptedReport<V>> {
        match only_slot {
            Some(s) => self
                .accepted
                .get(s.0)
                .map(|(b, d)| {
                    vec![AcceptedReport {
                        slot: s,
                        ballot: *b,
                        decree: d.clone(),
                    }]
                })
                .unwrap_or_default(),
            None => self
                .accepted
                .range_from(from_slot.0)
                .map(|(s, (b, d))| AcceptedReport {
                    slot: Slot(s),
                    ballot: *b,
                    decree: d.clone(),
                })
                .collect(),
        }
    }

    /// Phase 1a: handles a `Prepare` from `from`.
    pub fn on_prepare(
        &mut self,
        from: ReplicaId,
        ballot: Ballot,
        from_slot: Slot,
        only_slot: Option<Slot>,
    ) -> AcceptorOut<V> {
        match only_slot {
            Some(slot) => {
                if ballot < self.effective_rnd(slot) {
                    return AcceptorOut::nothing();
                }
                self.slot_rnd.insert(slot, ballot);
                if slot >= self.fast_cursor {
                    // Do not fast-fill a slot that is under recovery.
                    self.fast_cursor = slot.next();
                }
                let promise = Msg::Promise {
                    ballot,
                    from_slot,
                    only_slot,
                    accepted: self.reports_from(from_slot, only_slot),
                };
                AcceptorOut::gated(Record::Promised(ballot), Dest::One(from), promise)
            }
            None => {
                if ballot < self.rnd_global {
                    return AcceptorOut::nothing();
                }
                let renewed = ballot > self.rnd_global;
                self.rnd_global = ballot;
                if renewed {
                    // A new ballot closes the previous fast window until
                    // the new coordinator re-opens it with `Any`. The
                    // fast-proposal dedup is scoped to one fast round:
                    // under the new ballot, undecided proposals must be
                    // acceptable again or they would be orphaned.
                    self.any_from = None;
                    self.fast_pids.clear();
                }
                let promise = Msg::Promise {
                    ballot,
                    from_slot,
                    only_slot,
                    accepted: self.reports_from(from_slot, only_slot),
                };
                AcceptorOut::gated(Record::Promised(ballot), Dest::One(from), promise)
            }
        }
    }

    /// Phase 2a (classic): handles an `Accept`.
    pub fn on_accept(&mut self, ballot: Ballot, slot: Slot, decree: Decree<V>) -> AcceptorOut<V>
    where
        V: PartialEq,
    {
        if ballot < self.effective_rnd(slot) {
            return AcceptorOut::nothing();
        }
        if let Some((prior, prior_decree)) = self.accepted.get(slot.0) {
            if ballot == *prior && decree != *prior_decree {
                // An acceptor votes at most once per round per slot; a
                // same-ballot conflict (e.g. a coordinator re-proposal
                // racing a fast acceptance) must not flip the vote —
                // flipping could let two learners decide differently.
                return AcceptorOut::nothing();
            }
        }
        let Ok(prior) = self.accepted.insert(slot.0, (ballot, decree.clone())) else {
            return AcceptorOut::nothing();
        };
        self.slot_rnd.insert(slot, ballot);
        // If a collision recovery overwrites this slot with a different
        // decree, the previously fast-accepted proposal is orphaned here:
        // clear its dedup entry so the proposer's retry can land again.
        if let Some((_, Decree::Value(old_pid, _))) = prior {
            if decree.proposal_id() != Some(old_pid) {
                self.fast_pids.remove(&old_pid);
            }
        }
        if slot >= self.fast_cursor {
            self.fast_cursor = slot.next();
        }
        let announce = Msg::Accepted {
            ballot,
            slot,
            decree: decree.clone(),
        };
        AcceptorOut::gated(
            Record::Accepted {
                ballot,
                slot,
                decree,
            },
            Dest::All,
            announce,
        )
    }

    /// Opens fast rounds: handles the coordinator's `Any`.
    pub fn on_any(&mut self, ballot: Ballot, from_slot: Slot) -> AcceptorOut<V> {
        if ballot != self.rnd_global || !ballot.is_fast() {
            return AcceptorOut::nothing();
        }
        self.any_from = Some(from_slot);
        if from_slot > self.fast_cursor {
            self.fast_cursor = from_slot;
        }
        AcceptorOut::nothing()
    }

    /// Fast phase 2a: a proposer's value arriving directly.
    ///
    /// The acceptor assigns it to its next free slot at or after the fast
    /// window start. Different acceptors may pick different slots for the
    /// same proposal under concurrency — that is the fast-round collision
    /// the coordinator recovers from.
    pub fn on_fast_propose(&mut self, pid: ProposalId, value: V) -> AcceptorOut<V> {
        // `fast_window_open()` implies `any_from` is set; the let-else
        // keeps this handler panic-free even if that coupling drifts.
        let Some(any_from) = self.any_from else {
            return AcceptorOut::nothing();
        };
        if !self.rnd_global.is_fast() {
            return AcceptorOut::nothing();
        }
        if self.fast_pids.contains_key(&pid) {
            // Proposer retry of something already accepted here: the
            // original acceptance is still in flight, don't duplicate.
            return AcceptorOut::nothing();
        }
        let ballot = self.rnd_global;
        let mut slot = self.fast_cursor.max(any_from);
        while self.accepted.get(slot.0).is_some()
            || self.slot_rnd.get(&slot).is_some_and(|b| *b > ballot)
        {
            slot = slot.next();
        }
        let decree = Decree::Value(pid, value);
        if self
            .accepted
            .insert(slot.0, (ballot, decree.clone()))
            .is_err()
        {
            return AcceptorOut::nothing();
        }
        self.fast_cursor = slot.next();
        self.fast_pids.insert(pid, slot);
        let announce = Msg::Accepted {
            ballot,
            slot,
            decree: decree.clone(),
        };
        AcceptorOut::gated(
            Record::Accepted {
                ballot,
                slot,
                decree,
            },
            Dest::All,
            announce,
        )
    }

    /// Drops accepted state below `upto` (coordinated with application
    /// checkpoints by the middleware layer).
    pub fn truncate(&mut self, upto: Slot) {
        self.accepted.drop_below(upto.0);
        self.slot_rnd.retain(|s, _| *s >= upto);
        self.fast_pids.retain(|_, s| *s >= upto);
        if self.fast_cursor < upto {
            self.fast_cursor = upto;
        }
    }
}

impl<V: Clone> Default for Acceptor<V> {
    fn default() -> Self {
        Acceptor::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(node: u32, seq: u64) -> ProposalId {
        ProposalId {
            node: ReplicaId(node),
            epoch: 0,
            seq,
        }
    }

    fn fast_ready(round: u64) -> (Acceptor<&'static str>, Ballot) {
        let mut a = Acceptor::new();
        let b = Ballot::fast(round, ReplicaId(0));
        a.on_prepare(ReplicaId(0), b, Slot::ZERO, None);
        a.on_any(b, Slot::ZERO);
        (a, b)
    }

    #[test]
    fn prepare_promises_and_reports_accepted() {
        let mut a: Acceptor<&str> = Acceptor::new();
        let b1 = Ballot::classic(1, ReplicaId(0));
        let out = a.on_prepare(ReplicaId(0), b1, Slot::ZERO, None);
        assert!(matches!(out.record, Some(Record::Promised(b)) if b == b1));
        a.on_accept(b1, Slot(0), Decree::Value(pid(0, 1), "x"));
        let b2 = Ballot::classic(2, ReplicaId(1));
        let out = a.on_prepare(ReplicaId(1), b2, Slot::ZERO, None);
        match out.send.as_ref().map(|(_, msg)| msg) {
            Some(Msg::Promise { accepted, .. }) => {
                assert_eq!(accepted.len(), 1);
                assert_eq!(accepted[0].slot, Slot(0));
            }
            other => panic!("expected promise, got {other:?}"),
        }
    }

    #[test]
    fn stale_prepare_ignored() {
        let mut a: Acceptor<&str> = Acceptor::new();
        a.on_prepare(
            ReplicaId(1),
            Ballot::classic(5, ReplicaId(1)),
            Slot::ZERO,
            None,
        );
        let out = a.on_prepare(
            ReplicaId(0),
            Ballot::classic(3, ReplicaId(0)),
            Slot::ZERO,
            None,
        );
        assert!(out.record.is_none());
        assert!(out.send.is_none());
    }

    #[test]
    fn accept_below_promise_rejected() {
        let mut a: Acceptor<&str> = Acceptor::new();
        a.on_prepare(
            ReplicaId(1),
            Ballot::classic(5, ReplicaId(1)),
            Slot::ZERO,
            None,
        );
        let out = a.on_accept(
            Ballot::classic(3, ReplicaId(0)),
            Slot(0),
            Decree::Value(pid(0, 1), "x"),
        );
        assert!(out.record.is_none());
    }

    #[test]
    fn accept_is_persist_gated_broadcast() {
        let mut a: Acceptor<&str> = Acceptor::new();
        let b = Ballot::classic(1, ReplicaId(0));
        a.on_prepare(ReplicaId(0), b, Slot::ZERO, None);
        let out = a.on_accept(b, Slot(0), Decree::Value(pid(0, 1), "x"));
        assert!(matches!(out.record, Some(Record::Accepted { .. })));
        assert!(matches!(out.send, Some((Dest::All, Msg::Accepted { .. }))));
    }

    #[test]
    fn fast_propose_requires_open_window() {
        let mut a: Acceptor<&str> = Acceptor::new();
        let out = a.on_fast_propose(pid(1, 1), "v");
        assert!(out.record.is_none(), "no window, no accept");
        let b = Ballot::fast(1, ReplicaId(0));
        a.on_prepare(ReplicaId(0), b, Slot::ZERO, None);
        assert!(!a.fast_window_open(), "promise alone does not open window");
        a.on_any(b, Slot::ZERO);
        assert!(a.fast_window_open());
        let out = a.on_fast_propose(pid(1, 1), "v");
        assert!(matches!(
            out.record,
            Some(Record::Accepted { slot: Slot(0), .. })
        ));
    }

    #[test]
    fn fast_proposals_fill_consecutive_slots() {
        let (mut a, _b) = fast_ready(1);
        a.on_fast_propose(pid(1, 1), "v1");
        a.on_fast_propose(pid(2, 1), "v2");
        let out = a.on_fast_propose(pid(3, 1), "v3");
        assert!(matches!(
            out.record,
            Some(Record::Accepted { slot: Slot(2), .. })
        ));
        assert_eq!(a.accepted_len(), 3);
    }

    #[test]
    fn higher_prepare_closes_fast_window() {
        let (mut a, _b) = fast_ready(1);
        a.on_prepare(
            ReplicaId(1),
            Ballot::classic(2, ReplicaId(1)),
            Slot::ZERO,
            None,
        );
        assert!(!a.fast_window_open());
        let out = a.on_fast_propose(pid(1, 1), "v");
        assert!(out.record.is_none());
    }

    #[test]
    fn single_slot_recovery_keeps_window_open() {
        let (mut a, b) = fast_ready(1);
        a.on_fast_propose(pid(1, 1), "v1"); // slot 0
                                            // Coordinator recovers slot 1 with a higher classic ballot.
        let rec = Ballot::classic(2, ReplicaId(0));
        let out = a.on_prepare(ReplicaId(0), rec, Slot(1), Some(Slot(1)));
        assert!(matches!(out.record, Some(Record::Promised(x)) if x == rec));
        assert!(a.fast_window_open(), "global fast round must survive");
        // Fast accepts skip the slot under recovery.
        let out = a.on_fast_propose(pid(2, 1), "v2");
        assert!(matches!(
            out.record,
            Some(Record::Accepted { slot: Slot(2), .. })
        ));
        // And the recovery's classic accept lands at slot 1.
        let out = a.on_accept(rec, Slot(1), Decree::Value(pid(3, 1), "v3"));
        assert!(matches!(
            out.record,
            Some(Record::Accepted { slot: Slot(1), .. })
        ));
        assert_eq!(a.promised(), b, "global promise unchanged");
    }

    #[test]
    fn any_requires_matching_fast_ballot() {
        let mut a: Acceptor<&str> = Acceptor::new();
        let c = Ballot::classic(1, ReplicaId(0));
        a.on_prepare(ReplicaId(0), c, Slot::ZERO, None);
        a.on_any(c, Slot::ZERO);
        assert!(!a.fast_window_open(), "classic ballot cannot open window");
        let f = Ballot::fast(2, ReplicaId(0));
        a.on_any(f, Slot::ZERO);
        assert!(
            !a.fast_window_open(),
            "Any for a ballot not promised is ignored"
        );
    }

    #[test]
    fn recover_replays_log() {
        let b = Ballot::classic(3, ReplicaId(1));
        let records: Vec<Record<&str>> = vec![
            Record::Promised(Ballot::classic(1, ReplicaId(0))),
            Record::Accepted {
                ballot: Ballot::classic(1, ReplicaId(0)),
                slot: Slot(0),
                decree: Decree::Value(pid(0, 1), "old"),
            },
            Record::Promised(b),
            Record::Accepted {
                ballot: b,
                slot: Slot(0),
                decree: Decree::Value(pid(1, 1), "new"),
            },
        ];
        let a = Acceptor::recover(records);
        assert_eq!(a.promised(), b);
        assert_eq!(a.accepted_len(), 1);
        // Reports must reflect the *latest* acceptance.
        let mut a = a;
        let out = a.on_prepare(
            ReplicaId(2),
            Ballot::classic(9, ReplicaId(2)),
            Slot::ZERO,
            None,
        );
        match out.send.as_ref().map(|(_, msg)| msg) {
            Some(Msg::Promise { accepted, .. }) => {
                assert_eq!(accepted[0].decree, Decree::Value(pid(1, 1), "new"));
            }
            other => panic!("expected promise, got {other:?}"),
        }
    }

    #[test]
    fn recover_does_not_reopen_fast_window() {
        let b = Ballot::fast(1, ReplicaId(0));
        let records: Vec<Record<&str>> = vec![Record::Promised(b)];
        let mut a = Acceptor::recover(records);
        assert!(!a.fast_window_open());
        let out = a.on_fast_propose(pid(1, 1), "v");
        assert!(out.record.is_none());
    }

    #[test]
    fn truncate_drops_old_slots() {
        let (mut a, _b) = fast_ready(1);
        for i in 0..5 {
            a.on_fast_propose(pid(1, i), "v");
        }
        a.truncate(Slot(3));
        assert_eq!(a.accepted_len(), 2);
        // New fast accepts continue after the cursor, not in the hole.
        let out = a.on_fast_propose(pid(2, 1), "w");
        assert!(matches!(
            out.record,
            Some(Record::Accepted { slot: Slot(5), .. })
        ));
    }

    #[test]
    fn reaccept_same_slot_higher_ballot() {
        let mut a: Acceptor<&str> = Acceptor::new();
        let b1 = Ballot::classic(1, ReplicaId(0));
        a.on_prepare(ReplicaId(0), b1, Slot::ZERO, None);
        a.on_accept(b1, Slot(0), Decree::Value(pid(0, 1), "x"));
        let b2 = Ballot::classic(2, ReplicaId(1));
        let out = a.on_accept(b2, Slot(0), Decree::Noop);
        assert!(matches!(out.record, Some(Record::Accepted { ballot, .. }) if ballot == b2));
    }

    #[test]
    fn collision_loser_can_be_fast_accepted_again() {
        let mut a: Acceptor<&str> = Acceptor::new();
        let fast = Ballot::fast(1, ReplicaId(0));
        a.on_prepare(ReplicaId(0), fast, Slot::ZERO, None);
        a.on_any(fast, Slot::ZERO);
        // v1 fast-accepted at slot 0.
        a.on_fast_propose(pid(1, 1), "v1");
        // A retry is deduplicated while the acceptance is live.
        let out = a.on_fast_propose(pid(1, 1), "v1");
        assert!(out.record.is_none(), "dedup while in flight");
        // Collision recovery decides v2 for slot 0.
        let rec = Ballot::classic(2, ReplicaId(0));
        a.on_prepare(ReplicaId(0), rec, Slot(0), Some(Slot(0)));
        a.on_accept(rec, Slot(0), Decree::Value(pid(2, 9), "v2"));
        // The orphaned v1 retry must be accepted at a fresh slot now.
        let out = a.on_fast_propose(pid(1, 1), "v1");
        assert!(
            matches!(out.record, Some(Record::Accepted { slot, .. }) if slot > Slot(0)),
            "orphaned proposal must be re-acceptable"
        );
    }
    #[test]
    fn dedup_cleared_by_new_ballot() {
        let mut a: Acceptor<&str> = Acceptor::new();
        let f1 = Ballot::fast(1, ReplicaId(0));
        a.on_prepare(ReplicaId(0), f1, Slot::ZERO, None);
        a.on_any(f1, Slot::ZERO);
        a.on_fast_propose(pid(1, 1), "v");
        // New coordinator round: same proposal must be acceptable again
        // under the new ballot (it was not decided).
        let f2 = Ballot::fast(2, ReplicaId(0));
        a.on_prepare(ReplicaId(0), f2, Slot(1), None);
        a.on_any(f2, Slot(1));
        let out = a.on_fast_propose(pid(1, 1), "v");
        assert!(
            matches!(out.record, Some(Record::Accepted { .. })),
            "retry must land under the new round"
        );
    }
    #[test]
    fn a_slot_the_ring_does_not_admit_is_declined() {
        let (mut a, b) = fast_ready(1);
        a.on_fast_propose(pid(1, 1), "v"); // slot 0
        let far = Slot(crate::RING_SPAN);
        let out = a.on_accept(b, far, Decree::Value(pid(2, 1), "w"));
        assert!(out.record.is_none() && out.send.is_none(), "declined");
        // A fast proposal that would land that far is declined too, and
        // leaves the cursor and the dedup set as they were.
        a.on_any(b, far);
        let out = a.on_fast_propose(pid(3, 1), "x");
        assert!(out.record.is_none() && out.send.is_none(), "declined");
        assert_eq!(a.accepted_len(), 1);
        // Once truncation empties the ring, the slot is accepted.
        a.truncate(Slot(1));
        let out = a.on_fast_propose(pid(3, 1), "x");
        assert!(matches!(out.record, Some(Record::Accepted { slot, .. }) if slot == far));
    }

    #[test]
    fn never_votes_twice_in_one_round() {
        let mut a: Acceptor<&str> = Acceptor::new();
        let f = Ballot::fast(1, ReplicaId(0));
        a.on_prepare(ReplicaId(0), f, Slot::ZERO, None);
        a.on_any(f, Slot::ZERO);
        // Fast-accept X at slot 0, then a same-ballot coordinator Accept
        // for a different value must be refused…
        a.on_fast_propose(pid(1, 1), "X");
        let out = a.on_accept(f, Slot(0), Decree::Value(pid(2, 2), "Y"));
        assert!(out.record.is_none(), "no vote flip within a round");
        // …but an idempotent re-accept of the same decree re-announces.
        let out = a.on_accept(f, Slot(0), Decree::Value(pid(1, 1), "X"));
        assert!(out.record.is_some(), "idempotent re-accept allowed");
        // And a strictly higher ballot may overwrite, per classic Paxos.
        let c = Ballot::classic(2, ReplicaId(0));
        let out = a.on_accept(c, Slot(0), Decree::Value(pid(2, 2), "Y"));
        assert!(matches!(out.record, Some(Record::Accepted { ballot, .. }) if ballot == c));
    }
}
