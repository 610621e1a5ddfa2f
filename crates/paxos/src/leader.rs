//! The coordinator (leader) role.
//!
//! A single coordinator per ballot drives phase 1 (over the whole slot
//! range on election, or over one slot for fast-round collision
//! recovery), assigns slots to proposals in classic rounds, opens fast
//! rounds with `Any`, and picks safe values per Fast Paxos rule O4 when
//! recovering collided slots.

use std::collections::BTreeMap;

use crate::msg::AcceptedReport;
use crate::types::{Ballot, Decree, Quorums, ReplicaId, Slot};

/// Picks the safe decree for one slot from phase-1 reports.
///
/// `q_size` is the number of acceptors whose reports were sampled (the
/// promise quorum). Standard Paxos rule for classic top ballots; Fast
/// Paxos O4 for fast top ballots: a value reported by at least
/// `q_size + ⌈3N/4⌉ − N` members may have been chosen and must be used;
/// otherwise the coordinator is free (here: the most-reported value, or
/// `Noop` if there are no reports at all).
pub fn choose_decree<V: Clone + Eq>(
    reports: &[AcceptedReport<V>],
    q_size: usize,
    quorums: Quorums,
) -> Decree<V> {
    let top_ballot = match reports.iter().map(|r| r.ballot).max() {
        Some(b) => b,
        None => return Decree::Noop,
    };
    let top: Vec<&AcceptedReport<V>> = reports.iter().filter(|r| r.ballot == top_ballot).collect();
    if !top_ballot.is_fast() {
        // All classic acceptances at one ballot carry the same decree.
        // `top` is non-empty (top_ballot came from the same reports),
        // but stay panic-free on this path regardless.
        return top
            .first()
            .map(|r| r.decree.clone())
            .unwrap_or(Decree::Noop);
    }
    // Count occurrences per decree without hashing: the report set is
    // bounded by the ensemble size, so a linear Vec counter is
    // deterministic and cheap.
    let mut counts: Vec<(&Decree<V>, usize)> = Vec::new();
    for r in &top {
        match counts.iter_mut().find(|(k, _)| *k == &r.decree) {
            Some((_, n)) => *n = n.saturating_add(1),
            None => counts.push((&r.decree, 1)),
        }
    }
    // Scan in reporting order (never hash order — replays must converge
    // bit-for-bit): a decree at the threshold is the choosable one (at
    // most one can reach it); otherwise fall back to the most reported,
    // ties broken by reporting order.
    let threshold = quorums.recovery_threshold(q_size);
    let mut best: Option<(&Decree<V>, usize)> = None;
    for r in &top {
        let c = counts
            .iter()
            .find(|(k, _)| *k == &r.decree)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        if c >= threshold {
            return r.decree.clone();
        }
        if best.map(|(_, bc)| c > bc).unwrap_or(true) {
            best = Some((&r.decree, c));
        }
    }
    best.map(|(d, _)| d.clone()).unwrap_or(Decree::Noop)
}

/// Phase of the coordinator state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaderPhase {
    /// Not coordinating.
    Idle,
    /// Phase 1 in progress for the whole range.
    Preparing,
    /// Phase 1 complete; assigning slots / fast rounds open.
    Leading,
}

/// An in-progress single-slot recovery (fast-round collision).
#[derive(Debug)]
pub struct Recovery<V> {
    /// Recovery ballot (classic, higher than the fast round).
    pub ballot: Ballot,
    /// Promises received so far: acceptor → its report for the slot.
    pub reports: BTreeMap<ReplicaId, Vec<AcceptedReport<V>>>,
    /// When the recovery started (for re-trigger suppression).
    pub started_at: u64,
    /// Whether phase 2 was already issued.
    pub resolved: bool,
}

/// Volatile coordinator state.
#[derive(Debug)]
pub struct Leader<V> {
    id: ReplicaId,
    quorums: Quorums,
    /// Highest ballot round observed anywhere (for picking fresh rounds).
    pub highest_round: u64,
    /// The ballot this coordinator currently owns (valid in
    /// `Preparing`/`Leading`).
    pub ballot: Ballot,
    /// Current phase.
    pub phase: LeaderPhase,
    /// Range-prepare promises: acceptor → reports.
    promises: BTreeMap<ReplicaId, Vec<AcceptedReport<V>>>,
    /// Start of the range being prepared.
    pub prepare_from: Slot,
    /// Next slot to assign in classic rounds.
    pub next_slot: Slot,
    /// Single-slot recoveries in flight.
    pub recoveries: BTreeMap<Slot, Recovery<V>>,
}

impl<V: Clone + Eq> Leader<V> {
    /// Creates an idle coordinator for replica `id`.
    pub fn new(id: ReplicaId, quorums: Quorums) -> Self {
        Leader {
            id,
            quorums,
            highest_round: 0,
            ballot: Ballot::BOTTOM,
            phase: LeaderPhase::Idle,
            promises: BTreeMap::new(),
            prepare_from: Slot::ZERO,
            next_slot: Slot::ZERO,
            recoveries: BTreeMap::new(),
        }
    }

    /// Switches the quorum arithmetic to a new epoch's `N` (applied by
    /// the replica exactly at the reconfiguration fence).
    pub fn set_quorums(&mut self, quorums: Quorums) {
        self.quorums = quorums;
    }

    /// Tracks ballots seen in any message so fresh rounds are higher.
    pub fn observe_round(&mut self, round: u64) {
        if round > self.highest_round {
            self.highest_round = round;
        }
    }

    /// Abandons leadership (a higher ballot was observed).
    pub fn abdicate(&mut self) {
        self.phase = LeaderPhase::Idle;
        self.promises.clear();
        self.recoveries.clear();
    }

    /// Starts phase 1 over all slots from `from_slot` with a fresh ballot
    /// of the requested class. Returns the new ballot.
    pub fn start_prepare(&mut self, fast: bool, from_slot: Slot) -> Ballot {
        self.highest_round = self.highest_round.saturating_add(1);
        self.ballot = if fast {
            Ballot::fast(self.highest_round, self.id)
        } else {
            Ballot::classic(self.highest_round, self.id)
        };
        self.phase = LeaderPhase::Preparing;
        self.promises.clear();
        self.recoveries.clear();
        self.prepare_from = from_slot;
        self.ballot
    }

    /// Records a range promise. Returns `Some(plan)` once *every*
    /// replica has promised — a classic quorum is sufficient for safety,
    /// but sampling everyone recovers all undecided acceptances (e.g.
    /// values accepted by a minority while the ensemble was blocked).
    /// When some replicas stay silent, the replica layer calls
    /// [`Leader::finalize_prepare`] after a grace period instead.
    #[expect(
        clippy::type_complexity,
        reason = "the phase-1 plan is spelled out where it is returned: the slots to re-propose and the next free slot"
    )]
    pub fn on_promise(
        &mut self,
        from: ReplicaId,
        ballot: Ballot,
        reports: Vec<AcceptedReport<V>>,
    ) -> Option<(Vec<(Slot, Decree<V>)>, Slot)> {
        if self.phase != LeaderPhase::Preparing || ballot != self.ballot {
            return None;
        }
        self.promises.insert(from, reports);
        if self.promises.len() < self.quorums.n() {
            return None;
        }
        self.finalize_prepare()
    }

    /// Number of promises gathered for the in-flight prepare.
    pub fn promise_count(&self) -> usize {
        self.promises.len()
    }

    /// Completes phase 1 with the promises gathered so far (the grace
    /// path). Returns `None` if not preparing or below a classic quorum.
    #[expect(
        clippy::type_complexity,
        reason = "the same phase-1 plan `on_promise` returns, completed from the promises so far"
    )]
    pub fn finalize_prepare(&mut self) -> Option<(Vec<(Slot, Decree<V>)>, Slot)> {
        if self.phase != LeaderPhase::Preparing || self.promises.len() < self.quorums.classic() {
            return None;
        }
        // Quorum complete: compute the re-proposal plan.
        let q_size = self.promises.len();
        let mut by_slot: BTreeMap<Slot, Vec<AcceptedReport<V>>> = BTreeMap::new();
        let mut max_slot: Option<Slot> = None;
        for reports in self.promises.values() {
            for r in reports {
                if r.slot < self.prepare_from {
                    continue;
                }
                max_slot = Some(max_slot.map(|m: Slot| m.max(r.slot)).unwrap_or(r.slot));
                by_slot.entry(r.slot).or_default().push(r.clone());
            }
        }
        let mut plan = Vec::new();
        if let Some(max_slot) = max_slot {
            let mut s = self.prepare_from;
            while s <= max_slot {
                let decree = match by_slot.get(&s) {
                    Some(reports) => choose_decree(reports, q_size, self.quorums),
                    None => Decree::Noop,
                };
                plan.push((s, decree));
                s = s.next();
            }
            self.next_slot = max_slot.next();
        } else {
            self.next_slot = self.prepare_from;
        }
        self.phase = LeaderPhase::Leading;
        self.promises.clear();
        Some((plan, self.next_slot))
    }

    /// Whether this coordinator is currently in charge.
    pub fn is_leading(&self) -> bool {
        self.phase == LeaderPhase::Leading
    }

    /// Assigns the next classic slot.
    pub fn assign_slot(&mut self) -> Slot {
        let s = self.next_slot;
        self.next_slot = s.next();
        s
    }

    /// Notes that slots up to `slot` are occupied (fast rounds assign
    /// slots at acceptors; the coordinator must not reuse them for
    /// classic assignments or `Any` restarts).
    pub fn observe_occupied(&mut self, slot: Slot) {
        if slot >= self.next_slot {
            self.next_slot = slot.next();
        }
    }

    /// Starts a single-slot collision recovery; returns the recovery
    /// ballot to `Prepare` with, or `None` if one is already running.
    pub fn start_recovery(&mut self, slot: Slot, now: u64) -> Option<Ballot> {
        if self.recoveries.contains_key(&slot) {
            return None;
        }
        self.highest_round = self.highest_round.saturating_add(1);
        let ballot = Ballot::classic(self.highest_round, self.id);
        self.recoveries.insert(
            slot,
            Recovery {
                ballot,
                reports: BTreeMap::new(),
                started_at: now,
                resolved: false,
            },
        );
        Some(ballot)
    }

    /// Records a single-slot promise for a recovery. Returns
    /// `Some((winner, losers))` when the quorum completes and phase 2
    /// should fire: `winner` is the safe decree for the slot, and
    /// `losers` are the other values reported in the collided round —
    /// the coordinator re-proposes them immediately in fresh slots
    /// rather than leaving them to the proposers' retry timers.
    #[expect(
        clippy::type_complexity,
        reason = "the recovery plan is spelled out where it is returned: the winner and the losers to re-propose"
    )]
    pub fn on_recovery_promise(
        &mut self,
        from: ReplicaId,
        ballot: Ballot,
        slot: Slot,
        reports: Vec<AcceptedReport<V>>,
    ) -> Option<(Decree<V>, Vec<(crate::types::ProposalId, V)>)> {
        let quorums = self.quorums;
        let rec = self.recoveries.get_mut(&slot)?;
        if rec.ballot != ballot || rec.resolved {
            return None;
        }
        rec.reports.insert(from, reports);
        if rec.reports.len() < quorums.classic() {
            return None;
        }
        rec.resolved = true;
        let q_size = rec.reports.len();
        let flat: Vec<AcceptedReport<V>> = rec
            .reports
            .values()
            .flatten()
            .filter(|r| r.slot == slot)
            .cloned()
            .collect();
        let winner = choose_decree(&flat, q_size, quorums);
        let mut losers: Vec<(crate::types::ProposalId, V)> = Vec::new();
        for r in &flat {
            if let Decree::Value(pid, value) = &r.decree {
                if winner.proposal_id() != Some(*pid) && !losers.iter().any(|(lp, _)| lp == pid) {
                    losers.push((*pid, value.clone()));
                }
            }
        }
        Some((winner, losers))
    }

    /// Forgets a recovery once the slot is decided.
    pub fn finish_recovery(&mut self, slot: Slot) {
        self.recoveries.remove(&slot);
    }

    /// Recoveries that have been running longer than `timeout_us`
    /// without their slot deciding: they are restarted by the replica
    /// with a fresh ballot. A recovery that already issued phase 2
    /// counts too — its `Accept` can be rejected wholesale when a
    /// concurrent recovery for another slot raised the acceptors'
    /// promised ballot in between, and only a fresh, higher ballot can
    /// unwedge the slot (decided slots leave the map via
    /// [`Leader::finish_recovery`], so anything still here is undecided).
    pub fn stalled_recoveries(&self, now: u64, timeout_us: u64) -> Vec<Slot> {
        self.recoveries
            .iter()
            .filter(|(_, r)| now.saturating_sub(r.started_at) >= timeout_us)
            .map(|(s, _)| *s)
            .collect()
    }

    /// Drops a stalled recovery so it can be restarted.
    pub fn cancel_recovery(&mut self, slot: Slot) {
        self.recoveries.remove(&slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ProposalId;

    fn pid(node: u32, seq: u64) -> ProposalId {
        ProposalId {
            node: ReplicaId(node),
            epoch: 0,
            seq,
        }
    }

    fn report(
        slot: u64,
        ballot: Ballot,
        decree: Decree<&'static str>,
    ) -> AcceptedReport<&'static str> {
        AcceptedReport {
            slot: Slot(slot),
            ballot,
            decree,
        }
    }

    #[test]
    fn choose_decree_empty_is_noop() {
        let q = Quorums::new(5);
        let d: Decree<&str> = choose_decree(&[], 3, q);
        assert_eq!(d, Decree::Noop);
    }

    #[test]
    fn choose_decree_classic_takes_highest_ballot() {
        let q = Quorums::new(5);
        let lo = Ballot::classic(1, ReplicaId(0));
        let hi = Ballot::classic(2, ReplicaId(1));
        let reports = vec![
            report(0, lo, Decree::Value(pid(0, 1), "old")),
            report(0, hi, Decree::Value(pid(1, 1), "new")),
        ];
        assert_eq!(
            choose_decree(&reports, 3, q),
            Decree::Value(pid(1, 1), "new")
        );
    }

    #[test]
    fn choose_decree_fast_o4_forces_choosable_value() {
        // N=5, Q=3 ⇒ threshold = 3 + 4 - 5 = 2.
        let q = Quorums::new(5);
        let f = Ballot::fast(1, ReplicaId(0));
        let reports = vec![
            report(0, f, Decree::Value(pid(0, 1), "a")),
            report(0, f, Decree::Value(pid(0, 1), "a")),
            report(0, f, Decree::Value(pid(1, 1), "z")),
        ];
        assert_eq!(choose_decree(&reports, 3, q), Decree::Value(pid(0, 1), "a"));
    }

    #[test]
    fn choose_decree_fast_free_choice_picks_most_reported() {
        // Threshold 2 not reached by anyone: 1-1 split in a quorum of 3.
        let q = Quorums::new(5);
        let f = Ballot::fast(1, ReplicaId(0));
        let reports = vec![
            report(0, f, Decree::Value(pid(1, 1), "z")),
            report(0, f, Decree::Value(pid(0, 1), "a")),
        ];
        // Both count 1: deterministic first-seen tie-break → "z".
        assert_eq!(choose_decree(&reports, 3, q), Decree::Value(pid(1, 1), "z"));
    }

    #[test]
    fn prepare_quorum_produces_plan_with_gap_noops() {
        let q = Quorums::new(5);
        let mut l: Leader<&str> = Leader::new(ReplicaId(0), q);
        let b = l.start_prepare(false, Slot(0));
        assert_eq!(l.phase, LeaderPhase::Preparing);
        let old = Ballot::classic(0, ReplicaId(1));
        assert!(l
            .on_promise(
                ReplicaId(0),
                b,
                vec![report(2, old, Decree::Value(pid(0, 1), "x"))]
            )
            .is_none());
        assert!(l.on_promise(ReplicaId(1), b, vec![]).is_none());
        // A classic quorum alone no longer auto-finalizes (the replica
        // layer waits out a grace period for stragglers)…
        assert!(l.on_promise(ReplicaId(2), b, vec![]).is_none());
        assert_eq!(l.promise_count(), 3);
        // …but an explicit finalize proceeds with the quorum at hand.
        let (plan, next) = l.finalize_prepare().expect("quorum suffices");
        assert_eq!(next, Slot(3));
        assert_eq!(plan.len(), 3);
        assert_eq!(plan[0], (Slot(0), Decree::Noop));
        assert_eq!(plan[1], (Slot(1), Decree::Noop));
        assert_eq!(plan[2], (Slot(2), Decree::Value(pid(0, 1), "x")));
        assert!(l.is_leading());
    }

    #[test]
    fn promise_for_wrong_ballot_ignored() {
        let q = Quorums::new(5);
        let mut l: Leader<&str> = Leader::new(ReplicaId(0), q);
        let _b = l.start_prepare(false, Slot(0));
        let stale = Ballot::classic(999, ReplicaId(3));
        assert!(l.on_promise(ReplicaId(0), stale, vec![]).is_none());
        assert!(l.on_promise(ReplicaId(1), stale, vec![]).is_none());
        assert!(l.on_promise(ReplicaId(2), stale, vec![]).is_none());
        assert_eq!(l.promise_count(), 0, "stale promises never counted");
        assert_eq!(l.phase, LeaderPhase::Preparing);
    }

    #[test]
    fn full_promise_set_finalizes_immediately() {
        let q = Quorums::new(5);
        let mut l: Leader<&str> = Leader::new(ReplicaId(0), q);
        let b = l.start_prepare(true, Slot(0));
        for i in 0..4 {
            assert!(l.on_promise(ReplicaId(i), b, vec![]).is_none());
        }
        let (plan, next) = l
            .on_promise(ReplicaId(4), b, vec![])
            .expect("all five promises finalize without grace");
        assert!(plan.is_empty());
        assert_eq!(next, Slot(0));
        assert!(l.is_leading());
    }

    #[test]
    fn fresh_ballots_exceed_observed_rounds() {
        let q = Quorums::new(5);
        let mut l: Leader<&str> = Leader::new(ReplicaId(2), q);
        l.observe_round(41);
        let b = l.start_prepare(true, Slot(7));
        assert_eq!(b.round, 42);
        assert!(b.is_fast());
        assert_eq!(b.node, ReplicaId(2));
    }

    #[test]
    fn slot_assignment_monotone_and_occupancy_aware() {
        let q = Quorums::new(5);
        let mut l: Leader<&str> = Leader::new(ReplicaId(0), q);
        let b = l.start_prepare(false, Slot(0));
        for i in 0..3 {
            l.on_promise(ReplicaId(i), b, vec![]);
        }
        l.finalize_prepare().expect("quorum");
        assert_eq!(l.assign_slot(), Slot(0));
        assert_eq!(l.assign_slot(), Slot(1));
        l.observe_occupied(Slot(9));
        assert_eq!(l.assign_slot(), Slot(10));
    }

    #[test]
    fn recovery_lifecycle() {
        let q = Quorums::new(5);
        let mut l: Leader<&str> = Leader::new(ReplicaId(0), q);
        l.observe_round(5);
        let rb = l.start_recovery(Slot(4), 1_000).expect("fresh recovery");
        assert!(!rb.is_fast());
        assert!(rb.round > 5);
        assert!(l.start_recovery(Slot(4), 1_000).is_none(), "no duplicates");
        let f = Ballot::fast(5, ReplicaId(0));
        assert!(l
            .on_recovery_promise(
                ReplicaId(0),
                rb,
                Slot(4),
                vec![report(4, f, Decree::Value(pid(0, 1), "a"))]
            )
            .is_none());
        assert!(l
            .on_recovery_promise(
                ReplicaId(1),
                rb,
                Slot(4),
                vec![report(4, f, Decree::Value(pid(0, 1), "a"))]
            )
            .is_none());
        let (d, losers) = l
            .on_recovery_promise(ReplicaId(2), rb, Slot(4), vec![])
            .expect("quorum completes");
        assert_eq!(d, Decree::Value(pid(0, 1), "a"));
        assert!(losers.is_empty(), "no competing values reported");
        l.finish_recovery(Slot(4));
        assert!(l.recoveries.is_empty());
    }

    #[test]
    fn stalled_recoveries_reported_and_cancellable() {
        let q = Quorums::new(5);
        let mut l: Leader<&str> = Leader::new(ReplicaId(0), q);
        l.start_recovery(Slot(1), 0);
        assert!(l.stalled_recoveries(100, 1_000).is_empty());
        assert_eq!(l.stalled_recoveries(1_500, 1_000), vec![Slot(1)]);
        l.cancel_recovery(Slot(1));
        assert!(l.start_recovery(Slot(1), 2_000).is_some());
    }

    #[test]
    fn abdicate_clears_state() {
        let q = Quorums::new(5);
        let mut l: Leader<&str> = Leader::new(ReplicaId(0), q);
        let b = l.start_prepare(false, Slot(0));
        for i in 0..3 {
            l.on_promise(ReplicaId(i), b, vec![]);
        }
        l.finalize_prepare().expect("quorum");
        l.start_recovery(Slot(3), 0);
        l.abdicate();
        assert_eq!(l.phase, LeaderPhase::Idle);
        assert!(l.recoveries.is_empty());
    }
}
