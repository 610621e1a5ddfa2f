//! Core identifier types of the consensus protocol.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Identifies one of the `N` replicas participating in consensus.
///
/// Treplica runs all three Paxos roles (proposer, acceptor, learner) in
/// every process, so a single id addresses all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReplicaId(pub u32);

impl ReplicaId {
    /// Dense index of this replica.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A position in the totally ordered log (a consensus instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Slot(pub u64);

impl Slot {
    /// The first slot.
    pub const ZERO: Slot = Slot(0);

    /// The slot after this one. Saturates at `u64::MAX` instead of
    /// wrapping: a wrapped slot would re-order the log, while a
    /// saturated one merely stalls an (unreachable in practice) run
    /// that consumed 2^64 consensus instances.
    pub fn next(self) -> Slot {
        Slot(self.0.saturating_add(1))
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Whether a ballot's round is classic or fast (Fast Paxos §3).
///
/// In a fast round, acceptors may accept values sent directly by
/// proposers (saving one message delay); deciding then requires the
/// larger fast quorum ⌈3N/4⌉ instead of the classic majority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BallotClass {
    /// Classic round: coordinator relays, majority quorum decides.
    Classic,
    /// Fast round: proposers address acceptors directly, ⌈3N/4⌉ decides.
    Fast,
}

/// A ballot (round) number, totally ordered by `(round, node)`.
///
/// The class is carried alongside but does not participate in the
/// ordering: round numbers are unique per coordinator, and a coordinator
/// never issues the same round with two classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ballot {
    /// Monotone counter, the dominant ordering key.
    pub round: u64,
    /// Coordinator that owns the ballot, breaking ties.
    pub node: ReplicaId,
    /// Fast or classic.
    pub class: BallotClass,
}

impl Ballot {
    /// The ballot below all real ballots; acceptors start here.
    pub const BOTTOM: Ballot = Ballot {
        round: 0,
        node: ReplicaId(0),
        class: BallotClass::Classic,
    };

    /// Creates a classic ballot.
    pub fn classic(round: u64, node: ReplicaId) -> Ballot {
        Ballot {
            round,
            node,
            class: BallotClass::Classic,
        }
    }

    /// Creates a fast ballot.
    pub fn fast(round: u64, node: ReplicaId) -> Ballot {
        Ballot {
            round,
            node,
            class: BallotClass::Fast,
        }
    }

    /// Whether this is a fast ballot.
    pub fn is_fast(self) -> bool {
        self.class == BallotClass::Fast
    }
}

impl PartialOrd for Ballot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ballot {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.round, self.node).cmp(&(other.round, other.node))
    }
}

impl fmt::Display for Ballot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self.class {
            BallotClass::Classic => "c",
            BallotClass::Fast => "f",
        };
        write!(f, "b{}.{}{}", self.round, self.node.0, c)
    }
}

/// Uniquely identifies a client proposal for retry deduplication.
///
/// Fast Paxos may orphan a proposal (collision loser) or decide it twice
/// under proposer retries; learners deliver each id at most once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProposalId {
    /// Replica whose proposer issued the proposal.
    pub node: ReplicaId,
    /// Process incarnation of the proposer. A restarted replica proposes
    /// under a fresh epoch, so its ids never collide with pre-crash ones
    /// (which may already be in the delivered-dedup set at learners).
    pub epoch: u64,
    /// Per-proposer sequence number within the epoch.
    pub seq: u64,
}

impl fmt::Display for ProposalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}.{}.{}", self.node.0, self.epoch, self.seq)
    }
}

/// A group-committed batch of client updates ordered as one decree.
///
/// Batching amortizes the per-decree costs of the stack — one consensus
/// round, one stable-log append (one simulated seek) and one set of
/// protocol messages — over up to `batch_max` updates. The consensus
/// layer stays value-agnostic: a batch is just the `V` of
/// `Replica<Batch<A>>`, so acceptors persist one coalesced record per
/// batch and learners deliver whole batches, which the middleware
/// unpacks in order (items keep their per-update [`ProposalId`]s so
/// exactly-once delivery and reply routing still work per update).
///
/// Invariant: a batch is never empty (the wire codec rejects empty
/// batches on decode; [`Batch::new`] asserts on construction).
///
/// The items are allocated once and shared: a clone is a
/// reference-count bump, so every message, log record, vote and queue
/// entry that carries the batch on one replica points at the same
/// slice.
#[derive(Debug)]
pub struct Batch<V> {
    /// The batched updates in submission order, each with the id its
    /// submitter waits on.
    pub items: Arc<[(ProposalId, V)]>,
}

/// Not derived: every copy of a batch on a replica is the same
/// allocation, so the learner's per-vote comparison is answered by the
/// pointer and only batches built separately are compared by content.
impl<V: PartialEq> PartialEq for Batch<V> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.items, &other.items) || self.items == other.items
    }
}

impl<V: Eq> Eq for Batch<V> {}

/// By content, like equality: equal batches hash alike whether or not
/// they share their items.
impl<V: Hash> Hash for Batch<V> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.items.hash(state);
    }
}

/// Not derived: a handle on the shared items needs no `V: Clone`.
impl<V> Clone for Batch<V> {
    fn clone(&self) -> Self {
        Batch {
            items: Arc::clone(&self.items),
        }
    }
}

impl<V> Batch<V> {
    /// Creates a batch from `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty — an empty batch would consume a
    /// consensus slot and a disk seek for nothing.
    pub fn new(items: Vec<(ProposalId, V)>) -> Batch<V> {
        assert!(!items.is_empty(), "batches must carry at least one update");
        Batch {
            items: items.into(),
        }
    }

    /// Wraps a single update (the unbatched degenerate case).
    pub fn single(pid: ProposalId, value: V) -> Batch<V> {
        Batch {
            items: Arc::new([(pid, value)]),
        }
    }

    /// Number of updates in the batch (always ≥ 1).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Always false for a well-formed batch; part of the conventional
    /// `len`/`is_empty` pair.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// A membership-change command ordered through the log like any decree.
///
/// Deciding and *delivering* a `Reconfig` is what moves the ensemble
/// from configuration epoch `epoch - 1` to `epoch`: the slot it occupies
/// is the fence — everything below it runs under the old replica set,
/// everything above under the new one ("Reconfigurable State Machine
/// Replication from Non-Reconfigurable Building Blocks"-style, as used
/// by Spinnaker's membership epochs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Reconfig {
    /// The epoch this command creates (always the proposer's current
    /// epoch + 1; anything else is stale and ignored at delivery).
    pub epoch: u64,
    /// Replicas joining the ensemble.
    pub add: Vec<ReplicaId>,
    /// Replicas leaving the ensemble.
    pub remove: Vec<ReplicaId>,
}

/// An epoch-stamped replica set: which replicas form the ensemble and
/// the configuration epoch that installed them.
///
/// Member ids need not be dense — a replaced replica keeps its id out
/// of the set forever and its successor joins under a fresh id — so all
/// per-member bookkeeping must key by [`ReplicaId`], not by index.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Membership {
    epoch: u64,
    /// Sorted, deduplicated member ids.
    members: Vec<ReplicaId>,
}

impl Membership {
    /// The bootstrap membership: epoch 0, replicas `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn initial(n: usize) -> Membership {
        assert!(n > 0, "ensemble must have at least one replica");
        Membership {
            epoch: 0,
            members: (0..obs::node_u32(n)).map(ReplicaId).collect(),
        }
    }

    /// Creates a membership at `epoch` from an explicit member list
    /// (sorted and deduplicated here).
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn new(epoch: u64, mut members: Vec<ReplicaId>) -> Membership {
        members.sort_unstable();
        members.dedup();
        assert!(
            !members.is_empty(),
            "ensemble must have at least one replica"
        );
        Membership { epoch, members }
    }

    /// The configuration epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Ensemble size `N` of this epoch — the mode rule's N.
    pub fn n(&self) -> usize {
        self.members.len()
    }

    /// The member ids, sorted ascending.
    pub fn members(&self) -> &[ReplicaId] {
        &self.members
    }

    /// Whether `id` belongs to this configuration.
    pub fn contains(&self, id: ReplicaId) -> bool {
        self.members.binary_search(&id).is_ok()
    }

    /// Quorum arithmetic for this epoch's `N`.
    pub fn quorums(&self) -> Quorums {
        Quorums::new(self.members.len())
    }

    /// Applies a reconfiguration command, yielding the next membership.
    ///
    /// Returns `None` if the command is stale (its epoch is not exactly
    /// this epoch + 1 — e.g. a decree replayed during catch-up after
    /// the switch already happened) or would empty the ensemble.
    pub fn apply(&self, rc: &Reconfig) -> Option<Membership> {
        if rc.epoch != self.epoch.checked_add(1)? {
            return None;
        }
        let mut members: Vec<ReplicaId> = self
            .members
            .iter()
            .copied()
            .filter(|m| !rc.remove.contains(m))
            .chain(rc.add.iter().copied())
            .collect();
        members.sort_unstable();
        members.dedup();
        if members.is_empty() {
            return None;
        }
        Some(Membership {
            epoch: rc.epoch,
            members,
        })
    }
}

/// What a slot can hold: a real proposal, a gap-filling no-op, or a
/// membership change.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Decree<V> {
    /// A no-op used by new leaders to finish unclaimed slots.
    Noop,
    /// A client proposal.
    Value(ProposalId, V),
    /// A fenced membership change (see [`Reconfig`]).
    Reconfig(Reconfig),
}

impl<V> Decree<V> {
    /// The proposal id, if this is a real value.
    pub fn proposal_id(&self) -> Option<ProposalId> {
        match self {
            Decree::Noop => None,
            Decree::Value(pid, _) => Some(*pid),
            Decree::Reconfig(_) => None,
        }
    }
}

/// Quorum arithmetic for `n` replicas, per the paper (§2):
/// fast quorum ⌈3N/4⌉, classic quorum ⌊N/2⌋+1.
///
/// ```
/// use paxos::Quorums;
/// let q = Quorums::new(5);
/// assert_eq!(q.classic(), 3);
/// assert_eq!(q.fast(), 4);
/// // The paper's mode rule: fast while ≥4 of 5 work, classic down to 3.
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quorums {
    n: usize,
}

impl Quorums {
    /// Creates quorum arithmetic for an ensemble of `n` replicas.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Quorums {
        assert!(n > 0, "ensemble must have at least one replica");
        Quorums { n }
    }

    /// Ensemble size `N`.
    pub fn n(self) -> usize {
        self.n
    }

    /// Classic quorum ⌊N/2⌋+1.
    pub fn classic(self) -> usize {
        (self.n / 2).saturating_add(1)
    }

    /// Fast quorum ⌈3N/4⌉, computed as `N − ⌊N/4⌋` (equal for every `N`,
    /// and `3N` never has to fit).
    pub fn fast(self) -> usize {
        self.n.saturating_sub(self.n / 4)
    }

    /// Minimum overlap between a classic quorum `Q` and any fast quorum:
    /// `|Q| + fast − N`. A value is *choosable* in a fast round only if at
    /// least this many members of `Q` report having accepted it (Fast
    /// Paxos rule O4); at most one value can reach this bound.
    pub fn recovery_threshold(self, q_size: usize) -> usize {
        q_size
            .saturating_add(self.fast())
            .saturating_sub(self.n)
            .max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ballot_total_order_ignores_class() {
        let a = Ballot::classic(1, ReplicaId(0));
        let b = Ballot::fast(1, ReplicaId(1));
        let c = Ballot::classic(2, ReplicaId(0));
        assert!(a < b && b < c);
        assert!(Ballot::BOTTOM < a);
    }

    #[test]
    fn quorum_sizes_match_paper() {
        // Paper deployments: 4..12 replicas; key claims for 5 and 8.
        let q5 = Quorums::new(5);
        assert_eq!(q5.classic(), 3);
        assert_eq!(q5.fast(), 4);
        let q8 = Quorums::new(8);
        assert_eq!(q8.classic(), 5);
        assert_eq!(q8.fast(), 6);
        let q4 = Quorums::new(4);
        assert_eq!(q4.classic(), 3);
        assert_eq!(q4.fast(), 3);
        let q12 = Quorums::new(12);
        assert_eq!(q12.classic(), 7);
        assert_eq!(q12.fast(), 9);
        for n in 1..=64 {
            assert_eq!(Quorums::new(n).fast(), (3 * n).div_ceil(4), "n = {n}");
        }
    }

    #[test]
    fn recovery_threshold_unique_winner() {
        // For every ensemble size used in the paper, the O4 threshold must
        // guarantee at most one choosable value in a classic quorum.
        for n in 3..=12 {
            let q = Quorums::new(n);
            let t = q.recovery_threshold(q.classic());
            assert!(2 * t > q.classic(), "n={n}: threshold {t} not unique");
        }
    }

    #[test]
    fn slot_next_advances() {
        assert_eq!(Slot::ZERO.next(), Slot(1));
        assert!(Slot(3) < Slot(4));
    }

    #[test]
    fn slot_next_saturates_instead_of_wrapping() {
        // Regression: `next()` used unchecked `+ 1`; at u64::MAX that
        // wraps to Slot(0) in release builds and re-orders the log.
        assert_eq!(Slot(u64::MAX).next(), Slot(u64::MAX));
        assert!(
            Slot(u64::MAX).next() >= Slot(u64::MAX),
            "monotone at the cap"
        );
    }

    #[test]
    fn decree_proposal_id() {
        let pid = ProposalId {
            node: ReplicaId(1),
            epoch: 0,
            seq: 9,
        };
        assert_eq!(Decree::Value(pid, "x").proposal_id(), Some(pid));
        assert_eq!(Decree::<&str>::Noop.proposal_id(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ReplicaId(2).to_string(), "r2");
        assert_eq!(Slot(7).to_string(), "s7");
        assert_eq!(Ballot::fast(3, ReplicaId(1)).to_string(), "b3.1f");
        assert_eq!(
            ProposalId {
                node: ReplicaId(0),
                epoch: 1,
                seq: 4
            }
            .to_string(),
            "p0.1.4"
        );
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_ensemble_panics() {
        Quorums::new(0);
    }

    #[test]
    fn initial_membership_is_dense_epoch_zero() {
        let m = Membership::initial(5);
        assert_eq!(m.epoch(), 0);
        assert_eq!(m.n(), 5);
        assert_eq!(m.quorums(), Quorums::new(5));
        assert!(m.contains(ReplicaId(4)));
        assert!(!m.contains(ReplicaId(5)));
    }

    #[test]
    fn membership_apply_replaces_and_bumps_epoch() {
        let m = Membership::initial(5);
        let rc = Reconfig {
            epoch: 1,
            add: vec![ReplicaId(8)],
            remove: vec![ReplicaId(0)],
        };
        let next = m.apply(&rc).expect("valid reconfig");
        assert_eq!(next.epoch(), 1);
        assert_eq!(next.n(), 5, "replace keeps N constant");
        assert!(!next.contains(ReplicaId(0)));
        assert!(next.contains(ReplicaId(8)));
        assert_eq!(
            next.members(),
            &[
                ReplicaId(1),
                ReplicaId(2),
                ReplicaId(3),
                ReplicaId(4),
                ReplicaId(8)
            ]
        );
    }

    #[test]
    fn membership_apply_rejects_stale_and_empty() {
        let m = Membership::initial(3);
        // Wrong epoch: a replayed decree from the already-installed
        // switch must be a no-op.
        assert!(m
            .apply(&Reconfig {
                epoch: 0,
                add: vec![],
                remove: vec![ReplicaId(0)],
            })
            .is_none());
        assert!(m
            .apply(&Reconfig {
                epoch: 2,
                add: vec![],
                remove: vec![ReplicaId(0)],
            })
            .is_none());
        // Removing everyone is invalid.
        assert!(m
            .apply(&Reconfig {
                epoch: 1,
                add: vec![],
                remove: vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)],
            })
            .is_none());
        // Remove + add of N changes the quorum arithmetic.
        let grown = m
            .apply(&Reconfig {
                epoch: 1,
                add: vec![ReplicaId(3), ReplicaId(4)],
                remove: vec![],
            })
            .expect("grow to 5");
        assert_eq!(grown.quorums().classic(), 3);
        assert_eq!(grown.quorums().fast(), 4);
    }

    #[test]
    fn reconfig_decree_has_no_proposal_id() {
        let d: Decree<&str> = Decree::Reconfig(Reconfig {
            epoch: 1,
            add: vec![],
            remove: vec![ReplicaId(1)],
        });
        assert_eq!(d.proposal_id(), None);
    }
}
