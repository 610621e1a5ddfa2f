//! Wire messages, durable records, and the effect vocabulary.
//!
//! The protocol core is *sans-io*: handlers never touch sockets, disks or
//! clocks. They return [`Effect`]s that the driver (the `treplica` crate,
//! running on `simnet`) turns into real sends and durable writes.
//! Durability gates progress: an [`Effect::Persist`] carries a token, and
//! the messages that acknowledge the persisted state are only released
//! when the driver calls back with that token — putting the paper's
//! stable-storage latency on the write path.

use crate::types::{Ballot, Decree, Membership, ProposalId, ReplicaId, Slot};

/// A promise's report of what an acceptor had already accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcceptedReport<V> {
    /// The slot concerned.
    pub slot: Slot,
    /// Ballot at which the decree was accepted.
    pub ballot: Ballot,
    /// The accepted decree.
    pub decree: Decree<V>,
}

/// Protocol messages exchanged between replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg<V> {
    /// Phase 1a: a coordinator claims ballot `ballot` for all slots from
    /// `from_slot`, or for exactly one slot (collision recovery).
    Prepare {
        /// The ballot being claimed.
        ballot: Ballot,
        /// First slot covered by the claim.
        from_slot: Slot,
        /// If set, the claim covers only this slot.
        only_slot: Option<Slot>,
    },
    /// Phase 1b: acceptor's promise not to accept lower ballots, with its
    /// prior accepted decrees in the covered range.
    Promise {
        /// Ballot being promised.
        ballot: Ballot,
        /// Echo of the prepare's range start.
        from_slot: Slot,
        /// Echo of the prepare's single-slot restriction.
        only_slot: Option<Slot>,
        /// Previously accepted decrees in the covered range.
        accepted: Vec<AcceptedReport<V>>,
    },
    /// Phase 2a (classic): the coordinator asks acceptors to accept a
    /// decree at a slot.
    Accept {
        /// The coordinator's ballot.
        ballot: Ballot,
        /// Target slot.
        slot: Slot,
        /// Decree to accept.
        decree: Decree<V>,
    },
    /// Phase 2a (fast): the coordinator opens fast rounds — acceptors may
    /// accept proposer values directly at any free slot ≥ `from_slot`
    /// (the "any" message of Fast Paxos).
    Any {
        /// The fast ballot now active.
        ballot: Ballot,
        /// Fast accepts may use slots at or after this.
        from_slot: Slot,
    },
    /// A proposer's value addressed directly to acceptors (fast rounds).
    FastPropose {
        /// Proposal identity for dedup/retry.
        pid: ProposalId,
        /// The proposed value.
        value: V,
    },
    /// A proposal forwarded to the coordinator (classic rounds).
    Propose {
        /// Proposal identity for dedup/retry.
        pid: ProposalId,
        /// The proposed value.
        value: V,
    },
    /// Phase 2b: an acceptor announces it accepted `decree` at `slot`
    /// under `ballot` (broadcast to all learners).
    Accepted {
        /// Ballot of the acceptance.
        ballot: Ballot,
        /// Slot concerned.
        slot: Slot,
        /// The accepted decree.
        decree: Decree<V>,
    },
    /// Failure-detector heartbeat, also carrying the sender's
    /// contiguously-decided watermark for catch-up detection.
    Alive {
        /// Sender's current ballot view (highest seen).
        ballot: Ballot,
        /// Slots below this are decided at the sender.
        decided_upto: Slot,
    },
    /// Request decided slots starting at `from_slot` (catch-up/recovery).
    LearnRequest {
        /// First slot the requester is missing.
        from_slot: Slot,
    },
    /// A chunk of decided slots. `truncated_below` tells the requester
    /// the responder no longer stores slots below that point (it must
    /// fetch a checkpoint instead — handled by the middleware layer).
    LearnReply {
        /// Decided `(slot, decree)` pairs, contiguous from the request
        /// where available.
        entries: Vec<(Slot, Decree<V>)>,
        /// Responder's log starts here; earlier slots require snapshot
        /// transfer.
        truncated_below: Slot,
        /// Responder's decided watermark (for chunked catch-up).
        decided_upto: Slot,
    },
}

impl<V> Msg<V> {
    /// Stable snake_case name of the message kind, used in causal-trace
    /// tags (`msg_tag.kind`).
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::Prepare { .. } => "prepare",
            Msg::Promise { .. } => "promise",
            Msg::Accept { .. } => "accept",
            Msg::Any { .. } => "any",
            Msg::FastPropose { .. } => "fast_propose",
            Msg::Propose { .. } => "propose",
            Msg::Accepted { .. } => "accepted",
            Msg::Alive { .. } => "alive",
            Msg::LearnRequest { .. } => "learn_request",
            Msg::LearnReply { .. } => "learn_reply",
        }
    }

    /// `(slot, round)` provenance for causal tags: the slot the message
    /// is about (or covers from) and the ballot round it runs under,
    /// [`CausalTag::NONE`] where the kind carries neither.
    pub fn provenance(&self) -> (u64, u64) {
        match self {
            Msg::Prepare {
                ballot, from_slot, ..
            } => (from_slot.0, ballot.round),
            Msg::Promise {
                ballot, from_slot, ..
            } => (from_slot.0, ballot.round),
            Msg::Accept { ballot, slot, .. } => (slot.0, ballot.round),
            Msg::Any { ballot, from_slot } => (from_slot.0, ballot.round),
            Msg::FastPropose { .. } | Msg::Propose { .. } => (CausalTag::NONE, CausalTag::NONE),
            Msg::Accepted { ballot, slot, .. } => (slot.0, ballot.round),
            Msg::Alive {
                ballot,
                decided_upto,
            } => (decided_upto.0, ballot.round),
            Msg::LearnRequest { from_slot } => (from_slot.0, CausalTag::NONE),
            Msg::LearnReply { decided_upto, .. } => (decided_upto.0, CausalTag::NONE),
        }
    }
}

/// Compact causal provenance stamped onto every wire message by the
/// sending middleware: who sent it (origin + monotone per-sender
/// counter) and which slot/ballot it concerns. Carried through the wire
/// codec so the receiver's `msg_recv` trace can be joined back to the
/// sender's `msg_sent`/`msg_tag` — the raw material of
/// `obs::causal`'s happens-before reconstruction. 28 bytes on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CausalTag {
    /// Sending replica (the middleware that stamped the tag).
    pub origin: u32,
    /// The origin's transmission counter; advances on every stamped
    /// send, traced or not, so tracing never perturbs the byte stream.
    pub seq: u64,
    /// Slot provenance, [`CausalTag::NONE`] for slot-less kinds.
    pub slot: u64,
    /// Ballot-round provenance, [`CausalTag::NONE`] where absent.
    pub round: u64,
}

impl CausalTag {
    /// Sentinel for "no slot/round provenance".
    pub const NONE: u64 = u64::MAX;

    /// Stamps `msg` as transmission `seq` from `origin`.
    pub fn for_msg<V>(origin: ReplicaId, seq: u64, msg: &Msg<V>) -> CausalTag {
        let (slot, round) = msg.provenance();
        CausalTag {
            origin: origin.0,
            seq,
            slot,
            round,
        }
    }
}

impl Default for CausalTag {
    fn default() -> CausalTag {
        CausalTag {
            origin: 0,
            seq: 0,
            slot: CausalTag::NONE,
            round: CausalTag::NONE,
        }
    }
}

/// A record appended to the acceptor's durable log before the
/// corresponding protocol message may be sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record<V> {
    /// The acceptor promised ballot `0`'s value.
    Promised(Ballot),
    /// The acceptor accepted `decree` at `slot` under `ballot`.
    Accepted {
        /// Ballot of the acceptance.
        ballot: Ballot,
        /// Slot concerned.
        slot: Slot,
        /// The accepted decree.
        decree: Decree<V>,
    },
}

impl<V> Record<V> {
    /// The slot an `Accepted` record votes in; a promise has none.
    pub fn slot(&self) -> Option<Slot> {
        match self {
            Record::Accepted { slot, .. } => Some(*slot),
            Record::Promised(_) => None,
        }
    }
}

/// Opaque token correlating an [`Effect::Persist`] with the driver's
/// completion callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PersistToken(pub u64);

/// Side effects requested by the protocol core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect<V> {
    /// Send `msg` to replica `to` (may be the sender itself; the driver
    /// routes loopback through the network model's loopback path).
    Send {
        /// Destination replica.
        to: ReplicaId,
        /// The message.
        msg: Msg<V>,
    },
    /// Append `record` durably, then call `on_persisted(token)`.
    Persist {
        /// Record to append to the consensus log.
        record: Record<V>,
        /// Completion token.
        token: PersistToken,
    },
    /// A decree was decided and is ready for in-order delivery.
    ///
    /// Emitted in strictly increasing slot order with no gaps; no-ops are
    /// filtered out, and each [`ProposalId`] is delivered at most once per
    /// replica incarnation.
    Deliver {
        /// The slot that committed.
        slot: Slot,
        /// Proposal identity.
        pid: ProposalId,
        /// The decided value.
        value: V,
        /// The configuration epoch the slot belongs to. Derived from the
        /// log itself (the fences crossed up to this point of the
        /// replay), so a late joiner replaying old slots reports the
        /// epoch they were decided under, not its own boot epoch.
        epoch: u64,
    },
    /// A [`crate::Reconfig`] decree reached its fenced slot: the replica
    /// switched to `membership` and everything at or above `slot` now
    /// runs under the new epoch's replica set and quorum rule.
    Reconfigured {
        /// The fence slot the reconfiguration occupied.
        slot: Slot,
        /// The newly installed configuration.
        membership: Membership,
    },
}

/// Builder-style helpers over a caller's effect buffer: handlers append
/// to a `Vec` the caller owns and reuses, so producing an effect costs
/// no allocation of its own once the buffer has grown to its working
/// size.
#[derive(Debug)]
pub struct Effects<'a, V> {
    inner: &'a mut Vec<Effect<V>>,
}

impl<'a, V> Effects<'a, V> {
    /// Appends to `buffer`, after whatever it already holds.
    pub fn new(buffer: &'a mut Vec<Effect<V>>) -> Self {
        Effects { inner: buffer }
    }

    /// Queues a unicast.
    pub fn send(&mut self, to: ReplicaId, msg: Msg<V>) {
        self.inner.push(Effect::Send { to, msg });
    }

    /// Queues the same message to every listed member, including the
    /// local one (self-delivery is how the local acceptor/learner hears
    /// its own coordinator, mirroring Treplica's in-process roles). The
    /// caller passes the *current epoch's* member list, so messages
    /// never leak to replicas outside the active configuration.
    pub fn broadcast(&mut self, members: &[ReplicaId], msg: Msg<V>)
    where
        Msg<V>: Clone,
    {
        let Some((&last, rest)) = members.split_last() else {
            return;
        };
        self.inner.reserve(members.len());
        for &to in rest {
            self.inner.push(Effect::Send {
                to,
                msg: msg.clone(),
            });
        }
        self.inner.push(Effect::Send { to: last, msg });
    }

    /// Queues a persist effect.
    pub fn persist(&mut self, record: Record<V>, token: PersistToken) {
        self.inner.push(Effect::Persist { record, token });
    }

    /// Queues a delivery under the configuration epoch owning `slot`.
    pub fn deliver(&mut self, slot: Slot, pid: ProposalId, value: V, epoch: u64) {
        self.inner.push(Effect::Deliver {
            slot,
            pid,
            value,
            epoch,
        });
    }

    /// Queues a membership-switch notification.
    pub fn reconfigured(&mut self, slot: Slot, membership: Membership) {
        self.inner.push(Effect::Reconfigured { slot, membership });
    }

    /// Number of effects in the buffer.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the buffer holds no effects.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_reaches_all_members_including_self() {
        let mut v: Vec<Effect<u8>> = Vec::new();
        // Sparse member ids (post-reconfiguration): the broadcast follows
        // the list exactly, never the dense 0..n range.
        Effects::new(&mut v).broadcast(
            &[ReplicaId(0), ReplicaId(2), ReplicaId(7)],
            Msg::Alive {
                ballot: Ballot::BOTTOM,
                decided_upto: Slot::ZERO,
            },
        );
        assert_eq!(v.len(), 3);
        let dests: Vec<u32> = v
            .iter()
            .map(|e| match e {
                Effect::Send { to, .. } => to.0,
                _ => panic!("expected send"),
            })
            .collect();
        assert_eq!(dests, vec![0, 2, 7]);
    }

    /// Two handlers writing in turn into one buffer leave their effects
    /// in call order.
    #[test]
    fn effects_compose() {
        let mut buffer: Vec<Effect<u8>> = Vec::new();
        let pid = ProposalId {
            node: ReplicaId(0),
            epoch: 0,
            seq: 1,
        };
        Effects::new(&mut buffer).deliver(Slot(1), pid, 9, 0);
        let mut b = Effects::new(&mut buffer);
        b.persist(Record::Promised(Ballot::BOTTOM), PersistToken(7));
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert!(matches!(buffer[0], Effect::Deliver { value: 9, .. }));
        assert!(matches!(buffer[1], Effect::Persist { .. }));
    }

    #[test]
    fn causal_tags_capture_provenance() {
        let accept: Msg<u8> = Msg::Accept {
            ballot: Ballot::classic(3, ReplicaId(1)),
            slot: Slot(7),
            decree: Decree::Noop,
        };
        assert_eq!(accept.kind(), "accept");
        let tag = CausalTag::for_msg(ReplicaId(1), 42, &accept);
        assert_eq!(
            tag,
            CausalTag {
                origin: 1,
                seq: 42,
                slot: 7,
                round: 3
            }
        );

        let propose: Msg<u8> = Msg::Propose {
            pid: ProposalId {
                node: ReplicaId(0),
                epoch: 0,
                seq: 1,
            },
            value: 9,
        };
        assert_eq!(propose.kind(), "propose");
        let tag = CausalTag::for_msg(ReplicaId(0), 5, &propose);
        assert_eq!(tag.slot, CausalTag::NONE);
        assert_eq!(tag.round, CausalTag::NONE);

        let dflt = CausalTag::default();
        assert_eq!(dflt.slot, CausalTag::NONE);
        assert_eq!(dflt.origin, 0);
    }

    #[test]
    fn empty_effects_default() {
        let mut buffer: Vec<Effect<u8>> = Vec::new();
        let fx = Effects::new(&mut buffer);
        assert!(fx.is_empty());
        assert_eq!(fx.len(), 0);
    }
}
