//! What middleware nodes say to each other, and the epoch fence that
//! decides which consensus messages a reconfigured node still listens to.

use std::cmp::Ordering;

use paxos::{Msg, ReplicaId, Slot};

use crate::wire::Wire;

/// Per-message wire overhead added to encoded payloads (Ethernet + IP +
/// UDP headers).
const WIRE_OVERHEAD: u64 = 46;

/// Messages exchanged between middleware nodes: consensus traffic plus
/// the snapshot-transfer protocol used when a recovering replica's
/// backlog fell past the peers' retained history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MwMsg<A> {
    /// Consensus-layer traffic, stamped with the sender's configuration
    /// epoch so a reconfigured cohort can fence out stragglers: messages
    /// from an older epoch are dropped (and traced) instead of being
    /// counted under the new epoch's quorum rule.
    Paxos {
        /// Sender's configuration epoch at send time.
        epoch: u64,
        /// Causal provenance stamp (origin node, monotone send counter,
        /// slot/ballot), carried on every transmission so receivers'
        /// traces can be joined back to senders'. Stamped
        /// unconditionally — the counter advances and the bytes ship
        /// whether or not tracing is on, keeping traced and untraced
        /// runs byte-identical.
        tag: paxos::CausalTag,
        /// The consensus message.
        msg: Msg<A>,
    },
    /// A recovering replica asks a peer for its current state.
    SnapshotRequest,
    /// Full state transfer: `data` restores an application covering all
    /// slots below `covers`; `nominal` is the modeled transfer size.
    /// Carries the sender's configuration so a freshly provisioned node
    /// adopts the current member set along with the state.
    SnapshotReply {
        /// Delivery resumes at this slot after restoring.
        covers: Slot,
        /// Configuration epoch of the snapshot.
        epoch: u64,
        /// Member set of that epoch.
        members: Vec<ReplicaId>,
        /// Serialized application state.
        data: Vec<u8>,
        /// Modeled size (drives network transfer latency).
        nominal: u64,
    },
}

impl<A: Wire> MwMsg<A> {
    /// Bytes this message occupies on the wire (headers included); the
    /// snapshot payload is charged at its modeled size.
    pub fn wire_bytes(&self) -> u64 {
        // Each kind byte is followed by the epoch, by nothing, or by three
        // snapshot header words.
        let (header, body) = match self {
            MwMsg::Paxos { tag, msg, .. } => {
                (1 + 8, tag.wire_size().saturating_add(msg.wire_size()))
            }
            MwMsg::SnapshotRequest => (1, 0),
            MwMsg::SnapshotReply {
                members, nominal, ..
            } => (1 + 8 + 8 + 8, members.wire_size().saturating_add(*nominal)),
        };
        body.saturating_add(WIRE_OVERHEAD.saturating_add(header))
    }
}

/// What the epoch fence does with a consensus message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fence {
    Admit,
    /// The sender has not crossed the fence yet: counting its votes under
    /// the new epoch's quorum rule would be unsound.
    Stale,
    /// This node is behind the fence itself: only learning traffic until
    /// catch-up delivers the switch.
    Ahead,
}

/// The epoch fence. Learning traffic is epoch-agnostic — it only reports
/// already-decided slots, and it is exactly what carries a straggler (or
/// a joiner) across a fence; every other message must carry the epoch
/// this node runs under.
pub(crate) fn fence<A>(msg: &Msg<A>, msg_epoch: u64, local_epoch: u64) -> Fence {
    let epoch_agnostic = matches!(
        msg,
        Msg::Alive { .. } | Msg::LearnRequest { .. } | Msg::LearnReply { .. }
    );
    match msg_epoch.cmp(&local_epoch) {
        Ordering::Less if !epoch_agnostic => Fence::Stale,
        Ordering::Greater if !epoch_agnostic => Fence::Ahead,
        _ => Fence::Admit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::active_single;
    use crate::MwEffect;
    use obs::TraceEvent;
    use paxos::Ballot;

    #[test]
    fn fence_admits_the_local_epoch_and_all_learning_traffic() {
        let accept: Msg<u64> = Msg::Accept {
            ballot: Ballot::BOTTOM,
            slot: Slot(1),
            decree: paxos::Decree::Noop,
        };
        assert_eq!(fence(&accept, 3, 3), Fence::Admit);
        assert_eq!(fence(&accept, 2, 3), Fence::Stale);
        assert_eq!(fence(&accept, 4, 3), Fence::Ahead);
        let learning: [Msg<u64>; 3] = [
            Msg::Alive {
                ballot: Ballot::BOTTOM,
                decided_upto: Slot(1),
            },
            Msg::LearnRequest { from_slot: Slot(1) },
            Msg::LearnReply {
                entries: vec![],
                truncated_below: Slot(0),
                decided_upto: Slot(1),
            },
        ];
        for msg in &learning {
            for msg_epoch in [2, 3, 4] {
                assert_eq!(fence(msg, msg_epoch, 3), Fence::Admit);
            }
        }
    }

    /// Regression test for the epoch fence: after a reconfiguration is
    /// delivered, protocol messages stamped with the old epoch must be
    /// dropped (and traced), newer-epoch messages dropped silently, and
    /// learning traffic must keep flowing regardless of epoch.
    #[test]
    fn reconfig_switches_epoch_and_rejects_stale_messages() {
        let (mut mw, mut store) = active_single();
        let _ = mw.take_trace();
        assert_eq!(mw.membership().epoch(), 0);

        let mut fx = Vec::new();
        let ok = mw.execute_reconfig_into(vec![ReplicaId(1)], vec![], 0, &mut fx);
        assert!(ok, "the leader accepts a reconfig proposal");
        // Drive to completion: only messages addressed to this node loop
        // back (the new member does not exist in this test).
        let mut reconfigured = None;
        let mut queue = fx;
        while !queue.is_empty() {
            let mut next = Vec::new();
            for e in queue {
                match e {
                    MwEffect::Send {
                        to: ReplicaId(0),
                        msg,
                        ..
                    } => {
                        mw.on_message_into(ReplicaId(0), msg, 0, &mut next);
                    }
                    MwEffect::DiskWrite { op, token, .. } => {
                        if let Some((log, entry)) = store.apply(op) {
                            mw.recycle_append(log, entry);
                        }
                        mw.on_disk_write_done_into(token, &mut next);
                    }
                    MwEffect::Reconfigured { epoch, members, .. } => {
                        reconfigured = Some((epoch, members));
                    }
                    _ => {}
                }
            }
            queue = next;
        }
        let (epoch, members) = reconfigured.expect("reconfig decree delivered");
        assert_eq!(epoch, 1);
        assert_eq!(members, vec![ReplicaId(0), ReplicaId(1)]);
        assert_eq!(mw.membership().epoch(), 1);
        let _ = mw.take_trace();

        // A stale-epoch Accept is dropped and traced.
        let stale = MwMsg::Paxos {
            epoch: 0,
            tag: Default::default(),
            msg: Msg::Accept {
                ballot: Ballot::BOTTOM,
                slot: Slot(50),
                decree: paxos::Decree::Noop,
            },
        };
        let fx = mw.on_message(ReplicaId(1), stale, 0);
        assert!(fx.is_empty(), "stale-epoch accept produces no effects");
        let trace: Vec<TraceEvent> = mw.take_trace().collect();
        assert!(
            trace.iter().any(|e| matches!(
                e,
                TraceEvent::StaleEpochRejected {
                    from: 1,
                    msg_epoch: 0,
                    local_epoch: 1,
                }
            )),
            "stale-epoch rejection is traced: {trace:?}"
        );

        // Messages from a newer epoch are dropped silently (this node
        // must catch up before voting under an unknown quorum rule)...
        let ahead = MwMsg::Paxos {
            epoch: 7,
            tag: Default::default(),
            msg: Msg::Accept {
                ballot: Ballot::BOTTOM,
                slot: Slot(50),
                decree: paxos::Decree::Noop,
            },
        };
        let fx = mw.on_message(ReplicaId(1), ahead, 0);
        assert!(fx.is_empty(), "ahead-epoch accept produces no effects");

        // ...and learning traffic crosses the fence in both directions.
        let learn = MwMsg::Paxos {
            epoch: 0,
            tag: Default::default(),
            msg: Msg::LearnRequest {
                from_slot: Slot::ZERO,
            },
        };
        let fx = mw.on_message(ReplicaId(1), learn, 0);
        assert!(!fx.is_empty(), "stale-epoch learn request is answered");
        let trace: Vec<TraceEvent> = mw.take_trace().collect();
        assert!(
            trace
                .iter()
                .all(|e| !matches!(e, TraceEvent::StaleEpochRejected { .. })),
            "epoch-agnostic traffic is never rejected: {trace:?}"
        );
    }
}
