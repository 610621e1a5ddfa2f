//! [`Wire`] encodings for the consensus types.
//!
//! The durable log stores encoded [`Record`]s (slot-first layout for
//! `Accepted` so the checkpoint-truncation scan can cheaply find the cut
//! point), and outgoing protocol messages are sized with
//! [`Wire::wire_size`] to charge serialization latency on the simulated
//! network.

use paxos::{
    AcceptedReport, Ballot, BallotClass, Batch, CausalTag, Decree, Msg, ProposalId, Reconfig,
    Record, ReplicaId, Slot,
};

use crate::wire::{encode_slice, slice_wire_size, Wire, WireError};

/// Hard wire-format cap on updates per batch. Protects decoders from a
/// corrupt length prefix; far above any useful `batch_max_updates`.
pub const MAX_BATCH_ITEMS: usize = 4_096;

/// Batch framing: a length-prefixed item vector. Decoding enforces the
/// batch invariants — never empty (an empty batch would burn a slot and
/// a seek for nothing) and never above [`MAX_BATCH_ITEMS`].
impl<A: Wire> Wire for Batch<A> {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_slice(&self.items, buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let items: Vec<(ProposalId, A)> = Vec::decode(input)?;
        if items.is_empty() {
            return Err(WireError::Invalid("empty batch"));
        }
        if items.len() > MAX_BATCH_ITEMS {
            return Err(WireError::Invalid("batch exceeds MAX_BATCH_ITEMS"));
        }
        Ok(Batch {
            items: items.into(),
        })
    }
    fn wire_size(&self) -> u64 {
        slice_wire_size(&self.items)
    }
}

impl Wire for Slot {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Slot(u64::decode(input)?))
    }
    fn wire_size(&self) -> u64 {
        8
    }
}

impl Wire for Ballot {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.round.encode(buf);
        self.node.0.encode(buf);
        buf.push(match self.class {
            BallotClass::Classic => 0,
            BallotClass::Fast => 1,
        });
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let round = u64::decode(input)?;
        let node = paxos::ReplicaId(u32::decode(input)?);
        let class = match u8::decode(input)? {
            0 => BallotClass::Classic,
            1 => BallotClass::Fast,
            t => return Err(WireError::BadTag(t)),
        };
        Ok(Ballot { round, node, class })
    }
    fn wire_size(&self) -> u64 {
        13
    }
}

impl Wire for ProposalId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.node.0.encode(buf);
        self.epoch.encode(buf);
        self.seq.encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(ProposalId {
            node: paxos::ReplicaId(u32::decode(input)?),
            epoch: u64::decode(input)?,
            seq: u64::decode(input)?,
        })
    }
    fn wire_size(&self) -> u64 {
        20
    }
}

impl Wire for ReplicaId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(ReplicaId(u32::decode(input)?))
    }
    fn wire_size(&self) -> u64 {
        4
    }
}

/// Fixed-size causal provenance stamp carried by every protocol
/// message (see `paxos::CausalTag`): origin, monotone send counter,
/// and slot/round provenance, `u64::MAX` marking "none".
impl Wire for CausalTag {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.origin.encode(buf);
        self.seq.encode(buf);
        self.slot.encode(buf);
        self.round.encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(CausalTag {
            origin: u32::decode(input)?,
            seq: u64::decode(input)?,
            slot: u64::decode(input)?,
            round: u64::decode(input)?,
        })
    }
    fn wire_size(&self) -> u64 {
        CausalTag::WIRE_SIZE
    }
}

impl Wire for Reconfig {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.epoch.encode(buf);
        self.add.encode(buf);
        self.remove.encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Reconfig {
            epoch: u64::decode(input)?,
            add: Vec::decode(input)?,
            remove: Vec::decode(input)?,
        })
    }
    fn wire_size(&self) -> u64 {
        self.epoch.wire_size() + self.add.wire_size() + self.remove.wire_size()
    }
}

impl<A: Wire> Wire for Decree<A> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Decree::Noop => buf.push(0),
            Decree::Value(pid, a) => {
                buf.push(1);
                pid.encode(buf);
                a.encode(buf);
            }
            Decree::Reconfig(rc) => {
                buf.push(2);
                rc.encode(buf);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(Decree::Noop),
            1 => Ok(Decree::Value(ProposalId::decode(input)?, A::decode(input)?)),
            2 => Ok(Decree::Reconfig(Reconfig::decode(input)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
    fn wire_size(&self) -> u64 {
        match self {
            Decree::Noop => 1,
            Decree::Value(pid, a) => 1 + pid.wire_size() + a.wire_size(),
            Decree::Reconfig(rc) => 1 + rc.wire_size(),
        }
    }
}

/// Layout note: `Accepted` records lead with the slot so the checkpoint
/// truncation scan can decode just the prefix (`tag + slot`).
impl<A: Wire> Wire for Record<A> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Record::Promised(b) => {
                buf.push(0);
                b.encode(buf);
            }
            Record::Accepted {
                ballot,
                slot,
                decree,
            } => {
                buf.push(1);
                slot.encode(buf);
                ballot.encode(buf);
                decree.encode(buf);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(Record::Promised(Ballot::decode(input)?)),
            1 => {
                let slot = Slot::decode(input)?;
                let ballot = Ballot::decode(input)?;
                let decree = Decree::decode(input)?;
                Ok(Record::Accepted {
                    ballot,
                    slot,
                    decree,
                })
            }
            t => Err(WireError::BadTag(t)),
        }
    }
    fn wire_size(&self) -> u64 {
        match self {
            Record::Promised(b) => 1 + b.wire_size(),
            Record::Accepted {
                ballot,
                slot,
                decree,
            } => 1 + slot.wire_size() + ballot.wire_size() + decree.wire_size(),
        }
    }
}

/// Decodes only the slot of an encoded record, if it is an `Accepted`
/// entry (used by the log-truncation scan).
pub fn record_slot(entry: &[u8]) -> Option<Slot> {
    let mut input = entry;
    match u8::decode(&mut input).ok()? {
        1 => Slot::decode(&mut input).ok(),
        _ => None,
    }
}

impl<A: Wire> Wire for AcceptedReport<A> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.slot.encode(buf);
        self.ballot.encode(buf);
        self.decree.encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(AcceptedReport {
            slot: Slot::decode(input)?,
            ballot: Ballot::decode(input)?,
            decree: Decree::decode(input)?,
        })
    }
    fn wire_size(&self) -> u64 {
        self.slot.wire_size() + self.ballot.wire_size() + self.decree.wire_size()
    }
}

impl<A: Wire> Wire for Msg<A> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Msg::Prepare {
                ballot,
                from_slot,
                only_slot,
            } => {
                buf.push(0);
                ballot.encode(buf);
                from_slot.encode(buf);
                only_slot.encode(buf);
            }
            Msg::Promise {
                ballot,
                from_slot,
                only_slot,
                accepted,
            } => {
                buf.push(1);
                ballot.encode(buf);
                from_slot.encode(buf);
                only_slot.encode(buf);
                accepted.encode(buf);
            }
            Msg::Accept {
                ballot,
                slot,
                decree,
            } => {
                buf.push(2);
                ballot.encode(buf);
                slot.encode(buf);
                decree.encode(buf);
            }
            Msg::Any { ballot, from_slot } => {
                buf.push(3);
                ballot.encode(buf);
                from_slot.encode(buf);
            }
            Msg::FastPropose { pid, value } => {
                buf.push(4);
                pid.encode(buf);
                value.encode(buf);
            }
            Msg::Propose { pid, value } => {
                buf.push(5);
                pid.encode(buf);
                value.encode(buf);
            }
            Msg::Accepted {
                ballot,
                slot,
                decree,
            } => {
                buf.push(6);
                ballot.encode(buf);
                slot.encode(buf);
                decree.encode(buf);
            }
            Msg::Alive {
                ballot,
                decided_upto,
            } => {
                buf.push(7);
                ballot.encode(buf);
                decided_upto.encode(buf);
            }
            Msg::LearnRequest { from_slot } => {
                buf.push(8);
                from_slot.encode(buf);
            }
            Msg::LearnReply {
                entries,
                truncated_below,
                decided_upto,
            } => {
                buf.push(9);
                entries.encode(buf);
                truncated_below.encode(buf);
                decided_upto.encode(buf);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(Msg::Prepare {
                ballot: Ballot::decode(input)?,
                from_slot: Slot::decode(input)?,
                only_slot: Option::decode(input)?,
            }),
            1 => Ok(Msg::Promise {
                ballot: Ballot::decode(input)?,
                from_slot: Slot::decode(input)?,
                only_slot: Option::decode(input)?,
                accepted: Vec::decode(input)?,
            }),
            2 => Ok(Msg::Accept {
                ballot: Ballot::decode(input)?,
                slot: Slot::decode(input)?,
                decree: Decree::decode(input)?,
            }),
            3 => Ok(Msg::Any {
                ballot: Ballot::decode(input)?,
                from_slot: Slot::decode(input)?,
            }),
            4 => Ok(Msg::FastPropose {
                pid: ProposalId::decode(input)?,
                value: A::decode(input)?,
            }),
            5 => Ok(Msg::Propose {
                pid: ProposalId::decode(input)?,
                value: A::decode(input)?,
            }),
            6 => Ok(Msg::Accepted {
                ballot: Ballot::decode(input)?,
                slot: Slot::decode(input)?,
                decree: Decree::decode(input)?,
            }),
            7 => Ok(Msg::Alive {
                ballot: Ballot::decode(input)?,
                decided_upto: Slot::decode(input)?,
            }),
            8 => Ok(Msg::LearnRequest {
                from_slot: Slot::decode(input)?,
            }),
            9 => Ok(Msg::LearnReply {
                entries: Vec::decode(input)?,
                truncated_below: Slot::decode(input)?,
                decided_upto: Slot::decode(input)?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
    fn wire_size(&self) -> u64 {
        // 1-byte tag + fields; computed structurally to avoid encoding.
        match self {
            Msg::Prepare {
                ballot,
                from_slot,
                only_slot,
            } => 1 + ballot.wire_size() + from_slot.wire_size() + only_slot.wire_size(),
            Msg::Promise {
                ballot,
                from_slot,
                only_slot,
                accepted,
            } => {
                1 + ballot.wire_size()
                    + from_slot.wire_size()
                    + only_slot.wire_size()
                    + accepted.wire_size()
            }
            Msg::Accept {
                ballot,
                slot,
                decree,
            } => 1 + ballot.wire_size() + slot.wire_size() + decree.wire_size(),
            Msg::Any { ballot, from_slot } => 1 + ballot.wire_size() + from_slot.wire_size(),
            Msg::FastPropose { pid, value } | Msg::Propose { pid, value } => {
                1 + pid.wire_size() + value.wire_size()
            }
            Msg::Accepted {
                ballot,
                slot,
                decree,
            } => 1 + ballot.wire_size() + slot.wire_size() + decree.wire_size(),
            Msg::Alive {
                ballot,
                decided_upto,
            } => 1 + ballot.wire_size() + decided_upto.wire_size(),
            Msg::LearnRequest { from_slot } => 1 + from_slot.wire_size(),
            Msg::LearnReply {
                entries,
                truncated_below,
                decided_upto,
            } => 1 + entries.wire_size() + truncated_below.wire_size() + decided_upto.wire_size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxos::ReplicaId;

    fn pid(n: u32, seq: u64) -> ProposalId {
        ProposalId {
            node: ReplicaId(n),
            epoch: 2,
            seq,
        }
    }

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(bytes.len() as u64, v.wire_size(), "wire_size mismatch");
        assert_eq!(T::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn consensus_primitives_roundtrip() {
        roundtrip(Slot(42));
        roundtrip(Ballot::classic(7, ReplicaId(3)));
        roundtrip(Ballot::fast(9, ReplicaId(0)));
        roundtrip(pid(1, 5));
        roundtrip(Decree::<u64>::Noop);
        roundtrip(Decree::Value(pid(0, 1), 99u64));
        roundtrip(Decree::<u64>::Reconfig(Reconfig {
            epoch: 3,
            add: vec![ReplicaId(5), ReplicaId(6)],
            remove: vec![ReplicaId(0)],
        }));
        roundtrip(Decree::<u64>::Reconfig(Reconfig {
            epoch: 1,
            add: vec![],
            remove: vec![ReplicaId(4)],
        }));
    }

    #[test]
    fn causal_tags_roundtrip() {
        roundtrip(CausalTag {
            origin: 3,
            seq: 123_456,
            slot: 42,
            round: 7,
        });
        // The sentinel for slot-less kinds survives the wire.
        roundtrip(CausalTag::default());
        assert_eq!(CausalTag::default().wire_size(), 28);
    }

    #[test]
    fn records_roundtrip() {
        roundtrip(Record::<u64>::Promised(Ballot::fast(1, ReplicaId(2))));
        roundtrip(Record::Accepted {
            ballot: Ballot::classic(3, ReplicaId(1)),
            slot: Slot(17),
            decree: Decree::Value(pid(4, 4), 1234u64),
        });
    }

    #[test]
    fn record_slot_prefix_scan() {
        let rec = Record::Accepted {
            ballot: Ballot::classic(3, ReplicaId(1)),
            slot: Slot(17),
            decree: Decree::Value(pid(4, 4), 1234u64),
        };
        assert_eq!(record_slot(&rec.to_bytes()), Some(Slot(17)));
        let promised = Record::<u64>::Promised(Ballot::classic(1, ReplicaId(0)));
        assert_eq!(record_slot(&promised.to_bytes()), None);
        assert_eq!(record_slot(&[]), None);
    }

    #[test]
    fn all_message_variants_roundtrip() {
        let b = Ballot::fast(4, ReplicaId(2));
        let msgs: Vec<Msg<u64>> = vec![
            Msg::Prepare {
                ballot: b,
                from_slot: Slot(1),
                only_slot: Some(Slot(1)),
            },
            Msg::Promise {
                ballot: b,
                from_slot: Slot(0),
                only_slot: None,
                accepted: vec![AcceptedReport {
                    slot: Slot(2),
                    ballot: b,
                    decree: Decree::Value(pid(0, 9), 5),
                }],
            },
            Msg::Accept {
                ballot: b,
                slot: Slot(3),
                decree: Decree::Noop,
            },
            Msg::Any {
                ballot: b,
                from_slot: Slot(4),
            },
            Msg::FastPropose {
                pid: pid(1, 1),
                value: 8,
            },
            Msg::Propose {
                pid: pid(1, 2),
                value: 9,
            },
            Msg::Accepted {
                ballot: b,
                slot: Slot(5),
                decree: Decree::Value(pid(2, 2), 10),
            },
            Msg::Alive {
                ballot: b,
                decided_upto: Slot(6),
            },
            Msg::LearnRequest { from_slot: Slot(7) },
            Msg::LearnReply {
                entries: vec![(Slot(8), Decree::Value(pid(3, 3), 11))],
                truncated_below: Slot(2),
                decided_upto: Slot(9),
            },
        ];
        for m in msgs {
            roundtrip(m);
        }
    }

    #[test]
    fn wire_sizes_are_realistic() {
        // A fast-path proposal of a small action should be well under the
        // 1500-byte Ethernet MTU; a heartbeat a few dozen bytes.
        let m: Msg<u64> = Msg::FastPropose {
            pid: pid(0, 0),
            value: 1,
        };
        assert!(m.wire_size() < 64);
        let hb: Msg<u64> = Msg::Alive {
            ballot: Ballot::BOTTOM,
            decided_upto: Slot(0),
        };
        assert!(hb.wire_size() < 32);
    }
}
