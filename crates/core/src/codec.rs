//! [`Wire`] encodings for the consensus types: one field table each,
//! fields in *wire* order.
//!
//! The durable log stores encoded [`Record`]s, and outgoing protocol
//! messages are sized with [`Wire::wire_size`] to charge serialization
//! latency on the simulated network.

use paxos::{
    AcceptedReport, Ballot, BallotClass, Batch, CausalTag, Decree, Msg, ProposalId, Reconfig,
    Record, ReplicaId, Slot,
};

use crate::wire::{check_slice, encode_slice, Sink, Wire, WireError};
use crate::{impl_wire_enum, impl_wire_struct};

/// Hard wire-format cap on updates per batch. Protects decoders from a
/// corrupt length prefix; far above any useful `batch_max_updates`.
pub const MAX_BATCH_ITEMS: usize = 4_096;

/// The batch invariants, on the item count of a batch whose items all
/// decoded: never empty (an empty batch would burn a slot and a seek for
/// nothing) and never above [`MAX_BATCH_ITEMS`].
fn batch_bounds(len: usize) -> Result<(), WireError> {
    if len == 0 {
        return Err(WireError::Invalid("empty batch"));
    }
    if len > MAX_BATCH_ITEMS {
        return Err(WireError::Invalid("batch exceeds MAX_BATCH_ITEMS"));
    }
    Ok(())
}

/// Batch framing: a length-prefixed item vector. Decoding and checking
/// enforce [`batch_bounds`], which is why this is the one consensus
/// type without a table.
impl<A: Wire> Wire for Batch<A> {
    fn encode<S: Sink>(&self, out: &mut S) {
        encode_slice(&self.items, out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let items: Vec<(ProposalId, A)> = Vec::decode(input)?;
        batch_bounds(items.len())?;
        Ok(Batch {
            items: items.into(),
        })
    }
    fn check(input: &mut &[u8]) -> Result<(), WireError> {
        batch_bounds(check_slice::<(ProposalId, A)>(input)?)
    }
}

impl_wire_struct!(Slot { 0 });
impl_wire_struct!(ReplicaId { 0 });
impl_wire_enum!(BallotClass { 0 => Classic, 1 => Fast });
impl_wire_struct!(Ballot { round, node, class });
impl_wire_struct!(ProposalId { node, epoch, seq });
impl_wire_struct!(CausalTag {
    origin,
    seq,
    slot,
    round
});
impl_wire_struct!(Reconfig { epoch, add, remove });
impl_wire_enum!(Decree<A> {
    0 => Noop,
    1 => Value(0: pid, 1: value),
    2 => Reconfig(0: reconfig),
});
// `Accepted` records lead with the slot, not the ballot its declaration
// starts with: nothing reads that prefix alone any more, but logs written
// this way are on disk, so the layout stays (pinned in tier-1 by
// `wire_format_matches_pinned_encodings`).
impl_wire_enum!(Record<A> {
    0 => Promised(0: ballot),
    1 => Accepted { slot, ballot, decree },
});
impl_wire_struct!(AcceptedReport<A> { slot, ballot, decree });
impl_wire_enum!(Msg<A> {
    0 => Prepare { ballot, from_slot, only_slot },
    1 => Promise { ballot, from_slot, only_slot, accepted },
    2 => Accept { ballot, slot, decree },
    3 => Any { ballot, from_slot },
    4 => FastPropose { pid, value },
    5 => Propose { pid, value },
    6 => Accepted { ballot, slot, decree },
    7 => Alive { ballot, decided_upto },
    8 => LearnRequest { from_slot },
    9 => LearnReply { entries, truncated_below, decided_upto },
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::tests::roundtrip;

    fn pid(n: u32, seq: u64) -> ProposalId {
        ProposalId {
            node: ReplicaId(n),
            epoch: 2,
            seq,
        }
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
