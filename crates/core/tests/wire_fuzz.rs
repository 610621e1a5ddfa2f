//! Decode-robustness property tests: no byte sequence may panic a
//! decoder (malformed log entries and wire data must fail cleanly), and
//! on every byte sequence the two readers of a format — `decode`, which
//! builds the value, and `check`, which does not — agree on the verdict
//! and on where they stop.

mod common;

use proptest::prelude::*;

use common::assert_check_matches_decode;
use paxos::{Batch, Msg, Record};
use robuststore::Action;
use tpcw::Overlay;
use treplica::{Meta, Wire};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `Record<Batch<Action>>` is the type the auditor reads off every
    /// append.
    #[test]
    fn record_check_agrees_with_decode(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        assert_check_matches_decode::<Record<Action>>(&bytes);
        assert_check_matches_decode::<Record<Batch<Action>>>(&bytes);
    }

    #[test]
    fn msg_check_agrees_with_decode(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        assert_check_matches_decode::<Msg<Action>>(&bytes);
    }

    #[test]
    fn action_check_agrees_with_decode(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        assert_check_matches_decode::<Action>(&bytes);
    }

    #[test]
    fn overlay_check_agrees_with_decode(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        assert_check_matches_decode::<Overlay>(&bytes);
    }

    #[test]
    fn meta_check_agrees_with_decode(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        assert_check_matches_decode::<Meta>(&bytes);
    }

    /// Truncating a valid encoding at any point errors, never panics —
    /// the torn-write case for the durable log.
    #[test]
    fn torn_records_fail_cleanly(cut in 0usize..100) {
        let record: Record<Action> = Record::Accepted {
            ballot: paxos::Ballot::fast(3, paxos::ReplicaId(1)),
            slot: paxos::Slot(99),
            decree: paxos::Decree::Value(
                paxos::ProposalId { node: paxos::ReplicaId(1), epoch: 2, seq: 3 },
                Action::RefreshSession { customer: tpcw::CustomerId(5), now: 77 },
            ),
        };
        let bytes = record.to_bytes();
        let cut = cut.min(bytes.len());
        if cut < bytes.len() {
            prop_assert!(Record::<Action>::from_bytes(&bytes[..cut]).is_err());
        } else {
            prop_assert!(Record::<Action>::from_bytes(&bytes).is_ok());
        }
    }
}
