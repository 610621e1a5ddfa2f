//! Group-commit batch framing: round-trip, invariant-rejection and
//! determinism properties for the `Batch<V>` wire format. The two bounds
//! are held by `decode` and by `check`, which builds nothing.

mod common;

use proptest::prelude::*;

use common::assert_check_matches_decode;
use paxos::{Batch, ProposalId, ReplicaId};
use robuststore::Action;
use tpcw::CustomerId;
use treplica::{Wire, WireError, MAX_BATCH_ITEMS};

fn pid(node: u32, seq: u64) -> ProposalId {
    ProposalId {
        node: ReplicaId(node),
        epoch: 0,
        seq,
    }
}

fn action(seq: u64) -> Action {
    Action::RefreshSession {
        customer: CustomerId(seq as u32),
        now: seq,
    }
}

#[test]
fn empty_batch_rejected_on_decode() {
    // An empty batch cannot be constructed (`Batch::new` panics), so
    // encode its framing by hand: a zero-length item vector.
    let bytes = Vec::<(ProposalId, Action)>::new().to_bytes();
    match Batch::<Action>::from_bytes(&bytes) {
        Err(WireError::Invalid(reason)) => assert!(reason.contains("empty")),
        other => panic!("empty batch must be rejected, got {other:?}"),
    }
    assert_check_matches_decode::<Batch<Action>>(&bytes);
}

#[test]
fn oversized_batch_rejected_on_decode() {
    let items: Vec<(ProposalId, Action)> = (0..=MAX_BATCH_ITEMS as u64)
        .map(|s| (pid(0, s), action(s)))
        .collect();
    assert_eq!(items.len(), MAX_BATCH_ITEMS + 1);
    let bytes = items.to_bytes();
    match Batch::<Action>::from_bytes(&bytes) {
        Err(WireError::Invalid(reason)) => assert!(reason.contains("MAX_BATCH_ITEMS")),
        other => panic!("oversized batch must be rejected, got {other:?}"),
    }
    assert_check_matches_decode::<Batch<Action>>(&bytes);
}

#[test]
fn max_size_batch_round_trips() {
    let items: Vec<(ProposalId, Action)> = (0..MAX_BATCH_ITEMS as u64)
        .map(|s| (pid(1, s), action(s)))
        .collect();
    let batch = Batch::new(items);
    let bytes = batch.to_bytes();
    let decoded = Batch::<Action>::from_bytes(&bytes).expect("max-size batch decodes");
    assert_eq!(decoded.len(), MAX_BATCH_ITEMS);
    assert_eq!(decoded, batch);
    assert_eq!(Batch::<Action>::check(&mut bytes.as_slice()), Ok(()));
}

#[test]
fn single_item_batch_round_trips() {
    let batch = Batch::single(pid(3, 7), action(7));
    let decoded = Batch::<Action>::from_bytes(&batch.to_bytes()).expect("decodes");
    assert_eq!(decoded, batch);
}

fn arb_batch() -> impl Strategy<Value = Batch<Action>> {
    proptest::collection::vec((0u32..8, 0u64..1_000_000), 1..64).prop_map(|raw| {
        Batch::new(
            raw.into_iter()
                .map(|(node, seq)| (pid(node, seq), action(seq)))
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every well-formed batch survives a round trip with item order
    /// intact (the total order inside a slot is the item order).
    #[test]
    fn batch_round_trip_preserves_order(batch in arb_batch()) {
        let decoded = Batch::<Action>::from_bytes(&batch.to_bytes()).unwrap();
        prop_assert_eq!(decoded, batch);
    }

    /// Encoding is a pure function of the batch — re-encoding the same
    /// or a decoded copy is bit-identical, whatever seed generated it
    /// (replicas must produce identical log records for identical
    /// decrees).
    #[test]
    fn batch_encoding_bit_identical(batch in arb_batch()) {
        let a = batch.to_bytes();
        let b = batch.to_bytes();
        prop_assert_eq!(&a, &b);
        let decoded = Batch::<Action>::from_bytes(&a).unwrap();
        prop_assert_eq!(decoded.to_bytes(), a);
    }

    /// No byte soup may panic the batch decoder (torn log tails, corrupt
    /// wire data), and the walk that builds nothing reads it the same.
    #[test]
    fn batch_check_agrees_with_decode(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        assert_check_matches_decode::<Batch<Action>>(&bytes);
    }

    /// Truncating a valid batch encoding at any point errors cleanly.
    #[test]
    fn torn_batch_fails_cleanly(cut in 0usize..200) {
        let batch = Batch::new(vec![
            (pid(0, 0), action(0)),
            (pid(1, 1), action(1)),
            (pid(2, 2), action(2)),
        ]);
        let bytes = batch.to_bytes();
        let cut = cut.min(bytes.len());
        if cut < bytes.len() {
            prop_assert!(Batch::<Action>::from_bytes(&bytes[..cut]).is_err());
        } else {
            prop_assert!(Batch::<Action>::from_bytes(&bytes).is_ok());
        }
    }
}
