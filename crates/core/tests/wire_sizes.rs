//! The codec suite. A field table gives a type's `encode` and, through a
//! byte counter, its `wire_size`; `decode` and `check` are two more walks
//! over the table, and `Batch`, the primitives and the containers write
//! all three by hand. This suite holds them together on arbitrary
//! actions, `tpcw` checkpoint types, batches, log records and every kind
//! of protocol message: decoding an encoding gives the value back and
//! consumes all of it, no strict prefix of it decodes (a torn write), and
//! on the encoding, on every strict prefix of it and on every single-bit
//! flip of it `check` answers what `decode` answers and stops where
//! `decode` stops. The two readers also agree on arbitrary bytes and at
//! the batch bounds.

use proptest::prelude::*;

use paxos::{
    AcceptedReport, Ballot, Batch, Decree, Msg, ProposalId, Reconfig, Record, ReplicaId, Slot,
};
use robuststore::{Action, RobustStore};
use tpcw::{
    AuthorId, CartId, CartLine, CustomerId, Item, ItemId, NewCustomer, Overlay, Payment,
    PopulationParams, Text,
};
use treplica::{Application, Meta, Wire, WireError, MAX_BATCH_ITEMS};

/// Number of `Msg` variants; `msg_of_kind` covers `0..MSG_KINDS`.
const MSG_KINDS: usize = 10;

/// `T::check` against `T::decode` on the same bytes: the same `Result`
/// — `Ok` together, the same error otherwise — and the input left at
/// the same place, whichever it is.
fn assert_check_matches_decode<T: Wire>(bytes: &[u8]) {
    let (mut checked, mut decoded) = (bytes, bytes);
    let check = T::check(&mut checked);
    let decode = T::decode(&mut decoded).map(drop);
    assert_eq!(check, decode, "check vs decode on {bytes:?}");
    assert_eq!(
        checked.len(),
        decoded.len(),
        "bytes left by check vs decode ({check:?}) on {bytes:?}"
    );
}

fn assert_roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
    let bytes = v.to_bytes();
    assert_eq!(v.wire_size(), bytes.len() as u64, "{v:?}");
    let mut input = bytes.as_slice();
    assert_eq!(T::decode(&mut input).as_ref(), Ok(v));
    assert!(input.is_empty(), "{} bytes left over: {v:?}", input.len());
    assert_check_matches_decode::<T>(&bytes);
}

/// `check` ≡ `decode` around a valid encoding: on the encoding itself,
/// cut short at every length (a torn write, which `decode` must reject:
/// it consumes the whole encoding, so a prefix runs out) and with every
/// single bit flipped (a length, tag, UTF-8 or count gone wrong
/// somewhere).
fn assert_check_agrees_around<T: Wire>(v: &T) {
    let mut bytes = v.to_bytes();
    assert_check_matches_decode::<T>(&bytes);
    for cut in 0..bytes.len() {
        let mut torn = &bytes[..cut];
        assert!(T::decode(&mut torn).is_err(), "a {cut}-byte prefix decodes");
        assert_check_matches_decode::<T>(&bytes[..cut]);
    }
    for bit in 0..bytes.len() * 8 {
        bytes[bit / 8] ^= 1 << (bit % 8);
        assert_check_matches_decode::<T>(&bytes);
        bytes[bit / 8] ^= 1 << (bit % 8);
    }
}

/// Texts of one- to three-byte characters, so a size that counted
/// chars instead of bytes would not pass.
fn arb_text() -> impl Strategy<Value = Text> {
    const ALPHABET: [char; 6] = ['a', 'Z', '7', ' ', 'é', '書'];
    proptest::collection::vec(0usize..ALPHABET.len(), 0..24)
        .prop_map(|picks| Text::from(picks.into_iter().map(|i| ALPHABET[i]).collect::<String>()))
}

fn arb_lines() -> impl Strategy<Value = Vec<CartLine>> {
    proptest::collection::vec((0u32..100, 0u32..5), 0..4).prop_map(|lines| {
        lines
            .into_iter()
            .map(|(item, qty)| CartLine {
                item: ItemId(item),
                qty,
            })
            .collect()
    })
}

fn arb_do_cart() -> impl Strategy<Value = Action> {
    (0u32..8, 0u32..100, 0u32..4, arb_lines(), 0u64..1_000_000).prop_map(
        |(cart, item, qty, updates, now)| Action::DoCart {
            // Cart 0 means "no cart yet", quantity 0 "nothing to add".
            cart: cart.checked_sub(1).map(CartId),
            add: (qty > 0).then_some((ItemId(item), qty)),
            updates,
            default_item: ItemId(item / 2),
            now,
        },
    )
}

fn arb_register() -> impl Strategy<Value = Action> {
    (
        (arb_text(), arb_text(), arb_text()),
        (arb_text(), arb_text()),
        0u32..40_000,
        0u32..5_000,
        0u64..1_000_000,
    )
        .prop_map(
            |((fname, lname, phone), (email, data), birthdate, discount_bp, now)| {
                Action::RegisterCustomer {
                    reg: NewCustomer {
                        fname,
                        lname,
                        phone,
                        email,
                        birthdate,
                        data,
                        discount_bp,
                        now,
                    },
                }
            },
        )
}

fn arb_refresh() -> impl Strategy<Value = Action> {
    (1u32..60, 0u64..1_000_000).prop_map(|(customer, now)| Action::RefreshSession {
        customer: CustomerId(customer),
        now,
    })
}

fn arb_buy_confirm() -> impl Strategy<Value = Action> {
    (
        (0u32..8, 1u32..60),
        (arb_text(), arb_text(), arb_text(), arb_text()),
        (0u32..40_000, 0u32..92),
        any::<u8>(),
        0u64..1_000_000,
    )
        .prop_map(
            |(
                (cart, customer),
                (cc_type, cc_num, cc_name, auth_id),
                (cc_expiry, country),
                ship_type,
                now,
            )| {
                Action::BuyConfirm {
                    cart: CartId(cart),
                    customer: CustomerId(customer),
                    payment: Payment {
                        cc_type,
                        cc_num,
                        cc_name,
                        cc_expiry,
                        auth_id,
                        country,
                    },
                    ship_type,
                    now,
                }
            },
        )
}

fn arb_admin_update() -> impl Strategy<Value = Action> {
    (0u32..100, 0u64..100_000, arb_text(), arb_text()).prop_map(
        |(item, cost_cents, image, thumbnail)| Action::AdminUpdate {
            item: ItemId(item),
            cost_cents,
            image,
            thumbnail,
        },
    )
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        arb_do_cart(),
        arb_register(),
        arb_refresh(),
        arb_buy_confirm(),
        arb_admin_update(),
    ]
}

fn arb_item() -> impl Strategy<Value = Item> {
    (
        (arb_text(), arb_text(), arb_text(), arb_text()),
        (arb_text(), arb_text(), arb_text()),
        (any::<u32>(), any::<u32>(), any::<u8>(), any::<u8>()),
        (0u64..1_000_000, 0u64..1_000_000, -50i32..500),
        (0u32..100, 0u32..100, 0u32..100, 0u32..100, 0u32..100),
    )
        .prop_map(
            |(
                (title, publisher, desc, thumbnail),
                (image, isbn, dimensions),
                (id, pub_date, subject, backing),
                (srp_cents, cost_cents, stock),
                (r0, r1, r2, r3, r4),
            )| Item {
                id: ItemId(id),
                title,
                author: AuthorId(id / 3),
                pub_date,
                publisher,
                subject,
                desc,
                thumbnail,
                image,
                srp_cents,
                cost_cents,
                avail: pub_date / 2,
                stock,
                isbn,
                pages: id % 9_999,
                backing,
                dimensions,
                related: [r0, r1, r2, r3, r4].map(ItemId),
            },
        )
}

/// The overlay a bookstore ends up with after `actions` — many of which
/// fail on purpose (unknown cart ids) — and a fixed tail that leaves at
/// least one row in every table: a live cart, a new customer, an order
/// with its lines and payment, a stock change, an item update, a
/// session, a last-order pointer.
fn overlay_after(actions: &[Action]) -> Overlay {
    let mut app = RobustStore::new(PopulationParams {
        items: 100,
        ebs: 1,
        seed: 5,
    });
    for action in actions {
        app.apply(action);
    }
    let new_cart = Action::DoCart {
        cart: None,
        add: Some((ItemId(3), 2)),
        updates: Vec::new(),
        default_item: ItemId(0),
        now: 1,
    };
    let bought = CartId(app.store().overlay().next_cart);
    let tail = [
        new_cart.clone(),
        new_cart,
        Action::RegisterCustomer {
            reg: NewCustomer {
                fname: "Ada".into(),
                lname: "L".into(),
                phone: "555".into(),
                email: "a@l".into(),
                birthdate: 1,
                data: "d".into(),
                discount_bp: 10,
                now: 2,
            },
        },
        Action::BuyConfirm {
            cart: bought,
            customer: CustomerId(5),
            payment: Payment {
                cc_type: "VISA".into(),
                cc_num: "4111".into(),
                cc_name: "A L".into(),
                cc_expiry: 9,
                auth_id: "é".into(),
                country: 1,
            },
            ship_type: 1,
            now: 3,
        },
        Action::AdminUpdate {
            item: ItemId(7),
            cost_cents: 99,
            image: "i".into(),
            thumbnail: "t".into(),
        },
        Action::RefreshSession {
            customer: CustomerId(5),
            now: 4,
        },
    ];
    for action in &tail {
        app.apply(action);
    }
    app.store().overlay().clone()
}

fn arb_pid() -> impl Strategy<Value = ProposalId> {
    (0u32..8, 0u64..4, 0u64..1_000_000).prop_map(|(node, epoch, seq)| ProposalId {
        node: ReplicaId(node),
        epoch,
        seq,
    })
}

fn arb_batch() -> impl Strategy<Value = Batch<Action>> {
    proptest::collection::vec((arb_pid(), arb_action()), 1..9).prop_map(Batch::new)
}

fn arb_ballot() -> impl Strategy<Value = Ballot> {
    (0u64..1_000, 0u32..8, 0u8..2).prop_map(|(round, node, fast)| {
        if fast == 1 {
            Ballot::fast(round, ReplicaId(node))
        } else {
            Ballot::classic(round, ReplicaId(node))
        }
    })
}

fn arb_decree() -> impl Strategy<Value = Decree<Batch<Action>>> {
    let ids = || proptest::collection::vec((0u32..12).prop_map(ReplicaId), 0..3);
    prop_oneof![
        (0u8..1).prop_map(|_| Decree::Noop),
        (arb_pid(), arb_batch()).prop_map(|(pid, batch)| Decree::Value(pid, batch)),
        (1u64..9, ids(), ids()).prop_map(|(epoch, add, remove)| Decree::Reconfig(Reconfig {
            epoch,
            add,
            remove
        })),
    ]
}

/// The message of variant number `kind`, built from the given parts.
fn msg_of_kind(
    kind: usize,
    ballot: Ballot,
    slot: Slot,
    pid: ProposalId,
    decrees: Vec<Decree<Batch<Action>>>,
    batch: Batch<Action>,
) -> Msg<Batch<Action>> {
    let only_slot = (slot.0 & 1 == 0).then_some(slot);
    let first = decrees.first().cloned().unwrap_or(Decree::Noop);
    match kind {
        0 => Msg::Prepare {
            ballot,
            from_slot: slot,
            only_slot,
        },
        1 => Msg::Promise {
            ballot,
            from_slot: slot,
            only_slot,
            accepted: decrees
                .into_iter()
                .map(|decree| AcceptedReport {
                    slot,
                    ballot,
                    decree,
                })
                .collect(),
        },
        2 => Msg::Accept {
            ballot,
            slot,
            decree: first,
        },
        3 => Msg::Any {
            ballot,
            from_slot: slot,
        },
        4 => Msg::FastPropose { pid, value: batch },
        5 => Msg::Propose { pid, value: batch },
        6 => Msg::Accepted {
            ballot,
            slot,
            decree: first,
        },
        7 => Msg::Alive {
            ballot,
            decided_upto: slot,
        },
        8 => Msg::LearnRequest { from_slot: slot },
        _ => Msg::LearnReply {
            entries: decrees.into_iter().map(|d| (slot, d)).collect(),
            truncated_below: slot,
            decided_upto: Slot(slot.0.saturating_add(3)),
        },
    }
}

fn arb_msg() -> impl Strategy<Value = Msg<Batch<Action>>> {
    (
        0usize..MSG_KINDS,
        (arb_ballot(), 0u64..1_000_000, arb_pid()),
        proptest::collection::vec(arb_decree(), 0..4),
        arb_batch(),
    )
        .prop_map(|(kind, (ballot, slot, pid), decrees, batch)| {
            msg_of_kind(kind, ballot, Slot(slot), pid, decrees, batch)
        })
}

/// `msg_of_kind` reaches every `Msg::kind()`, so `arb_msg` does too.
#[test]
fn msg_strategy_covers_every_kind() {
    let pid = ProposalId {
        node: ReplicaId(1),
        epoch: 0,
        seq: 7,
    };
    let batch = Batch::single(
        pid,
        Action::RefreshSession {
            customer: CustomerId(1),
            now: 2,
        },
    );
    let decrees = vec![Decree::Value(pid, batch.clone()), Decree::Noop];
    let kinds: std::collections::BTreeSet<&str> = (0..MSG_KINDS)
        .map(|k| {
            let msg = msg_of_kind(
                k,
                Ballot::fast(3, ReplicaId(0)),
                Slot(4),
                pid,
                decrees.clone(),
                batch.clone(),
            );
            assert_roundtrip(&msg);
            assert_check_agrees_around(&msg);
            msg.kind()
        })
        .collect();
    assert_eq!(kinds.len(), MSG_KINDS, "{kinds:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn actions_roundtrip(action in arb_action()) {
        assert_roundtrip(&action);
    }

    #[test]
    fn items_roundtrip(item in arb_item()) {
        assert_roundtrip(&item);
    }

    #[test]
    fn batches_roundtrip(batch in arb_batch()) {
        assert_roundtrip(&batch);
    }

    /// Log records carry the same decrees as messages in another field
    /// order (slot first).
    #[test]
    fn msgs_and_records_roundtrip(
        msg in arb_msg(),
        ballot in arb_ballot(),
        decree in arb_decree(),
    ) {
        assert_roundtrip(&msg);
        assert_roundtrip(&Record::Accepted { ballot, slot: Slot(9), decree });
        assert_roundtrip(&Record::<Batch<Action>>::Promised(ballot));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// No byte soup may panic a decoder (a torn log tail, corrupt wire
    /// data), and `check` reads every soup as `decode` does. The records
    /// are what the auditor checks on every append.
    #[test]
    fn check_agrees_with_decode_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        assert_check_matches_decode::<Record<Action>>(&bytes);
        assert_check_matches_decode::<Record<Batch<Action>>>(&bytes);
        assert_check_matches_decode::<Msg<Action>>(&bytes);
        assert_check_matches_decode::<Action>(&bytes);
        assert_check_matches_decode::<Overlay>(&bytes);
        assert_check_matches_decode::<Meta>(&bytes);
        assert_check_matches_decode::<Batch<Action>>(&bytes);
    }
}

/// `n` one-action items: the framing of a batch, bounds unchecked.
fn batch_items(n: usize) -> Vec<(ProposalId, Action)> {
    (0..n as u64)
        .map(|seq| {
            let pid = ProposalId {
                node: ReplicaId(1),
                epoch: 0,
                seq,
            };
            let customer = CustomerId(seq as u32);
            (pid, Action::RefreshSession { customer, now: seq })
        })
        .collect()
}

#[test]
fn empty_batch_rejected_on_decode() {
    // An empty batch cannot be constructed (`Batch::new` panics), so
    // encode its framing by hand: a zero-length item vector.
    let bytes = batch_items(0).to_bytes();
    match Batch::<Action>::from_bytes(&bytes) {
        Err(WireError::Invalid(reason)) => assert!(reason.contains("empty")),
        other => panic!("empty batch must be rejected, got {other:?}"),
    }
    assert_check_matches_decode::<Batch<Action>>(&bytes);
}

#[test]
fn oversized_batch_rejected_on_decode() {
    let bytes = batch_items(MAX_BATCH_ITEMS + 1).to_bytes();
    match Batch::<Action>::from_bytes(&bytes) {
        Err(WireError::Invalid(reason)) => assert!(reason.contains("MAX_BATCH_ITEMS")),
        other => panic!("oversized batch must be rejected, got {other:?}"),
    }
    assert_check_matches_decode::<Batch<Action>>(&bytes);
}

#[test]
fn max_size_batch_round_trips() {
    let batch = Batch::new(batch_items(MAX_BATCH_ITEMS));
    let bytes = batch.to_bytes();
    let decoded = Batch::<Action>::from_bytes(&bytes).expect("max-size batch decodes");
    assert_eq!(decoded.len(), MAX_BATCH_ITEMS);
    assert_eq!(decoded, batch);
    assert_eq!(Batch::<Action>::check(&mut bytes.as_slice()), Ok(()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn overlays_roundtrip(
        actions in proptest::collection::vec(arb_action(), 0..40),
    ) {
        let overlay = overlay_after(&actions);
        prop_assert!(!overlay.carts.is_empty() && !overlay.new_orders.is_empty());
        prop_assert!(!overlay.new_customers.is_empty() && !overlay.stock.is_empty());
        prop_assert!(!overlay.item_updates.is_empty() && !overlay.sessions.is_empty());
        assert_roundtrip(&overlay);
    }

    /// Nine readings per byte of the encoding, so fewer cases than the
    /// round trips above. The record is what the auditor checks on every
    /// append.
    #[test]
    fn check_agrees_with_decode_around_encodings(
        action in arb_action(),
        item in arb_item(),
        batch in arb_batch(),
        msg in arb_msg(),
        ballot in arb_ballot(),
        decree in arb_decree(),
        actions in proptest::collection::vec(arb_action(), 0..6),
    ) {
        assert_check_agrees_around(&action);
        assert_check_agrees_around(&item);
        assert_check_agrees_around(&batch);
        assert_check_agrees_around(&msg);
        assert_check_agrees_around(&Record::Accepted { ballot, slot: Slot(9), decree });
        assert_check_agrees_around(&Record::<Batch<Action>>::Promised(ballot));
        assert_check_agrees_around(&overlay_after(&actions));
    }
}
