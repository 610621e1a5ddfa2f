//! Property tests on the bookstore: overlay serialization round-trips,
//! state-machine determinism under random operation sequences, and the
//! indexed reads against the scans they replaced.

use proptest::prelude::*;

use tpcw::{
    base_population, c_uname, Bookstore, CartId, CartLine, CustomerId, ItemId, NewCustomer,
    OrderId, OrderLine, OrderLines, Overlay, Payment, PopulationParams, Text,
};
use treplica::{Wire, WireError};

const ITEMS: u32 = 120;

fn params() -> PopulationParams {
    PopulationParams {
        items: ITEMS,
        ebs: 1,
        seed: 17,
    }
}

/// 100 items a subject, so the listings overflow their 50 rows (the
/// 120 items of [`params`] never fill a page).
fn listing_params() -> PopulationParams {
    PopulationParams {
        items: 2_400,
        ebs: 1,
        seed: 18,
    }
}

/// One random bookstore operation. `Purchase(lines, customer)` fills a
/// fresh cart and buys it: an order every time, where `Buy` mostly
/// misses its cart.
#[derive(Debug, Clone)]
enum Op {
    NewCart { item: u32, qty: u32 },
    Update { cart: u32, item: u32, qty: u32 },
    Buy { cart: u32, customer: u32 },
    Admin { item: u32, cost: u64 },
    Refresh { customer: u32 },
    Register,
    Purchase(Vec<(u32, u32)>, u32),
}

fn op_strategy(items: u32, customers: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..items, 1..4u32).prop_map(|(item, qty)| Op::NewCart { item, qty }),
        (0..8u32, 0..items, 0..4u32).prop_map(|(cart, item, qty)| Op::Update { cart, item, qty }),
        (0..8u32, 0..customers).prop_map(|(cart, customer)| Op::Buy { cart, customer }),
        (0..items, 100..5000u64).prop_map(|(item, cost)| Op::Admin { item, cost }),
        (0..customers).prop_map(|customer| Op::Refresh { customer }),
    ]
}

/// Registrations and purchases among the other ops; customers up to a
/// few past the end of the initial ones, so the registered ones buy too.
fn buying_op_strategy(params: PopulationParams) -> impl Strategy<Value = Op> {
    let (items, customers) = (params.items, params.customers() + 4);
    let line = (0..items, 1..5u32);
    prop_oneof![
        3 => (proptest::collection::vec(line, 1..5), 0..customers)
            .prop_map(|(lines, customer)| Op::Purchase(lines, customer)),
        1 => (0..1u32).prop_map(|_| Op::Register),
        2 => op_strategy(items, customers),
    ]
}

fn payment() -> Payment {
    Payment {
        cc_type: "VISA".into(),
        cc_num: "4111".into(),
        cc_name: "P".into(),
        cc_expiry: 15_000,
        auth_id: "A1".into(),
        country: 1,
    }
}

fn apply(store: &mut Bookstore, op: &Op, t: u64) {
    match op {
        Op::NewCart { item, qty } => {
            let _ = store.do_cart(None, Some((ItemId(*item), *qty)), &[], ItemId(0), t);
        }
        Op::Update { cart, item, qty } => {
            let _ = store.do_cart(
                Some(CartId(*cart)),
                None,
                &[CartLine {
                    item: ItemId(*item),
                    qty: *qty,
                }],
                ItemId(1),
                t,
            );
        }
        Op::Buy { cart, customer } => {
            let _ = store.buy_confirm(CartId(*cart), CustomerId(*customer), &payment(), 1, t);
        }
        Op::Admin { item, cost } => {
            let _ = store.admin_update(ItemId(*item), *cost, "i".into(), "t".into());
        }
        Op::Refresh { customer } => {
            let _ = store.refresh_session(CustomerId(*customer), t);
        }
        Op::Register => {
            store.create_customer(&NewCustomer {
                fname: "F".into(),
                lname: "L".into(),
                phone: "5550000".into(),
                email: "f@l.example".into(),
                birthdate: 4_000,
                data: "d".into(),
                discount_bp: 100,
                now: t,
            });
        }
        Op::Purchase(lines, customer) => {
            let cart = store.create_cart(t);
            for (item, qty) in lines {
                let add = Some((ItemId(*item), *qty));
                store.do_cart(Some(cart), add, &[], ItemId(0), t).unwrap();
            }
            let _ = store.buy_confirm(cart, CustomerId(*customer), &payment(), 1, t);
        }
    }
}

/// The scans the store answered its reads with before the base
/// population was indexed, the best-seller count it built afresh for
/// every read before it kept a tally, and the copying checkpoint
/// encoder: the reference the indexed store is held to.
mod oracle {
    use std::collections::BTreeMap;

    use tpcw::{
        BasePopulation, Cart, Customer, CustomerId, ItemId, OrderId, Overlay, StoreError, SUBJECTS,
    };
    use treplica::Wire;

    fn subject_items(base: &BasePopulation, subject: u8) -> Vec<ItemId> {
        let subject = subject as usize % SUBJECTS.len();
        let of_subject = base.items.iter().filter(|i| i.subject as usize == subject);
        of_subject.map(|i| i.id).collect()
    }

    pub fn new_products(base: &BasePopulation, subject: u8) -> Vec<ItemId> {
        let mut v = subject_items(base, subject);
        v.sort_by_key(|id| std::cmp::Reverse(base.items[id.0 as usize].pub_date));
        v.truncate(50);
        v
    }

    pub fn search_by_subject(base: &BasePopulation, subject: u8) -> Vec<ItemId> {
        let mut v = subject_items(base, subject);
        v.sort_by(|a, b| {
            base.items[a.0 as usize]
                .title
                .cmp(&base.items[b.0 as usize].title)
        });
        v.truncate(50);
        v
    }

    /// A new map over the 3 333 newest orders, new ones newest first
    /// and then the base's.
    pub fn best_sellers(
        base: &BasePopulation,
        overlay: &Overlay,
        subject: u8,
    ) -> Vec<(ItemId, u64)> {
        let subject = subject as usize % SUBJECTS.len();
        let mut qty: BTreeMap<ItemId, u64> = BTreeMap::new();
        let newest_first = overlay.new_order_lines.iter().rev();
        for lines in newest_first
            .chain(base.order_lines.iter().rev())
            .take(3_333)
        {
            for l in lines {
                *qty.entry(l.item).or_default() += l.qty as u64;
            }
        }
        let mut v: Vec<(ItemId, u64)> = qty
            .into_iter()
            .filter(|(id, _)| base.items[id.0 as usize].subject as usize == subject)
            .collect();
        v.sort_by_key(|(id, q)| (std::cmp::Reverse(*q), *id));
        v.truncate(50);
        v
    }

    pub fn search_by_title(base: &BasePopulation, term: &str) -> Vec<ItemId> {
        let hits = base.items.iter().filter(|i| i.title.contains(term));
        hits.take(50).map(|i| i.id).collect()
    }

    pub fn search_by_author(base: &BasePopulation, term: &str) -> Vec<ItemId> {
        let hits = base
            .items
            .iter()
            .filter(|i| base.authors[i.author.0 as usize].lname.contains(term));
        hits.take(50).map(|i| i.id).collect()
    }

    pub fn customer_by_uname<'a>(
        base: &'a BasePopulation,
        overlay: &'a Overlay,
        uname: &str,
    ) -> Result<&'a Customer, StoreError> {
        let mut all = base.customers.iter().chain(&overlay.new_customers);
        all.find(|c| c.uname == uname)
            .ok_or(StoreError::NoSuchCustomer)
    }

    pub fn most_recent_order(
        base: &BasePopulation,
        overlay: &Overlay,
        uname: &str,
    ) -> Result<Option<OrderId>, StoreError> {
        let c: CustomerId = customer_by_uname(base, overlay, uname)?.id;
        if let Some(o) = overlay.last_order.get(&c.0) {
            return Ok(Some(OrderId(*o)));
        }
        let mut newest_first = base.orders.iter().rev();
        Ok(newest_first.find(|o| o.customer == c).map(|o| o.id))
    }

    pub fn encode_overlay(o: &Overlay) -> Vec<u8> {
        let mut buf = Vec::new();
        let carts: Vec<(u32, Cart)> = o.carts.iter().map(|(k, c)| (k, c.clone())).collect();
        carts.encode(&mut buf);
        o.next_cart.encode(&mut buf);
        o.new_customers.encode(&mut buf);
        o.new_orders.encode(&mut buf);
        o.new_order_lines.encode(&mut buf);
        o.new_cc_xacts.encode(&mut buf);
        let stock: Vec<(u32, i32)> = o.stock.iter().map(|(k, v)| (*k, *v)).collect();
        stock.encode(&mut buf);
        type ItemUpdateWire = (u32, (u64, (String, String)));
        let updates: Vec<ItemUpdateWire> = o
            .item_updates
            .iter()
            .map(|(k, (c, i, t))| (*k, (*c, (i.to_string(), t.to_string()))))
            .collect();
        updates.encode(&mut buf);
        let sessions: Vec<(u32, (u64, u64))> = o.sessions.iter().map(|(k, v)| (*k, *v)).collect();
        sessions.encode(&mut buf);
        let last: Vec<(u32, u32)> = o.last_order.iter().map(|(k, v)| (*k, *v)).collect();
        last.encode(&mut buf);
        buf
    }
}

/// Every indexed read of `store` against the oracle: all subjects (and
/// subject numbers that wrap), search terms of every shape, and user
/// names that exist, never existed, or are spelt wrongly.
fn assert_reads_match_oracle(store: &Bookstore) {
    let base = base_population(store.params());
    let overlay = store.overlay();

    for subject in (0..=26u8).chain([47, 255]) {
        assert_eq!(
            store.get_new_products(subject),
            oracle::new_products(&base, subject),
            "new products of subject {subject}"
        );
        assert_eq!(
            store.search_by_subject(subject),
            oracle::search_by_subject(&base, subject),
            "titles of subject {subject}"
        );
        assert_eq!(
            store.get_best_sellers(subject),
            oracle::best_sellers(&base, overlay, subject),
            "best sellers of subject {subject}"
        );
    }

    let title = |i: usize| base.items[i].title.as_str();
    let lname = |i: usize| base.authors[base.items[i].author.0 as usize].lname.as_str();
    // Empty; 1, 2 and 3 bytes; upper case; not ASCII (one char of two
    // bytes, and a char split after its first byte by the 2-byte gram);
    // NUL; absent.
    let mut terms: Vec<&str> = vec![
        "", "a", "q", " ", "7", "ab", "er", "e ", " 1", "42", "abc", "A", "AB", "é", "añ", "\0",
        "a\0", "zzzzqqqq",
    ];
    for i in [0, 7, base.items.len() / 2] {
        for text in [title(i), lname(i)] {
            terms.extend([text, &text[..3], &text[1..], &text[text.len() - 2..]]);
        }
    }
    for term in terms {
        assert_eq!(
            store.search_by_title(term),
            oracle::search_by_title(&base, term),
            "title search for {term:?}"
        );
        assert_eq!(
            store.search_by_author(term),
            oracle::search_by_author(&base, term),
            "author search for {term:?}"
        );
    }

    let customers = store.params().customers() + overlay.new_customers.len() as u32;
    let ids = (0..60)
        .chain([675, 676, 677]) // "UZZ", "UAAB", "UBAB"
        .chain(customers.saturating_sub(4)..customers + 2) // registered during the run, and nobody
        .chain(overlay.last_order.keys().copied());
    let mut unames: Vec<String> = ids.map(|id| c_uname(CustomerId(id)).to_string()).collect();
    // Spelt wrongly: trailing zero digits ("UAA" decodes to the id of
    // "UA"), no digits, no prefix, lower case, not ASCII, too long for
    // an id.
    let misspelt = [
        "UAA",
        "UBA",
        "U",
        "",
        "B",
        "ub",
        "UÉ",
        "U B",
        "UZZZZZZZZZZZZZZ",
    ];
    unames.extend(misspelt.map(String::from));
    for uname in &unames {
        assert_eq!(
            store.customer_by_uname(uname),
            oracle::customer_by_uname(&base, overlay, uname),
            "customer named {uname:?}"
        );
        assert_eq!(
            store.most_recent_order(uname),
            oracle::most_recent_order(&base, overlay, uname),
            "most recent order of {uname:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two replicas applying the same op sequence converge, and the
    /// overlay round-trips through the wire at every point.
    #[test]
    fn deterministic_and_serializable(ops in proptest::collection::vec(op_strategy(ITEMS, 2880), 1..40)) {
        let mut a = Bookstore::open(params());
        let mut b = Bookstore::open(params());
        for (t, op) in ops.iter().enumerate() {
            apply(&mut a, op, t as u64);
            apply(&mut b, op, t as u64);
        }
        prop_assert_eq!(&a, &b, "same ops must give identical stores");
        let encoded = a.overlay().to_bytes();
        let decoded = Overlay::from_bytes(&encoded).unwrap();
        prop_assert_eq!(&decoded, a.overlay());
        let rebuilt = Bookstore::from_parts(a.params(), decoded);
        prop_assert_eq!(&rebuilt, &a);
    }

    /// Invariants hold under any op sequence: stock never goes deeply
    /// negative (the replenishment rule kicks in), nominal size is
    /// monotone in orders, and order records stay internally consistent.
    #[test]
    fn invariants_under_random_ops(ops in proptest::collection::vec(op_strategy(ITEMS, 2880), 1..60)) {
        let mut s = Bookstore::open(params());
        let base_nominal = s.nominal_bytes();
        for (t, op) in ops.iter().enumerate() {
            apply(&mut s, op, t as u64);
        }
        for item in 0..ITEMS {
            let stock = s.stock(ItemId(item)).unwrap();
            prop_assert!(stock > -25, "stock {} for item {}", stock, item);
        }
        prop_assert!(s.nominal_bytes() >= base_nominal);
        // Every new order's lines and payment agree with the order.
        let overlay = s.overlay();
        prop_assert_eq!(overlay.new_orders.len(), overlay.new_order_lines.len());
        prop_assert_eq!(overlay.new_orders.len(), overlay.new_cc_xacts.len());
        for (i, order) in overlay.new_orders.iter().enumerate() {
            let lines = overlay.new_order_lines.get(i);
            prop_assert!(lines.is_some_and(|l| !l.is_empty()), "order without lines");
            prop_assert_eq!(overlay.new_cc_xacts[i].order, order.id);
            prop_assert_eq!(overlay.new_cc_xacts[i].amount_cents, order.total_cents);
            prop_assert!(order.total_cents >= order.subtotal_cents + order.tax_cents);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// After any session with registrations and purchases, on a
    /// catalogue whose subjects fill a page and one whose subjects do
    /// not, every indexed read equals the scan it replaced; so do the
    /// reads of a store restored from the overlay, and the checkpoint
    /// bytes equal the copying encoder's.
    #[test]
    fn indexed_reads_equal_scans(
        small in proptest::collection::vec(buying_op_strategy(params()), 1..80),
        large in proptest::collection::vec(buying_op_strategy(listing_params()), 1..80),
    ) {
        for (params, ops) in [(params(), small), (listing_params(), large)] {
            let mut store = Bookstore::open(params);
            for (t, op) in ops.iter().enumerate() {
                apply(&mut store, op, t as u64);
            }
            assert_reads_match_oracle(&store);
            assert_reads_match_oracle(&Bookstore::from_parts(params, store.overlay().clone()));
            prop_assert_eq!(store.overlay().to_bytes(), oracle::encode_overlay(store.overlay()));
        }
    }
}

/// More new orders than the best-seller window holds, with reads
/// between the purchases: the window slides out of the base population
/// entirely, so the base's items leave it, while the few items bought
/// again and again stay and are counted afresh by every read.
#[test]
fn best_sellers_follow_the_window_out_of_the_base() {
    let mut store = Bookstore::open(params());
    let base = base_population(params());
    for t in 0..3_400u64 {
        let lines = vec![
            ((t % 7 * 3) as u32, 1 + (t % 3) as u32),
            ((t % 11) as u32, 2),
        ];
        apply(&mut store, &Op::Purchase(lines, (t % 100) as u32), t);
        if t % 25 == 0 {
            let subject = (t / 25 % 24) as u8;
            assert_eq!(
                store.get_best_sellers(subject),
                oracle::best_sellers(&base, store.overlay(), subject),
                "best sellers of subject {subject} after {} new orders",
                t + 1
            );
        }
    }
    assert!(
        store.overlay().new_orders.len() > 3_333,
        "the window left the base"
    );
    assert_reads_match_oracle(&store);
}

/// A random order-lines table, as the `Vec` of each order's lines: up
/// to six orders of up to five lines, comments inline and on the heap.
fn order_tables() -> impl Strategy<Value = Vec<Vec<OrderLine>>> {
    let line = (0u32..8, 0u32..9, 1u32..5, 0u32..300, 0usize..40).prop_map(
        |(order, item, qty, discount_bp, comment)| OrderLine {
            order: OrderId(order),
            item: ItemId(item),
            qty,
            discount_bp,
            comments: Text::from("c".repeat(comment)),
        },
    );
    proptest::collection::vec(proptest::collection::vec(line, 0..6), 0..7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An `OrderLines` table reads, prints and encodes as the
    /// `Vec<Vec<OrderLine>>` of the same lines, decodes back equal, and
    /// fails to decode or check every torn prefix as the `Vec` does.
    #[test]
    fn order_lines_are_the_vec_of_each_orders_lines(orders in order_tables()) {
        let mut table = OrderLines::default();
        for lines in &orders {
            table.push(lines.iter().cloned());
        }
        prop_assert_eq!(table.len(), orders.len());
        prop_assert_eq!(table.line_count(), orders.iter().map(Vec::len).sum::<usize>());
        prop_assert!(table.iter().eq(orders.iter().map(Vec::as_slice)));
        prop_assert_eq!(table.get(orders.len()), None);
        prop_assert_eq!(format!("{table:?}"), format!("{orders:?}"));
        let bytes = orders.to_bytes();
        prop_assert_eq!(table.to_bytes(), bytes.clone());
        prop_assert_eq!(table.wire_size(), orders.wire_size());
        prop_assert_eq!(OrderLines::from_bytes(&bytes), Ok(table));
        for end in 0..bytes.len() {
            let torn = &bytes[..end];
            let want: Result<(), WireError> = Vec::<Vec<OrderLine>>::from_bytes(torn).map(drop);
            prop_assert_eq!(OrderLines::from_bytes(torn).map(drop), want.clone());
            prop_assert_eq!(OrderLines::check(&mut { torn }), want);
        }
    }
}
