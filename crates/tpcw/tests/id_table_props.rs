//! `IdTable` against `BTreeMap<u32, V>`: random inserts, removes and
//! reads over a small id range (so ids repeat, the highest row comes and
//! goes, and the table empties), with the map as the oracle. After every
//! step the rows, the wire bytes, the `Debug` text and a round trip
//! agree; the map's bytes with repeated and unordered ids make the table
//! the map's decode makes, and an id at or past the end is refused. The
//! overlay bounds its carts' ids by `next_cart`, however sparse they are.

use std::collections::BTreeMap;

use proptest::prelude::*;

use tpcw::{Bookstore, Cart, CartId, CartLines, IdTable, Overlay, PopulationParams};
use treplica::{Wire, WireError};

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, i32),
    Remove(u32),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..40u32, any::<u32>()).prop_map(|(id, v)| Op::Insert(id, v as i32)),
        2 => (0..44u32).prop_map(Op::Remove),
    ]
}

fn bytes_of(table: &IdTable<i32>) -> Vec<u8> {
    let mut bytes = Vec::new();
    table.encode(&mut bytes);
    bytes
}

/// The table the rows in `bytes` make, with ids ending at `end`.
fn table_from(bytes: &[u8], end: u32) -> Result<IdTable<i32>, WireError> {
    IdTable::from_rows(Vec::from_bytes(bytes)?, end)
}

fn assert_same(table: &IdTable<i32>, map: &BTreeMap<u32, i32>) {
    assert_eq!(table.len(), map.len());
    assert_eq!(table.is_empty(), map.is_empty());
    for id in 0..48 {
        assert_eq!(table.get(id), map.get(&id), "row {id}");
        assert_eq!(table.contains_key(id), map.contains_key(&id));
    }
    let rows: Vec<(u32, i32)> = table.iter().map(|(id, v)| (id, *v)).collect();
    let want: Vec<(u32, i32)> = map.iter().map(|(id, v)| (*id, *v)).collect();
    assert_eq!(rows, want);
    assert!(table.values().eq(map.values()));
    assert_eq!(format!("{table:?}"), format!("{map:?}"));
    let bytes = bytes_of(table);
    assert_eq!(bytes, map.to_bytes(), "the map's bytes");
    let highest = map.keys().next_back().copied();
    assert_eq!(
        IdTable::<i32>::check_rows(&mut bytes.as_slice()),
        Ok(highest)
    );
    assert_eq!(table_from(&bytes, 48).as_ref(), Ok(table), "round trip");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn id_table_answers_as_a_map(ops in proptest::collection::vec(op(), 1..60)) {
        let mut table = IdTable::new();
        let mut map = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Insert(id, v) => {
                    prop_assert_eq!(table.insert(id, v), map.insert(id, v));
                }
                Op::Remove(id) => {
                    prop_assert_eq!(table.remove(id), map.remove(&id));
                }
            }
            if let Some(v) = table.get_mut(3) {
                *v = v.wrapping_add(1);
                if let Some(w) = map.get_mut(&3) {
                    *w = w.wrapping_add(1);
                }
            }
            assert_same(&table, &map);
        }
    }

    /// The wire form of a map, written by hand so ids may repeat and come
    /// in any order: the map's decode keeps the last row of an id, and so
    /// does the table's. Walking the rows answers as the `Vec`'s check
    /// does on every cut of them.
    #[test]
    fn rows_make_what_the_map_makes(
        rows in proptest::collection::vec((0..30u32, any::<u32>()), 0..20),
    ) {
        let rows: Vec<(u32, i32)> = rows.into_iter().map(|(id, v)| (id, v as i32)).collect();
        let bytes = rows.to_bytes();
        let map = BTreeMap::<u32, i32>::from_bytes(&bytes).expect("a map decodes");
        let table = table_from(&bytes, 30).expect("a table decodes");
        assert_same(&table, &map);
        for cut in 0..bytes.len() {
            let torn = bytes.get(..cut).unwrap_or_default();
            let want = Vec::<(u32, i32)>::check(&mut &torn[..]);
            prop_assert_eq!(IdTable::<i32>::check_rows(&mut &torn[..]).map(drop), want);
        }
    }
}

#[test]
fn rows_at_or_past_the_end_are_refused() {
    let refused = Err(WireError::Invalid("id table row at or past its end"));
    let rows = [(7u32, 1i32), (70_000, 2)].to_vec().to_bytes();
    assert_eq!(table_from(&rows, 70_000).map(drop), refused.clone());
    assert_eq!(IdTable::<i32>::check_end(Some(70_000), 70_000), refused);
    let table = table_from(&rows, 70_001).expect("below the end");
    assert_eq!(table.len(), 2);
    assert_eq!(IdTable::<i32>::check_end(Some(70_000), 70_001), Ok(()));
    assert_eq!(IdTable::<i32>::check_end(None, 0), Ok(()));
}

fn cart(id: u32) -> Cart {
    Cart {
        id: CartId(id),
        time: 5,
        lines: CartLines::new(),
    }
}

/// A store whose one live cart has the id `id`, of `id + 1` created.
fn overlay_with_last_cart(id: u32) -> Overlay {
    let mut overlay = Overlay::default();
    overlay.carts.insert(id, cart(id));
    overlay.next_cart = id + 1;
    overlay
}

/// One live cart far past 65 536 others that were bought: the table is
/// as sparse as it gets, and it round-trips as the store's state, the
/// checkpoint a replica restores from.
#[test]
fn a_sparse_cart_table_round_trips() {
    let overlay = overlay_with_last_cart(70_000);
    let bytes = overlay.to_bytes();
    assert_eq!(Overlay::check(&mut bytes.as_slice()), Ok(()));
    assert_eq!(Overlay::from_bytes(&bytes).as_ref(), Ok(&overlay));
    let params = PopulationParams {
        items: 150,
        ebs: 1,
        seed: 3,
    };
    let store = Bookstore::from_parts(params, Overlay::from_bytes(&bytes).unwrap());
    assert_eq!(store.cart(CartId(70_000)), Ok(&cart(70_000)));
}

/// A cart at or past `next_cart` is none the store made: decode and
/// check refuse it alike, and leave no table as wide as its id.
#[test]
fn a_cart_at_or_past_next_cart_is_refused() {
    let refused = Err(WireError::Invalid("id table row at or past its end"));
    for next_cart in [0, 69_999, 70_000] {
        let mut overlay = overlay_with_last_cart(70_000);
        overlay.next_cart = next_cart;
        let bytes = overlay.to_bytes();
        assert_eq!(Overlay::from_bytes(&bytes).map(drop), refused.clone());
        assert_eq!(Overlay::check(&mut bytes.as_slice()), refused.clone());
    }
}
