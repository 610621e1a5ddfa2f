//! `CartLines` against `Vec<CartLine>`: random add, set and remove
//! sequences that cross the four-line inline edge both ways, with the
//! `Vec` and the cart update it replaced as the oracle. After every step
//! the lines, the wire bytes, the sizes, the `Debug` text and `==` agree,
//! and torn or flipped bytes decode and check as the `Vec`'s do.

use proptest::prelude::*;

use tpcw::{Cart, CartId, CartLine, CartLines, ItemId};
use treplica::Wire;

/// The cart as it was: a `Vec` of lines.
mod oracle {
    use tpcw::{CartId, CartLine, ItemId};

    /// Prints as `tpcw::Cart` did: the same name and fields.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Cart {
        pub id: CartId,
        pub time: u64,
        pub lines: Vec<CartLine>,
    }

    /// `Cart::update` over a `Vec`, as it was.
    pub fn update(lines: &mut Vec<CartLine>, item: ItemId, qty: u32) {
        match lines.iter_mut().find(|l| l.item == item) {
            Some(line) => {
                if qty == 0 {
                    lines.retain(|l| l.item != item);
                } else {
                    line.qty = qty;
                }
            }
            None => {
                if qty > 0 {
                    lines.push(CartLine { item, qty });
                }
            }
        }
    }
}

/// Updates of eight items, a third of them removals: carts of zero to
/// eight lines.
fn arb_updates() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..8u32, 0..3u32), 0..60)
}

/// Whether the lines lie inside the `CartLines` itself.
fn held_inline(lines: &CartLines) -> bool {
    let at = lines as *const CartLines as usize;
    let inside = at..at + std::mem::size_of::<CartLines>();
    inside.contains(&(lines.as_ptr() as usize))
}

/// `input` decodes and checks as a `Vec<CartLine>` does, and is left
/// where the `Vec` leaves it.
fn assert_reads_as_vec(input: &[u8]) {
    let (mut lines, mut vec) = (input, input);
    let decoded = CartLines::decode(&mut lines).map(|l| l.to_vec());
    assert_eq!(decoded, Vec::<CartLine>::decode(&mut vec));
    assert_eq!(lines.len(), vec.len());
    let (mut lines, mut vec) = (input, input);
    let checked = CartLines::check(&mut lines);
    assert_eq!(checked, Vec::<CartLine>::check(&mut vec));
    assert_eq!(lines.len(), vec.len());
}

/// Every torn prefix of `bytes`, and `bytes` with any one byte's top
/// bit flipped, read as they do for a `Vec<CartLine>`.
fn assert_damage_reads_as_vec(bytes: &[u8]) {
    let mut flipped = bytes.to_vec();
    for cut in 0..bytes.len() {
        assert_reads_as_vec(&bytes[..cut]);
        flipped[cut] ^= 0x80;
        assert_reads_as_vec(&flipped);
        flipped[cut] ^= 0x80;
    }
}

proptest! {
    #[test]
    fn cart_lines_behave_as_a_vec(updates in arb_updates()) {
        let mut cart = Cart { id: CartId(9), time: 55, lines: CartLines::new() };
        let mut want = oracle::Cart { id: CartId(9), time: 55, lines: Vec::new() };
        let mut spilled = false;
        for (item, qty) in updates {
            let (before, want_before) = (cart.lines.clone(), want.lines.clone());
            cart.update(ItemId(item), qty);
            oracle::update(&mut want.lines, ItemId(item), qty);
            spilled |= want.lines.len() > 4;

            prop_assert_eq!(cart.lines.as_slice(), want.lines.as_slice());
            prop_assert_eq!(cart.lines == before, want.lines == want_before);
            prop_assert_eq!(cart.lines.clone(), CartLines::from(want.lines.clone()));
            prop_assert_eq!(format!("{cart:?}"), format!("{want:?}"));
            prop_assert_eq!(format!("{:#?}", cart.lines), format!("{:#?}", want.lines));

            let bytes = want.lines.to_bytes();
            prop_assert_eq!(cart.lines.to_bytes(), bytes.clone());
            prop_assert_eq!(cart.lines.wire_size(), want.lines.wire_size());
            let whole = [cart.id.to_bytes(), cart.time.to_bytes(), bytes.clone()].concat();
            prop_assert_eq!(cart.to_bytes(), whole.clone());
            prop_assert_eq!(Cart::from_bytes(&whole), Ok(cart.clone()));
            let mut input = whole.as_slice();
            prop_assert_eq!(Cart::check(&mut input), Ok(()));
            prop_assert!(input.is_empty());
            assert_damage_reads_as_vec(&bytes);

            // Up to four lines lie inside the cart until a fifth arrives;
            // then they stay on the heap.
            prop_assert_eq!(held_inline(&cart.lines), !spilled);
        }
    }
}

/// Four lines, their one-byte length and the arm's tag: the shared
/// inline type makes no cart bigger.
#[test]
fn cart_lines_are_40_bytes() {
    assert_eq!(std::mem::size_of::<CartLines>(), 40);
}

#[test]
fn five_lines_spill_and_four_decode_inline() {
    let line = |item| CartLine {
        item: ItemId(item),
        qty: 1,
    };
    let four: CartLines = vec![line(1), line(2), line(3), line(4)].into();
    assert!(held_inline(&four));
    let mut five = four.clone();
    five.push(line(5));
    assert!(!held_inline(&five), "the fifth line spills");
    assert_eq!(five[..4], four[..]);
    let decoded = CartLines::from_bytes(&five.to_bytes()).expect("well-formed");
    assert_eq!((decoded == five, held_inline(&decoded)), (true, false));
    five.retain(|l| l.item != ItemId(5));
    assert_eq!(five, four, "equal lines are equal wherever they are held");
    let decoded = CartLines::from_bytes(&five.to_bytes()).expect("well-formed");
    assert_eq!((decoded == four, held_inline(&decoded)), (true, true));
}
