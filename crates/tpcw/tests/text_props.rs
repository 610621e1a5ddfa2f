//! `Text` against `String`: the same bytes on the wire, the same
//! comparisons, hashes and printing, for texts on both sides of the
//! 22-byte inline limit.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;

use tpcw::Text;
use treplica::{Wire, WireError};

/// One-, two-, three- and four-byte chars, so that a char straddles the
/// 22-byte edge in many of the strings drawn.
const CHARS: [char; 8] = ['a', 'Z', '7', ' ', 'é', 'ß', '書', '😀'];

/// Strings of 0 to 29 chars: 0 to 116 bytes.
fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..CHARS.len(), 0..30)
        .prop_map(|picks| picks.into_iter().map(|i| CHARS[i]).collect())
}

fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

proptest! {
    #[test]
    fn text_encodes_as_string(s in arb_string()) {
        let text = Text::from(s.as_str());
        let bytes = s.to_bytes();
        prop_assert_eq!(text.to_bytes(), bytes.clone());
        prop_assert_eq!(text.wire_size(), s.wire_size());
        prop_assert_eq!(Text::from_bytes(&bytes), Ok(text.clone()));
        let mut input = bytes.as_slice();
        prop_assert_eq!(Text::check(&mut input), Ok(()));
        prop_assert!(input.is_empty());
        // Every torn prefix and every flipped bit fails or passes as the
        // `String` does, leaving the input where the `String` leaves it.
        let mut flipped = bytes.clone();
        for cut in 0..bytes.len() {
            let mut torn = &bytes[..cut];
            let mut torn_string = torn;
            let decoded = Text::decode(&mut torn).map(|t| t.to_string());
            prop_assert_eq!(decoded, String::decode(&mut torn_string));
            prop_assert_eq!(torn.len(), torn_string.len());
            flipped[cut] ^= 0x80;
            let (mut as_text, mut as_string) = (flipped.as_slice(), flipped.as_slice());
            prop_assert_eq!(Text::check(&mut as_text), String::check(&mut as_string));
            prop_assert_eq!(as_text.len(), as_string.len());
            flipped[cut] ^= 0x80;
        }
    }

    #[test]
    fn text_compares_hashes_and_prints_as_string(a in arb_string(), b in arb_string()) {
        let (ta, tb) = (Text::from(a.clone()), Text::from(b.as_str()));
        prop_assert_eq!(ta.as_str(), a.as_str());
        prop_assert_eq!(ta == tb, a == b);
        prop_assert_eq!(ta.cmp(&tb), a.cmp(&b));
        prop_assert_eq!(hash_of(&ta), hash_of(&a));
        prop_assert_eq!(format!("{ta:?}"), format!("{a:?}"));
        prop_assert_eq!(format!("{ta}"), a.clone());
        // Every way in builds the same text, and the bytes of a short
        // one lie inside the `Text` itself.
        let at = &tb as *const Text as usize;
        let inside = (at..at + std::mem::size_of::<Text>()).contains(&(tb.as_ptr() as usize));
        prop_assert_eq!(tb.as_bytes(), b.as_bytes());
        prop_assert_eq!(inside, b.len() <= 22);
        prop_assert_eq!(Text::from_fmt(format_args!("{a}{b}")), Text::from(a + &b));
    }
}

#[test]
fn text_is_the_size_of_a_string() {
    assert_eq!(std::mem::size_of::<Text>(), std::mem::size_of::<String>());
}

#[test]
fn a_text_too_short_for_its_length_prefix_is_refused() {
    let mut input: &[u8] = &[5, 0, 0, 0, b'a', b'b'];
    assert_eq!(Text::decode(&mut input), Err(WireError::UnexpectedEnd));
    let mut input: &[u8] = &[1, 0, 0, 0, 0xff];
    assert_eq!(Text::check(&mut input), Err(WireError::BadUtf8));
}
