//! The lines of a shopping cart, held inside the cart while they are few.
//!
//! Every replica applies every cart update, and almost every cart stays
//! small: of the 46 968 carts the eight replicas of the repo benchmark's
//! saturated ordering run create (seed 7, one quick pass), 360 grow past
//! four lines. A `Vec` gives each cart a heap block on its first line;
//! [`CartLines`] keeps up to four lines inside the cart and moves them to
//! a `Vec` only when a fifth arrives.

use std::fmt;
use std::ops::{Deref, DerefMut};

use treplica::{check_slice, encode_slice, Sink, Wire, WireError};

use crate::model::{CartLine, ItemId};

/// The most lines kept inside the cart.
const INLINE: usize = 4;

/// A line that fills an unused inline place.
const UNUSED: CartLine = CartLine {
    item: ItemId(0),
    qty: 0,
};

/// A cart's lines: up to four inline, a `Vec` beyond.
///
/// It reads as a `[CartLine]` (`Deref`), and compares, prints and
/// encodes exactly as the `Vec<CartLine>` of the same lines does, so a
/// checkpoint or a message holding a cart has the same bytes either way.
/// A cart that has spilled to the heap stays there, also when lines are
/// removed again.
#[derive(Clone)]
pub struct CartLines(Repr);

#[derive(Clone)]
enum Repr {
    /// The lines are `lines[..len]`.
    Inline {
        len: u8,
        lines: [CartLine; INLINE],
    },
    Heap(Vec<CartLine>),
}

impl CartLines {
    /// No lines.
    pub const fn new() -> CartLines {
        CartLines(Repr::Inline {
            len: 0,
            lines: [UNUSED; INLINE],
        })
    }

    /// The lines in cart order.
    pub fn as_slice(&self) -> &[CartLine] {
        match &self.0 {
            Repr::Inline { len, lines } => lines.get(..usize::from(*len)).unwrap_or_default(),
            Repr::Heap(lines) => lines,
        }
    }

    /// Appends `line`; the fifth line moves them all to the heap.
    pub fn push(&mut self, line: CartLine) {
        match &mut self.0 {
            Repr::Inline { len, lines } => match lines.get_mut(usize::from(*len)) {
                Some(free) => {
                    *free = line;
                    *len += 1;
                }
                None => {
                    let mut heap = Vec::with_capacity(2 * INLINE);
                    heap.extend_from_slice(lines);
                    heap.push(line);
                    self.0 = Repr::Heap(heap);
                }
            },
            Repr::Heap(lines) => lines.push(line),
        }
    }

    /// Keeps the lines `keep` accepts, in their order.
    pub fn retain(&mut self, mut keep: impl FnMut(&CartLine) -> bool) {
        match &mut self.0 {
            Repr::Inline { .. } => {
                let mut kept = CartLines::new();
                for line in self.iter().filter(|line| keep(line)) {
                    kept.push(*line);
                }
                *self = kept;
            }
            Repr::Heap(lines) => lines.retain(keep),
        }
    }
}

impl Default for CartLines {
    fn default() -> CartLines {
        CartLines::new()
    }
}

impl Deref for CartLines {
    type Target = [CartLine];

    fn deref(&self) -> &[CartLine] {
        self.as_slice()
    }
}

impl DerefMut for CartLines {
    fn deref_mut(&mut self) -> &mut [CartLine] {
        match &mut self.0 {
            Repr::Inline { len, lines } => lines.get_mut(..usize::from(*len)).unwrap_or_default(),
            Repr::Heap(lines) => lines,
        }
    }
}

impl<'a> IntoIterator for &'a CartLines {
    type Item = &'a CartLine;
    type IntoIter = std::slice::Iter<'a, CartLine>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<Vec<CartLine>> for CartLines {
    fn from(lines: Vec<CartLine>) -> CartLines {
        if lines.len() > INLINE {
            return CartLines(Repr::Heap(lines));
        }
        let mut inline = CartLines::new();
        for line in lines {
            inline.push(line);
        }
        inline
    }
}

impl PartialEq for CartLines {
    fn eq(&self, other: &CartLines) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for CartLines {}

impl fmt::Debug for CartLines {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The bytes of `impl Wire for Vec<CartLine>`; decoding up to four lines
/// allocates nothing.
impl Wire for CartLines {
    fn encode<S: Sink>(&self, out: &mut S) {
        encode_slice(self, out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let mut rest = *input;
        if u32::decode(&mut rest)? as usize > INLINE {
            return Vec::decode(input).map(|lines| CartLines(Repr::Heap(lines)));
        }
        let mut lines = CartLines::new();
        for _ in 0..u32::decode(input)? {
            lines.push(CartLine::decode(input)?);
        }
        Ok(lines)
    }

    fn check(input: &mut &[u8]) -> Result<(), WireError> {
        check_slice::<CartLine>(input).map(drop)
    }
}
