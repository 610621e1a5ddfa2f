//! The lines of a shopping cart, held inside the cart while they are
//! few. Every replica applies every cart update, and almost every cart
//! stays at four lines or fewer (DESIGN.md §2.4).

use std::fmt;
use std::ops::{Deref, DerefMut};

use treplica::{check_slice, encode_slice, Sink, Wire, WireError};

use crate::inline::Inline;
use crate::model::CartLine;

/// The most lines kept inside the cart.
const INLINE: usize = 4;

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
    Inline(Inline<CartLine, INLINE>),
    Heap(Vec<CartLine>),
}

impl CartLines {
    /// No lines.
    pub fn new() -> CartLines {
        CartLines(Repr::Inline(Inline::default()))
    }

    /// The lines in cart order.
    pub fn as_slice(&self) -> &[CartLine] {
        match &self.0 {
            Repr::Inline(lines) => lines,
            Repr::Heap(lines) => lines,
        }
    }

    /// Appends `line`; the fifth line moves them all to the heap.
    pub fn push(&mut self, line: CartLine) {
        match &mut self.0 {
            Repr::Inline(lines) => {
                if let Err(line) = lines.push(line) {
                    let mut heap = Vec::with_capacity(2 * INLINE);
                    heap.extend_from_slice(lines);
                    heap.push(line);
                    self.0 = Repr::Heap(heap);
                }
            }
            Repr::Heap(lines) => lines.push(line),
        }
    }

    /// Keeps the lines `keep` accepts, in their order.
    pub fn retain(&mut self, keep: impl FnMut(&CartLine) -> bool) {
        match &mut self.0 {
            Repr::Inline(lines) => lines.retain(keep),
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
            Repr::Inline(lines) => lines,
            Repr::Heap(lines) => lines,
        }
    }
}

impl From<Vec<CartLine>> for CartLines {
    fn from(lines: Vec<CartLine>) -> CartLines {
        match lines.len() {
            0..=INLINE => CartLines(Repr::Inline(lines.into_iter().collect())),
            _ => CartLines(Repr::Heap(lines)),
        }
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
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

/// The bytes of `impl Wire for Vec<CartLine>`; decoding up to four lines
/// allocates nothing.
impl Wire for CartLines {
    fn encode<S: Sink>(&self, out: &mut S) {
        encode_slice(self, out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u32::decode(&mut { *input })? as usize {
            0..=INLINE => Inline::decode(input).map(|lines| CartLines(Repr::Inline(lines))),
            _ => Vec::decode(input).map(|lines| CartLines(Repr::Heap(lines))),
        }
    }

    fn check(input: &mut &[u8]) -> Result<(), WireError> {
        check_slice::<CartLine>(input).map(drop)
    }
}
