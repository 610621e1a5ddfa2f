//! The text type of the bookstore's rows, requests and actions, and
//! the one writer every formatted or generated text is built with.
//!
//! The store keeps the whole population in memory (paper §4), and most
//! of its texts are short: at 50 EBs 91 % of its 3.4 M texts are at most
//! 22 bytes. A `String` gives each one a heap block, whose allocator
//! overhead outweighs the text. [`Text`] keeps a text of up to 22 bytes
//! inside its own 24 bytes — the size of a `String` — and only a longer
//! one on the heap. Texts are never edited in place, so there is no
//! capacity to keep.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

use rand::rngs::StdRng;
use rand::Rng;
use treplica::{Sink, Wire, WireError};

use crate::inline::Inline;

/// The longest text kept inline, in bytes.
const INLINE: usize = 22;

/// An immutable UTF-8 text: inline up to 22 bytes, a `Box<str>` beyond.
///
/// It reads as a `str` (`Deref`), and compares, hashes, prints and
/// encodes exactly as the `String` of the same text does, so a field
/// can change from one to the other without moving a byte of a
/// checkpoint or a message.
///
/// ```
/// use tpcw::Text;
/// let short = Text::from("img/thumb/42.gif");
/// assert_eq!(short, "img/thumb/42.gif");
/// assert_eq!(short.len(), 16);
/// assert_eq!(std::mem::size_of::<Text>(), std::mem::size_of::<String>());
/// ```
#[derive(Clone)]
pub struct Text(Repr);

#[derive(Clone)]
enum Repr {
    /// Valid UTF-8 by construction.
    Inline(Inline<u8, INLINE>),
    Heap(Box<str>),
}

impl Text {
    /// The empty text.
    pub fn new() -> Text {
        Text(Repr::Inline(Inline::default()))
    }

    /// The text as a `str`.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline(bytes) => std::str::from_utf8(bytes).unwrap_or_default(),
            Repr::Heap(text) => text,
        }
    }

    /// The text `format!` would make of `args`, with no heap block when
    /// it is short.
    pub fn from_fmt(args: fmt::Arguments<'_>) -> Text {
        let mut writer = TextWriter::<INLINE>::default();
        // `TextWriter::write_str` never fails.
        let _ = fmt::write(&mut writer, args);
        writer.text()
    }
}

/// The characters of a random text, and how many.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Chars {
    /// Letters `a`–`z`, as many as a draw from `min..=max`.
    Letters(u8, u8),
    /// This many digits `0`–`9`.
    Digits(u8),
}

/// A text being written: on the stack while it fits in `N` bytes, moved
/// to the heap when it outgrows them. No byte is ever dropped.
#[derive(Default)]
pub(crate) struct TextWriter<const N: usize> {
    stack: Inline<u8, N>,
    heap: Option<Vec<u8>>,
}

impl<const N: usize> TextWriter<N> {
    /// `count` more bytes at the end of the text, to be written.
    #[inline]
    fn grow(&mut self, count: usize) -> &mut [u8] {
        if self.heap.is_none() && count <= N - self.stack.len() {
            return self.stack.grow(count).unwrap_or_default();
        }
        self.spill(count)
    }

    /// `count` more bytes on the heap, where the text stays once moved.
    #[cold]
    fn spill(&mut self, count: usize) -> &mut [u8] {
        let heap = self.heap.get_or_insert_with(|| self.stack.to_vec());
        let start = heap.len();
        heap.resize(start + count, 0);
        heap.get_mut(start..).unwrap_or_default()
    }

    /// Appends `bytes`; the whole text must end up UTF-8.
    pub(crate) fn push(&mut self, bytes: &[u8]) -> &mut Self {
        self.grow(bytes.len()).copy_from_slice(bytes);
        self
    }

    /// Appends a draw of `chars`: its length first (for letters), then
    /// each byte in turn, so a given `rng` always yields the same text.
    /// Inlined, so that a call site's constant `chars` folds in.
    #[inline]
    pub(crate) fn draw(&mut self, rng: &mut StdRng, chars: Chars) -> &mut Self {
        match chars {
            Chars::Letters(min, max) => {
                let len = rng.gen_range(min..=max);
                self.fill::<26>(rng, b'a', len)
            }
            Chars::Digits(len) => self.fill::<10>(rng, b'0', len),
        }
    }

    /// Appends `len` bytes drawn from `first..first + SPAN`. There is
    /// one copy per alphabet, so each draw divides by a constant.
    fn fill<const SPAN: u8>(&mut self, rng: &mut StdRng, first: u8, len: u8) -> &mut Self {
        for byte in self.grow(usize::from(len)) {
            *byte = first + rng.gen_range(0..SPAN);
        }
        self
    }

    /// The text written so far.
    #[inline]
    pub(crate) fn text(&self) -> Text {
        let bytes = self.heap.as_deref().unwrap_or(&self.stack);
        Text::from(std::str::from_utf8(bytes).unwrap_or_default())
    }
}

impl<const N: usize> fmt::Write for TextWriter<N> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.push(s.as_bytes());
        Ok(())
    }
}

impl Default for Text {
    fn default() -> Text {
        Text::new()
    }
}

impl Deref for Text {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Text {
    fn from(text: &str) -> Text {
        let mut bytes = Inline::default();
        match bytes.grow(text.len()) {
            Some(room) => {
                room.copy_from_slice(text.as_bytes());
                Text(Repr::Inline(bytes))
            }
            None => Text(Repr::Heap(Box::from(text))),
        }
    }
}

impl From<String> for Text {
    fn from(text: String) -> Text {
        if text.len() <= INLINE {
            Text::from(text.as_str())
        } else {
            Text(Repr::Heap(text.into_boxed_str()))
        }
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Text) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Text {}

impl PartialEq<&str> for Text {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Text) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    fn cmp(&self, other: &Text) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Text {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

/// The front of `input` as the `str` a `String` field encodes: a `u32`
/// length and that many UTF-8 bytes.
fn split_text<'a>(input: &mut &'a [u8]) -> Result<&'a str, WireError> {
    let len = u32::decode(input)? as usize;
    let (text, rest) = input
        .split_at_checked(len)
        .ok_or(WireError::UnexpectedEnd)?;
    *input = rest;
    std::str::from_utf8(text).map_err(|_| WireError::BadUtf8)
}

/// The bytes of `impl Wire for String`; decoding a short text allocates
/// nothing.
impl Wire for Text {
    fn encode<S: Sink>(&self, out: &mut S) {
        (self.len() as u32).encode(out);
        out.put(self.as_bytes());
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        split_text(input).map(Text::from)
    }

    fn check(input: &mut &[u8]) -> Result<(), WireError> {
        split_text(input).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;

    use super::*;
    use crate::population::rand_name;

    #[test]
    fn a_text_longer_than_the_writers_stack_keeps_every_byte() {
        let longest = Chars::Letters(u8::MAX, u8::MAX);
        let name = rand_name(&mut StdRng::seed_from_u64(7), longest, longest);
        let (first, last) = name.split_once(' ').expect("two names");
        for part in [first, last] {
            assert_eq!(part.len(), 255);
            assert!(part.bytes().all(|b| b.is_ascii_lowercase()), "{part}");
        }
    }
}
