//! The text type of the bookstore's rows, requests and actions.
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

use treplica::{Sink, Wire, WireError};

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
    /// The text is `bytes[..len]`, valid UTF-8 by construction.
    Inline {
        len: u8,
        bytes: [u8; INLINE],
    },
    Heap(Box<str>),
}

impl Text {
    /// The empty text.
    pub const fn new() -> Text {
        Text(Repr::Inline {
            len: 0,
            bytes: [0; INLINE],
        })
    }

    /// The text as a `str`.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => bytes
                .get(..usize::from(*len))
                .and_then(|b| std::str::from_utf8(b).ok())
                .unwrap_or_default(),
            Repr::Heap(text) => text,
        }
    }

    /// The text `format!` would make of `args`, with no heap block when
    /// it is short.
    pub fn from_fmt(args: fmt::Arguments<'_>) -> Text {
        if let Some(text) = args.as_str() {
            return Text::from(text);
        }
        let mut builder = Builder::default();
        // `Builder::write_str` never fails.
        let _ = fmt::write(&mut builder, args);
        builder.finish()
    }
}

/// A text being built: inline until it outgrows [`INLINE`] bytes.
#[derive(Default)]
struct Builder {
    len: usize,
    bytes: [u8; INLINE],
    heap: Option<String>,
}

impl Builder {
    fn push(&mut self, s: &str) {
        if let Some(heap) = &mut self.heap {
            heap.push_str(s);
            return;
        }
        let end = self.len.saturating_add(s.len());
        match self.bytes.get_mut(self.len..end) {
            Some(room) => {
                room.copy_from_slice(s.as_bytes());
                self.len = end;
            }
            None => {
                let mut heap = String::with_capacity(end);
                heap.push_str(self.inline());
                heap.push_str(s);
                self.heap = Some(heap);
            }
        }
    }

    fn inline(&self) -> &str {
        let bytes = self.bytes.get(..self.len).unwrap_or_default();
        std::str::from_utf8(bytes).unwrap_or_default()
    }

    fn finish(self) -> Text {
        match (self.heap, u8::try_from(self.len)) {
            (Some(heap), _) => Text::from(heap),
            (None, Ok(len)) => Text(Repr::Inline {
                len,
                bytes: self.bytes,
            }),
            (None, Err(_)) => Text::new(),
        }
    }
}

impl fmt::Write for Builder {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.push(s);
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
        let mut bytes = [0; INLINE];
        match (bytes.get_mut(..text.len()), u8::try_from(text.len())) {
            (Some(room), Ok(len)) => {
                room.copy_from_slice(text.as_bytes());
                Text(Repr::Inline { len, bytes })
            }
            _ => Text(Repr::Heap(Box::from(text))),
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
