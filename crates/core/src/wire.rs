//! Compact binary encoding for durable records, checkpoints, and wire
//! size accounting.
//!
//! Treplica persists acceptor records and application checkpoints and
//! must survive a crash/replay cycle, so encodings round-trip exactly.
//! The same encoding sizes every network message, driving the
//! serialization-latency term of the simulated 1 Gbps links.
//!
//! The format is little-endian, length-prefixed, non-self-describing
//! (schema lives in the types). [`impl_wire_struct!`] and
//! [`impl_wire_enum!`] remove the per-type boilerplate.

use std::fmt;

/// Decoding error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    UnexpectedEnd,
    /// An enum discriminant byte was out of range.
    BadTag(u8),
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// The bytes decoded but violate a structural invariant of the type
    /// (e.g. an empty or oversized batch).
    Invalid(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEnd => write!(f, "unexpected end of input"),
            WireError::BadTag(t) => write!(f, "invalid enum tag {t}"),
            WireError::BadUtf8 => write!(f, "invalid utf-8 in string"),
            WireError::Invalid(what) => write!(f, "structural invariant violated: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Types with a binary encoding that round-trips exactly.
pub trait Wire: Sized {
    /// Appends this value's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decodes a value from the front of `input`, advancing it.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the input is truncated or malformed.
    fn decode(input: &mut &[u8]) -> Result<Self, WireError>;

    /// Convenience: encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Convenience: decode from a complete buffer (trailing bytes are
    /// permitted and ignored).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the buffer is truncated or malformed.
    fn from_bytes(mut input: &[u8]) -> Result<Self, WireError> {
        Self::decode(&mut input)
    }

    /// Encoded size in bytes: exactly what [`Wire::encode`] appends.
    ///
    /// There is no default body: every type computes its size from its
    /// fields' sizes and never encodes to measure. The middleware sizes
    /// each outgoing message with this, so an encoding here would be
    /// paid once per `Send`.
    fn wire_size(&self) -> u64;
}

/// Reusable encode buffer for hot wire paths.
///
/// `Wire::to_bytes` grows a fresh `Vec` from zero capacity on every
/// call, which on the middleware's per-message persist path means a
/// chain of reallocations per record. A scratch buffer amortizes that:
/// the working buffer keeps its high-water capacity across calls, and
/// the caller receives one exact-sized allocation (`to_vec` of the
/// filled prefix) instead of a growth sequence.
#[derive(Debug, Default)]
pub struct EncodeScratch {
    buf: Vec<u8>,
}

impl EncodeScratch {
    /// A scratch with no capacity yet; it grows to the largest value
    /// encoded through it and stays there.
    pub fn new() -> Self {
        EncodeScratch::default()
    }

    /// Encodes `value` through the reused buffer, returning an
    /// exact-sized copy. Byte-for-byte identical to `value.to_bytes()`.
    pub fn encode<T: Wire>(&mut self, value: &T) -> Vec<u8> {
        self.buf.clear();
        value.encode(&mut self.buf);
        self.buf.as_slice().to_vec()
    }

    /// Current capacity of the reused working buffer.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if input.len() < n {
        return Err(WireError::UnexpectedEnd);
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

macro_rules! impl_wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
                let bytes = take(input, std::mem::size_of::<$t>())?;
                // `take` returns exactly the requested length, so the
                // conversion cannot fail — but decode paths stay
                // panic-free, so route the impossible case as an error.
                let bytes = bytes.try_into().map_err(|_| WireError::UnexpectedEnd)?;
                Ok(<$t>::from_le_bytes(bytes))
            }
            fn wire_size(&self) -> u64 {
                std::mem::size_of::<$t>() as u64
            }
        }
    )*};
}

impl_wire_int!(u8, u16, u32, u64, i32, i64);

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }
    fn wire_size(&self) -> u64 {
        1
    }
}

impl Wire for f64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let bytes = take(input, 8)?;
        let bytes = bytes.try_into().map_err(|_| WireError::UnexpectedEnd)?;
        Ok(f64::from_le_bytes(bytes))
    }
    fn wire_size(&self) -> u64 {
        8
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = u32::decode(input)? as usize;
        let bytes = take(input, len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }
    fn wire_size(&self) -> u64 {
        4 + self.len() as u64
    }
}

/// Encodes `items` as a `u32` length prefix and the items in order:
/// the framing of `Vec<T>` and of every other sequence.
pub(crate) fn encode_slice<T: Wire>(items: &[T], buf: &mut Vec<u8>) {
    (items.len() as u32).encode(buf);
    for item in items {
        item.encode(buf);
    }
}

/// Bytes [`encode_slice`] writes for `items`.
pub(crate) fn slice_wire_size<T: Wire>(items: &[T]) -> u64 {
    4 + items.iter().map(Wire::wire_size).sum::<u64>()
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_slice(self, buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = u32::decode(input)? as usize;
        let mut out = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            out.push(T::decode(input)?);
        }
        Ok(out)
    }
    fn wire_size(&self) -> u64 {
        slice_wire_size(self)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
    fn wire_size(&self) -> u64 {
        1 + self.as_ref().map(Wire::wire_size).unwrap_or(0)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::decode(input)?, B::decode(input)?))
    }
    fn wire_size(&self) -> u64 {
        self.0.wire_size() + self.1.wire_size()
    }
}

/// Implements [`Wire`] for a struct by listing its fields in order.
///
/// ```
/// use treplica::{impl_wire_struct, Wire};
/// #[derive(Debug, PartialEq)]
/// struct Point { x: u32, y: u32 }
/// impl_wire_struct!(Point { x, y });
/// let p = Point { x: 1, y: 2 };
/// assert_eq!(Point::from_bytes(&p.to_bytes()).unwrap(), p);
/// ```
#[macro_export]
macro_rules! impl_wire_struct {
    ($name:ident { $($field:ident),* $(,)? }) => {
        impl $crate::Wire for $name {
            fn encode(&self, buf: &mut Vec<u8>) {
                $( $crate::Wire::encode(&self.$field, buf); )*
            }
            fn decode(input: &mut &[u8]) -> Result<Self, $crate::WireError> {
                Ok($name {
                    $( $field: $crate::Wire::decode(input)?, )*
                })
            }
            fn wire_size(&self) -> u64 {
                0 $( + $crate::Wire::wire_size(&self.$field) )*
            }
        }
    };
}

/// Implements [`Wire`] for an enum of struct-like or unit variants.
///
/// ```
/// use treplica::{impl_wire_enum, Wire};
/// #[derive(Debug, PartialEq)]
/// enum Cmd { Ping, Set { key: u32, val: u64 } }
/// impl_wire_enum!(Cmd { 0 => Ping, 1 => Set { key, val } });
/// let c = Cmd::Set { key: 7, val: 9 };
/// assert_eq!(Cmd::from_bytes(&c.to_bytes()).unwrap(), c);
/// ```
#[macro_export]
macro_rules! impl_wire_enum {
    ($name:ident { $($tag:literal => $variant:ident $({ $($field:ident),* $(,)? })?),* $(,)? }) => {
        impl $crate::Wire for $name {
            fn encode(&self, buf: &mut Vec<u8>) {
                match self {
                    $( $name::$variant $({ $($field),* })? => {
                        buf.push($tag);
                        $( $( $crate::Wire::encode($field, buf); )* )?
                    } )*
                }
            }
            fn decode(input: &mut &[u8]) -> Result<Self, $crate::WireError> {
                let Some((&tag, rest)) = input.split_first() else {
                    return Err($crate::WireError::UnexpectedEnd);
                };
                *input = rest;
                match tag {
                    $( $tag => Ok($name::$variant $({ $($field: $crate::Wire::decode(input)?),* })?), )*
                    t => Err($crate::WireError::BadTag(t)),
                }
            }
            fn wire_size(&self) -> u64 {
                match self {
                    $( $name::$variant $({ $($field),* })? => {
                        1 $( $( + $crate::Wire::wire_size($field) )* )?
                    } )*
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(bytes.len() as u64, v.wire_size(), "wire_size mismatch");
        assert_eq!(T::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(u16::MAX);
        roundtrip(123_456u32);
        roundtrip(u64::MAX - 1);
        roundtrip(-42i32);
        roundtrip(i64::MIN);
        roundtrip(true);
        roundtrip(false);
        roundtrip(3.5f64);
    }

    #[test]
    fn string_and_collections_roundtrip() {
        roundtrip(String::from("hello wörld"));
        roundtrip(String::new());
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u32>::new());
        roundtrip(Some(9u32));
        roundtrip(Option::<u32>::None);
        roundtrip((7u32, String::from("x")));
        roundtrip(vec![Some(1u8), None, Some(3)]);
    }

    #[test]
    fn truncated_input_errors() {
        assert_eq!(u64::from_bytes(&[1, 2, 3]), Err(WireError::UnexpectedEnd));
        let s = String::from("abcdef").to_bytes();
        assert_eq!(String::from_bytes(&s[..5]), Err(WireError::UnexpectedEnd));
    }

    #[test]
    fn empty_input_errors_on_every_tagged_decode() {
        // Regression: tag decoding indexed `input[0]`; on adversarially
        // truncated bytes that panicked the decoder instead of returning
        // a typed error. All tag reads now go through checked access.
        assert_eq!(bool::from_bytes(&[]), Err(WireError::UnexpectedEnd));
        assert_eq!(Option::<u8>::from_bytes(&[]), Err(WireError::UnexpectedEnd));
        assert_eq!(u8::from_bytes(&[]), Err(WireError::UnexpectedEnd));
        assert_eq!(f64::from_bytes(&[]), Err(WireError::UnexpectedEnd));
        // Present-tag Option whose payload is missing.
        assert_eq!(
            Option::<u32>::from_bytes(&[1]),
            Err(WireError::UnexpectedEnd)
        );
    }

    #[test]
    fn invalid_tags_error() {
        assert_eq!(bool::from_bytes(&[7]), Err(WireError::BadTag(7)));
        assert_eq!(Option::<u8>::from_bytes(&[9]), Err(WireError::BadTag(9)));
    }

    #[test]
    fn invalid_utf8_errors() {
        let mut buf = Vec::new();
        2u32.encode(&mut buf);
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(String::from_bytes(&buf), Err(WireError::BadUtf8));
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        a: u32,
        b: String,
        c: Vec<u64>,
    }
    impl_wire_struct!(Demo { a, b, c });

    #[derive(Debug, PartialEq)]
    enum DemoEnum {
        Unit,
        Pair { x: u8, y: u8 },
        Wrapped { inner: String },
    }
    impl_wire_enum!(DemoEnum {
        0 => Unit,
        1 => Pair { x, y },
        2 => Wrapped { inner },
    });

    #[test]
    fn derived_struct_roundtrips() {
        roundtrip(Demo {
            a: 1,
            b: "two".into(),
            c: vec![3, 4],
        });
    }

    #[test]
    fn derived_enum_roundtrips() {
        roundtrip(DemoEnum::Unit);
        roundtrip(DemoEnum::Pair { x: 1, y: 2 });
        roundtrip(DemoEnum::Wrapped {
            inner: "abc".into(),
        });
        assert_eq!(DemoEnum::from_bytes(&[9]), Err(WireError::BadTag(9)));
    }

    #[test]
    fn trailing_bytes_tolerated_by_from_bytes() {
        let mut bytes = 5u32.to_bytes();
        bytes.push(0xAA);
        assert_eq!(u32::from_bytes(&bytes).unwrap(), 5);
    }

    #[test]
    fn scratch_encode_matches_to_bytes() {
        let mut scratch = EncodeScratch::new();
        let big = Demo {
            a: 7,
            b: "x".repeat(300),
            c: (0..200).collect(),
        };
        let small = Demo {
            a: 8,
            b: "y".into(),
            c: vec![1],
        };
        assert_eq!(scratch.encode(&big), big.to_bytes());
        let high_water = scratch.capacity();
        // A smaller value reuses the buffer without shrinking it and
        // still produces the canonical bytes.
        assert_eq!(scratch.encode(&small), small.to_bytes());
        assert_eq!(scratch.capacity(), high_water);
        // The returned copy is exact-sized, not the working buffer.
        let out = scratch.encode(&small);
        assert_eq!(out.len(), out.capacity());
    }
}
