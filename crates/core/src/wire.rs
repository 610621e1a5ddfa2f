//! Compact binary encoding for durable records, checkpoints, and wire
//! size accounting.
//!
//! Treplica persists acceptor records and application checkpoints and
//! must survive a crash/replay cycle, so encodings round-trip exactly.
//! The same encoding sizes every network message, driving the
//! serialization-latency term of the simulated 1 Gbps links.
//!
//! The format is little-endian, length-prefixed, non-self-describing
//! (schema lives in the types). A type states it once, as the list of
//! its fields in wire order handed to [`impl_wire_struct!`] or
//! [`impl_wire_enum!`]: the list is what `encode` writes, what `decode`
//! reads back, what [`Wire::check`] walks without building anything, and
//! — because [`Wire::wire_size`] is `encode` run into a [`ByteCount`] —
//! what the type weighs on the simulated network.

use std::collections::BTreeMap;
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

/// Where [`Wire::encode`] writes. There are two sinks: a `Vec<u8>`
/// keeps the bytes, a [`ByteCount`] only counts them.
pub trait Sink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// The sink behind [`Wire::wire_size`]: adds up lengths and stores
/// nothing, so sizing a value never allocates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ByteCount(pub u64);

impl Sink for ByteCount {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.0 = self.0.saturating_add(bytes.len() as u64);
    }
}

/// Types with a binary encoding that round-trips exactly.
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn encode<S: Sink>(&self, out: &mut S);
    /// Decodes a value from the front of `input`, advancing it.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the input is truncated or malformed.
    fn decode(input: &mut &[u8]) -> Result<Self, WireError>;

    /// Validates the value at the front of `input` without building
    /// it: `Ok` exactly when [`Wire::decode`] would be, the same error
    /// otherwise, and `input` left where `decode` would leave it. Types
    /// whose `decode` allocates (strings, sequences, and whatever holds
    /// them) override the default with a walk that allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns the [`WireError`] `decode` would return.
    fn check(input: &mut &[u8]) -> Result<(), WireError> {
        Self::decode(input).map(drop)
    }

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

    /// Encoded size in bytes: [`Wire::encode`] run into a [`ByteCount`],
    /// so it is what `encode` appends by construction and no type states
    /// it separately. The middleware sizes each outgoing message with
    /// this; counting allocates nothing and, once inlined, is the sum of
    /// the fields' sizes.
    fn wire_size(&self) -> u64 {
        let mut count = ByteCount(0);
        self.encode(&mut count);
        count.0
    }
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

macro_rules! impl_wire_num {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode<S: Sink>(&self, out: &mut S) {
                out.put(&self.to_le_bytes());
            }
            fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
                let bytes = take(input, std::mem::size_of::<$t>())?;
                // `take` returns exactly the requested length, so the
                // conversion cannot fail — but decode paths stay
                // panic-free, so route the impossible case as an error.
                let bytes = bytes.try_into().map_err(|_| WireError::UnexpectedEnd)?;
                Ok(<$t>::from_le_bytes(bytes))
            }
        }
    )*};
}

impl_wire_num!(u8, u16, u32, u64, i32, i64, f64);

impl Wire for bool {
    fn encode<S: Sink>(&self, out: &mut S) {
        out.put(&[*self as u8]);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for String {
    fn encode<S: Sink>(&self, out: &mut S) {
        len_u32(self.len()).encode(out);
        out.put(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = u32::decode(input)? as usize;
        let bytes = take(input, len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }
    fn check(input: &mut &[u8]) -> Result<(), WireError> {
        let len = u32::decode(input)? as usize;
        let bytes = take(input, len)?;
        std::str::from_utf8(bytes)
            .map(drop)
            .map_err(|_| WireError::BadUtf8)
    }
}

/// A sequence's length, or a position inside one, as the `u32` of the
/// wire's length prefix. Nothing the protocol encodes holds 2^32 items.
#[expect(
    clippy::cast_possible_truncation,
    reason = "nothing the protocol encodes holds 2^32 items"
)]
#[inline]
pub(crate) const fn len_u32(len: usize) -> u32 {
    len as u32
}

/// Encodes `items` as a `u32` length prefix and the items in order:
/// the framing of `Vec<T>` and of every other sequence.
pub(crate) fn encode_slice<T: Wire, S: Sink>(items: &[T], out: &mut S) {
    len_u32(items.len()).encode(out);
    for item in items {
        item.encode(out);
    }
}

/// Checks a sequence framed by [`encode_slice`] and returns how many
/// items it holds.
pub(crate) fn check_slice<T: Wire>(input: &mut &[u8]) -> Result<usize, WireError> {
    let len = u32::decode(input)? as usize;
    for _ in 0..len {
        T::check(input)?;
    }
    Ok(len)
}

impl<T: Wire> Wire for Vec<T> {
    fn encode<S: Sink>(&self, out: &mut S) {
        encode_slice(self, out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = u32::decode(input)? as usize;
        let mut out = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            out.push(T::decode(input)?);
        }
        Ok(out)
    }
    fn check(input: &mut &[u8]) -> Result<(), WireError> {
        check_slice::<T>(input).map(drop)
    }
}

/// A map is the `Vec` of its `(key, value)` pairs. `BTreeMap` iterates
/// in key order, so the encoding is canonical without a sorting pass
/// and two maps that are `==` encode to identical bytes.
impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn encode<S: Sink>(&self, out: &mut S) {
        len_u32(self.len()).encode(out);
        for (key, value) in self {
            key.encode(out);
            value.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Vec::<(K, V)>::decode(input)?.into_iter().collect())
    }
    fn check(input: &mut &[u8]) -> Result<(), WireError> {
        Vec::<(K, V)>::check(input)
    }
}

/// A fixed array is its elements with no length prefix. Decoding fills
/// a `[T::default(); N]` in place — hence the bounds — and allocates
/// nothing.
impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    fn encode<S: Sink>(&self, out: &mut S) {
        for item in self {
            item.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let mut out = [T::default(); N];
        for item in &mut out {
            *item = T::decode(input)?;
        }
        Ok(out)
    }
}

macro_rules! impl_wire_tuple {
    ($($t:ident $i:tt),*) => {
        impl<$($t: Wire),*> Wire for ($($t,)*) {
            fn encode<S: Sink>(&self, out: &mut S) {
                $( self.$i.encode(out); )*
            }
            fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
                Ok(($( $t::decode(input)?, )*))
            }
            fn check(input: &mut &[u8]) -> Result<(), WireError> {
                $( $t::check(input)?; )*
                Ok(())
            }
        }
    };
}

impl_wire_tuple!(A 0, B 1);
impl_wire_tuple!(A 0, B 1, C 2);

/// [`Wire::check`] of the type of a field. A field table names fields,
/// not their types, so [`impl_wire_struct!`] and [`impl_wire_enum!`]
/// hand over a projection onto the field and inference reads `T` off
/// it; the projection is never called.
///
/// # Errors
///
/// Returns what `T::check` returns.
#[doc(hidden)]
pub fn check_field<S, T: Wire>(
    _field: impl Fn(&S) -> Option<&T>,
    input: &mut &[u8],
) -> Result<(), WireError> {
    T::check(input)
}

/// Implements [`Wire`] for a struct from the list of its fields in wire
/// order — which need not be declaration order: `encode`, `decode` and
/// `check` are three walks over that one list. A tuple struct lists its
/// indices (`Id { 0 }`); a generic one names its parameter, which gets a
/// `Wire` bound.
///
/// ```
/// use treplica::{impl_wire_struct, Wire};
/// #[derive(Debug, PartialEq)]
/// struct Point<T> { x: T, y: u8 }
/// impl_wire_struct!(Point<T> { y, x });
/// let p = Point { x: 1u16, y: 2 };
/// assert_eq!(p.to_bytes(), [2, 1, 0]);
/// assert_eq!(Point::from_bytes(&p.to_bytes()).unwrap(), p);
/// assert_eq!(Point::<u16>::check(&mut &[2, 1, 0][..]), Ok(()));
/// ```
#[macro_export]
macro_rules! impl_wire_struct {
    ($name:ident $(<$param:ident>)? { $($field:tt),* $(,)? }) => {
        impl $(<$param: $crate::Wire>)? $crate::Wire for $name $(<$param>)? {
            fn encode<S: $crate::Sink>(&self, out: &mut S) {
                $( $crate::Wire::encode(&self.$field, out); )*
            }
            fn decode(input: &mut &[u8]) -> Result<Self, $crate::WireError> {
                Ok($name {
                    $( $field: $crate::Wire::decode(input)?, )*
                })
            }
            fn check(input: &mut &[u8]) -> Result<(), $crate::WireError> {
                $( $crate::check_field(|s: &Self| ::core::option::Option::Some(&s.$field), input)?; )*
                Ok(())
            }
        }
    };
}

/// Implements [`Wire`] for an enum: a one-byte tag, then the variant's
/// fields in the order listed. A struct-like variant lists its field
/// names, a tuple variant `index: name` pairs, a unit variant nothing.
///
/// ```
/// use treplica::{impl_wire_enum, Wire};
/// #[derive(Debug, PartialEq)]
/// enum Cmd<T> { Ping, Set { key: u32, val: u64 }, Put(u8, T) }
/// impl_wire_enum!(Cmd<T> { 0 => Ping, 1 => Set { key, val }, 2 => Put(0: at, 1: what) });
/// let c = Cmd::Put(7, 9u16);
/// assert_eq!(c.to_bytes(), [2, 7, 9, 0]);
/// assert_eq!(Cmd::from_bytes(&c.to_bytes()).unwrap(), c);
/// ```
#[macro_export]
macro_rules! impl_wire_enum {
    ($name:ident $(<$param:ident>)? { $(
        $tag:literal => $variant:ident
            $({ $($field:ident),* $(,)? })?
            $(( $($index:tt : $bind:ident),* $(,)? ))?
    ),* $(,)? }) => {
        impl $(<$param: $crate::Wire>)? $crate::Wire for $name $(<$param>)? {
            fn encode<S: $crate::Sink>(&self, out: &mut S) {
                match self {
                    $( $name::$variant $({ $($field),* })? $({ $($index: $bind),* })? => {
                        out.put(&[$tag]);
                        $( $( $crate::Wire::encode($field, out); )* )?
                        $( $( $crate::Wire::encode($bind, out); )* )?
                    } )*
                }
            }
            fn decode(input: &mut &[u8]) -> Result<Self, $crate::WireError> {
                match <u8 as $crate::Wire>::decode(input)? {
                    $( $tag => Ok($name::$variant
                        $({ $($field: $crate::Wire::decode(input)?),* })?
                        $({ $($index: $crate::Wire::decode(input)?),* })?), )*
                    t => Err($crate::WireError::BadTag(t)),
                }
            }
            fn check(input: &mut &[u8]) -> Result<(), $crate::WireError> {
                match <u8 as $crate::Wire>::decode(input)? {
                    $( $tag => {
                        $( $( $crate::check_field(
                            |v: &Self| match v {
                                $name::$variant { $field, .. } => ::core::option::Option::Some($field),
                                _ => ::core::option::Option::None,
                            },
                            input,
                        )?; )* )?
                        $( $( $crate::check_field(
                            |v: &Self| match v {
                                $name::$variant { $index: $bind, .. } => ::core::option::Option::Some($bind),
                                _ => ::core::option::Option::None,
                            },
                            input,
                        )?; )* )?
                        Ok(())
                    } )*
                    t => Err($crate::WireError::BadTag(t)),
                }
            }
        }
    };
}

impl_wire_enum!(Option<T> { 0 => None, 1 => Some(0: value) });

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(bytes.len() as u64, v.wire_size(), "wire_size mismatch");
        assert_eq!(T::from_bytes(&bytes).unwrap(), v);
        let mut input = bytes.as_slice();
        assert_eq!(T::check(&mut input), Ok(()));
        assert!(input.is_empty(), "check left {} bytes", input.len());
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
        roundtrip((1u8, String::from("two"), Some(3u64)));
        roundtrip(vec![Some(1u8), None, Some(3)]);
        // An array has no length prefix; a map is the `Vec` of its pairs.
        roundtrip([1u16, 2, 3]);
        assert_eq!([1u16, 2, 3].to_bytes(), [1, 0, 2, 0, 3, 0]);
        let pairs = vec![(1u32, String::from("a")), (5, String::from("bc"))];
        let map: BTreeMap<u32, String> = pairs.iter().cloned().collect();
        assert_eq!(map.to_bytes(), pairs.to_bytes());
        roundtrip(map);
    }

    #[test]
    fn truncated_input_errors() {
        assert_eq!(u64::from_bytes(&[1, 2, 3]), Err(WireError::UnexpectedEnd));
        let s = String::from("abcdef").to_bytes();
        assert_eq!(String::from_bytes(&s[..5]), Err(WireError::UnexpectedEnd));
        let short_array = <[u16; 3]>::from_bytes(&[1, 0, 2, 0, 3]);
        assert_eq!(short_array, Err(WireError::UnexpectedEnd));
        // A map that promises two entries and holds one.
        let short_map = BTreeMap::<u8, u8>::from_bytes(&[2, 0, 0, 0, 1, 1]);
        assert_eq!(short_map, Err(WireError::UnexpectedEnd));
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
        assert_eq!(String::check(&mut buf.as_slice()), Err(WireError::BadUtf8));
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
        Tuple(u8, u16),
    }
    impl_wire_enum!(DemoEnum {
        0 => Unit,
        1 => Pair { y, x },
        2 => Wrapped { inner },
        3 => Tuple(0: tag, 1: body),
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
        roundtrip(DemoEnum::Tuple(7, 9));
        assert_eq!(DemoEnum::Tuple(7, 9).to_bytes(), [3, 7, 9, 0]);
        // Fields go out in table order, which is not declaration order.
        assert_eq!(DemoEnum::Pair { x: 1, y: 2 }.to_bytes(), [1, 2, 1]);
        assert_eq!(DemoEnum::from_bytes(&[9]), Err(WireError::BadTag(9)));
        let short = DemoEnum::from_bytes(&[3, 7, 9]);
        assert_eq!(short, Err(WireError::UnexpectedEnd));
        // The generated `check` reads the same table: same errors, and
        // on a bad string it stops where `decode` stops.
        assert_eq!(DemoEnum::check(&mut &[9u8][..]), Err(WireError::BadTag(9)));
        let mut torn: &[u8] = &[3, 7, 9];
        assert_eq!(DemoEnum::check(&mut torn), Err(WireError::UnexpectedEnd));
        let mut bad: &[u8] = &[2, 1, 0, 0, 0, 0xff, 5];
        assert_eq!(DemoEnum::check(&mut bad), Err(WireError::BadUtf8));
        assert_eq!(bad, [5]);
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
