//! Short sequences held in place. Most of the store's texts, cart lines
//! and search results are short, and a `Vec` gives each one a heap
//! block; [`Inline`] keeps them inside the value that holds them.

use std::fmt;
use std::ops::{Deref, DerefMut};

use treplica::{check_slice, encode_slice, Sink, Wire, WireError};

/// Up to `N` items in place: the sequence is the first `len` of them.
///
/// It reads as a `[T]` (`Deref`), and compares, prints and encodes as
/// the `Vec<T>` of the same items, so a field can change from one to the
/// other without moving a byte of a checkpoint or a message. The length
/// is one byte: an `N` above 255 does not compile.
#[derive(Clone, Copy)]
pub struct Inline<T, const N: usize> {
    len: u8,
    items: [T; N],
}

impl<T: Copy + Default, const N: usize> Inline<T, N> {
    /// Lengthens the sequence by `count` places and returns them, to be
    /// overwritten; `None`, and no change, if `N` leaves no room.
    pub(crate) fn grow(&mut self, count: usize) -> Option<&mut [T]> {
        let start = usize::from(self.len);
        let end = start.checked_add(count)?;
        let len = u8::try_from(end).ok()?;
        let room = self.items.get_mut(start..end)?;
        self.len = len;
        Some(room)
    }

    /// Appends `item`, or hands it back if the sequence is full.
    pub(crate) fn push(&mut self, item: T) -> Result<(), T> {
        match self.grow(1) {
            Some([place]) => {
                *place = item;
                Ok(())
            }
            _ => Err(item),
        }
    }

    /// Keeps the items `keep` accepts, in their order.
    pub(crate) fn retain(&mut self, keep: impl FnMut(&T) -> bool) {
        *self = self.iter().copied().filter(keep).collect();
    }
}

/// No items.
impl<T: Copy + Default, const N: usize> Default for Inline<T, N> {
    fn default() -> Self {
        const { assert!(N <= u8::MAX as usize, "at most 255 items inline") };
        Inline {
            len: 0,
            items: [T::default(); N],
        }
    }
}

impl<T, const N: usize> Deref for Inline<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.items.get(..usize::from(self.len)).unwrap_or_default()
    }
}

impl<T, const N: usize> DerefMut for Inline<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        let len = usize::from(self.len);
        self.items.get_mut(..len).unwrap_or_default()
    }
}

/// The first `N` items of `iter`; the rest are not drawn.
impl<T: Copy + Default, const N: usize> FromIterator<T> for Inline<T, N> {
    #[inline]
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut inline = Inline::default();
        // The places come first, so no item past the `N`th is drawn.
        for (place, item) in inline.items.iter_mut().zip(iter) {
            *place = item;
            inline.len += 1;
        }
        inline
    }
}

impl<T: PartialEq, const N: usize> PartialEq<Vec<T>> for Inline<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        **self == **other
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for Inline<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// The bytes of `impl Wire for Vec<T>`; a sequence of more than `N`
/// items is refused, and decoding allocates nothing.
impl<T: Wire + Copy + Default, const N: usize> Wire for Inline<T, N> {
    fn encode<S: Sink>(&self, out: &mut S) {
        encode_slice(self, out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = fits::<N>(u32::decode(input)?)?;
        (0..len).map(|_| T::decode(input)).collect()
    }

    fn check(input: &mut &[u8]) -> Result<(), WireError> {
        fits::<N>(u32::decode(&mut { *input })?)?;
        check_slice::<T>(input).map(drop)
    }
}

/// `len`, if that many items fit in an `Inline<_, N>`.
fn fits<const N: usize>(len: u32) -> Result<usize, WireError> {
    let len = len as usize;
    let refused = WireError::Invalid("more items than fit inline");
    (len <= N).then_some(len).ok_or(refused)
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::model::ItemId;
    use crate::population::{SearchPage, PAGE};

    #[test]
    fn a_page_draws_no_id_past_its_end_and_encodes_as_a_vec() {
        let drawn = Cell::new(0);
        let ids = (0..60).map(ItemId).inspect(|_| drawn.set(drawn.get() + 1));
        let page: SearchPage = ids.collect();
        assert_eq!(drawn.get(), PAGE, "id PAGE + 1 is never drawn");
        let first: Vec<ItemId> = (0..PAGE as u32).map(ItemId).collect();
        assert_eq!(page, first);
        let bytes = first.to_bytes();
        assert_eq!(page.to_bytes(), bytes);
        let decoded = SearchPage::from_bytes(&bytes).map(|p| p.to_vec());
        assert_eq!(decoded, Ok(first));
        let long = (0..60).map(ItemId).collect::<Vec<_>>().to_bytes();
        let decoded = SearchPage::from_bytes(&long);
        assert!(matches!(decoded, Err(WireError::Invalid(_))), "{decoded:?}");
        assert_eq!(SearchPage::check(&mut long.as_slice()), decoded.map(drop));
    }
}
