//! Rows keyed by an id the store hands out densely. A cart's id is the
//! count of carts created before it, and most carts are never bought,
//! so a table indexed by the id holds them with no search and no node
//! per row; [`IdTable`] is that table.

use std::fmt;

use treplica::{Sink, Wire, WireError};

/// Values keyed by a `u32` id, in a `Vec` indexed by the id.
///
/// It answers, prints and encodes as the `BTreeMap<u32, V>` of the same
/// rows, so the overlay's encoding does not move a byte. The last place
/// of the `Vec`, if any, holds a row, so two tables with the same rows
/// are equal field for field. It has no [`Wire`] decode of its own: a
/// table is as wide as its highest id, so a decode must know where the
/// ids end ([`IdTable::from_rows`]).
#[derive(Clone, PartialEq)]
pub struct IdTable<V> {
    rows: Vec<Option<V>>,
    len: usize,
}

impl<V> IdTable<V> {
    /// An empty table.
    pub const fn new() -> Self {
        IdTable {
            rows: Vec::new(),
            len: 0,
        }
    }

    /// The row of `id`.
    pub fn get(&self, id: u32) -> Option<&V> {
        self.rows.get(usize::try_from(id).ok()?)?.as_ref()
    }

    /// The row of `id`, to change in place.
    pub fn get_mut(&mut self, id: u32) -> Option<&mut V> {
        self.rows.get_mut(usize::try_from(id).ok()?)?.as_mut()
    }

    /// Whether `id` has a row.
    pub fn contains_key(&self, id: u32) -> bool {
        self.get(id).is_some()
    }

    /// Sets the row of `id`, returning the one it replaces.
    pub fn insert(&mut self, id: u32, value: V) -> Option<V> {
        let at = usize::try_from(id).unwrap_or(usize::MAX);
        if at >= self.rows.len() {
            self.rows.resize_with(at.saturating_add(1), || None);
        }
        let old = self.rows.get_mut(at)?.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the row of `id`.
    pub fn remove(&mut self, id: u32) -> Option<V> {
        let old = self.rows.get_mut(usize::try_from(id).ok()?)?.take()?;
        self.len -= 1;
        while let Some(None) = self.rows.last() {
            self.rows.pop();
        }
        Some(old)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The rows with their ids, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &V)> {
        (0u32..)
            .zip(&self.rows)
            .filter_map(|(id, row)| Some((id, row.as_ref()?)))
    }

    /// The rows, in id order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.rows.iter().flatten()
    }
}

impl<V> Default for IdTable<V> {
    fn default() -> Self {
        IdTable::new()
    }
}

impl<V: fmt::Debug> fmt::Debug for IdTable<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<V: Wire> IdTable<V> {
    /// Writes the bytes of the `BTreeMap<u32, V>` of the same rows: the
    /// count, then each id and row in id order.
    pub fn encode<S: Sink>(&self, out: &mut S) {
        u32::try_from(self.len).unwrap_or(u32::MAX).encode(out);
        for (id, row) in self.iter() {
            id.encode(out);
            row.encode(out);
        }
    }

    /// The table of `rows`, the `(id, row)` pairs that
    /// [`IdTable::encode`] writes as a `Vec<(u32, V)>` decodes them; the
    /// last of two rows with one id wins, as in the map's decode. An id
    /// at or past `end` is refused, so a decoded table spans no more ids
    /// than the store had handed out.
    ///
    /// # Errors
    ///
    /// [`WireError::Invalid`] if a row's id is at or past `end`.
    pub fn from_rows(rows: Vec<(u32, V)>, end: u32) -> Result<Self, WireError> {
        Self::check_end(rows.iter().map(|(id, _)| *id).max(), end)?;
        let mut table = IdTable::new();
        for (id, row) in rows {
            table.insert(id, row);
        }
        Ok(table)
    }

    /// Walks the rows [`IdTable::encode`] writes, as
    /// `Vec::<(u32, V)>::check` does, and returns the highest id, for
    /// [`IdTable::check_end`] once the end is read.
    ///
    /// # Errors
    ///
    /// The [`WireError`] that decoding the rows would return.
    pub fn check_rows(input: &mut &[u8]) -> Result<Option<u32>, WireError> {
        let mut highest = None;
        for _ in 0..u32::decode(input)? {
            highest = highest.max(Some(u32::decode(input)?));
            V::check(input)?;
        }
        Ok(highest)
    }

    /// Refuses a table whose `highest` id is at or past `end`, as
    /// [`IdTable::from_rows`] does.
    ///
    /// # Errors
    ///
    /// [`WireError::Invalid`] if `highest` is at or past `end`.
    pub fn check_end(highest: Option<u32>, end: u32) -> Result<(), WireError> {
        match highest {
            Some(id) if id >= end => Err(WireError::Invalid("id table row at or past its end")),
            _ => Ok(()),
        }
    }
}
