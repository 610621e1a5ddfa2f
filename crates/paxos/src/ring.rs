//! A table keyed by a dense counter.
//!
//! Consensus slots, request numbers and proposal sequence numbers are
//! handed out one after another, and each table keyed by one holds a
//! window of recent keys. A `BTreeMap` allocates a node every few
//! inserts; [`SeqRing`] keeps the window in one `VecDeque`, so a table
//! that holds its size allocates nothing.

use std::collections::VecDeque;

/// The most consecutive keys one [`SeqRing`] spans. An insert that
/// would stretch the window past it is refused, so a stray far-off key
/// (a corrupt or far-future slot) never makes a ring allocate the gap.
///
/// No table reaches it: the widest, the learner's and the acceptor's,
/// span the retained history behind a checkpoint (200 000 slots by
/// default) plus the slots in flight.
pub const RING_SPAN: u64 = 1 << 20;

/// A map from `u64` keys to values, held as the window of consecutive
/// keys from its lowest to its highest: a `VecDeque` of `Option<V>`, the
/// key of its front and a live count.
///
/// It answers as a `BTreeMap<u64, V>` would — iteration is in key order
/// — except that an insert is refused, and hands its value back, if the
/// window would then span more than [`RING_SPAN`] keys. An empty ring takes
/// any key. Both ends of the window always hold a value, so removing the
/// lowest or the highest key shrinks it.
#[derive(Debug, Default)]
pub struct SeqRing<V> {
    /// Key of `items`' front.
    front: u64,
    /// One place per key from `front` on, the first and the last full.
    items: VecDeque<Option<V>>,
    /// Full places.
    live: usize,
}

impl<V> SeqRing<V> {
    /// An empty ring.
    pub fn new() -> Self {
        SeqRing {
            front: 0,
            items: VecDeque::new(),
            live: 0,
        }
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no key is held.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The place of `key` in `items`, if it lies in the window.
    fn place(&self, key: u64) -> Option<usize> {
        let offset = usize::try_from(key.checked_sub(self.front)?).ok()?;
        (offset < self.items.len()).then_some(offset)
    }

    /// The value at `key`.
    pub fn get(&self, key: u64) -> Option<&V> {
        self.items.get(self.place(key)?)?.as_ref()
    }

    /// Whether [`SeqRing::insert`] would take `key`: the window, stretched
    /// to cover it, spans at most [`RING_SPAN`] keys.
    pub fn admits(&self, key: u64) -> bool {
        let Some(back) = self.last_key() else {
            return true;
        };
        let (low, high) = (key.min(self.front), key.max(back));
        high.abs_diff(low) < RING_SPAN
    }

    /// Stores `value` at `key`, returning the value it replaces; or, if
    /// the ring does not admit `key`, hands `value` back unchanged.
    pub fn insert(&mut self, key: u64, value: V) -> Result<Option<V>, V> {
        if !self.admits(key) {
            return Err(value);
        }
        if self.items.is_empty() {
            self.front = key;
        }
        if key < self.front {
            // Admitted, so the gap is below `RING_SPAN`.
            let gap = self.front.abs_diff(key);
            for _ in 1..gap {
                self.items.push_front(None);
            }
            self.items.push_front(Some(value));
            self.front = key;
            self.live = self.live.saturating_add(1);
            return Ok(None);
        }
        let offset = usize::try_from(key.abs_diff(self.front)).unwrap_or(usize::MAX);
        if let Some(place) = self.items.get_mut(offset) {
            let old = place.replace(value);
            if old.is_none() {
                self.live = self.live.saturating_add(1);
            }
            return Ok(old);
        }
        self.items.resize_with(offset, || None);
        self.items.push_back(Some(value));
        self.live = self.live.saturating_add(1);
        Ok(None)
    }

    /// Takes the value at `key` out, if there is one.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let place = self.place(key)?;
        let old = self.items.get_mut(place)?.take()?;
        self.live = self.live.saturating_sub(1);
        self.trim();
        Some(old)
    }

    /// Drops every key below `key`.
    pub fn drop_below(&mut self, key: u64) {
        let count = usize::try_from(key.saturating_sub(self.front)).unwrap_or(usize::MAX);
        let count = count.min(self.items.len());
        let dropped = self.items.drain(..count).filter(Option::is_some).count();
        self.live = self.live.saturating_sub(dropped);
        self.front = self.front.saturating_add(count as u64);
        self.trim();
    }

    /// Pops empty places off both ends, so that each end holds a value.
    fn trim(&mut self) {
        while self.items.front().is_some_and(Option::is_none) {
            self.items.pop_front();
            self.front = self.front.saturating_add(1);
        }
        while self.items.back().is_some_and(Option::is_none) {
            self.items.pop_back();
        }
    }

    /// The highest key held.
    pub fn last_key(&self) -> Option<u64> {
        let last = self.items.len().checked_sub(1)?;
        Some(self.front.saturating_add(last as u64))
    }

    /// The keys and values in key order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (u64, &V)> {
        self.range_from(self.front)
    }

    /// The keys from `key` on and their values, in key order.
    pub fn range_from(&self, key: u64) -> impl DoubleEndedIterator<Item = (u64, &V)> {
        let start = usize::try_from(key.saturating_sub(self.front)).unwrap_or(usize::MAX);
        let start = start.min(self.items.len());
        let first = self.front.saturating_add(start as u64);
        self.items
            .range(start..)
            .enumerate()
            .filter_map(move |(i, item)| Some((first.saturating_add(i as u64), item.as_ref()?)))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    /// One step of a random workout.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, u32),
        Remove(u64),
        Get(u64),
        DropBelow(u64),
        RangeFrom(u64),
    }

    /// Keys within a few dozen of a base, so windows have gaps, and now
    /// and then one a span away from all of them.
    fn key() -> impl Strategy<Value = u64> {
        prop_oneof![
            8 => 1_000u64..1_040,
            1 => (0u8..2).prop_map(|far| if far == 0 { 1_039 + RING_SPAN } else { u64::MAX }),
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (key(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            2 => key().prop_map(Op::Remove),
            1 => key().prop_map(Op::Get),
            1 => key().prop_map(Op::DropBelow),
            1 => key().prop_map(Op::RangeFrom),
        ]
    }

    /// Whether the oracle, stretched to cover `key`, spans under `RING_SPAN`.
    fn oracle_admits(oracle: &BTreeMap<u64, u32>, key: u64) -> bool {
        match (oracle.first_key_value(), oracle.last_key_value()) {
            (Some((low, _)), Some((high, _))) => key.max(*high) - key.min(*low) < RING_SPAN,
            _ => true,
        }
    }

    proptest! {
        // The CI `miri` job runs this crate's unit tests.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

        /// The ring answers as a `BTreeMap` does, refusing exactly the
        /// keys that would stretch it past `RING_SPAN`, and its window runs
        /// from its lowest key to its highest.
        #[test]
        fn a_ring_answers_as_a_btree_map(
            ops in proptest::collection::vec(op(), 1..if cfg!(miri) { 60 } else { 200 })
        ) {
            let mut ring = SeqRing::new();
            let mut oracle = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Insert(k, v) => {
                        let expected = if oracle_admits(&oracle, k) {
                            Ok(oracle.insert(k, v))
                        } else {
                            Err(v)
                        };
                        prop_assert_eq!(ring.insert(k, v), expected);
                    }
                    Op::Remove(k) => prop_assert_eq!(ring.remove(k), oracle.remove(&k)),
                    Op::Get(k) => prop_assert_eq!(ring.get(k), oracle.get(&k)),
                    Op::DropBelow(k) => {
                        ring.drop_below(k);
                        oracle = oracle.split_off(&k);
                    }
                    Op::RangeFrom(k) => {
                        let got: Vec<_> = ring.range_from(k).collect();
                        let want: Vec<_> = oracle.range(k..).map(|(k, v)| (*k, v)).collect();
                        prop_assert_eq!(got, want);
                        let back: Vec<_> = ring.iter().rev().map(|(k, _)| k).collect();
                        let want: Vec<_> = oracle.keys().rev().copied().collect();
                        prop_assert_eq!(back, want);
                    }
                }
                let got: Vec<_> = ring.iter().collect();
                let want: Vec<_> = oracle.iter().map(|(k, v)| (*k, v)).collect();
                prop_assert_eq!(got, want);
                prop_assert_eq!(ring.len(), oracle.len());
                prop_assert_eq!(ring.is_empty(), oracle.is_empty());
                prop_assert_eq!(ring.last_key(), oracle.keys().next_back().copied());
                let window = match (oracle.keys().next(), oracle.keys().next_back()) {
                    (Some(low), Some(high)) => usize::try_from(high - low + 1).unwrap(),
                    _ => 0,
                };
                prop_assert_eq!(ring.items.len(), window);
            }
        }
    }

    #[test]
    fn a_key_past_the_span_is_refused_without_allocating() {
        let mut ring = SeqRing::new();
        assert_eq!(ring.insert(7, 'a'), Ok(None));
        let capacity = ring.items.capacity();
        assert_eq!(ring.insert(7 + RING_SPAN, 'b'), Err('b'));
        assert_eq!(ring.insert(u64::MAX, 'c'), Err('c'));
        assert_eq!(ring.items.capacity(), capacity, "nothing was allocated");
        assert_eq!(ring.len(), 1);
        assert!(ring.admits(7 + RING_SPAN - 1));
        // An empty ring takes any key, and a far one costs one place.
        ring.remove(7);
        assert_eq!(ring.insert(u64::MAX, 'd'), Ok(None));
        assert_eq!(ring.iter().collect::<Vec<_>>(), vec![(u64::MAX, &'d')]);
        assert_eq!(ring.remove(u64::MAX), Some('d'));
    }
}
