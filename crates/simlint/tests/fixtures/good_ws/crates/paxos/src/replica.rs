//! Clean-workspace fixture (never compiled): the same handler as the
//! bad fixture written the way the rules demand — checked access,
//! saturating ordinal arithmetic, typed errors — plus one real
//! violation carrying a justified inline allow, which the suite asserts
//! is waived (not an error) and counted as used (not stale).

use std::collections::BTreeMap;

pub fn handle(votes: &BTreeMap<u64, u64>, frame: &[u8], slot: u64) -> Option<u64> {
    let tag = frame.first().copied()?;
    let count = votes.get(&slot).copied()?;
    let next_slot = slot.saturating_add(1);
    if tag == 0xff {
        return None;
    }
    count.checked_add(next_slot)
}

pub fn tally(votes: &BTreeMap<u64, u64>, slot: u64) -> u64 {
    // simlint: allow(unchecked-slot-arith): fixture exercising the inline waiver path
    let next_slot = slot + 1;
    votes.get(&next_slot).copied().unwrap_or(0)
}
