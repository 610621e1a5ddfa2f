//! Seeded-violation fixture (never compiled): a protocol message
//! handler with two unchecked ordinal steps, which simlint must flag.
//! Its indexing, `unwrap` and `panic!` are for clippy's panic lints to
//! catch in compiled code; simlint must report none of them.

use std::collections::BTreeMap;

pub fn handle(votes: &BTreeMap<u64, u64>, frame: &[u8], slot: u64) -> u64 {
    let tag = frame[0];
    let count = votes.get(&slot).copied().unwrap();
    let next_slot = slot + 1;
    let prev_slot = slot - 1;
    if tag == 0xff {
        panic!("bad tag");
    }
    count.wrapping_add(next_slot).wrapping_add(prev_slot)
}
