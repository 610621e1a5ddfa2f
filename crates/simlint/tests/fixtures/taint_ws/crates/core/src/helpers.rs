//! Helper crate for the transitive fixture: the violation token sits at
//! the far end of a cross-crate call chain, so a file-scoped scan of
//! `replica.rs` alone would find nothing.

pub fn persist(v: u64) -> u64 {
    stamp(v)
}

fn stamp(v: u64) -> u64 {
    let arr = [v, 1];
    arr[0]
}

/// Same name as `paxos::Log`, different crate, held by no root: an
/// offline table nobody replicates. It must neither shadow the
/// root-held `paxos::Log` (this crate is scanned first) nor be reported
/// in its place.
pub struct Log {
    pub entries: Vec<String>,
}
