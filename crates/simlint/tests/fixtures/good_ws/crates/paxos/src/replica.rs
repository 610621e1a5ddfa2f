//! Clean-workspace fixture (never compiled): the bad fixture's replica
//! with the compaction it lacks, so `state-growth` finds a shrink site
//! for `Log.entries`.

pub struct Replica {
    log: Log,
}

pub struct Log {
    entries: Vec<u64>,
}

impl Replica {
    pub fn on_message(&mut self, slot: u64) {
        self.log.entries.push(slot);
        self.log.entries.truncate(64);
    }
}
