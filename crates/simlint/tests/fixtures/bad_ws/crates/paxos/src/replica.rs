//! Seeded-violation fixture (never compiled): a replica whose log,
//! reached from the `on_message` root, only ever grows; `state-growth`
//! must flag `Log.entries`.

pub struct Replica {
    log: Log,
}

pub struct Log {
    entries: Vec<u64>,
}

impl Replica {
    pub fn on_message(&mut self, slot: u64) {
        self.log.entries.push(slot);
    }
}
