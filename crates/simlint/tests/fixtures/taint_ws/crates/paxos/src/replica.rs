//! Transitive-rule fixture (never compiled): a protocol handler whose
//! violations live two crates and several hops away. The integration
//! suite declares `Replica::on_message` as both a sim and a protocol
//! root and pins the multi-hop call chain simlint reports:
//!
//!   on_message → step → persist → stamp    (panic-taint)
//!
//! The struct itself seeds the held-state rule: `log.entries` only ever
//! grows (state-growth).

pub struct Replica {
    pub log: Log,
}

pub struct Log {
    pub entries: Vec<u64>,
}

impl Replica {
    pub fn on_message(&mut self, slot: u64) {
        self.step(slot);
    }

    fn step(&mut self, slot: u64) {
        self.log.entries.push(slot);
        helpers::persist(slot);
    }
}
