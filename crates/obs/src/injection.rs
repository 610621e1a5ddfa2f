//! Ground-truth injection log.
//!
//! A `faultload::Faultload` *specifies* faults; the experiment driver
//! *applies* them, sometimes at a different instant than specified (a
//! disk-fault profile only bites when a write actually fails; a
//! reconfig retries until a leader accepts it). The [`InjectionLog`]
//! records the microsecond each fault really hit the cluster, which is
//! exactly the ground truth an alert-quality scorer needs: detection
//! latency is *alert-fire minus injection time*, and only the driver
//! knows the true injection time. [`crate::score_alerts`] is its
//! reader.
//!
//! Entries are appended in application order, so the log of a
//! deterministic run is itself deterministic.

/// Injection kind tag: an abrupt process crash (specified, or induced
/// by a disk write failure under the fail-stop rule).
pub const INJECT_CRASH: &str = "crash";
/// Injection kind tag: a network partition was cut.
pub const INJECT_PARTITION: &str = "partition";
/// Injection kind tag: a lossy/duplicating link fault was armed.
pub const INJECT_NET_FAULT: &str = "net_fault";
/// Injection kind tag: a disk-fault profile was armed on a node.
pub const INJECT_DISK_FAULT: &str = "disk_fault";
/// Injection kind tag: a membership change was submitted.
pub const INJECT_RECONFIG: &str = "reconfig";

/// One applied fault, stamped with the simulated microsecond the
/// driver actually performed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// Application time, µs of simulated time.
    pub at_us: u64,
    /// Victim node id, or [`crate::SUBJECT_CLUSTER`] for a
    /// cluster-scoped fault (partitions, link faults, membership
    /// changes).
    pub node: u32,
    /// Kind tag (one of the `INJECT_*` constants).
    pub kind: &'static str,
}

/// Append-only record of every fault the driver applied, in
/// application order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InjectionLog {
    /// The applied injections.
    pub entries: Vec<Injection>,
}

impl InjectionLog {
    /// Records an applied fault.
    pub fn record(&mut self, at_us: u64, node: u32, kind: &'static str) {
        self.entries.push(Injection { at_us, node, kind });
    }

    /// The entries that count as operator-visible *incidents* for
    /// alert scoring: everything except disk-fault arming, which is
    /// invisible until a write actually fails (and the induced crash
    /// gets its own [`INJECT_CRASH`] entry at the true failure time).
    pub fn incidents(&self) -> impl Iterator<Item = &Injection> {
        self.entries.iter().filter(|e| e.kind != INJECT_DISK_FAULT)
    }

    /// True when nothing was injected (the fault-free baseline).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_clear_and_incident_filtering() {
        let mut log = InjectionLog::default();
        log.record(10, 2, INJECT_DISK_FAULT);
        log.record(45_000_000, 1, INJECT_CRASH);
        log.record(50_000_000, crate::SUBJECT_CLUSTER, INJECT_PARTITION);
        assert_eq!(log.entries.len(), 3);
        // Disk-fault arming is not an incident; the other two are.
        let incidents: Vec<&Injection> = log.incidents().collect();
        assert_eq!(incidents.len(), 2);
        assert!(incidents.iter().all(|i| i.kind != INJECT_DISK_FAULT));
        assert!(!log.is_empty());
        assert!(InjectionLog::default().is_empty());
    }
}
