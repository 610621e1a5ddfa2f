//! Network model: latency, jitter, bandwidth, loss, and partitions.
//!
//! The paper's testbed is an 18-node cluster on a single 1 Gbps Ethernet
//! switch. We model each point-to-point message with
//!
//! ```text
//! delay = base_latency + jitter + size / bandwidth
//! ```
//!
//! plus per-link faults (loss, duplication, reordering) and explicit
//! partitions (used by the fault-injection tests; the paper's faultloads
//! crash whole processes rather than links, but partitions are needed to
//! exercise Paxos' liveness behaviour below quorum).

use std::collections::{BTreeMap, BTreeSet};

use rand::Rng;

use crate::node::NodeId;
use crate::time::SimDuration;

/// Configuration of the simulated network.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// One-way base latency between any two distinct nodes.
    pub base_latency: SimDuration,
    /// Maximum additional uniformly-distributed jitter per message.
    pub jitter: SimDuration,
    /// Link bandwidth in bytes per second (1 Gbps Ethernet by default).
    pub bandwidth_bytes_per_sec: u64,
    /// Latency for a node sending a message to itself (loopback).
    pub loopback_latency: SimDuration,
}

impl Default for NetConfig {
    fn default() -> Self {
        // Defaults approximate the paper's switched 1 Gbps LAN.
        NetConfig {
            base_latency: SimDuration::from_micros(120),
            jitter: SimDuration::from_micros(40),
            bandwidth_bytes_per_sec: 125_000_000,
            loopback_latency: SimDuration::from_micros(10),
        }
    }
}

/// Outcome of submitting one message to the network model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transmission {
    /// Deliver after the given one-way delay.
    Deliver(SimDuration),
    /// Deliver twice: the original copy after the first delay and a
    /// duplicate after the second (a retransmitting switch).
    DeliverDup(SimDuration, SimDuration),
    /// The message is lost, for the given reason.
    Dropped(DropReason),
}

/// Why the network model lost a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The link is severed by an explicit partition.
    Partition,
    /// Probabilistic loss on a faulted link.
    Loss,
    /// The destination process was down when the message arrived. Unlike
    /// the other reasons this is decided at delivery time by the engine,
    /// not at transmit time by the network model.
    DestDown,
}

impl DropReason {
    /// Stable tag used in trace records.
    pub fn tag(self) -> &'static str {
        match self {
            DropReason::Partition => "partition",
            DropReason::Loss => "loss",
            DropReason::DestDown => "dest_down",
        }
    }
}

/// Adversarial per-link fault behaviour, applied on top of the base
/// [`NetConfig`] for the links it is installed on.
///
/// All probabilities are independent per message; draws come from the
/// engine's seeded RNG, so faulty runs stay deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkFault {
    /// Probability in `[0, 1]` that a message is silently lost.
    pub loss: f64,
    /// Probability in `[0, 1]` that a message is delivered twice.
    pub duplicate: f64,
    /// Probability in `[0, 1]` that a message is held back by up to
    /// [`REORDER_HOLD_US`], letting later messages overtake it.
    pub reorder: f64,
}

/// Maximum extra delay (µs) a faulted link applies to a reordered
/// message.
pub const REORDER_HOLD_US: u64 = 5_000;

/// The simulated switch: computes delivery delays and tracks partitions.
#[derive(Debug, Clone)]
pub struct Network {
    config: NetConfig,
    /// Unordered pairs `(min, max)` of nodes that cannot communicate.
    cut_links: BTreeSet<(NodeId, NodeId)>,
    /// Unordered pairs with an adversarial fault profile installed.
    link_faults: BTreeMap<(NodeId, NodeId), LinkFault>,
    sent: u64,
    dropped: u64,
    duplicated: u64,
    reordered: u64,
    bytes: u64,
}

impl Network {
    /// Creates a network with the given configuration.
    pub fn new(config: NetConfig) -> Self {
        Network {
            config,
            cut_links: BTreeSet::new(),
            link_faults: BTreeMap::new(),
            sent: 0,
            dropped: 0,
            duplicated: 0,
            reordered: 0,
            bytes: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Severs the link between `a` and `b` in both directions.
    pub fn cut(&mut self, a: NodeId, b: NodeId) {
        self.cut_links.insert(Self::key(a, b));
    }

    /// Restores the link between `a` and `b`.
    pub fn heal(&mut self, a: NodeId, b: NodeId) {
        self.cut_links.remove(&Self::key(a, b));
    }

    /// Severs every link between the two groups, partitioning them.
    pub fn partition(&mut self, group_a: &[NodeId], group_b: &[NodeId]) {
        for &a in group_a {
            for &b in group_b {
                self.cut(a, b);
            }
        }
    }

    /// Heals all cut links.
    pub fn heal_all(&mut self) {
        self.cut_links.clear();
    }

    /// Whether `a` and `b` can currently exchange messages.
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        !self.cut_links.contains(&Self::key(a, b))
    }

    /// Installs (or replaces) an adversarial fault profile on the link
    /// between `a` and `b`, both directions. Loopback (`a == b`) is
    /// in-process and never faulted; such calls are ignored.
    pub fn set_link_fault(&mut self, a: NodeId, b: NodeId, fault: LinkFault) {
        if a != b {
            self.link_faults.insert(Self::key(a, b), fault);
        }
    }

    /// Removes every installed fault profile.
    pub fn clear_link_faults(&mut self) {
        self.link_faults.clear();
    }

    /// Computes the fate of a `size_bytes` message from `from` to `to`.
    ///
    /// Draws jitter (and a faulted link's loss, reorder and duplication
    /// decisions) from `rng`, so outcomes are deterministic for a fixed
    /// seed.
    pub fn transmit<R: Rng>(
        &mut self,
        rng: &mut R,
        from: NodeId,
        to: NodeId,
        size_bytes: u64,
    ) -> Transmission {
        self.sent += 1;
        if from != to && !self.connected(from, to) {
            self.dropped += 1;
            return Transmission::Dropped(DropReason::Partition);
        }
        let fault = if from == to {
            None
        } else {
            self.link_faults.get(&Self::key(from, to)).copied()
        };
        if let Some(f) = fault {
            if f.loss > 0.0 && rng.gen::<f64>() < f.loss {
                self.dropped += 1;
                return Transmission::Dropped(DropReason::Loss);
            }
        }
        self.bytes += size_bytes;
        if from == to {
            return Transmission::Deliver(self.config.loopback_latency);
        }
        let serialization =
            size_bytes.saturating_mul(1_000_000) / self.config.bandwidth_bytes_per_sec.max(1);
        let mut delay = self.config.base_latency
            + SimDuration::from_micros(self.draw_jitter(rng))
            + SimDuration::from_micros(serialization);
        if let Some(f) = fault {
            if f.reorder > 0.0 && rng.gen::<f64>() < f.reorder {
                self.reordered += 1;
                delay += SimDuration::from_micros(rng.gen_range(0..=REORDER_HOLD_US));
            }
            if f.duplicate > 0.0 && rng.gen::<f64>() < f.duplicate {
                self.duplicated += 1;
                // The duplicate takes an independent trip through the
                // switch: fresh jitter on top of the same fixed costs.
                let dup = self.config.base_latency
                    + SimDuration::from_micros(self.draw_jitter(rng))
                    + SimDuration::from_micros(serialization);
                return Transmission::DeliverDup(delay, dup);
            }
        }
        Transmission::Deliver(delay)
    }

    fn draw_jitter<R: Rng>(&self, rng: &mut R) -> u64 {
        if self.config.jitter.is_zero() {
            0
        } else {
            rng.gen_range(0..=self.config.jitter.as_micros())
        }
    }

    /// Records a delivery-time drop decided by the engine (destination
    /// down when the message arrived), so `messages_dropped` covers
    /// every lost message regardless of where the loss was decided.
    pub(crate) fn note_dropped(&mut self) {
        self.dropped += 1;
    }

    /// Number of messages submitted so far.
    pub fn messages_sent(&self) -> u64 {
        self.sent
    }

    /// Number of messages lost to drops or partitions.
    pub fn messages_dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of messages duplicated by link faults.
    pub fn messages_duplicated(&self) -> u64 {
        self.duplicated
    }

    /// Number of messages held back (reordered) by link faults.
    pub fn messages_reordered(&self) -> u64 {
        self.reordered
    }

    /// Total payload bytes carried (excluding dropped messages).
    pub fn bytes_carried(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn delivery_includes_base_latency_and_serialization() {
        let mut net = Network::new(NetConfig {
            jitter: SimDuration::ZERO,
            ..NetConfig::default()
        });
        let mut r = rng();
        match net.transmit(&mut r, NodeId(0), NodeId(1), 125_000_000) {
            Transmission::Deliver(d) => {
                // 1 second of serialization at 1 Gbps plus 120us base.
                assert_eq!(d.as_micros(), 1_000_000 + 120);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn loopback_is_fast_and_never_partitioned() {
        let mut net = Network::new(NetConfig::default());
        net.cut(NodeId(0), NodeId(0));
        let mut r = rng();
        match net.transmit(&mut r, NodeId(0), NodeId(0), 100) {
            Transmission::Deliver(d) => assert_eq!(d, SimDuration::from_micros(10)),
            other => panic!("loopback must not drop: {other:?}"),
        }
    }

    #[test]
    fn partition_drops_both_directions() {
        let mut net = Network::new(NetConfig::default());
        net.cut(NodeId(0), NodeId(1));
        let mut r = rng();
        assert_eq!(
            net.transmit(&mut r, NodeId(0), NodeId(1), 1),
            Transmission::Dropped(DropReason::Partition)
        );
        assert_eq!(
            net.transmit(&mut r, NodeId(1), NodeId(0), 1),
            Transmission::Dropped(DropReason::Partition)
        );
        net.heal(NodeId(1), NodeId(0));
        assert!(matches!(
            net.transmit(&mut r, NodeId(0), NodeId(1), 1),
            Transmission::Deliver(_)
        ));
    }

    #[test]
    fn group_partition_and_heal_all() {
        let mut net = Network::new(NetConfig::default());
        net.partition(&[NodeId(0), NodeId(1)], &[NodeId(2)]);
        assert!(!net.connected(NodeId(0), NodeId(2)));
        assert!(!net.connected(NodeId(1), NodeId(2)));
        assert!(net.connected(NodeId(0), NodeId(1)));
        net.heal_all();
        assert!(net.connected(NodeId(0), NodeId(2)));
    }

    #[test]
    fn counters_track_sent_and_bytes() {
        let mut net = Network::new(NetConfig::default());
        let mut r = rng();
        net.transmit(&mut r, NodeId(0), NodeId(1), 100);
        net.transmit(&mut r, NodeId(1), NodeId(2), 200);
        assert_eq!(net.messages_sent(), 2);
        assert_eq!(net.bytes_carried(), 300);
    }

    #[test]
    fn link_fault_loss_one_drops_everything() {
        let mut net = Network::new(NetConfig::default());
        net.set_link_fault(
            NodeId(0),
            NodeId(1),
            LinkFault {
                loss: 1.0,
                ..LinkFault::default()
            },
        );
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(
                net.transmit(&mut r, NodeId(0), NodeId(1), 1),
                Transmission::Dropped(DropReason::Loss)
            );
        }
        // The fault is per-link: an unfaulted pair still delivers.
        assert!(matches!(
            net.transmit(&mut r, NodeId(0), NodeId(2), 1),
            Transmission::Deliver(_)
        ));
        net.clear_link_faults();
        assert!(matches!(
            net.transmit(&mut r, NodeId(0), NodeId(1), 1),
            Transmission::Deliver(_)
        ));
    }

    #[test]
    fn link_fault_duplicate_one_duplicates_everything() {
        let mut net = Network::new(NetConfig::default());
        net.set_link_fault(
            NodeId(0),
            NodeId(1),
            LinkFault {
                duplicate: 1.0,
                ..LinkFault::default()
            },
        );
        let mut r = rng();
        for _ in 0..10 {
            assert!(matches!(
                net.transmit(&mut r, NodeId(0), NodeId(1), 1),
                Transmission::DeliverDup(_, _)
            ));
        }
        assert_eq!(net.messages_duplicated(), 10);
    }

    #[test]
    fn link_fault_reorder_extends_delay() {
        let cfg = NetConfig {
            jitter: SimDuration::ZERO,
            ..NetConfig::default()
        };
        let mut net = Network::new(cfg.clone());
        let hold = SimDuration::from_micros(REORDER_HOLD_US);
        net.set_link_fault(
            NodeId(0),
            NodeId(1),
            LinkFault {
                reorder: 1.0,
                ..LinkFault::default()
            },
        );
        let mut r = rng();
        let mut max_seen = SimDuration::ZERO;
        for _ in 0..50 {
            match net.transmit(&mut r, NodeId(0), NodeId(1), 0) {
                Transmission::Deliver(d) => {
                    assert!(d >= cfg.base_latency);
                    assert!(d <= cfg.base_latency + hold);
                    max_seen = max_seen.max(d);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(
            max_seen > cfg.base_latency + hold / 2,
            "holding should sometimes exceed normal delivery: {max_seen}"
        );
        assert_eq!(net.messages_reordered(), 50);
    }

    #[test]
    fn loopback_is_never_link_faulted() {
        let mut net = Network::new(NetConfig::default());
        net.set_link_fault(
            NodeId(0),
            NodeId(0),
            LinkFault {
                loss: 1.0,
                ..LinkFault::default()
            },
        );
        let mut r = rng();
        assert!(matches!(
            net.transmit(&mut r, NodeId(0), NodeId(0), 1),
            Transmission::Deliver(_)
        ));
    }

    #[test]
    fn jitter_bounded_by_config() {
        let cfg = NetConfig::default();
        let mut net = Network::new(cfg.clone());
        let mut r = rng();
        for _ in 0..100 {
            if let Transmission::Deliver(d) = net.transmit(&mut r, NodeId(0), NodeId(1), 0) {
                assert!(d >= cfg.base_latency);
                assert!(d <= cfg.base_latency + cfg.jitter);
            }
        }
    }
}
