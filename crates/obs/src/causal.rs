//! Cross-node causal reconstruction and distributed blame attribution.
//!
//! [`spans`](crate::spans) telescopes an update's pipeline *on its
//! submitter*; this module follows the update **across the wire**. Every
//! protocol message carries a causal tag (`msg_tag`: origin node, origin
//! sequence, slot/ballot provenance) and every transmission emits paired
//! `msg_sent`/`msg_recv` records sharing a transmission id (`xid`), so
//! the decided value's history can be chained backwards from the
//! submitter's decide through the quorum:
//!
//! ```text
//! submit ─q─ flush ─c─ send(propose) ─r─ ··net·· recv@leader ─c─
//!   send(accept) ─r─ ··net·· recv@acceptor ─c─ log append ─D─
//!   append durable ─c─ send(accepted) ─r─ ··net·· recv@submitter ─c─
//!   decide ─q─ deliver
//! ```
//!
//! (`q` queueing, `c` CPU service, `r` retransmit stall, `D` disk
//! fsync; on the fast path the leader hop collapses because the
//! submitter's `fast_propose` goes straight to the acceptors.) Each
//! inter-anchor gap becomes a [`BlameSegment`] charged to one node (and
//! one link for net transit). Anchors are clamped monotonically into
//! `[submit, deliver]`, so a missing or mis-attributed anchor collapses
//! its segment to zero length but can never break the exactness
//! invariant: **a path's segments always telescope to its measured
//! commit latency** ([`CausalPath::telescopes`]).
//!
//! Attribution is per-anchor best effort. Retransmit stalls are
//! measured as *earliest send of the same logical message* (same node,
//! message kind, slot, ballot, destination) to *the send that was
//! actually received*; slot-less kinds (`propose`/`fast_propose`) get a
//! fresh causal seq per transmission, so their retransmissions surface
//! as CPU time at the sender instead — noted here so blame tables are
//! read correctly.

use std::collections::BTreeMap;

use crate::event::TraceRecord;
use crate::store::{latest_at_or_before, Delivery, TraceStore};

/// Where a microsecond of commit latency went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BlameCategory {
    /// Waiting in a middleware queue (batch window, apply backlog).
    Queueing,
    /// Handler execution between two local anchors.
    CpuService,
    /// On the wire between a send and its matching receive.
    NetTransit,
    /// Between the first transmission of a logical message and the one
    /// that finally got through (loss/timeout stalls).
    RetransmitStall,
    /// Stable-log append issued → durable (the acceptor's fsync).
    DiskFsync,
}

impl BlameCategory {
    /// All categories in canonical (table) order.
    pub const ALL: [BlameCategory; 5] = [
        BlameCategory::Queueing,
        BlameCategory::CpuService,
        BlameCategory::NetTransit,
        BlameCategory::RetransmitStall,
        BlameCategory::DiskFsync,
    ];

    /// Stable snake_case name for tables and metric keys.
    pub fn name(self) -> &'static str {
        match self {
            BlameCategory::Queueing => "queueing",
            BlameCategory::CpuService => "cpu_service",
            BlameCategory::NetTransit => "net_transit",
            BlameCategory::RetransmitStall => "retransmit_stall",
            BlameCategory::DiskFsync => "disk_fsync",
        }
    }

    /// Index into [`BlameCategory::ALL`]-ordered arrays.
    pub fn index(self) -> usize {
        match self {
            BlameCategory::Queueing => 0,
            BlameCategory::CpuService => 1,
            BlameCategory::NetTransit => 2,
            BlameCategory::RetransmitStall => 3,
            BlameCategory::DiskFsync => 4,
        }
    }
}

/// One contiguous stretch of a distributed critical path, charged to
/// `node` (and, for net transit, the link `node → peer`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlameSegment {
    /// What the time was spent on.
    pub category: BlameCategory,
    /// The node the time is charged to (the sender, for net transit).
    pub node: u32,
    /// The receiving end of the link, for net-transit segments.
    pub peer: Option<u32>,
    /// Segment start (µs, sim time).
    pub start_us: u64,
    /// Segment length (µs).
    pub dur_us: u64,
}

/// The distributed critical path of one locally-submitted update, from
/// client submit to learner delivery on the submitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalPath {
    /// Submitting node.
    pub node: u32,
    /// The submitter's update sequence number.
    pub seq: u64,
    /// The consensus slot the update was decided in.
    pub slot: u64,
    /// Client submit time (µs).
    pub submit_us: u64,
    /// Group-commit flush time (clamped into the path).
    pub flush_us: u64,
    /// Quorum decide time on the submitter (clamped into the path).
    pub decide_us: u64,
    /// Delivery (apply) time on the submitter.
    pub deliver_us: u64,
    /// Measured commit latency: `deliver_us - submit_us`.
    pub total_us: u64,
    /// Blame segments in path order; they partition
    /// `[submit_us, deliver_us]`.
    pub segments: Vec<BlameSegment>,
}

impl CausalPath {
    /// The exactness invariant: segments telescope to the measured
    /// commit latency. True by construction; asserted in tests and
    /// `exp_trace --check`.
    pub fn telescopes(&self) -> bool {
        self.segments.iter().map(|s| s.dur_us).sum::<u64>() == self.total_us
    }

    /// Total µs this path charges to `category`.
    pub fn blame(&self, category: BlameCategory) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.category == category)
            .map(|s| s.dur_us)
            .sum()
    }

    /// Flush → decide on the submitter: the distributed consensus
    /// round-trip (the repo benchmark's `paxos.quorum_decide_mean_us`).
    pub fn quorum_decide_us(&self) -> u64 {
        self.decide_us.saturating_sub(self.flush_us)
    }
}

/// Blame totals for one delivery-time window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowBlame {
    /// Window start (µs; multiple of the window size).
    pub start_us: u64,
    /// Paths whose delivery fell in this window.
    pub paths: u64,
    /// Per-category µs totals, [`BlameCategory::ALL`] order.
    pub totals: [u64; 5],
}

/// All causal paths of one run, with blame aggregations.
#[derive(Debug, Clone, Default)]
pub struct CausalProfile {
    /// One path per locally-submitted, delivered update, in delivery
    /// order.
    pub paths: Vec<CausalPath>,
}

/// One leg of the path, `(at, category, node, peer)`: "the previous
/// anchor up to `at` was `category` on `node`".
type Leg = (Option<u64>, BlameCategory, u32, Option<u32>);

impl CausalProfile {
    /// Reconstructs every causal path from one run's records (engine
    /// order).
    pub fn from_records(records: &[TraceRecord]) -> CausalProfile {
        CausalProfile::from_store(&TraceStore::build(records))
    }

    /// One path per local delivery: only locally-submitted updates
    /// carry a latency, so only those become paths.
    pub fn from_store(store: &TraceStore) -> CausalProfile {
        CausalProfile {
            paths: store
                .deliveries
                .iter()
                .map(|d| build_path(store, d))
                .collect(),
        }
    }

    /// µs of blame per `key`, over every segment of every path for
    /// which `key` is `Some`.
    fn blame_by<K: Ord>(&self, key: impl Fn(&BlameSegment) -> Option<K>) -> BTreeMap<K, u64> {
        let mut map: BTreeMap<K, u64> = BTreeMap::new();
        for s in self.paths.iter().flat_map(|p| &p.segments) {
            if let Some(k) = key(s) {
                *map.entry(k).or_default() += s.dur_us;
            }
        }
        map
    }

    /// Per-category blame totals across all paths,
    /// [`BlameCategory::ALL`] order.
    pub fn blame_by_category(&self) -> [u64; 5] {
        let by_cat = self.blame_by(|s| Some(s.category.index()));
        std::array::from_fn(|cat| by_cat.get(&cat).copied().unwrap_or(0))
    }

    /// Per-node blame totals (all categories), sorted by node id.
    pub fn blame_by_node(&self) -> Vec<(u32, u64)> {
        self.blame_by(|s| Some(s.node)).into_iter().collect()
    }

    /// Net-transit blame per directed link `(sender, receiver)`.
    pub fn blame_by_link(&self) -> Vec<((u32, u32), u64)> {
        let by_link = self.blame_by(|s| match (s.category, s.peer) {
            (BlameCategory::NetTransit, Some(peer)) => Some((s.node, peer)),
            _ => None,
        });
        by_link.into_iter().collect()
    }

    /// Blame totals bucketed by delivery-time window.
    #[expect(
        clippy::indexing_slicing,
        reason = "`Category::index` is below the five categories a totals array holds"
    )]
    pub fn windows(&self, window_us: u64) -> Vec<WindowBlame> {
        let window_us = window_us.max(1);
        let mut map: BTreeMap<u64, ([u64; 5], u64)> = BTreeMap::new();
        for p in &self.paths {
            let start = (p.deliver_us / window_us) * window_us;
            let e = map.entry(start).or_default();
            e.1 += 1;
            for s in &p.segments {
                e.0[s.category.index()] += s.dur_us;
            }
        }
        map.into_iter()
            .map(|(start_us, (totals, paths))| WindowBlame {
                start_us,
                paths,
                totals,
            })
            .collect()
    }

    /// Mean flush → decide latency (µs) across paths; 0 when empty.
    pub fn quorum_decide_mean_us(&self) -> f64 {
        if self.paths.is_empty() {
            return 0.0;
        }
        let sum: u64 = self.paths.iter().map(|p| p.quorum_decide_us()).sum();
        sum as f64 / self.paths.len() as f64
    }
}

/// Backward-chains one delivered update through the quorum and lays the
/// anchors out as monotonically clamped blame segments.
fn build_path(store: &TraceStore, d: &Delivery) -> CausalPath {
    use BlameCategory::*;
    let (node, seq, slot) = (d.node, d.seq, d.slot);
    let (deliver_us, latency_us) = (d.t_us, d.latency_us);
    let submit_us = deliver_us.saturating_sub(latency_us);
    let t1 = store.flush_for(node, seq, submit_us, deliver_us);
    let t10 = store
        .decides
        .get(&(node, d.incarnation, slot))
        .copied()
        .filter(|&t| t <= deliver_us);

    let mut legs: Vec<Leg> = Vec::new();
    legs.push((t1, Queueing, node, None)); // submit → flush: batch wait

    // Decide ← the accepted reply that completed the quorum.
    let quorum_by = t10.unwrap_or(deliver_us);
    let r_acc = store.latest_recv_slot(node, "accepted", slot, quorum_by);
    if let Some((t9, _, acc_xid, acceptor)) = r_acc {
        // Accepted send on the acceptor (retransmit-group earliest +
        // actual), then its durability and append anchors.
        let (t8, t8p) = store.send_times(acc_xid, t9);
        let t7 = latest_at_or_before(store.durables.get(&acceptor), t8);
        let t6 = latest_at_or_before(store.appends.get(&acceptor), t7.unwrap_or(t8));

        // The proposal that triggered the append: a slot-matched accept
        // (classic), else the submitter's own fast/classic propose
        // (fast path or leader == submitter).
        let trig_by = t6.unwrap_or(t8);
        let r_trig = store
            .latest_recv_slot(acceptor, "accept", slot, trig_by)
            .or_else(|| {
                let kinds = ["fast_propose", "any", "propose"];
                store.latest_recv_origin(acceptor, &kinds, node, trig_by)
            });

        if let Some((t5, _, trig_xid, proposer)) = r_trig {
            let (t4, t4p) = store.send_times(trig_xid, t5);
            if proposer != node {
                // Classic path through a remote leader: find the
                // middleware propose that reached it.
                let r_prop = store.latest_recv_origin(proposer, &["propose"], node, t4);
                if let Some((t3, _, prop_xid, _)) = r_prop {
                    let (t2, t2p) = store.send_times(prop_xid, t3);
                    legs.push((Some(t2), CpuService, node, None));
                    legs.push((Some(t2p), RetransmitStall, node, None));
                    legs.push((Some(t3), NetTransit, node, Some(proposer)));
                    legs.push((Some(t4), CpuService, proposer, None));
                } else {
                    // No propose found (e.g. leader learned the value
                    // another way): charge the whole gap as transit to
                    // the leader — rare and clamped.
                    legs.push((Some(t4), NetTransit, node, Some(proposer)));
                }
            } else {
                legs.push((Some(t4), CpuService, node, None));
            }
            legs.push((Some(t4p), RetransmitStall, proposer, None));
            legs.push((Some(t5), NetTransit, proposer, Some(acceptor)));
        }

        legs.push((t6, CpuService, acceptor, None)); // recv → append
        legs.push((t7, DiskFsync, acceptor, None)); // append → durable
        legs.push((Some(t8), CpuService, acceptor, None)); // durable → send
        legs.push((Some(t8p), RetransmitStall, acceptor, None));
        legs.push((Some(t9), NetTransit, acceptor, Some(node)));
    }

    legs.push((t10, CpuService, node, None)); // accepted → decide
    legs.push((Some(deliver_us), Queueing, node, None)); // decide → apply

    // Monotone clamp: every anchor is pulled into [cur, deliver], so
    // the segment durations telescope to the latency by construction.
    let mut segments = Vec::new();
    let mut cur = submit_us;
    let mut flush_c = submit_us;
    let mut decide_c = deliver_us;
    for (i, &(at, category, node, peer)) in legs.iter().enumerate() {
        let Some(at) = at else { continue };
        let at = at.clamp(cur, deliver_us);
        if i == 0 {
            flush_c = at;
        }
        if i == legs.len() - 2 {
            decide_c = at;
        }
        if at > cur {
            segments.push(BlameSegment {
                category,
                node,
                peer,
                start_us: cur,
                dur_us: at - cur,
            });
        }
        cur = at;
    }
    // The final leg always has an anchor (deliver_us), so cur == deliver.
    CausalPath {
        node,
        seq,
        slot,
        submit_us,
        flush_us: flush_c,
        decide_us: decide_c,
        deliver_us,
        total_us: latency_us,
        segments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::store::TAG_NONE;
    use crate::testkit::*;

    fn sent(t: u64, node: u32, xid: u64, to: u32) -> TraceRecord {
        rec(
            t,
            node,
            TraceEvent::MsgSent {
                xid,
                to,
                bytes: 100,
            },
        )
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per field of the `MsgTag` record this helper builds"
    )]
    fn tag(
        t: u64,
        node: u32,
        xid: u64,
        kind: &'static str,
        origin: u32,
        cseq: u64,
        slot: u64,
        round: u64,
    ) -> TraceRecord {
        rec(
            t,
            node,
            TraceEvent::MsgTag {
                xid,
                kind,
                origin,
                cseq,
                slot,
                round,
            },
        )
    }

    fn recv(t: u64, node: u32, xid: u64, from: u32) -> TraceRecord {
        rec(
            t,
            node,
            TraceEvent::MsgRecv {
                xid,
                from,
                bytes: 100,
            },
        )
    }

    /// submit(100) → flush(150) → propose 0→1 (160..200) → accept
    /// 1→2 (220..260) → append(270) → durable(320) → accepted 2→0
    /// (320..360) → decide(365) → deliver(400).
    fn classic_trace() -> Vec<TraceRecord> {
        vec![
            submitted(100, 0, 0),
            flushed(150, 0, 0, 1),
            sent(160, 0, 1, 1),
            tag(160, 0, 1, "propose", 0, 0, TAG_NONE, TAG_NONE),
            recv(200, 1, 1, 0),
            sent(220, 1, 2, 2),
            tag(220, 1, 2, "accept", 1, 1, 5, 1),
            recv(260, 2, 2, 1),
            appended(270, 2),
            durable(320, 2),
            sent(320, 2, 3, 0),
            tag(320, 2, 3, "accepted", 2, 2, 5, 1),
            recv(360, 0, 3, 2),
            decided(365, 0, 5),
            delivered(400, 0, 5, 0, 300),
        ]
    }

    #[test]
    fn classic_path_segments_are_exact() {
        use BlameCategory::*;
        let profile = CausalProfile::from_records(&classic_trace());
        assert_eq!(profile.paths.len(), 1);
        let p = &profile.paths[0];
        assert!(p.telescopes(), "segments: {:?}", p.segments);
        assert_eq!(p.total_us, 300);
        assert_eq!(p.submit_us, 100);
        assert_eq!(p.flush_us, 150);
        assert_eq!(p.decide_us, 365);
        assert_eq!(p.quorum_decide_us(), 215);
        let want = [
            (Queueing, 0, None, 100, 50),      // submit → flush
            (CpuService, 0, None, 150, 10),    // flush → propose send
            (NetTransit, 0, Some(1), 160, 40), // 0 → 1
            (CpuService, 1, None, 200, 20),    // propose → accept send
            (NetTransit, 1, Some(2), 220, 40), // 1 → 2
            (CpuService, 2, None, 260, 10),    // recv → append
            (DiskFsync, 2, None, 270, 50),     // append → durable
            (NetTransit, 2, Some(0), 320, 40), // 2 → 0
            (CpuService, 0, None, 360, 5),     // accepted → decide
            (Queueing, 0, None, 365, 35),      // decide → apply
        ];
        assert_eq!(p.segments.len(), want.len(), "{:?}", p.segments);
        for (s, (cat, node, peer, start, dur)) in p.segments.iter().zip(want) {
            assert_eq!((s.category, s.node, s.peer), (cat, node, peer));
            assert_eq!((s.start_us, s.dur_us), (start, dur), "{s:?}");
        }
        assert_eq!(profile.blame_by_category()[DiskFsync.index()], 50);
        assert_eq!(
            profile.blame_by_link(),
            vec![((0, 1), 40), ((1, 2), 40), ((2, 0), 40)]
        );
    }

    #[test]
    fn lost_then_retransmitted_accept_shows_a_stall() {
        use BlameCategory::*;
        // The first accept (xid 2) is lost; the leader retransmits the
        // same (slot, round) as xid 4 at 500, which gets through.
        let trace = vec![
            submitted(100, 0, 0),
            flushed(150, 0, 0, 1),
            sent(160, 0, 1, 1),
            tag(160, 0, 1, "propose", 0, 0, TAG_NONE, TAG_NONE),
            recv(200, 1, 1, 0),
            sent(220, 1, 2, 2),
            tag(220, 1, 2, "accept", 1, 1, 5, 1),
            rec(
                220,
                1,
                TraceEvent::MsgDropped {
                    xid: 2,
                    to: 2,
                    bytes: 100,
                    reason: "loss",
                },
            ),
            sent(500, 1, 4, 2),
            tag(500, 1, 4, "accept", 1, 2, 5, 1),
            recv(540, 2, 4, 1),
            appended(550, 2),
            durable(600, 2),
            sent(600, 2, 5, 0),
            tag(600, 2, 5, "accepted", 2, 3, 5, 1),
            recv(640, 0, 5, 2),
            decided(645, 0, 5),
            delivered(680, 0, 5, 0, 580),
        ];
        let profile = CausalProfile::from_records(&trace);
        assert_eq!(profile.paths.len(), 1);
        let p = &profile.paths[0];
        assert!(p.telescopes());
        // The stall is the gap between the lost send (220) and the
        // retransmission that landed (500), charged to the leader.
        let stall: Vec<_> = p
            .segments
            .iter()
            .filter(|s| s.category == RetransmitStall)
            .collect();
        assert_eq!(stall.len(), 1, "{:?}", p.segments);
        assert_eq!((stall[0].node, stall[0].dur_us), (1, 280));
        assert_eq!(p.blame(RetransmitStall), 280);
    }

    #[test]
    fn crash_mid_quorum_still_telescopes() {
        // Acceptor 2 takes the accept but crashes before replying; the
        // quorum completes through acceptor 3. The path must follow the
        // reply that actually arrived and still telescope.
        let trace = vec![
            submitted(100, 0, 0),
            flushed(150, 0, 0, 1),
            sent(160, 0, 1, 1),
            tag(160, 0, 1, "propose", 0, 0, TAG_NONE, TAG_NONE),
            recv(200, 1, 1, 0),
            // Accepts to both acceptors.
            sent(220, 1, 2, 2),
            tag(220, 1, 2, "accept", 1, 1, 5, 1),
            sent(220, 1, 3, 3),
            tag(220, 1, 3, "accept", 1, 2, 5, 1),
            recv(260, 2, 2, 1),
            crash(262, 2),
            recv(270, 3, 3, 1),
            appended(280, 3),
            durable(340, 3),
            sent(340, 3, 4, 0),
            tag(340, 3, 4, "accepted", 3, 3, 5, 1),
            recv(390, 0, 4, 3),
            decided(395, 0, 5),
            delivered(430, 0, 5, 0, 330),
        ];
        let profile = CausalProfile::from_records(&trace);
        assert_eq!(profile.paths.len(), 1);
        let p = &profile.paths[0];
        assert!(p.telescopes());
        assert_eq!(p.blame(BlameCategory::DiskFsync), 60);
        // The surviving acceptor carries the reply link.
        assert!(p
            .segments
            .iter()
            .any(|s| s.category == BlameCategory::NetTransit && s.node == 3 && s.peer == Some(0)));
    }

    #[test]
    fn batch_spanning_two_slots_yields_two_exact_paths() {
        // Two updates flushed together but decided in two slots (the
        // middleware split the batch): each gets its own path against
        // the same flush record, and both telescope.
        let mut trace = vec![
            submitted(100, 0, 0),
            submitted(110, 0, 1),
            flushed(150, 0, 0, 2),
        ];
        // Slot 5 carries seq 0, slot 6 carries seq 1; fast path
        // (submitter sends fast_propose straight to the acceptor).
        for (i, slot) in [(0u64, 5u64), (1, 6)] {
            let base = 160 + i * 300;
            let xid = 10 + i * 2;
            trace.extend(vec![
                sent(base, 0, xid, 2),
                tag(base, 0, xid, "fast_propose", 0, i, TAG_NONE, TAG_NONE),
                recv(base + 40, 2, xid, 0),
                appended(base + 50, 2),
                durable(base + 90, 2),
                sent(base + 90, 2, xid + 1, 0),
                tag(base + 90, 2, xid + 1, "accepted", 2, i, slot, 0),
                recv(base + 130, 0, xid + 1, 2),
                decided(base + 135, 0, slot),
            ]);
            trace.push(delivered(
                base + 160,
                0,
                slot,
                i,
                base + 160 - (100 + i * 10),
            ));
        }
        let profile = CausalProfile::from_records(&trace);
        assert_eq!(profile.paths.len(), 2);
        for p in &profile.paths {
            assert!(p.telescopes(), "path {p:?}");
            assert_eq!(p.flush_us, 150, "both share the flush");
            assert_eq!(p.blame(BlameCategory::DiskFsync), 40);
            // Fast path: no leader hop, both net links touch node 0.
            assert!(p
                .segments
                .iter()
                .all(|s| s.category != BlameCategory::NetTransit
                    || s.node == 0
                    || s.peer == Some(0)));
        }
        assert_eq!(profile.paths[0].slot, 5);
        assert_eq!(profile.paths[1].slot, 6);
    }

    #[test]
    fn missing_anchors_collapse_but_never_break_telescoping() {
        // A delivery with no protocol records at all: the whole latency
        // lands in queueing, and the invariant still holds.
        let trace = vec![delivered(400, 0, 5, 0, 300)];
        let profile = CausalProfile::from_records(&trace);
        assert_eq!(profile.paths.len(), 1);
        let p = &profile.paths[0];
        assert!(p.telescopes());
        assert_eq!(p.segments.len(), 1);
        assert_eq!(p.segments[0].category, BlameCategory::Queueing);
        assert_eq!(p.segments[0].dur_us, 300);
    }

    #[test]
    fn exports_are_deterministic_and_aggregate_correctly() {
        let profile = CausalProfile::from_records(&classic_trace());
        let windows = profile.windows(1_000);
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].paths, 1);
        assert_eq!(windows[0].totals.iter().sum::<u64>(), 300);
        assert!((profile.quorum_decide_mean_us() - 215.0).abs() < 1e-9);
    }
}
