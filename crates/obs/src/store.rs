//! The indexed trace: every join table the reducers need, built once.
//!
//! A trace answers questions by *joining* records: an update's submit to
//! its flush, accept, decide and apply; a receive to its send and causal
//! tag; a suspicion to whether its peer was really down. [`TraceStore`]
//! makes all of those joins in a single pass over one run's records and
//! keeps the resulting tables; the reducers ([`crate::spans`],
//! [`crate::causal`], [`crate::analyze`], [`crate::timeline`]) are
//! queries over it, so asking a new question of a trace is one more
//! query, not one more scan.
//!
//! A node's volatile pipeline — and its per-epoch sequence space —
//! restarts when it crashes, so commit-path tables are keyed by
//! `(node, incarnation, id)`, the incarnation being the number of
//! crashes the node has suffered so far.

use std::collections::BTreeMap;

use crate::event::{TraceEvent, TraceRecord};

/// Sentinel for "no slot/ballot provenance" in causal tags
/// (`msg_tag.slot`/`msg_tag.round`).
pub const TAG_NONE: u64 = u64::MAX;

/// Key of the commit-path tables: `(node, incarnation, seq or slot)`.
type Key = (u32, u32, u64);

/// An update applied on its own submitter with a measured submit→apply
/// latency: the unit every commit-latency reducer works on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Delivery {
    pub t_us: u64,
    pub node: u32,
    pub incarnation: u32,
    pub slot: u64,
    pub seq: u64,
    pub latency_us: u64,
}

/// One crash and what coming back cost, cut into the paper's recovery
/// phases: the single answer to "when was this node really down, and why
/// did its recovery take as long as it did". An incident is *open* from
/// its crash until the node announces recovery complete or crashes
/// again; a phase has a duration once both its edges were traced.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Incident {
    /// The crashed node.
    pub node: u32,
    /// Crash time (µs).
    pub crash_at_us: u64,
    /// Crash → restart: the watchdog delay. `None` while the node had
    /// not come back within the trace.
    pub detection_us: Option<u64>,
    /// Crash → first `LeaderElected` anywhere in the cluster afterwards,
    /// attributed to the oldest open incident still lacking one. `None`
    /// when no election was needed (the victim was a follower) or none
    /// completed in the trace.
    pub reelection_us: Option<u64>,
    /// Crash → first `PeerSuspected` of the node while it was down.
    /// `None` when no failure detector fired before it restarted.
    pub suspected_after_us: Option<u64>,
    /// The node whose failure detector fired first.
    pub suspected_by: Option<u32>,
    /// Checkpoint load start → loaded, on the restarted incarnation.
    pub checkpoint_load_us: Option<u64>,
    /// Log replay start → replayed, on the restarted incarnation; it
    /// runs in parallel with the checkpoint load.
    pub log_replay_us: Option<u64>,
    /// Backlog re-learn: local replay done (restart + the longer of the
    /// two restart reads) → `RecoveryComplete`.
    pub backlog_replay_us: Option<u64>,
    /// Whole incident: crash → `RecoveryComplete`.
    pub total_us: Option<u64>,
    /// Whether the incident closed with a `RecoveryComplete`.
    pub complete: bool,
}

/// The start stamps of a restarted incarnation's two parallel reads:
/// `(checkpoint load, log replay)`.
type Reads = (Option<u64>, Option<u64>);

/// An open incident while the store is built: its row in
/// `TraceStore::incidents` and its restart reads' start stamps.
type Open = (usize, Reads);

impl Incident {
    /// Times one of the restarted node's own milestones, at `t`, against
    /// its open incident; returns whether it closed the incident.
    fn milestone(&mut self, reads: &mut Reads, event: &TraceEvent, t: u64) -> bool {
        let since = |from: Option<u64>| Some(t.saturating_sub(from?));
        match event {
            TraceEvent::Restart { .. } => self.detection_us = since(Some(self.crash_at_us)),
            TraceEvent::CheckpointLoadStart { .. } => reads.0 = Some(t),
            TraceEvent::CheckpointLoaded { .. } => self.checkpoint_load_us = since(reads.0),
            TraceEvent::LogReplayStart { .. } => reads.1 = Some(t),
            TraceEvent::LogReplayed { .. } => self.log_replay_us = since(reads.1),
            TraceEvent::RecoveryComplete { .. } => {
                // Local replay ends when both parallel restart reads are
                // done; the backlog re-learn covers the rest.
                let longer_read = self.checkpoint_load_us.max(self.log_replay_us);
                let local_done =
                    self.crash_at_us + self.detection_us.unwrap_or(0) + longer_read.unwrap_or(0);
                self.backlog_replay_us = since(Some(local_done));
                self.total_us = since(Some(self.crash_at_us));
                self.complete = true;
            }
            _ => {}
        }
        self.complete
    }
}

/// One transmission: when it left, between whom, and the causal tag its
/// `msg_tag` record carried (protocol messages only).
#[derive(Debug, Clone, Copy)]
struct Send {
    t_us: u64,
    from: u32,
    to: u32,
    tag: Option<Tag>,
}

/// A causal tag: `(kind, origin, cseq, slot, round)`.
type Tag = (&'static str, u32, u64, u64, u64);

/// `(recv time, trace order, xid, sender)`. The trace-order counter
/// breaks same-microsecond ties the way the original receive log would.
pub(crate) type RecvEntry = (u64, u64, u64, u32);

/// One run's records plus the lookup tables built from them in one
/// pass.
#[derive(Default)]
pub struct TraceStore<'a> {
    /// The run's records, in engine order.
    pub records: &'a [TraceRecord],

    // --- the commit path ---
    /// Local deliveries with a measured latency, in trace order.
    pub(crate) deliveries: Vec<Delivery>,
    /// All `update_delivered` records, remote applications included.
    pub(crate) updates_delivered: u64,
    /// `(node, incarnation, seq)` → submit time.
    pub(crate) submits: BTreeMap<Key, u64>,
    /// `(node, incarnation, slot)` → first local acceptance.
    pub(crate) accepts: BTreeMap<Key, u64>,
    /// `(node, incarnation, slot)` → first decision.
    pub(crate) decides: BTreeMap<Key, u64>,
    /// `(node, incarnation, seq)` → first reply to the blocked client.
    pub(crate) replies: BTreeMap<Key, u64>,
    /// node → `(flush time, first_seq, updates)`, in order.
    pub(crate) flushes: BTreeMap<u32, Vec<(u64, u64, u64)>>,
    /// node → log-append times, in order.
    pub(crate) appends: BTreeMap<u32, Vec<u64>>,
    /// node → append-durable times, in order.
    pub(crate) durables: BTreeMap<u32, Vec<u64>>,

    // --- the wire ---
    /// xid → the transmission.
    sends: BTreeMap<u64, Send>,
    /// (receiver, kind, slot) → tagged receives in trace order. Keyed
    /// so slot-bearing lookups are a `partition_point`, not a scan over
    /// the node's whole receive history.
    recvs_by_slot: BTreeMap<(u32, &'static str, u64), Vec<RecvEntry>>,
    /// (receiver, kind, origin) → tagged receives in trace order, for
    /// slot-less origin-filtered lookups (propose / fast_propose).
    recvs_by_origin: BTreeMap<(u32, &'static str, u32), Vec<RecvEntry>>,
    /// Logical-message group → earliest send time. Key: (sender, kind,
    /// dest, slot, round, cseq-for-slotless).
    groups: BTreeMap<(u32, &'static str, u32, u64, u64, u64), u64>,

    // --- faults ---
    /// Every crash, in trace order (which is crash-time order).
    pub incidents: Vec<Incident>,
    /// Suspicions of a peer that was up, in trace order, each with how
    /// long it lasted once its `peer_cleared` was seen.
    pub(crate) false_suspicions: Vec<Option<u64>>,
    /// Fault, recovery and alert events `(time, node, kind)`, in trace
    /// order: the timeline's markers.
    pub(crate) markers: Vec<(u64, u32, &'static str)>,
}

/// Event kinds that become timeline markers.
fn is_marker(event: &TraceEvent) -> bool {
    use TraceEvent::*;
    matches!(
        event,
        Crash
            | Restart { .. }
            | RecoveryComplete { .. }
            | LeaderElected { .. }
            | ReconfigProposed { .. }
            | EpochChanged { .. }
            | PartitionCut { .. }
            | PartitionHealed
            | NetFaultSet { .. }
            | NetFaultCleared
            | DiskFaultSet { .. }
            | DiskFaultCleared
            // Operator-visible alert windows next to the fault markers
            // (pending transitions are deliberately omitted: they mark
            // sub-debounce blips and would drown the plot).
            | AlertFiring { .. }
            | AlertResolved { .. }
    )
}

fn group_key(send: &Send, tag: Tag) -> (u32, &'static str, u32, u64, u64, u64) {
    let (kind, _, cseq, slot, round) = tag;
    // Slot-bearing messages group retransmissions by (slot, round);
    // slot-less ones get a fresh cseq per transmission, so each is
    // its own group (stall invisible — charged as sender CPU).
    let cseq = if slot == TAG_NONE { cseq } else { 0 };
    (send.from, kind, send.to, slot, round, cseq)
}

impl<'a> TraceStore<'a> {
    /// Indexes one run's records (engine order) in a single pass.
    #[expect(
        clippy::indexing_slicing,
        reason = "rows in `open` index `s.incidents` and `s.false_suspicions`, which only grow"
    )]
    pub fn build(records: &'a [TraceRecord]) -> TraceStore<'a> {
        let mut s = TraceStore {
            records,
            ..TraceStore::default()
        };
        // node → crashes so far.
        let mut incarnations: BTreeMap<u32, u32> = BTreeMap::new();
        // Open incidents, oldest first.
        let mut open: Vec<Open> = Vec::new();
        // (observer, peer) → its unresolved entry in `false_suspicions`.
        let mut mistaken: BTreeMap<(u32, u32), usize> = BTreeMap::new();
        let mut recv_ord: u64 = 0;

        for rec in records {
            let (t, node) = (rec.t_us, rec.node);
            if is_marker(&rec.event) {
                s.markers.push((t, node, rec.event.kind()));
            }
            let incarnation = || incarnations.get(&node).copied().unwrap_or(0);
            let key = |id: u64| (node, incarnation(), id);
            let open_of = |s: &TraceStore, open: &[Open], n: u32| {
                open.iter().position(|o| s.incidents[o.0].node == n)
            };
            match rec.event {
                TraceEvent::MsgSent { xid, to, .. } => {
                    let send = Send {
                        t_us: t,
                        from: node,
                        to,
                        tag: None,
                    };
                    s.sends.insert(xid, send);
                }
                // Traced against the sender right after its `msg_sent`.
                TraceEvent::MsgTag {
                    xid,
                    kind,
                    origin,
                    cseq,
                    slot,
                    round,
                } => {
                    if let Some(send) = s.sends.get_mut(&xid) {
                        let tag = (kind, origin, cseq, slot, round);
                        send.tag = Some(tag);
                        let first = s.groups.entry(group_key(send, tag)).or_insert(send.t_us);
                        *first = (*first).min(send.t_us);
                    }
                }
                TraceEvent::MsgRecv { xid, from, .. } => {
                    // Untagged receives (non-protocol traffic) never
                    // match a blame lookup, so they are not indexed.
                    if let Some((kind, origin, _, slot, _)) = s.sends.get(&xid).and_then(|s| s.tag)
                    {
                        let entry = (t, recv_ord, xid, from);
                        recv_ord += 1;
                        s.recvs_by_slot
                            .entry((node, kind, slot))
                            .or_default()
                            .push(entry);
                        s.recvs_by_origin
                            .entry((node, kind, origin))
                            .or_default()
                            .push(entry);
                    }
                }
                TraceEvent::LogAppend { .. } => s.appends.entry(node).or_default().push(t),
                TraceEvent::AppendDurable => s.durables.entry(node).or_default().push(t),
                TraceEvent::BatchFlushed {
                    updates, first_seq, ..
                } => {
                    s.flushes
                        .entry(node)
                        .or_default()
                        .push((t, first_seq, updates));
                }
                TraceEvent::UpdateSubmitted { seq } => {
                    s.submits.insert(key(seq), t);
                }
                TraceEvent::Accepted { slot, .. } => {
                    s.accepts.entry(key(slot)).or_insert(t);
                }
                TraceEvent::Decided { slot, .. } => {
                    s.decides.entry(key(slot)).or_insert(t);
                }
                TraceEvent::ReplySent { seq } => {
                    s.replies.entry(key(seq)).or_insert(t);
                }
                TraceEvent::UpdateDelivered {
                    slot,
                    submitter,
                    seq,
                    latency_us,
                    ..
                } => {
                    s.updates_delivered += 1;
                    // Only the submitter saw the submit, so only its own
                    // delivery carries a latency.
                    if submitter == node && latency_us > 0 {
                        s.deliveries.push(Delivery {
                            t_us: t,
                            node,
                            incarnation: incarnation(),
                            slot,
                            seq,
                            latency_us,
                        });
                    }
                }
                TraceEvent::Crash => {
                    *incarnations.entry(node).or_default() += 1;
                    // A second crash closes the node's open incident.
                    open.retain(|o| s.incidents[o.0].node != node);
                    open.push((s.incidents.len(), (None, None)));
                    s.incidents.push(Incident {
                        node,
                        crash_at_us: t,
                        ..Incident::default()
                    });
                }
                TraceEvent::LeaderElected { .. } => {
                    let waiting = open
                        .iter()
                        .map(|o| &s.incidents[o.0])
                        .position(|i| i.reelection_us.is_none() && t >= i.crash_at_us);
                    if let Some(pos) = waiting {
                        let i = &mut s.incidents[open[pos].0];
                        i.reelection_us = Some(t - i.crash_at_us);
                    }
                }
                // The restarted node's own milestones time the phases of
                // its open incident; the last one closes it.
                TraceEvent::Restart { .. }
                | TraceEvent::CheckpointLoadStart { .. }
                | TraceEvent::CheckpointLoaded { .. }
                | TraceEvent::LogReplayStart { .. }
                | TraceEvent::LogReplayed { .. }
                | TraceEvent::RecoveryComplete { .. } => {
                    if let Some(pos) = open_of(&s, &open, node) {
                        let (row, reads) = &mut open[pos];
                        if s.incidents[*row].milestone(reads, &rec.event, t) {
                            open.remove(pos);
                        }
                    }
                }
                TraceEvent::PeerSuspected { peer, .. } => {
                    // Down means crashed and not yet restarted.
                    let down = open_of(&s, &open, peer)
                        .map(|pos| open[pos].0)
                        .filter(|&i| s.incidents[i].detection_us.is_none());
                    match down {
                        Some(i) => {
                            let i = &mut s.incidents[i];
                            if i.suspected_by.is_none() {
                                i.suspected_after_us = Some(t.saturating_sub(i.crash_at_us));
                                i.suspected_by = Some(node);
                            }
                        }
                        None => {
                            mistaken.insert((node, peer), s.false_suspicions.len());
                            s.false_suspicions.push(None);
                        }
                    }
                }
                TraceEvent::PeerCleared { peer, suspected_us } => {
                    if let Some(i) = mistaken.remove(&(node, peer)) {
                        s.false_suspicions[i] = Some(suspected_us);
                    }
                }
                _ => {}
            }
        }
        s
    }

    /// The flush that carried `(node, seq)`, searching forward from
    /// `t_min`.
    pub(crate) fn flush_for(&self, node: u32, seq: u64, t_min: u64, t_max: u64) -> Option<u64> {
        let v = self.flushes.get(&node)?;
        let start = v.partition_point(|f| f.0 < t_min);
        for &(t, first_seq, updates) in v.get(start..)? {
            if t > t_max {
                break;
            }
            if first_seq <= seq && seq < first_seq.saturating_add(updates) {
                return Some(t);
            }
        }
        None
    }

    /// Latest receive at `node` of a `kind` message for `slot` with
    /// `t <= t_max`.
    pub(crate) fn latest_recv_slot(
        &self,
        node: u32,
        kind: &'static str,
        slot: u64,
        t_max: u64,
    ) -> Option<RecvEntry> {
        latest_entry(&self.recvs_by_slot, (node, kind, slot), t_max)
    }

    /// Latest receive at `node` of any of `kinds` originated by
    /// `origin` with `t <= t_max`; ties across kinds break on trace
    /// order, like the single receive log they were split from.
    pub(crate) fn latest_recv_origin(
        &self,
        node: u32,
        kinds: &[&'static str],
        origin: u32,
        t_max: u64,
    ) -> Option<RecvEntry> {
        kinds
            .iter()
            .filter_map(|k| latest_entry(&self.recvs_by_origin, (node, *k, origin), t_max))
            .max_by_key(|&(t, ord, _, _)| (t, ord))
    }

    /// When `xid` left its sender, and the earliest transmission of the
    /// same logical message (its retransmit group): `(earliest,
    /// actual)`. Both fall back to `recv_us` for an unknown send.
    pub(crate) fn send_times(&self, xid: u64, recv_us: u64) -> (u64, u64) {
        let Some(send) = self.sends.get(&xid) else {
            return (recv_us, recv_us);
        };
        let earliest = send
            .tag
            .and_then(|tag| self.groups.get(&group_key(send, tag)))
            .map_or(send.t_us, |&first| first.min(send.t_us));
        (earliest, send.t_us)
    }
}

/// Latest entry with `t <= t_max` in one keyed receive vector.
fn latest_entry<K: Ord>(
    map: &BTreeMap<K, Vec<RecvEntry>>,
    key: K,
    t_max: u64,
) -> Option<RecvEntry> {
    let v = map.get(&key)?;
    let i = v.partition_point(|r| r.0 <= t_max);
    v.get(i.checked_sub(1)?).copied()
}

/// Latest entry `<= t` in a sorted time vector.
pub(crate) fn latest_at_or_before(v: Option<&Vec<u64>>, t: u64) -> Option<u64> {
    let v = v?;
    let i = v.partition_point(|&x| x <= t);
    v.get(i.checked_sub(1)?).copied()
}
