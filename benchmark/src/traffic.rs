//! Traffic classes from the trace, with no change to the program.
//!
//! The engine traces every send as `MsgSent` against the sender, and
//! every protocol message additionally as `MsgTag` with the same
//! transmission id and its `Msg::kind()`. Node ids below `replicas` are
//! servers, so a send whose two ends are both servers is consensus
//! traffic and everything else (browser ↔ proxy ↔ server) is web
//! traffic. A dropped send keeps its `MsgSent` record — the bytes were
//! put on the wire — and is counted again under `dropped`.

use std::collections::BTreeMap;

use obs::{TraceEvent, TraceRecord};

/// Message and byte totals of one class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Volume {
    pub msgs: u64,
    pub bytes: u64,
}

impl Volume {
    fn add(&mut self, bytes: u64) {
        self.msgs += 1;
        self.bytes += bytes;
    }
}

#[derive(Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Both ends are servers.
    pub replica: Volume,
    /// At least one end is the proxy or a client node.
    pub web: Volume,
    /// Sends the network model lost (partition, loss, destination down).
    pub dropped: u64,
    /// Replica traffic by protocol message kind (`MsgTag` joined to its
    /// `MsgSent` by transmission id).
    pub by_kind: BTreeMap<&'static str, Volume>,
    /// Tags whose send was not in the trace (should stay 0).
    pub unmatched_tags: u64,
}

pub fn classify(records: &[TraceRecord], replicas: usize) -> Traffic {
    let is_server = |node: u32| (node as usize) < replicas;
    let mut traffic = Traffic::default();
    // Bytes of replica↔replica sends still waiting for their tag. The
    // tag follows its send within a few records, so this stays small.
    let mut untagged: BTreeMap<u64, u64> = BTreeMap::new();
    for r in records {
        match r.event {
            TraceEvent::MsgSent { xid, to, bytes } => {
                if is_server(r.node) && is_server(to) {
                    traffic.replica.add(bytes);
                    untagged.insert(xid, bytes);
                } else {
                    traffic.web.add(bytes);
                }
            }
            TraceEvent::MsgTag { xid, kind, .. } => match untagged.remove(&xid) {
                Some(bytes) => traffic.by_kind.entry(kind).or_default().add(bytes),
                None => traffic.unmatched_tags += 1,
            },
            TraceEvent::MsgDropped { .. } => traffic.dropped += 1,
            _ => {}
        }
    }
    traffic
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(node: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            t_us: 0,
            node,
            event,
        }
    }

    fn sent(node: u32, xid: u64, to: u32, bytes: u64) -> TraceRecord {
        rec(node, TraceEvent::MsgSent { xid, to, bytes })
    }

    fn tag(node: u32, xid: u64, kind: &'static str) -> TraceRecord {
        rec(
            node,
            TraceEvent::MsgTag {
                xid,
                kind,
                origin: node,
                cseq: 0,
                slot: 0,
                round: 0,
            },
        )
    }

    #[test]
    fn node_id_ranges_split_replica_from_web_traffic() {
        // 3 replicas: nodes 0..3 are servers, 3 is the proxy, 4 a client.
        let records = vec![
            sent(0, 1, 2, 100), // server → server
            sent(4, 2, 3, 50),  // client → proxy
            sent(3, 3, 1, 60),  // proxy → server
            sent(1, 4, 3, 900), // server → proxy (the page)
            sent(2, 5, 0, 40),  // server → server
        ];
        let t = classify(&records, 3);
        assert_eq!(
            t.replica,
            Volume {
                msgs: 2,
                bytes: 140
            }
        );
        assert_eq!(
            t.web,
            Volume {
                msgs: 3,
                bytes: 1010
            }
        );
        // With 2 replicas node 2 is the proxy, so only web traffic is left.
        assert_eq!(classify(&records, 2).replica, Volume::default());
    }

    #[test]
    fn tags_join_their_send_by_transmission_id() {
        let records = vec![
            sent(0, 10, 1, 300),
            tag(0, 10, "accept"),
            sent(0, 11, 2, 300),
            sent(1, 12, 0, 80), // another node's send lands between send and tag
            tag(0, 11, "accept"),
            tag(1, 12, "accepted"),
            tag(2, 99, "alive"), // tag with no send in the trace
        ];
        let t = classify(&records, 3);
        assert_eq!(
            t.by_kind["accept"],
            Volume {
                msgs: 2,
                bytes: 600
            }
        );
        assert_eq!(t.by_kind["accepted"], Volume { msgs: 1, bytes: 80 });
        assert!(!t.by_kind.contains_key("alive"));
        assert_eq!(t.unmatched_tags, 1);
    }

    #[test]
    fn dropped_sends_stay_in_their_class_and_are_counted_again() {
        let records = vec![
            sent(0, 1, 1, 200),
            tag(0, 1, "learn_reply"),
            rec(
                0,
                TraceEvent::MsgDropped {
                    xid: 1,
                    to: 1,
                    bytes: 200,
                    reason: "dest_down",
                },
            ),
            sent(3, 2, 1, 70),
            rec(
                3,
                TraceEvent::MsgDropped {
                    xid: 2,
                    to: 1,
                    bytes: 70,
                    reason: "dest_down",
                },
            ),
        ];
        let t = classify(&records, 3);
        assert_eq!(t.dropped, 2);
        assert_eq!(t.replica.msgs, 1);
        assert_eq!(t.web.msgs, 1);
        assert_eq!(t.by_kind["learn_reply"].bytes, 200);
    }
}
