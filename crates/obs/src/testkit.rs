//! One-line constructors for hand-built traces, shared by the reducers'
//! unit tests. Fields a reducer does not read get a fixed filler.

use crate::event::{TraceEvent, TraceRecord};

pub fn rec(t_us: u64, node: u32, event: TraceEvent) -> TraceRecord {
    TraceRecord { t_us, node, event }
}

pub fn submitted(t: u64, node: u32, seq: u64) -> TraceRecord {
    rec(t, node, TraceEvent::UpdateSubmitted { seq })
}

pub fn flushed(t: u64, node: u32, first_seq: u64, updates: u64) -> TraceRecord {
    let trigger = "size";
    let event = TraceEvent::BatchFlushed {
        updates,
        trigger,
        first_seq,
    };
    rec(t, node, event)
}

pub fn accepted(t: u64, node: u32, slot: u64) -> TraceRecord {
    let (round, fast) = (1, true);
    rec(t, node, TraceEvent::Accepted { slot, round, fast })
}

pub fn decided(t: u64, node: u32, slot: u64) -> TraceRecord {
    let noop = false;
    rec(t, node, TraceEvent::Decided { slot, noop })
}

/// `node` applies its own update.
pub fn delivered(t: u64, node: u32, slot: u64, seq: u64, latency_us: u64) -> TraceRecord {
    delivered_for(t, node, slot, node, seq, latency_us)
}

/// `node` applies `submitter`'s update.
pub fn delivered_for(
    t: u64,
    node: u32,
    slot: u64,
    submitter: u32,
    seq: u64,
    latency_us: u64,
) -> TraceRecord {
    let event = TraceEvent::UpdateDelivered {
        slot,
        index: 0,
        submitter,
        seq,
        latency_us,
    };
    rec(t, node, event)
}

pub fn replied(t: u64, node: u32, seq: u64) -> TraceRecord {
    rec(t, node, TraceEvent::ReplySent { seq })
}

pub fn appended(t: u64, node: u32) -> TraceRecord {
    rec(t, node, TraceEvent::LogAppend { bytes: 100 })
}

pub fn durable(t: u64, node: u32) -> TraceRecord {
    rec(t, node, TraceEvent::AppendDurable)
}

pub fn crash(t: u64, node: u32) -> TraceRecord {
    rec(t, node, TraceEvent::Crash)
}

pub fn restart(t: u64, node: u32) -> TraceRecord {
    rec(t, node, TraceEvent::Restart { incarnation: 1 })
}

pub fn elected(t: u64, node: u32) -> TraceRecord {
    let (round, fast) = (2, true);
    rec(t, node, TraceEvent::LeaderElected { round, fast })
}

pub fn suspected(t: u64, observer: u32, peer: u32) -> TraceRecord {
    let silent_us = 400_000;
    rec(t, observer, TraceEvent::PeerSuspected { peer, silent_us })
}

pub fn cleared(t: u64, observer: u32, peer: u32, suspected_us: u64) -> TraceRecord {
    rec(t, observer, TraceEvent::PeerCleared { peer, suspected_us })
}
