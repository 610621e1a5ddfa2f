//! The trace sink and the actor-local event buffers feeding it.
//!
//! One [`Tracer`] lives inside the simulation engine, which stamps every
//! event with the current simulated time at the moment it reaches the
//! sink. Because the engine processes events in a deterministic total
//! order (time, then FIFO sequence), the record vector — and hence its
//! JSONL rendering — is bit-identical across runs of the same seed.
//!
//! Sans-io protocol actors (acceptor, learner, leader, middleware)
//! cannot see the engine; they push into an [`EventBuf`] that their
//! driver drains into the tracer right after the handler returns, so
//! buffered events are stamped with the handler's dispatch time.
//!
//! Two sinks share the `emit` entry point:
//!
//! * the **full trace** (`enabled`) — every record is appended and fed
//!   to the per-node metric registries; off by default;
//! * the **flight recorder** (`flight_records > 0`) — a bounded ring of
//!   the most recent records, kept even when the full trace is off, so
//!   a panic or audit violation can dump the moments leading up to it.
//!   The ring is a fixed-capacity `VecDeque`; steady-state cost is one
//!   push + one pop per event with no allocation.
//!
//! True zero cost requires both off (`enabled: false`,
//! `flight_records: 0`): then `emit` short-circuits on a single bool
//! and a disabled buffer never allocates (draining an empty `Vec` is a
//! pointer swap).

use std::collections::VecDeque;

use crate::event::{TraceEvent, TraceRecord};
use crate::metrics::NodeMetrics;

/// Default flight-recorder depth: enough context to see the protocol
/// exchange that led to a violation, small enough to be free.
pub const DEFAULT_FLIGHT_RECORDS: usize = 64;

/// Tracing knob carried by experiment and middleware configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch for the full trace (records + metrics). Off by
    /// default.
    pub enabled: bool,
    /// Flight-recorder ring depth; `0` disables the ring. Defaults to
    /// [`DEFAULT_FLIGHT_RECORDS`], so every run keeps a short tail of
    /// recent records for crash/violation dumps even with the full
    /// trace off.
    pub flight_records: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            enabled: false,
            flight_records: DEFAULT_FLIGHT_RECORDS,
        }
    }
}

impl TraceConfig {
    /// A config with full tracing on.
    pub fn on() -> TraceConfig {
        TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        }
    }

    /// Whether any sink wants events: the full trace or the flight
    /// ring. Emit points use this (not [`TraceConfig::enabled`]) to
    /// decide whether constructing events is worthwhile.
    #[inline]
    pub fn record_events(&self) -> bool {
        self.enabled || self.flight_records > 0
    }
}

/// The run-global trace sink: an append-only record vector plus
/// per-node metric registries, and the bounded flight-recorder ring.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    flight_cap: usize,
    records: Vec<TraceRecord>,
    flight: VecDeque<TraceRecord>,
    nodes: Vec<NodeMetrics>,
}

impl Tracer {
    /// A fully disabled tracer (no records, no metrics, no flight ring
    /// — the zero-cost engine default for raw-engine users).
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A tracer honoring `config`.
    pub fn new(config: TraceConfig) -> Tracer {
        Tracer {
            enabled: config.enabled,
            flight_cap: config.flight_records,
            records: Vec::new(),
            flight: VecDeque::with_capacity(config.flight_records),
            nodes: Vec::new(),
        }
    }

    /// Whether the *full* trace is being recorded (records + metrics).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether any sink consumes events (full trace or flight ring).
    /// Drivers gate event construction on this.
    #[inline]
    pub fn active(&self) -> bool {
        self.enabled || self.flight_cap > 0
    }

    /// Records `event` at time `t_us` on `node`: into the flight ring
    /// always (when one is configured), and into the full trace +
    /// metrics when enabled. No-op when fully inactive.
    #[inline]
    pub fn emit(&mut self, t_us: u64, node: u32, event: TraceEvent) {
        if !self.active() {
            return;
        }
        if self.flight_cap > 0 {
            if self.flight.len() == self.flight_cap {
                self.flight.pop_front();
            }
            self.flight.push_back(TraceRecord {
                t_us,
                node,
                event: event.clone(),
            });
        }
        if self.enabled {
            self.auto_metrics(node, &event);
            self.records.push(TraceRecord { t_us, node, event });
        }
    }

    /// Records a histogram sample without emitting a trace record (for
    /// high-frequency series like queue depths). No-op unless the full
    /// trace is enabled.
    #[inline]
    pub fn observe(&mut self, node: u32, metric: &'static str, value: u64) {
        if !self.enabled {
            return;
        }
        self.node_metrics(node).observe(metric, value);
    }

    /// The records emitted so far, in deterministic engine order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Takes ownership of the records (end of run).
    pub fn take_records(&mut self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.records)
    }

    /// The flight-recorder ring: the most recent records (oldest
    /// first), bounded by the configured depth. Empty when no ring is
    /// configured.
    pub fn flight_records(&self) -> Vec<TraceRecord> {
        self.flight.iter().cloned().collect()
    }

    /// The flight ring rendered as canonical JSONL (one line per
    /// record, oldest first) — the crash-dump format.
    pub fn flight_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in &self.flight {
            out.push_str(&crate::jsonl::encode(rec));
            out.push('\n');
        }
        out
    }

    /// Per-node metric registries (indexed by node id; nodes that never
    /// emitted have default registries or are absent past the end).
    pub fn metrics(&self) -> &[NodeMetrics] {
        &self.nodes
    }

    fn node_metrics(&mut self, node: u32) -> &mut NodeMetrics {
        let idx = node as usize;
        if idx >= self.nodes.len() {
            self.nodes.resize(idx + 1, NodeMetrics::default());
        }
        // simlint: allow(panic-taint): index is in range by the resize above; returning a non-panicking &mut here fights the borrow checker
        &mut self.nodes[idx]
    }

    /// Standard metric derivations: every event bumps its kind counter;
    /// a few carry values worth aggregating.
    fn auto_metrics(&mut self, node: u32, event: &TraceEvent) {
        let m = self.node_metrics(node);
        m.count(event.kind(), 1);
        match *event {
            TraceEvent::UpdateDelivered { latency_us, .. } if latency_us > 0 => {
                m.observe("commit_latency_us", latency_us);
            }
            TraceEvent::BatchFlushed { updates, .. } => {
                m.observe("batch_updates", updates);
            }
            TraceEvent::LogAppend { bytes } => {
                m.observe("append_bytes", bytes);
            }
            TraceEvent::PeerSuspected { silent_us, .. } => {
                m.observe("fd_silence_us", silent_us);
            }
            TraceEvent::PeerCleared { suspected_us, .. } => {
                m.observe("fd_suspected_us", suspected_us);
            }
            _ => {}
        }
    }
}

/// A deferred event buffer for sans-io actors that cannot reach the
/// engine-owned [`Tracer`] directly.
///
/// Disabled by default (`Default`), so actors constructed in unit tests
/// trace nothing; the owning driver switches it on and drains it.
#[derive(Debug, Default)]
pub struct EventBuf {
    enabled: bool,
    events: Vec<TraceEvent>,
}

impl EventBuf {
    /// A buffer with the given state.
    pub fn new(enabled: bool) -> EventBuf {
        EventBuf {
            enabled,
            events: Vec::new(),
        }
    }

    /// Switches buffering on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether pushes are being kept.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Buffers `event` (no-op when disabled).
    #[inline]
    pub fn push(&mut self, event: TraceEvent) {
        if self.enabled {
            self.events.push(event);
        }
    }

    /// Drains the buffered events in order (nothing when disabled). The
    /// buffer keeps its capacity, so the pushes after a drain do not
    /// allocate again.
    pub fn take(&mut self) -> std::vec::Drain<'_, TraceEvent> {
        self.events.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.emit(5, 0, TraceEvent::Crash);
        t.observe(0, "q", 3);
        assert!(t.records().is_empty());
        assert!(t.metrics().is_empty());
        assert!(t.flight_records().is_empty());
        assert!(!t.active());
    }

    #[test]
    fn enabled_tracer_records_and_counts() {
        let mut t = Tracer::new(TraceConfig::on());
        t.emit(
            10,
            2,
            TraceEvent::UpdateDelivered {
                slot: 1,
                index: 0,
                submitter: 2,
                seq: 0,
                latency_us: 40,
            },
        );
        t.emit(11, 2, TraceEvent::Crash);
        assert_eq!(t.records().len(), 2);
        assert_eq!(t.records()[0].t_us, 10);
        let m = &t.metrics()[2];
        assert_eq!(m.counter("update_delivered"), 1);
        assert_eq!(m.counter("crash"), 1);
        assert_eq!(m.hist("commit_latency_us").unwrap().count(), 1);
    }

    #[test]
    fn flight_ring_keeps_only_the_tail_without_full_records() {
        // Flight-only mode: the default config (tracing off, ring on).
        let mut t = Tracer::new(TraceConfig {
            enabled: false,
            flight_records: 3,
        });
        assert!(t.active());
        assert!(!t.enabled());
        for i in 0..10u64 {
            t.emit(i, 0, TraceEvent::UpdateSubmitted { seq: i });
        }
        assert!(t.records().is_empty(), "full trace stays off");
        assert!(t.metrics().is_empty(), "metrics need the full trace");
        let tail = t.flight_records();
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].t_us, 7, "oldest surviving record");
        assert_eq!(tail[2].t_us, 9);
        let jsonl = t.flight_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.starts_with("{\"t\":7,"), "canonical JSONL: {jsonl}");
    }

    #[test]
    fn flight_ring_mirrors_the_full_trace_tail_when_enabled() {
        let mut t = Tracer::new(TraceConfig {
            enabled: true,
            flight_records: 2,
        });
        for i in 0..5u64 {
            t.emit(i, 1, TraceEvent::UpdateSubmitted { seq: i });
        }
        assert_eq!(t.records().len(), 5);
        let tail = t.flight_records();
        assert_eq!(tail.len(), 2);
        assert_eq!(tail, t.records()[3..].to_vec());
    }

    #[test]
    fn zero_flight_records_restores_zero_cost() {
        let mut t = Tracer::new(TraceConfig {
            enabled: false,
            flight_records: 0,
        });
        assert!(!t.active());
        t.emit(1, 0, TraceEvent::Crash);
        assert!(t.flight_records().is_empty());
        assert!(t.flight_jsonl().is_empty());
    }

    #[test]
    fn event_buf_respects_enabled_flag() {
        let mut b = EventBuf::default();
        b.push(TraceEvent::Crash);
        assert_eq!(b.take().len(), 0);
        b.set_enabled(true);
        b.push(TraceEvent::Crash);
        assert_eq!(b.take().len(), 1);
        assert_eq!(b.take().len(), 0, "take drains");
    }

    #[test]
    fn event_buf_keeps_its_capacity_across_drains() {
        let mut b = EventBuf::new(true);
        b.push(TraceEvent::Crash);
        let capacity = b.events.capacity();
        assert!(capacity > 0);
        drop(b.take());
        assert_eq!(b.events.capacity(), capacity, "drained in place");
        // A drain dropped half-way still empties the buffer.
        b.push(TraceEvent::Crash);
        b.push(TraceEvent::Crash);
        b.take().next();
        assert_eq!(b.take().len(), 0);
    }
}
