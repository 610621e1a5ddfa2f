//! The trace sink.
//!
//! One [`Tracer`] lives inside the simulation engine, which stamps every
//! event with the current simulated time at the moment it reaches the
//! sink. Because the engine processes events in a deterministic total
//! order (time, then FIFO sequence), the record vector — and hence its
//! JSONL rendering — is bit-identical across runs of the same seed.
//!
//! Sans-io protocol actors (acceptor, learner, leader, middleware)
//! cannot see the engine; they push into a plain event vector that
//! their driver drains into the tracer right after the handler
//! returns, so buffered events are stamped with the handler's dispatch
//! time.
//!
//! Two sinks share the `emit` entry point:
//!
//! * the **full trace** (`enabled`) — every record is appended; off by
//!   default;
//! * the **flight recorder** — a ring of the [`FLIGHT_RECORDS`] most
//!   recent records, kept even when the full trace is off, so a panic or
//!   audit violation can dump the moments leading up to it. The ring is
//!   a fixed-capacity `VecDeque`; steady-state cost is one push + one
//!   pop per event with no allocation.

use std::collections::VecDeque;

use crate::event::{TraceEvent, TraceRecord};

/// Flight-recorder depth: enough context to see the protocol exchange
/// that led to a violation, small enough to be free.
pub const FLIGHT_RECORDS: usize = 64;

/// Tracing knob carried by experiment configs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch for the full trace. Off by default; the flight ring
    /// runs either way.
    pub enabled: bool,
}

impl TraceConfig {
    /// A config with full tracing on.
    pub fn on() -> TraceConfig {
        TraceConfig { enabled: true }
    }
}

/// The run-global trace sink: an append-only record vector and the
/// bounded flight-recorder ring.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    records: Vec<TraceRecord>,
    flight: VecDeque<TraceRecord>,
}

impl Tracer {
    /// A tracer honoring `config`, with the flight ring on.
    pub fn new(config: TraceConfig) -> Tracer {
        Tracer {
            enabled: config.enabled,
            records: Vec::new(),
            flight: VecDeque::with_capacity(FLIGHT_RECORDS),
        }
    }

    /// Records `event` at time `t_us` on `node`: into the flight ring,
    /// and into the full trace when enabled.
    #[inline]
    pub fn emit(&mut self, t_us: u64, node: u32, event: TraceEvent) {
        if self.flight.len() == FLIGHT_RECORDS {
            self.flight.pop_front();
        }
        self.flight.push_back(TraceRecord {
            t_us,
            node,
            event: event.clone(),
        });
        if self.enabled {
            self.records.push(TraceRecord { t_us, node, event });
        }
    }

    /// The records emitted so far, in deterministic engine order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Takes ownership of the records (end of run).
    pub fn take_records(&mut self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.records)
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_tracer_records_every_event() {
        let mut t = Tracer::new(TraceConfig::on());
        t.emit(10, 2, TraceEvent::UpdateSubmitted { seq: 0 });
        t.emit(11, 2, TraceEvent::Crash);
        assert_eq!(t.records().len(), 2);
        assert_eq!(t.records()[0].t_us, 10);
        assert!(t.flight.iter().eq(t.records()));
    }

    #[test]
    fn flight_ring_keeps_only_the_tail() {
        // The default config: full trace off, ring on.
        let mut t = Tracer::new(TraceConfig::default());
        assert!(!t.enabled);
        let n = FLIGHT_RECORDS as u64 + 10;
        for i in 0..n {
            t.emit(i, 0, TraceEvent::UpdateSubmitted { seq: i });
        }
        assert!(t.records().is_empty(), "full trace stays off");
        let tail: Vec<_> = t.flight.iter().collect();
        assert_eq!(tail.len(), FLIGHT_RECORDS);
        assert_eq!(tail[0].t_us, 10, "oldest surviving record");
        assert_eq!(tail[FLIGHT_RECORDS - 1].t_us, n - 1);
        let jsonl = t.flight_jsonl();
        assert_eq!(jsonl.lines().count(), FLIGHT_RECORDS);
        assert!(jsonl.starts_with("{\"t\":10,"), "canonical JSONL: {jsonl}");
    }
}
