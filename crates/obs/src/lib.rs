//! Deterministic structured tracing for the RobustStore stack.
//!
//! The paper's contribution is *explaining* availability dips, not just
//! measuring them: failover and recovery time decompose into failure
//! detection, consensus re-election, checkpoint load, and backlog
//! replay. This crate is the instrument layer that makes those phases
//! visible in our reproduction:
//!
//! * [`TraceEvent`] / [`TraceRecord`] — the typed event taxonomy, each
//!   record stamped with simulated time and node id. The vocabulary is
//!   declared once, as a table in [`event`], from which the enum, its
//!   kind tags and the JSONL codec are derived;
//! * [`Tracer`] — the run-global sink, owned by the simulation engine so
//!   record order follows the engine's deterministic event order and the
//!   trace of a `(seed, config)` pair is bit-identical across runs. It
//!   keeps the full record vector when [`TraceConfig`] enables it, and a
//!   ring of the [`FLIGHT_RECORDS`] newest records always;
//! * [`Hist`] — the log₂ histogram the reducers below summarise value
//!   series with (commit latency, detection latency, phase durations);
//! * [`jsonl`] — a canonical JSONL codec for traces (stdlib only);
//! * [`TraceStore`] — one run's records indexed in a single pass: the
//!   commit-path join tables, the send/receive/tag index, and one
//!   [`Incident`] row per crash (detection, re-election, the first
//!   failure-detector suspicion, checkpoint load ∥ log replay, backlog).
//!   Every offline reducer below is a query over it; the `exp_trace`
//!   binary is the command-line front end;
//! * [`analyze`] — commit-latency tables and failure-detector scoring
//!   ([`FdQuality`]: detection latency, false suspicions, mistake
//!   durations against the store's incident rows);
//! * [`timeline`] — windowed WIPS/commit/resource series with fault
//!   markers, plus [`AvailabilityReport`]s anchored on crash (or other)
//!   markers (time to detect / failover, dip depth, ramp back to 95 % of
//!   baseline);
//! * [`spans`] — per-update critical-path spans
//!   (submit→flush→accept→decide→apply→reply) whose phase latencies
//!   sum exactly to the measured commit latency;
//! * [`causal`] — the cross-node layer over [`spans`]: happens-before
//!   reconstruction per decided slot from `msg_sent`/`msg_recv`/
//!   `msg_tag` records, distributed critical paths, and per-node /
//!   per-link *blame* (net transit, retransmit stalls, disk fsync, CPU
//!   service, queueing) telescoping exactly to each commit latency;
//! * [`monitor`] — the one *online* layer: an in-sim SLO monitor fed
//!   deterministic scrape ticks during the run (rolling windows,
//!   threshold + multi-window burn-rate rules, a pending→firing→
//!   resolved alert lifecycle) plus a scorer that joins fired alerts
//!   against the driver's ground-truth [`InjectionLog`].
//!
//! The full trace is gated on [`TraceConfig`], default off; an untraced
//! run pays one push into the fixed-capacity flight ring per event.
//! This crate deliberately depends on nothing — not even the simulator —
//! so every layer of the stack can emit into it.

#![forbid(unsafe_code)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]

pub mod analyze;
pub mod causal;
pub mod event;
pub mod injection;
pub mod jsonl;
pub mod metrics;
pub mod monitor;
pub mod spans;
pub mod store;
#[cfg(test)]
mod testkit;
pub mod timeline;
pub mod tracer;

pub use analyze::{fd_quality, recovery_breakdowns, FdQuality, LatencySummary};
pub use causal::{BlameCategory, BlameSegment, CausalPath, CausalProfile};
pub use event::{node_u32, TraceEvent, TraceRecord, MODE_BLOCKED, MODE_CLASSIC, MODE_FAST};
pub use injection::{
    Injection, InjectionLog, INJECT_CRASH, INJECT_DISK_FAULT, INJECT_NET_FAULT, INJECT_PARTITION,
    INJECT_RECONFIG,
};
pub use metrics::Hist;
pub use monitor::{
    score_alerts, AlertLog, AlertPhase, AlertScore, AlertTransition, IncidentScore, Monitor,
    MonitorConfig, NodeHealth, Scrape, SUBJECT_CLUSTER,
};
pub use spans::{SpanProfile, UpdateSpan, PHASES};
pub use store::{Incident, TraceStore, TAG_NONE};
pub use timeline::{availability_reports, AvailabilityReport, Timeline, TimelineConfig};
pub use tracer::{TraceConfig, Tracer, FLIGHT_RECORDS};
