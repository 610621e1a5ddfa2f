//! # simnet — deterministic discrete-event simulation substrate
//!
//! This crate stands in for the paper's physical testbed: an 18-node
//! cluster of Xeon machines with 7200 rpm disks behind one 1 Gbps
//! Ethernet switch ("Dynamic Content Web Applications: Crash, Failover,
//! and Recovery Analysis", DSN 2009, §5.1). Every higher layer of the
//! reproduction — the Paxos/Fast Paxos implementation, the Treplica
//! middleware, the TPC-W application servers, the reverse proxy and the
//! browser emulators — runs as actors driven by this engine.
//!
//! Design goals:
//!
//! * **Determinism.** A run is a pure function of its seed and
//!   configuration: one seeded RNG, FIFO tie-breaking in the event queue.
//! * **Faithful failure semantics.** Crashing a node loses its volatile
//!   state and in-flight disk writes but preserves stable storage;
//!   restart bumps an incarnation so stale callbacks never leak across
//!   process lifetimes.
//! * **Costs where the paper says they are.** Consensus progress is
//!   gated on durable log appends; recovery pays a bulk checkpoint read
//!   proportional to state size; messages pay latency plus serialization.
//!
//! ## Example
//!
//! ```
//! use simnet::{Engine, Event, NodeId, SimConfig, SimDuration, SimTime};
//!
//! let mut engine: Engine<String> = Engine::new(3, SimConfig::default(), 1);
//! engine.send(NodeId(0), NodeId(2), "hello".to_string());
//! engine.set_timer(NodeId(1), SimDuration::from_millis(5), 1);
//! let mut seen = 0;
//! while let Some((_, _ev)) = engine.next_event_before(SimTime::from_secs(1)) {
//!     seen += 1;
//! }
//! assert_eq!(seen, 2);
//! ```

#![warn(missing_docs)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![warn(clippy::too_many_lines)]
#![warn(clippy::cast_possible_truncation, clippy::cast_precision_loss)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]
#![forbid(unsafe_code)]

mod disk;
mod engine;
mod net;
mod node;
#[doc(hidden)]
pub mod queue;
mod time;

pub use disk::{DiskConfig, DiskModel, StableLog, StableOp, StableStore};
pub use engine::{DiskFault, Engine, Event, SimConfig};
pub use net::{DropReason, LinkFault, NetConfig, Network, Transmission, REORDER_HOLD_US};
pub use node::{Incarnation, NodeId, NodeState, NodeStatus};
pub use time::{SimDuration, SimTime};

// Re-exported so engine drivers can name trace types without adding a
// direct `obs` dependency.
pub use obs::{TraceConfig, TraceEvent, TraceRecord, Tracer};
