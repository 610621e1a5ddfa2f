//! # treplica — replication middleware (persistent queue + state machine)
//!
//! Rust reproduction of **Treplica**, the middleware at the core of
//! *"Dynamic Content Web Applications: Crash, Failover, and Recovery
//! Analysis"* (DSN 2009). Treplica turns a deterministic application
//! into a replicated, crash-recoverable service through two cooperating
//! abstractions (paper §2):
//!
//! * the **asynchronous persistent queue** — a totally ordered,
//!   durable collection of actions implemented with Paxos and Fast
//!   Paxos ([`PersistentQueue`] is the delivery-side view);
//! * the **replicated state machine** — the application implements
//!   [`Application`] (deterministic `apply`, `snapshot`, `restore`) and
//!   the middleware handles ordering, durability, checkpoints and
//!   autonomous recovery ([`Middleware`]).
//!
//! Recovery (§2) is fully transparent: on restart the node reloads its
//! newest checkpoint from disk *in parallel with* re-learning the
//! missed queue suffix from the live replicas, then resumes as if it
//! had never crashed.
//!
//! The crate is sans-io like its `paxos` core: drivers feed events and
//! apply [`MwEffect`]s. The `cluster` crate runs it on the `simnet`
//! simulated testbed.
//!
//! ## Example: a replicated counter
//!
//! ```
//! use treplica::{Application, Middleware, Snapshot, TreplicaConfig, Wire, WireError};
//!
//! #[derive(Debug)]
//! struct Counter { total: u64 }
//! impl Application for Counter {
//!     type Action = u64;
//!     type Reply = u64;
//!     fn apply(&mut self, action: &u64) -> u64 { self.total += action; self.total }
//!     fn snapshot(&self) -> Snapshot { Snapshot::exact(self.total.to_bytes()) }
//!     fn restore(data: &[u8]) -> Result<Self, WireError> {
//!         Ok(Counter { total: u64::from_bytes(data)? })
//!     }
//! }
//!
//! let mut node = Middleware::new(paxos::ReplicaId(0), Counter { total: 0 },
//!                                TreplicaConfig::lan(1), 0);
//! // Tick once: the single-replica ensemble elects itself.
//! let _fx = node.on_tick(0);
//! let (_pid, _fx) = node.execute(41, 0).expect("active");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod app;
mod codec;
mod middleware;
mod queue;
mod wire;

pub use app::{Application, Snapshot};
pub use codec::{record_slot, MAX_BATCH_ITEMS};
pub use middleware::{
    Meta, Middleware, MwEffect, MwMsg, MwStatus, RecoveredDisk, StillRecovering, TreplicaConfig,
    LOG_NAME, META_KEY,
};
pub use queue::{PersistentQueue, QueueEntry};
pub use wire::{check_field, ByteCount, EncodeScratch, Sink, Wire, WireError};
