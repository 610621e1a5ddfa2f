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
//! had never crashed. A node boots with [`Middleware::bootstrap`] and
//! restarts with [`Middleware::recover`], which reads its disk itself;
//! both take the application's initial state, so a node always holds
//! one.
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
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![warn(clippy::too_many_lines)]
#![warn(clippy::cast_possible_truncation, clippy::cast_precision_loss)]
#![warn(clippy::float_arithmetic)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
#![forbid(unsafe_code)]

mod app;
mod batcher;
mod checkpoint;
mod codec;
mod middleware;
mod msg;
mod queue;
mod recovery;
mod wire;

pub use app::{Application, Snapshot};
pub use checkpoint::{Meta, LOG_NAME, META_KEY};
pub use codec::MAX_BATCH_ITEMS;
pub use middleware::{Middleware, MwEffect, MwStatus, StillRecovering, TreplicaConfig};
pub use msg::MwMsg;
pub use queue::{PersistentQueue, QueueEntry};
pub use wire::{
    check_field, check_slice, encode_slice, ByteCount, EncodeScratch, Sink, Wire, WireError,
};

/// A single-replica ensemble driven synchronously, for the in-crate
/// tests that need a whole [`Middleware`] around the part they exercise.
#[cfg(test)]
pub(crate) mod testkit {
    use paxos::{Membership, ReplicaId};
    use simnet::{StableOp, StableStore};

    use crate::{
        Application, Middleware, MwEffect, Snapshot, TreplicaConfig, Wire, WireError, LOG_NAME,
    };

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct Counter {
        pub(crate) total: u64,
    }

    impl Application for Counter {
        type Action = u64;
        type Reply = u64;
        fn apply(&mut self, action: &u64) -> u64 {
            self.total += *action;
            self.total
        }
        fn snapshot(&self) -> Snapshot {
            Snapshot {
                data: self.total.to_bytes(),
                nominal_bytes: 1_000_000,
            }
        }
        fn restore(data: &[u8]) -> Result<Self, WireError> {
            Ok(Counter {
                total: u64::from_bytes(data)?,
            })
        }
    }

    pub(crate) fn config() -> TreplicaConfig {
        TreplicaConfig {
            checkpoint_interval: 2,
            ..TreplicaConfig::lan(1)
        }
    }

    pub(crate) fn batching_config(max: usize, window_us: u64) -> TreplicaConfig {
        TreplicaConfig {
            checkpoint_interval: 100,
            batch_max_updates: max,
            batch_window_us: window_us,
            ..TreplicaConfig::lan(1)
        }
    }

    /// Drives a single-replica middleware synchronously: completes every
    /// disk op immediately and loops sends back into itself. Returns the
    /// replies of the updates applied on the way.
    pub(crate) fn drain(
        mw: &mut Middleware<Counter>,
        fx: Vec<MwEffect<Counter>>,
        store: &mut StableStore,
    ) -> Vec<u64> {
        drain_counting(mw, fx, store).0
    }

    /// Like [`drain`], but also counts durable log appends — the unit
    /// the group commit coalesces.
    pub(crate) fn drain_counting(
        mw: &mut Middleware<Counter>,
        fx: Vec<MwEffect<Counter>>,
        store: &mut StableStore,
    ) -> (Vec<u64>, usize) {
        let mut appends = 0;
        let mut applied = Vec::new();
        let mut queue = fx;
        while !queue.is_empty() {
            let mut next = Vec::new();
            for e in queue {
                match e {
                    MwEffect::Send { msg, .. } => {
                        mw.on_message_into(ReplicaId(0), msg, 0, &mut next);
                    }
                    MwEffect::DiskWrite { op, token, nominal } => {
                        if matches!(op, StableOp::Append { .. }) {
                            appends += 1;
                        }
                        if let (Some(nom), StableOp::Put { key, .. }) = (nominal, &op) {
                            store.set_nominal(key, nom);
                        }
                        if let Some((log, entry)) = store.apply(op) {
                            mw.recycle_append(log, entry);
                        }
                        mw.on_disk_write_done_into(token, &mut next);
                    }
                    MwEffect::DiskRead { key, token } => {
                        let value = store.get(&key).map(<[u8]>::to_vec);
                        mw.on_disk_read_done_into(token, value, &mut next);
                    }
                    MwEffect::DiskReadRaw { token, .. } => {
                        mw.on_disk_read_done_into(token, None, &mut next);
                    }
                    MwEffect::Applied { reply, .. } => applied.push(reply),
                    MwEffect::RecoveryComplete => {}
                    MwEffect::Reconfigured { .. } => {}
                }
            }
            queue = next;
        }
        (applied, appends)
    }

    pub(crate) fn active_single() -> (Middleware<Counter>, StableStore) {
        active_single_with(config())
    }

    pub(crate) fn active_single_with(config: TreplicaConfig) -> (Middleware<Counter>, StableStore) {
        let mut store = StableStore::new();
        let membership = Membership::initial(config.paxos.n);
        let (mut mw, boot) =
            Middleware::bootstrap(ReplicaId(0), Counter { total: 0 }, config, membership, 0);
        drain(&mut mw, boot, &mut store);
        // Single-replica ensemble elects itself on the first tick.
        let fx = mw.on_tick(0);
        drain(&mut mw, fx, &mut store);
        let fx = mw.on_tick(200_000);
        drain(&mut mw, fx, &mut store);
        (mw, store)
    }

    /// Executes `values` one at a time, each driven to completion.
    pub(crate) fn execute_all(
        mw: &mut Middleware<Counter>,
        store: &mut StableStore,
        values: std::ops::RangeInclusive<u64>,
    ) -> Vec<u64> {
        let mut applied = Vec::new();
        for v in values {
            let (_pid, fx) = mw.execute(v, 0).expect("active");
            applied.extend(drain(mw, fx, store));
        }
        applied
    }

    /// Restarts incarnation `epoch` from `store` and ticks it until the
    /// recovery completes (a single replica catches up against itself).
    /// Returns the node and the replies of the updates it replayed.
    pub(crate) fn recover_from(
        store: &mut StableStore,
        config: TreplicaConfig,
        epoch: u64,
    ) -> (Middleware<Counter>, Vec<u64>) {
        let initial = Counter { total: 0 };
        let (mut mw, fx) = Middleware::recover(ReplicaId(0), store, initial, config, epoch, 0);
        let mut replayed = drain(&mut mw, fx, store);
        for t in 1..50u64 {
            let fx = mw.on_tick(t * 100_000);
            replayed.extend(drain(&mut mw, fx, store));
            if !mw.is_recovering() {
                break;
            }
        }
        (mw, replayed)
    }

    /// Simulates a crash mid-append: the durable log's final entry is a
    /// strict prefix of a record encoding (never decodes).
    pub(crate) fn tear_last_record(store: &mut StableStore) {
        let torn = {
            let log = store.log(LOG_NAME).expect("log exists");
            let entry = log.iter().last().expect("non-empty log").1.to_vec();
            assert!(entry.len() >= 2, "need a record long enough to tear");
            entry[..entry.len() - 1].to_vec()
        };
        store.apply(StableOp::Append {
            log: LOG_NAME.to_string(),
            entry: torn,
        });
    }
}
