//! # paxos — classic Paxos and Fast Paxos for replicated logs
//!
//! A faithful, sans-io implementation of the consensus core of Treplica,
//! the replication middleware evaluated in *"Dynamic Content Web
//! Applications: Crash, Failover, and Recovery Analysis"* (DSN 2009).
//!
//! The protocol maintains a totally ordered log of values (one consensus
//! instance per [`Slot`]) across `N` replicas, each running all three
//! roles. Operating modes follow the paper's rule (§2):
//!
//! * **Fast** — while ⌈3N/4⌉ processes work, proposers send values
//!   straight to the acceptors (Fast Paxos, 2 message delays), deciding
//!   on the fast quorum ⌈3N/4⌉; the coordinator recovers collided slots
//!   with single-slot classic rounds chosen by rule O4.
//! * **Classic** — between ⌊N/2⌋+1 and ⌈3N/4⌉−1 working processes,
//!   proposals route through the coordinator (classic Paxos, 3 message
//!   delays), deciding on a majority.
//! * **Blocked** — below a majority the log stops until recoveries.
//!
//! The crate is pure protocol logic: handlers return [`Effect`]s (sends,
//! durable-log appends, in-order deliveries) and the embedding driver
//! supplies the network, disk and clock. Durable appends *gate* the
//! protocol messages that depend on them, so stable-storage latency sits
//! on the critical path exactly as in the paper's testbed.
//!
//! ## Example
//!
//! ```
//! use paxos::{PaxosConfig, Replica, ReplicaId, Effect};
//!
//! // A replica is pure: feeding it events yields effects to apply.
//! let mut r0: Replica<String> = Replica::new(ReplicaId(0), PaxosConfig::lan(3), 0);
//! let effects = r0.on_tick(0); // first tick: heartbeat + election start
//! assert!(effects.iter().any(|e| matches!(e, Effect::Send { .. })));
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

mod acceptor;
mod config;
mod fd;
mod leader;
mod learner;
mod msg;
mod proposer;
mod replica;
mod ring;
mod types;

pub use acceptor::{Acceptor, AcceptorOut, Dest};
pub use config::PaxosConfig;
pub use fd::{FailureDetector, FdTransition, Mode};
pub use leader::{choose_decree, Leader, LeaderPhase};
pub use learner::{Delivery, Learner};
pub use msg::{AcceptedReport, CausalTag, Effect, Effects, Msg, PersistToken, Record};
pub use proposer::{PendingProposal, Proposer};
pub use replica::{Replica, ReplicaStatus};
pub use ring::{SeqRing, RING_SPAN};
pub use types::{
    Ballot, BallotClass, Batch, Decree, Membership, ProposalId, Quorums, Reconfig, ReplicaId, Slot,
};
