//! # robuststore — the TPC-W bookstore retrofitted with Treplica
//!
//! The paper's RobustStore (§4): the stand-alone TPC-W on-line
//! bookstore turned into a replicated, crash-recoverable application by
//! (I) expressing its critical state as a nine-class object model
//! behind the `treplica` state machine, and (II) removing
//! non-determinism — timestamps, random discounts, payment
//! authorizations are sampled *before* each action is constructed and
//! travel inside it.
//!
//! * [`RobustStore`] — the replicated state machine
//!   (`treplica::Application` over `tpcw::Bookstore`).
//! * [`Action`] / [`Reply`] — the deterministic update vocabulary.
//! * [`TpcwDatabase`] — the facade the web tier calls: classifies each
//!   of the 14 interactions as a local read or a replicated write.
//!
//! ## Example
//!
//! ```
//! use robuststore::{Action, RobustStore, Reply};
//! use tpcw::{ItemId, PopulationParams};
//! use treplica::Application;
//!
//! let mut store = RobustStore::new(PopulationParams { items: 100, ebs: 1, seed: 1 });
//! let reply = store.apply(&Action::DoCart {
//!     cart: None,
//!     add: Some((ItemId(5), 1)),
//!     updates: vec![],
//!     default_item: ItemId(0),
//!     now: 1_000,
//! });
//! assert!(matches!(reply, Reply::Cart(_)));
//! ```

#![warn(missing_docs)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]
#![forbid(unsafe_code)]

mod action;
mod app;
mod facade;

pub use action::{Action, Reply};
pub use app::RobustStore;
pub use facade::{PageResult, Prepared, ReadOp, TpcwDatabase};
