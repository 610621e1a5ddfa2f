//! Umbrella crate for the RobustStore reproduction workspace.
//!
//! Re-exports the public crates so the examples and integration tests can
//! use a single dependency. See the README for an overview.

#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub use cluster;
pub use faultload;
pub use obs;
pub use paxos;
pub use robuststore;
pub use simnet;
pub use tpcw;
pub use treplica;
