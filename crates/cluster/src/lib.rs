//! # cluster — the simulated experimental setup
//!
//! The paper's testbed (§5.1, Figure 2) on the `simnet` discrete-event
//! engine: 4–12 server replicas running the RobustStore application
//! over Treplica, one reverse proxy with health-probe failover and
//! client-id hash balancing, and client nodes running remote browser
//! emulators. [`run_experiment`] executes a full TPC-W dependability
//! run — ramp-up, measurement interval with faultload injection and
//! watchdog-driven recovery, ramp-down — and returns the WIPS
//! histogram plus the paper's dependability measures.
//!
//! ## Example
//!
//! ```no_run
//! use cluster::{run_experiment, ExperimentConfig};
//! use tpcw::Profile;
//!
//! let mut config = ExperimentConfig::quick(5, Profile::Shopping);
//! config.faultload = faultload::Faultload::single_crash().scaled(1, 4);
//! let report = run_experiment(&config);
//! println!("AWIPS = {:.1}", report.awips);
//! ```

#![warn(missing_docs)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![warn(clippy::too_many_lines)]
#![warn(clippy::cast_possible_truncation, clippy::cast_precision_loss)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![forbid(unsafe_code)]

mod audit;
mod client;
mod experiment;
mod msg;
mod plan;
mod proxy;
mod server;
mod service;
mod testbed;

pub use audit::{AuditReport, InvariantAuditor};
pub use client::ClientNode;
pub use experiment::{run_experiment, ExperimentConfig, ReconfigIncident, RunReport};
pub use msg::ClusterMsg;
pub use proxy::ProxyNode;
pub use server::ServerNode;
pub use service::estimated_capacity;
