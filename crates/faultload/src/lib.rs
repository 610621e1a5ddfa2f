//! # faultload — dependability benchmarking for TPC-W
//!
//! The paper (§5.1) turns TPC-W into a dependability benchmark by
//! adding a *faultload* and *dependability measures* to its system
//! specification, workload and metric:
//!
//! * [`Faultload`] — environment/operator faults injected at precise
//!   times: abrupt server crashes (process kill) and reboots, either
//!   autonomous (watchdog-triggered) or operator-delayed. The paper's
//!   three faultloads are provided as constructors. Beyond the paper, a
//!   faultload also carries membership changes ([`ReconfigEvent`]) and
//!   one table of [`FaultWindow`]s: a partition, lossy links
//!   ([`simnet::LinkFault`]) or a faulty disk ([`Fault`]), armed at
//!   `at_us` and lifted at `until_us`.
//! * [`DependabilityReport`] — availability, performability (AWIPS, CV,
//!   PV%), accuracy, and autonomy, exactly as defined in §5.1.
//!
//! ## Example
//!
//! ```
//! use faultload::Faultload;
//!
//! let f = Faultload::double_crash_delayed();
//! assert_eq!(f.fault_count(), 2);
//! assert_eq!(f.manual_recoveries(), 1);
//! ```

#![warn(missing_docs)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![warn(clippy::too_many_lines)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![forbid(unsafe_code)]

mod measures;
mod spec;

pub use measures::{performability, DependabilityReport, PerformabilityWindow, RecoverySpan};
pub use spec::{Fault, FaultEvent, FaultWindow, Faultload, ReconfigEvent, RecoveryKind};
