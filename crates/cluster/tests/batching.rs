//! Group-commit batching at cluster scale: determinism and invariant
//! preservation across crash/recovery. (Log-append coalescing at
//! saturation is held by the workspace's
//! `group_commit_speeds_up_the_saturated_ordering_mix`.)
//!
//! `run_experiment` asserts a zero-violation audit before returning, so
//! the runs here implicitly check that batching never breaks agreement,
//! durability ordering, or intra-batch delivery order.

mod common;

use cluster::{run_experiment, ExperimentConfig};
use common::fingerprint;
use faultload::Faultload;
use tpcw::Profile;

#[test]
fn crash_recovery_with_batching_holds_invariants() {
    let mut config = ExperimentConfig::quick(5, Profile::Shopping);
    config.batch_max_updates = 8;
    config.batch_window_us = 2_000;
    config.faultload = Faultload::single_crash().scaled(1, 9);
    let report = run_experiment(&config);
    assert_eq!(
        fingerprint(&report),
        fingerprint(&run_experiment(&config)),
        "a same-seed batched run must repeat bit for bit"
    );
    assert_eq!(report.spans.len(), 1, "one crash span observed");
    assert!(
        report.spans[0].recovery_secs().is_some(),
        "crashed server recovers with batched records in its log"
    );
    assert!(report.audit.checks > 1_000, "auditor actually ran");
    let committed = report.server_status.iter().flatten().map(|s| s.applied);
    assert!(
        committed.max().unwrap_or(0) > 100,
        "service continues through crash"
    );
}
