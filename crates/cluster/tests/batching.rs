//! Group-commit batching at cluster scale: determinism and invariant
//! preservation across crash/recovery. (Log-append coalescing at
//! saturation is held by the workspace's
//! `group_commit_speeds_up_the_saturated_ordering_mix`.)
//!
//! `run_experiment` asserts a zero-violation audit before returning, so
//! every test here implicitly checks that batching never breaks
//! agreement, durability ordering, or intra-batch delivery order.

use cluster::{run_experiment, ExperimentConfig};
use faultload::Faultload;
use tpcw::Profile;

fn batched(profile: Profile, batch: usize) -> ExperimentConfig {
    let mut config = ExperimentConfig::quick(5, profile);
    config.batch_max_updates = batch;
    config.batch_window_us = if batch == 1 { 0 } else { 2_000 };
    config
}

fn committed(report: &cluster::RunReport) -> u64 {
    report
        .server_status
        .iter()
        .flatten()
        .map(|s| s.applied)
        .max()
        .unwrap_or(0)
}

#[test]
fn batched_runs_are_bit_deterministic() {
    let a = run_experiment(&batched(Profile::Shopping, 8));
    let b = run_experiment(&batched(Profile::Shopping, 8));
    assert_eq!(a.awips.to_bits(), b.awips.to_bits(), "AWIPS bit-identical");
    assert_eq!(a.net_messages, b.net_messages);
    assert_eq!(a.net_bytes, b.net_bytes);
    assert_eq!(a.disk_writes, b.disk_writes);
    assert_eq!(a.disk_appends, b.disk_appends);
    assert_eq!(committed(&a), committed(&b));
}

#[test]
fn crash_recovery_with_batching_holds_invariants() {
    let mut config = batched(Profile::Shopping, 8);
    config.faultload = Faultload::single_crash().scaled(1, 9);
    let report = run_experiment(&config);
    assert_eq!(report.spans.len(), 1, "one crash span observed");
    assert!(
        report.spans[0].recovery_secs().is_some(),
        "crashed server recovers with batched records in its log"
    );
    assert!(report.audit.checks > 1_000, "auditor actually ran");
    assert!(committed(&report) > 100, "service continues through crash");
}
