//! Planned membership changes (configuration epochs) under the
//! always-on invariant auditor.
//!
//! Every `run_experiment` call asserts internally that zero consensus
//! invariants were violated — including the epoch-aware agreement
//! check: two replicas applying the same slot under different epochs
//! is a violation. These tests drive the operator scenarios end to
//! end: replace, scale-down, permanent loss with reprovisioning, and
//! a rolling restart, plus a property test interleaving a reconfig
//! with crashes and partition flaps.

mod common;

use cluster::{run_experiment, ExperimentConfig};
use common::fingerprint;
use faultload::{FaultEvent, Faultload, RecoveryKind};
use proptest::prelude::*;
use tpcw::Profile;

fn quick(seed: u64) -> ExperimentConfig {
    let mut config = ExperimentConfig::quick(5, Profile::Shopping);
    config.seed = seed;
    config
}

#[test]
fn replace_completes_and_the_joiner_serves() {
    let mut config = quick(11);
    let at = config.schedule.measure_start_us() + 10_000_000;
    config.faultload = Faultload::reconfig_replace(at, 0);
    let report = run_experiment(&config);
    assert_eq!(
        fingerprint(&report),
        fingerprint(&run_experiment(&config)),
        "a same-seed run must repeat bit for bit under reconfiguration"
    );

    assert_eq!(report.reconfigs.len(), 1);
    let incident = &report.reconfigs[0];
    assert_eq!(incident.target_epoch, 1);
    assert!(
        incident.accepted_at_us.is_some(),
        "a leader took the decree"
    );
    let done = incident
        .completed_at_us
        .expect("the epoch switch must complete");
    assert!(done >= incident.submitted_at_us);
    // 200 000 us measured; completion is quantised by the driver's
    // epoch poll, so the allowance is absolute (2 s), not a ratio.
    let took = done - incident.submitted_at_us;
    assert!(took <= 2_200_000, "the epoch switch took {took} us");
    assert_eq!(incident.add, vec![5], "the joiner takes the spare slot");

    // The joiner was provisioned and finished catch-up.
    let joiner = report.server_status[5]
        .as_ref()
        .expect("spare slot 5 provisioned");
    assert!(!joiner.recovering, "joiner caught up via snapshot shipping");
    assert!(joiner.applied > 0, "joiner applied post-join traffic");
    assert_eq!(joiner.paxos.epoch, 1, "joiner runs in the new epoch");

    assert!(report.audit.checks > 1_000, "auditor must be active");
    assert!(report.awips > 50.0, "AWIPS {}", report.awips);
}

#[test]
fn remove_shrinks_the_ensemble_and_a_later_crash_is_survived() {
    let mut config = quick(12);
    let measure = config.schedule.measure_start_us();
    let mut faultload = Faultload::reconfig_remove(measure + 8_000_000, vec![1]);
    // After the 5 -> 4 shrink, crash another replica: 3 of 4 alive
    // still holds a classic quorum, so the run must stay live.
    faultload.events.push(FaultEvent {
        at_us: measure + 25_000_000,
        victim: 2,
        recovery: RecoveryKind::Autonomous,
    });
    config.faultload = faultload;
    let report = run_experiment(&config);

    let incident = &report.reconfigs[0];
    assert!(incident.completed_at_us.is_some(), "shrink must complete");
    assert!(incident.add.is_empty());
    assert_eq!(incident.remove.len(), 1);

    // Survivors track the shrunk N in the new epoch.
    let survivor = report
        .server_status
        .iter()
        .flatten()
        .find(|s| s.paxos.epoch == 1 && !s.recovering)
        .expect("a survivor reports the new epoch");
    assert_eq!(survivor.paxos.n, 4, "mode rule tracks the shrunk N");

    assert!(report.audit.checks > 1_000, "auditor must be active");
    assert!(report.awips > 40.0, "AWIPS {}", report.awips);
}

#[test]
fn permanent_loss_is_restored_by_reprovisioning() {
    let mut config = quick(13);
    let measure = config.schedule.measure_start_us();
    config.faultload = Faultload::permanent_loss(measure + 5_000_000, measure + 15_000_000);
    let report = run_experiment(&config);

    // The dead machine never restarts; its outage span stays open.
    assert_eq!(report.spans.len(), 1);
    assert!(
        report.spans[0].recovered_at.is_none(),
        "hardware loss never recovers in place"
    );
    // The replacement joins through the configuration change instead.
    let incident = &report.reconfigs[0];
    assert!(
        incident.completed_at_us.is_some(),
        "reprovisioning must complete without the dead machine"
    );
    let joiner = report.server_status[5]
        .as_ref()
        .expect("replacement provisioned");
    assert!(!joiner.recovering);

    assert!(report.audit.checks > 1_000, "auditor must be active");
}

#[test]
fn rolling_restart_keeps_the_service_up() {
    let mut config = quick(14);
    let measure = config.schedule.measure_start_us();
    config.faultload = Faultload::rolling_restart(measure + 5_000_000, 10_000_000, 3);
    let report = run_experiment(&config);

    assert_eq!(report.spans.len(), 3);
    for span in &report.spans {
        assert!(
            span.restart_at > span.crash_at,
            "watchdog restarted {span:?}"
        );
        assert!(
            span.recovered_at.is_some(),
            "each restarted replica re-learns and serves again: {span:?}"
        );
    }
    // One replica down at a time out of five never loses the classic
    // quorum, so membership never changed and throughput stays up.
    assert!(report.reconfigs.is_empty());
    assert!(report.audit.checks > 1_000, "auditor must be active");
    assert!(report.awips > 50.0, "AWIPS {}", report.awips);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// An arbitrary interleaving of one membership change with a crash
    /// and a partition flap never violates per-epoch agreement and
    /// never delivers a decree under the wrong epoch's quorum rule —
    /// `run_experiment` asserts the auditor found zero violations
    /// before returning, and the auditor checks fast-path quorums
    /// against the *sender's* epoch N and flags any slot applied under
    /// two different epochs.
    #[test]
    fn reconfig_interleaved_with_faults_preserves_per_epoch_agreement(
        seed in 0u64..1_000,
        kind in 0u8..3,
        reconfig_off_s in 2u64..30,
        crash_off_s in 2u64..30,
        crash_victim in 0usize..5,
        flap_sel in 0u8..2,
    ) {
        let mut config = quick(seed);
        let measure = config.schedule.measure_start_us();
        let mut faultload = match kind {
            0 => Faultload::reconfig_add(measure + reconfig_off_s * 1_000_000, 1),
            1 => Faultload::reconfig_remove(measure + reconfig_off_s * 1_000_000, vec![1]),
            _ => Faultload::reconfig_replace(measure + reconfig_off_s * 1_000_000, 0),
        };
        faultload.events.push(FaultEvent {
            at_us: measure + crash_off_s * 1_000_000,
            victim: crash_victim,
            recovery: RecoveryKind::Autonomous,
        });
        if flap_sel == 1 {
            // One 3s cut of a single-node minority mid-interval.
            faultload.windows =
                Faultload::partition_flap(measure + 12_000_000, 1, 3_000_000, 3_000_000, vec![2])
                    .windows;
        }
        config.faultload = faultload;
        // The oracle: run_experiment panics on any auditor violation
        // (per-epoch agreement, quorum-rule, durability).
        let report = run_experiment(&config);
        prop_assert!(report.audit.checks > 1_000, "auditor must be active");
    }
}
