//! Adversarial faultloads under the always-on invariant auditor.
//!
//! Every `run_experiment` call below asserts internally that zero
//! consensus invariants were violated; these tests additionally pin the
//! auditor's coverage (it actually checked things) and the determinism
//! of seeded fault injection.

mod common;

use cluster::{run_experiment, ExperimentConfig};
use common::fingerprint;
use faultload::Faultload;
use simnet::LinkFault;
use tpcw::Profile;

fn quick(seed: u64) -> ExperimentConfig {
    let mut config = ExperimentConfig::quick(5, Profile::Shopping);
    config.seed = seed;
    config
}

#[test]
fn lossy_duplicating_reordering_links_across_seeds() {
    for seed in 0..10u64 {
        let mut config = quick(seed);
        let until = config.schedule.total_us();
        config.faultload = Faultload::lossy_links(
            0,
            until,
            LinkFault {
                loss: 0.03,
                duplicate: 0.02,
                reorder: 0.15,
            },
        );
        let report = run_experiment(&config);
        assert!(
            report.audit.checks > 1_000,
            "seed {seed}: auditor must be active"
        );
        assert!(report.awips > 50.0, "seed {seed}: AWIPS {}", report.awips);
    }
}

#[test]
fn partition_flaps_across_seeds() {
    for seed in 0..10u64 {
        let mut config = quick(seed);
        let measure = config.schedule.measure_start_us();
        // Three cut/heal cycles of a two-node minority, 4s cut / 6s heal.
        config.faultload = Faultload::partition_flap(measure, 3, 4_000_000, 6_000_000, vec![1, 3]);
        let report = run_experiment(&config);
        assert!(
            report.audit.checks > 1_000,
            "seed {seed}: auditor must be active"
        );
    }
}

#[test]
fn disk_write_failures_and_torn_tails_across_seeds() {
    for seed in 0..10u64 {
        let mut config = quick(seed);
        let (start, end) = (
            config.schedule.measure_start_us(),
            config.schedule.measure_end_us(),
        );
        config.faultload = Faultload::faulty_disk(start, end, 0, 0.001);
        let report = run_experiment(&config);
        assert!(
            report.audit.checks > 1_000,
            "seed {seed}: auditor must be active"
        );
    }
}

/// FNV-1a-64 of `text`, with its length: a fingerprint small enough to
/// pin in source.
fn fnv1a(text: &str) -> (u64, usize) {
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (hash, text.len())
}

/// The mix's bits are pinned, as recorded at commit 0a8200a, not only
/// repeated: a refactor that moves one draw of the engine's seeded RNG
/// must fail here. Seed 1 reaches both fault draws of `simnet::Engine`:
/// seven writes on the faulty disk fail (each a fail-stop), and three
/// of those crashes tear an in-flight append. (Seed 7's mix never tears
/// one.)
#[test]
fn adversarial_mix_survives_and_recovers() {
    let mut config = quick(1);
    config.faultload = Faultload::adversarial_mix(config.schedule.total_us() * 3 / 4);
    let report = run_experiment(&config);
    assert_eq!(
        (
            report.engine_events,
            report.net_bytes,
            report.recorder.total_ok(),
            report.awips.to_bits(),
            fnv1a(&fingerprint(&report)),
        ),
        (
            305_384,
            193_686_057,
            15_912,
            4_640_459_797_921_634_714,
            (0xd72e_0b70_a26d_7e26, 3202)
        ),
        "a same-seed run must repeat the recorded bits under injected faults"
    );
    assert!(report.audit.checks > 1_000, "auditor must be active");
    // The mix crashes one replica (plus any fsync-failure fail-stops);
    // every observed outage must have restarted.
    assert!(
        !report.spans.is_empty(),
        "the mix injects at least one crash"
    );
    for span in &report.spans {
        assert!(
            span.restart_at > span.crash_at,
            "watchdog restarted {span:?}"
        );
    }
}
