//! Property tests: consensus agreement holds for arbitrary seeds under
//! adversarially lossy, duplicating and reordering networks.
//!
//! `run_experiment` threads every server effect through the invariant
//! auditor and asserts zero violations before returning, so each case
//! here is a full agreement/durability/mode-rule check of a complete
//! TPC-W run — the properties fail loudly if any seed finds a hole.

use proptest::prelude::*;
use robuststore_repro::cluster::{run_experiment, ExperimentConfig};
use robuststore_repro::faultload::Faultload;
use robuststore_repro::simnet::LinkFault;
use robuststore_repro::tpcw::Profile;

fn lossy_config(seed: u64, loss: f64, duplicate: f64, reorder: f64) -> ExperimentConfig {
    let mut config = ExperimentConfig::quick(5, Profile::Shopping);
    config.seed = seed;
    config.faultload = Faultload::lossy_links(
        0,
        config.schedule.total_us(),
        LinkFault {
            loss,
            duplicate,
            reorder,
        },
    );
    config
}

proptest! {
    // Each case is a whole simulated run (~1–2 s); keep the count small.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn agreement_holds_under_random_seeds_and_lossy_links(
        seed in 0u64..10_000,
        loss_bp in 0u32..500,        // basis points: up to 5% loss
        duplicate_bp in 0u32..300,   // up to 3% duplication
        reorder_bp in 0u32..2_500,   // up to 25% reordering
    ) {
        let report = run_experiment(&lossy_config(
            seed,
            f64::from(loss_bp) / 10_000.0,
            f64::from(duplicate_bp) / 10_000.0,
            f64::from(reorder_bp) / 10_000.0,
        ));
        // The auditor ran (and asserted zero violations internally).
        prop_assert!(report.audit.checks > 1_000);
        prop_assert_eq!(report.audit.total_violations, 0);
    }
}
