//! Workspace-level integration tests: the complete RobustStore stack
//! (consensus → middleware → bookstore → servers/proxy/clients) under
//! the paper's faultloads, on scaled-down schedules.

use robuststore_repro::cluster::{run_experiment, ExperimentConfig};
use robuststore_repro::faultload::Faultload;
use robuststore_repro::obs::{self, CausalProfile, SpanProfile, TraceStore};
use robuststore_repro::simnet::TraceConfig;
use robuststore_repro::tpcw::{Profile, Schedule};

fn quick(replicas: usize, profile: Profile) -> ExperimentConfig {
    let mut config = ExperimentConfig::quick(replicas, profile);
    config.rbes = 300;
    config.client_nodes = 3;
    config.schedule = Schedule::quick(90);
    config
}

#[test]
fn runs_are_deterministic_given_seed() {
    let config = quick(5, Profile::Shopping);
    let a = run_experiment(&config);
    let b = run_experiment(&config);
    assert_eq!(a.recorder.wips_series(), b.recorder.wips_series());
    assert_eq!(a.recorder.total_ok(), b.recorder.total_ok());
    assert_eq!(a.recorder.total_errors(), b.recorder.total_errors());
}

#[test]
fn different_seeds_differ() {
    let mut config = quick(5, Profile::Shopping);
    let a = run_experiment(&config);
    config.seed = 43;
    let b = run_experiment(&config);
    assert_ne!(a.recorder.wips_series(), b.recorder.wips_series());
}

#[test]
fn two_overlapped_crashes_recover_autonomously() {
    let mut config = quick(5, Profile::Shopping);
    config.faultload = Faultload::double_crash().scaled(1, 4); // 60 s, 67.5 s
    let report = run_experiment(&config);
    assert_eq!(report.spans.len(), 2);
    for span in &report.spans {
        assert!(
            span.recovered_at.is_some(),
            "recovery incomplete: {:?}",
            report.spans
        );
    }
    let d = &report.dependability;
    assert_eq!(d.autonomy, 1.0, "no operator involved");
    assert!(d.accuracy_percent > 99.5, "accuracy {}", d.accuracy_percent);
    assert!(report.awips > 200.0, "service continued: {}", report.awips);
    // Replicas converge: every surviving server reaches a close decided
    // watermark (small in-flight spread allowed).
    let decided: Vec<u64> = report
        .server_status
        .iter()
        .flatten()
        .map(|s| s.paxos.decided_upto.0)
        .collect();
    assert_eq!(decided.len(), 5);
    let min = decided.iter().min().unwrap();
    let max = decided.iter().max().unwrap();
    assert!(max - min < 50, "decided spread {decided:?}");
    // The failover path's bits (failure detection, prepare grace,
    // collision recovery, gap repair, tail catch-up), as recorded at
    // commit fad4bc7 while those timings were still `PaxosConfig`
    // fields: the browsing pin below exercises none of them.
    assert_eq!(
        (
            report.engine_events,
            report.net_bytes,
            report.recorder.total_ok(),
            report.awips.to_bits(),
        ),
        (641_961, 408_002_765, 34_078, 4_643_812_282_175_498_923)
    );
}

#[test]
fn delayed_recovery_counts_operator_intervention() {
    let mut config = quick(5, Profile::Browsing);
    // Crash both at 60 s; manual restart of the second at 97.5 s.
    config.faultload = Faultload::double_crash_delayed().scaled(1, 4);
    let report = run_experiment(&config);
    let d = &report.dependability;
    assert_eq!(d.autonomy, 0.5, "one of two recoveries was manual");
    assert_eq!(report.spans.len(), 2);
    let manual = report.spans.iter().find(|s| s.manual).expect("manual span");
    assert_eq!(manual.restart_at, 97_500_000);
    assert!(manual.recovered_at.is_some(), "manual recovery completes");
}

#[test]
fn classic_only_baseline_serves_the_workload() {
    let mut config = quick(5, Profile::Shopping);
    config.classic_only = true;
    let report = run_experiment(&config);
    assert!(report.awips > 200.0, "classic-only AWIPS {}", report.awips);
    assert!(report.dependability.accuracy_percent > 99.5);
    for status in report.server_status.iter().flatten() {
        assert!(
            !status.paxos.ballot.is_fast(),
            "classic-only run used a fast ballot"
        );
    }
}

#[test]
fn ordering_profile_stresses_total_order() {
    let config = quick(5, Profile::Ordering);
    let report = run_experiment(&config);
    // Half the interactions are updates; all replicas apply them.
    let applied: Vec<u64> = report
        .server_status
        .iter()
        .flatten()
        .map(|s| s.applied)
        .collect();
    assert!(applied.iter().all(|a| *a > 1_000), "applied {applied:?}");
    let min = applied.iter().min().unwrap();
    let max = applied.iter().max().unwrap();
    assert!(max - min < 100, "apply divergence {applied:?}");
    assert!(report.dependability.accuracy_percent > 99.0);
}

#[test]
fn crash_of_majority_blocks_writes_until_recovery() {
    // 3 of 5 replicas crash at 50 s and recover autonomously: the
    // write path blocks below a majority, then resumes; reads keep
    // flowing throughout (served from local state).
    let mut config = quick(5, Profile::Shopping);
    config.schedule = Schedule::quick(120);
    config.faultload = Faultload {
        events: (0..3)
            .map(|v| faultload::FaultEvent {
                at_us: 50_000_000,
                victim: v,
                recovery: faultload::RecoveryKind::Autonomous,
            })
            .collect(),
        ..Faultload::default()
    };
    let report = run_experiment(&config);
    for span in &report.spans {
        assert!(
            span.recovered_at.is_some(),
            "all three recover: {:?}",
            report.spans
        );
    }
    // Service continued (reads at minimum) and ended healthy.
    assert!(report.awips > 100.0, "AWIPS {}", report.awips);
    let decided: Vec<u64> = report
        .server_status
        .iter()
        .flatten()
        .map(|s| s.paxos.decided_upto.0)
        .collect();
    let min = decided.iter().min().unwrap();
    let max = decided.iter().max().unwrap();
    assert!(max - min < 50, "decided spread {decided:?}");
}

#[test]
fn network_partition_starves_minority_then_heals() {
    // Beyond the paper's crash faultloads: isolate two of five replicas
    // for 30 s. The majority side keeps serving (proxy requests to the
    // isolated servers still reach them — only replica-to-replica links
    // are cut — but their writes stall), and after healing everything
    // converges with no human intervention.
    let mut config = quick(5, Profile::Shopping);
    config.schedule = Schedule::quick(120);
    config.faultload = Faultload::partition(50_000_000, 80_000_000, vec![0, 1]);
    let report = run_experiment(&config);
    assert!(report.awips > 150.0, "AWIPS {}", report.awips);
    assert_eq!(report.dependability.autonomy, 1.0);
    let decided: Vec<u64> = report
        .server_status
        .iter()
        .flatten()
        .map(|s| s.paxos.decided_upto.0)
        .collect();
    assert_eq!(decided.len(), 5, "nobody crashed");
    let min = decided.iter().min().unwrap();
    let max = decided.iter().max().unwrap();
    assert!(max - min < 50, "post-heal convergence: {decided:?}");
}

/// Group commit pays for itself where one decree per update saturates:
/// the ordering mix on eight replicas offered several times its
/// capacity (the benchmark's `order_sat_b8` at test size), unbatched
/// against batches of eight. Measured 2.085× (7 786 against 3 734
/// updates applied) at the commit that added this test.
#[test]
fn group_commit_speeds_up_the_saturated_ordering_mix() {
    let run = |batch_max_updates, batch_window_us| {
        let mut config = ExperimentConfig::quick(8, Profile::Ordering);
        config.rbes = 2_400;
        config.client_nodes = 4;
        config.batch_max_updates = batch_max_updates;
        config.batch_window_us = batch_window_us;
        config.schedule = Schedule {
            ramp_up_us: 2_000_000,
            interval_us: 5_000_000,
            ramp_down_us: 500_000,
        };
        let report = run_experiment(&config);
        let applied = report.server_status.iter().flatten().map(|s| s.applied);
        (applied.max().unwrap_or(0), report.disk_appends)
    };
    let (plain, plain_appends) = run(1, 0);
    let (batched, batched_appends) = run(8, 80_000);
    assert!(
        batched as f64 >= 1.8 * plain as f64,
        "batches of 8 applied {batched} updates, unbatched {plain}: under 1.8x"
    );
    assert!(
        batched_appends * plain < plain_appends * batched,
        "log appends per applied update must fall with batching: \
         {batched_appends}/{batched} against {plain_appends}/{plain}"
    );
}

/// The offline trace pipeline end to end: a traced crash run indexed
/// once into a `TraceStore`, then every reducer queried off that one
/// store.
#[test]
fn traced_crash_run_explains_itself_from_one_store() {
    let mut config = ExperimentConfig::quick(3, Profile::Shopping);
    config.rbes = 100;
    config.client_nodes = 2;
    config.schedule = Schedule::quick(60);
    config.faultload = Faultload::single_crash().scaled(1, 12); // crash at 20 s
    config.trace = TraceConfig::on();
    let report = run_experiment(&config);
    let store = TraceStore::build(&report.trace);

    let breakdowns = store.recovery_breakdowns();
    assert_eq!(breakdowns.len(), 1, "one crash incident expected");
    let b = &breakdowns[0];
    assert!(b.complete, "recovery must complete in trace: {b:?}");
    assert!(b.detection_us.is_some() && b.backlog_replay_us.is_some());

    let causal = CausalProfile::from_store(&store);
    assert!(!causal.paths.is_empty(), "traced run must yield paths");
    assert!(causal.paths.iter().all(|p| p.telescopes()));

    let spans = SpanProfile::from_store(&store);
    assert_eq!(spans.spans.len(), causal.paths.len(), "one span per path");
    for span in &spans.spans {
        assert_eq!(span.phase_sum_us(), span.total_us, "span {span:?}");
    }
    assert_eq!(
        store.latency_summary().commit_latency.count(),
        spans.spans.len() as u64
    );

    let text = obs::jsonl::encode_all(&report.trace);
    let runs = obs::jsonl::decode_runs(&text).expect("canonical trace decodes");
    assert!(
        runs.len() == 1 && runs[0].1 == report.trace,
        "JSONL round-trips"
    );
}

/// Reads are modelled, not measured: their simulated cost is a
/// `ServiceModel` constant, so however the store answers them, a run's
/// bits stay where they were when they were first recorded (commit
/// 3a7609d, before the base population was indexed).
#[test]
fn browsing_run_reproduces_pinned_bits() {
    let mut config = ExperimentConfig::quick(3, Profile::Browsing);
    config.ebs = 2;
    config.rbes = 100;
    let report = run_experiment(&config);
    assert_eq!(
        (
            report.engine_events,
            report.net_bytes,
            report.recorder.total_ok(),
            report.awips.to_bits(),
        ),
        (83_691, 108_522_429, 8_763, 4_636_588_344_179_460_233)
    );
}
