//! Workspace-level integration tests: the complete RobustStore stack
//! (consensus → middleware → bookstore → servers/proxy/clients) under
//! the paper's faultloads, on scaled-down schedules.

use robuststore_repro::cluster::{run_experiment, ExperimentConfig};
use robuststore_repro::faultload::{FaultEvent, Faultload, RecoveryKind};
use robuststore_repro::obs::{self, CausalProfile, SpanProfile, TraceStore};
use robuststore_repro::paxos::{
    AcceptedReport, Ballot, Batch, Decree, Msg, ProposalId, Reconfig, Record, ReplicaId, Slot,
};
use robuststore_repro::robuststore::Action;
use robuststore_repro::simnet::TraceConfig;
use robuststore_repro::tpcw::{
    Bookstore, CustomerId, ItemId, NewCustomer, Payment, PopulationParams, Profile, Schedule,
};
use robuststore_repro::treplica::{Meta, Wire, WireError};

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

/// Victims 0 and 5 of five are one server: crashed during ramp-up and
/// again inside the measurement interval (30–90 s), it recovers twice,
/// and each span carries its own incarnation's recovery time. Stamped
/// with the last incarnation's, the first recovery read 31.34 s and
/// opened a second window from 30 s to 49.34 s.
#[test]
fn a_server_crashed_twice_recovers_twice() {
    let mut config = ExperimentConfig::quick(5, Profile::Shopping);
    config.faultload.events = [(15_000_000, 0), (45_000_000, 5)]
        .map(|(at_us, victim)| FaultEvent {
            at_us,
            victim,
            recovery: RecoveryKind::Autonomous,
        })
        .to_vec();
    let report = run_experiment(&config);
    let spans = &report.spans;
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[0].server, spans[1].server);
    assert!(
        spans[0]
            .recovered_at
            .is_some_and(|at| at < spans[1].crash_at),
        "first recovery precedes the second crash: {spans:?}"
    );
    for span in spans {
        assert!(
            span.recovery_secs().is_some_and(|secs| secs < 5.0),
            "each restart recovers in seconds: {spans:?}"
        );
    }
    let windows = &report.dependability.recovery;
    assert_eq!(windows.len(), 1, "only the second crash is measured");
    assert_eq!(windows[0].from_us, spans[1].crash_at);
    assert_eq!(Some(windows[0].to_us), spans[1].recovered_at);
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
    config.faultload = Faultload::partition_flap(50_000_000, 1, 30_000_000, 0, vec![0, 1]);
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
    // The isolated pair comes back deaf to 30 s of decisions and can
    // only converge through `Learner::gapped` → `LearnRequest`: a
    // request sent one tick earlier or later moves all four. Recorded
    // at commit 1a949e0, before `gapped` stopped scanning `decided`.
    assert_eq!(
        (
            report.engine_events,
            report.net_bytes,
            report.recorder.total_ok(),
            report.awips.to_bits(),
        ),
        (605_250, 465_698_029, 40_812, 4_643_506_911_146_077_935)
    );
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
    // Fewer consensus-log appends per applied update, by more than a
    // fifth: `b/B < 0.8 · p/P` in integers.
    assert!(
        5 * batched_appends * plain < 4 * plain_appends * batched,
        "log appends per applied update must fall below 0.8x with batching: \
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

    assert_eq!(store.incidents.len(), 1, "one crash incident expected");
    let b = &store.incidents[0];
    assert!(b.complete, "recovery must complete in trace: {b:?}");
    assert!(b.detection_us.is_some() && b.backlog_replay_us.is_some());
    // A peer suspects the victim while it is down, so before its restart.
    assert!(
        b.suspected_after_us.is_some() && b.suspected_after_us <= b.detection_us,
        "the crash must be suspected before the restart: {b:?}"
    );

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
/// `cluster::service` constant, so however the store answers them, a run's
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

/// Length and FNV-1a-64 of `value`'s encoding: a fingerprint small
/// enough to pin in source. The encoding also passes `T::check` whole,
/// to its last byte, and fails it with that byte removed.
fn encoded<T: Wire>(value: &T) -> String {
    let bytes = value.to_bytes();
    let mut input = bytes.as_slice();
    assert_eq!(T::check(&mut input), Ok(()));
    assert!(input.is_empty(), "check left {} bytes", input.len());
    let mut torn = &bytes[..bytes.len() - 1];
    assert_eq!(T::check(&mut torn), Err(WireError::UnexpectedEnd));
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{}:{hash:016x}", bytes.len())
}

/// The wire format itself, pinned: what goes over the simulated links
/// (`Msg`), into the acceptor log (`Record`) and into a checkpoint
/// (`Meta`, `Overlay`; `Item` for the catalogue rows). The literals come
/// from the hand-written encoders of commit c106ac6, before the codecs
/// became field tables (the overlay with a customer from 673e720, while
/// every text was a `String`); neighbouring fields hold different values, so
/// swapping two entries of a table moves a byte and fails here. (A
/// deliberate format change re-pins them, like any golden.)
#[test]
fn wire_format_matches_pinned_encodings() {
    let pid = |node, seq| ProposalId {
        node: ReplicaId(node),
        epoch: 2,
        seq,
    };
    let admin = Action::AdminUpdate {
        item: ItemId(7),
        cost_cents: 99,
        image: "img/7.png".into(),
        thumbnail: "t/7.png".into(),
    };
    let ballot = Ballot::fast(6, ReplicaId(4));
    let batch = Batch::new(vec![
        (pid(1, 30), admin.clone()),
        (pid(3, 31), admin.clone()),
    ]);
    let record = Record::Accepted {
        ballot,
        slot: Slot(17),
        decree: Decree::Value(pid(1, 30), batch),
    };
    let reconfig = Reconfig {
        epoch: 3,
        add: vec![ReplicaId(5), ReplicaId(6)],
        remove: vec![ReplicaId(0)],
    };
    let promise: Msg<Batch<Action>> = Msg::Promise {
        ballot: Ballot::classic(7, ReplicaId(2)),
        from_slot: Slot(40),
        only_slot: Some(Slot(41)),
        accepted: vec![AcceptedReport {
            slot: Slot(41),
            ballot,
            decree: Decree::Reconfig(reconfig),
        }],
    };
    let decided = Decree::Value(pid(0, 5), Batch::single(pid(0, 5), admin));
    let reply = Msg::LearnReply {
        entries: vec![(Slot(8), decided), (Slot(9), Decree::Noop)],
        truncated_below: Slot(2),
        decided_upto: Slot(10),
    };
    let meta = Meta {
        checkpoint_slot: Slot(2_000),
        generation: 3,
        promised: ballot,
        epoch: 1,
        members: vec![ReplicaId(0), ReplicaId(2), ReplicaId(5)],
    };

    // Two carts, one updated and bought, then an admin update and a
    // session refresh: every overlay table but `new_customers` has a row.
    // A registration then fills that one too.
    let mut store = Bookstore::open(PopulationParams {
        items: 100,
        ebs: 1,
        seed: 5,
    });
    let payment = Payment {
        cc_type: "VISA".into(),
        cc_num: "4111".into(),
        cc_name: "A L".into(),
        cc_expiry: 9,
        auth_id: "é7".into(),
        country: 1,
    };
    let cart = store.do_cart(None, Some((ItemId(3), 2)), &[], ItemId(9), 11);
    let cart = cart.expect("a new cart");
    let spare = store.do_cart(None, None, &[], ItemId(9), 12);
    assert!(spare.is_ok(), "{spare:?}");
    let updated = store.do_cart(Some(cart), Some((ItemId(4), 1)), &[], ItemId(8), 13);
    assert_eq!(updated, Ok(cart));
    let bought = store.buy_confirm(cart, CustomerId(5), &payment, 3, 14);
    assert!(bought.is_ok(), "{bought:?}");
    let update = store.admin_update(ItemId(7), 99, "img/7.png".into(), "t/7.png".into());
    assert_eq!(update, Ok(()));
    assert_eq!(store.refresh_session(CustomerId(5), 15), Ok(()));
    let item = store.item(ItemId(7)).expect("item 7 of 100");

    assert_eq!(encoded(&record), "161:b7501208b5b7ab53", "Record::Accepted");
    assert_eq!(encoded(&promise), "85:45650ad93c9c8b59", "Msg::Promise");
    assert_eq!(encoded(&reply), "120:055ba039881a8402", "Msg::LearnReply");
    assert_eq!(encoded(&meta), "53:4acc1259b39306ad", "Meta");
    assert_eq!(encoded(&item), "207:5c483932261843e8", "Item");
    assert_eq!(encoded(store.overlay()), "304:aab20fe948507211", "Overlay");

    // Texts on both sides of the 22 bytes that `tpcw::Text` keeps inline.
    let registered = store.create_customer(&NewCustomer {
        fname: "Ada".into(),
        lname: "Lovelace".into(),
        phone: "5551234567".into(),
        email: "ada.lovelace@example.com".into(),
        birthdate: 4_000,
        data: "é".repeat(12).into(),
        discount_bp: 250,
        now: 16,
    });
    assert_eq!(registered, CustomerId(2_880));
    assert_eq!(
        encoded(store.overlay()),
        "469:248c740a2b82d236",
        "Overlay with a customer"
    );
}
