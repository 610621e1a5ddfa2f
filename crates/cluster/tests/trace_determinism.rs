//! Tracing must be a pure observer: bit-deterministic across same-seed
//! runs, and invisible to the simulation it watches.
//!
//! Every crash-scenario test reads the same five runs — a traced pair, a
//! monitored pair and one bare run — made once per test binary.

mod common;

use std::sync::OnceLock;

use cluster::{run_experiment, ExperimentConfig, RunReport};
use common::fingerprint;
use faultload::Faultload;
use tpcw::Profile;

fn crash_config() -> ExperimentConfig {
    let mut config = ExperimentConfig::quick(5, Profile::Shopping);
    config.faultload = Faultload::single_crash().scaled(1, 6);
    config
}

/// Two same-seed runs of the crash scenario under `configure`, made on
/// first use.
fn pair(
    cell: &'static OnceLock<[RunReport; 2]>,
    configure: fn(&mut ExperimentConfig),
) -> &'static [RunReport; 2] {
    cell.get_or_init(|| {
        let mut config = crash_config();
        configure(&mut config);
        [run_experiment(&config), run_experiment(&config)]
    })
}

fn traced() -> &'static [RunReport; 2] {
    static RUNS: OnceLock<[RunReport; 2]> = OnceLock::new();
    pair(&RUNS, |config| config.trace = simnet::TraceConfig::on())
}

fn monitored() -> &'static [RunReport; 2] {
    static RUNS: OnceLock<[RunReport; 2]> = OnceLock::new();
    pair(&RUNS, |config| {
        config.monitor = Some(obs::MonitorConfig::default())
    })
}

fn untraced() -> &'static RunReport {
    static RUN: OnceLock<RunReport> = OnceLock::new();
    RUN.get_or_init(|| run_experiment(&crash_config()))
}

#[test]
fn same_seed_traces_are_byte_identical() {
    let [a, b] = traced();
    assert!(!a.trace.is_empty(), "traced run must produce records");
    let ja = obs::jsonl::encode_all(&a.trace);
    let jb = obs::jsonl::encode_all(&b.trace);
    assert_eq!(ja.len(), jb.len(), "trace sizes diverge");
    assert!(ja == jb, "same-seed traces must be byte-identical");
    // And the trace actually covers the incident end to end, from the
    // first suspicion of the crashed peer to its recovery.
    let incidents = obs::recovery_breakdowns(&a.trace);
    assert_eq!(incidents.len(), 1, "one crash incident expected");
    assert!(incidents[0].complete, "recovery must complete in trace");
    assert!(
        incidents[0].suspected_after_us.is_some(),
        "some replica must suspect the crashed peer"
    );
}

/// The windowed timeline and span profile are pure functions of the
/// trace, so their CSV export must be byte-identical across
/// same-seed runs — and the availability decomposition they derive must
/// describe the injected crash, not an artifact of windowing.
#[test]
fn timeline_exports_are_deterministic_and_bracket_the_crash() {
    let [a, b] = traced();
    // Crash at 45 s; with 5 s windows a 12-window lookback would reach
    // into the ramp-up and depress the baseline, so use the post-ramp
    // steady state only.
    let cfg = obs::TimelineConfig {
        baseline_windows: 3,
        ..Default::default()
    };
    let build = |r: &RunReport| {
        let store = obs::TraceStore::build(&r.trace);
        let mut tl = obs::Timeline::from_store(&store, cfg.window_us);
        let profile = obs::SpanProfile::from_store(&store);
        tl.dominant_phase = profile.dominant_phases(tl.window_us, tl.windows.len());
        (tl, profile)
    };
    let (tl, profile) = build(a);
    let (tl_b, _) = build(b);
    assert_eq!(
        tl.csv_rows("run"),
        tl_b.csv_rows("run"),
        "same-seed timeline CSV must be byte-identical"
    );

    // Exactly one crash incident, with the degraded stretch bracketing
    // the crash and a measured failover, ramp-back and detection.
    let reports = obs::availability_reports(&tl, &cfg, &["crash"]);
    assert_eq!(reports.len(), 1, "one crash incident expected");
    let r = &reports[0];
    assert!(r.baseline_wips > 0.0);
    assert!(
        r.brackets_crash(),
        "degraded stretch must bracket the crash: {r:?}"
    );
    assert!(r.degraded_us > 0);
    assert!(r.wips_dip_pct > 0.0);
    assert!(
        r.time_to_failover_us.is_some_and(|us| us > 0),
        "nonzero time to failover: {r:?}"
    );
    assert!(
        r.ramp_to_95pct_us
            .is_some_and(|us| us > 0 && us <= 5_750_000),
        "a ramp back to 95% of baseline within 1.15x the 5 000 000 us \
         measured at commit 8c73ea0: {r:?}"
    );
    assert!(
        r.time_to_detect_us.is_some_and(|us| us > 0),
        "the watchdog restart must be visible as detection time"
    );

    // Spans were stitched, and their pipeline phases telescope exactly
    // to the middleware's end-to-end commit latency (the "within 5%"
    // budget is met with zero slack by construction).
    assert!(!profile.spans.is_empty(), "traced run must stitch spans");
    for span in &profile.spans {
        assert_eq!(span.phase_sum_us(), span.total_us, "span {:?}", span);
    }
    // Windows with deliveries name a dominant phase.
    assert!(
        tl.dominant_phase.iter().any(|p| p.is_some()),
        "at least one window must name a dominant critical-path phase"
    );
}

/// The cross-node causal DAG reconstructed from a traced crash run must
/// attribute blame exactly: every decided slot's critical path telescopes
/// to the measured commit latency, the synchronous log write shows up as
/// disk-fsync blame, and the whole profile is a pure function of the
/// trace (equal paths across same-seed runs).
#[test]
fn causal_blame_telescopes_and_exports_deterministically() {
    let [a, b] = traced();
    let pa = obs::CausalProfile::from_records(&a.trace);
    let pb = obs::CausalProfile::from_records(&b.trace);
    assert!(
        !pa.paths.is_empty(),
        "traced crash run must yield causal paths"
    );
    for path in &pa.paths {
        assert!(path.telescopes(), "blame must telescope: {path:?}");
    }
    let by_cat = pa.blame_by_category();
    assert!(
        by_cat[obs::BlameCategory::DiskFsync.index()] > 0,
        "synchronous log appends must appear as disk-fsync blame"
    );
    assert!(pa.paths == pb.paths, "same-seed causal paths must be equal");
}

#[test]
fn tracing_does_not_perturb_the_run() {
    let (traced, untraced) = (&traced()[0], untraced());
    assert!(untraced.trace.is_empty(), "default-off must record nothing");
    assert_eq!(fingerprint(traced), fingerprint(untraced));
    // The bare run is the paper's single crash, recovered by the
    // watchdog alone.
    assert_eq!(untraced.spans.len(), 1);
    assert!(
        untraced.spans[0].recovered_at.is_some(),
        "recovery must complete"
    );
    assert!(untraced.dependability.autonomy == 1.0);
    assert!(untraced.awips > 100.0, "AWIPS {}", untraced.awips);

    // The monitor is the same kind of pure observer: scrapes read
    // counters the workload already maintains and alerts only add trace
    // events, so a monitored run must fingerprint identically too.
    let monitored = &monitored()[0];
    assert!(
        !monitored.alerts.entries.is_empty(),
        "a monitored crash run must produce alert transitions"
    );
    assert_eq!(fingerprint(traced), fingerprint(monitored));
}

/// Same-seed monitored runs must produce byte-identical alert logs, and
/// the alerts must actually score: the injected crash is detected with
/// a positive latency and no false positives.
#[test]
fn same_seed_alert_logs_are_byte_identical_and_score_the_crash() {
    let [a, b] = monitored();
    let lines = a.alerts.to_lines();
    assert!(!lines.is_empty(), "crash run must log alert transitions");
    assert_eq!(
        lines,
        b.alerts.to_lines(),
        "same-seed alert logs must be byte-identical"
    );
    assert!(
        !a.injections.is_empty(),
        "the faultload's injections must be recorded as ground truth"
    );

    let score = obs::score_alerts(&a.alerts, &a.injections);
    assert_eq!(score.incidents.len(), 1, "one crash incident expected");
    assert_eq!(score.missed(), 0, "the crash must be detected");
    assert_eq!(score.false_positives, 0, "no spurious firings");
    let latency = score.incidents[0].detection_latency_us;
    assert!(
        latency.is_some_and(|us| us > 0 && us <= 2_300_000),
        "detection latency must be positive and within 1.15x the \
         2 000 000 us measured at commit 8c73ea0: {latency:?}"
    );
}

/// A fault-free monitored run must stay silent: no firings, no false
/// positives, at any of the swept sensitivities. The monitor only
/// observes, so each run is also the plain fault-free one, and it
/// delivers the offered load.
#[test]
fn fault_free_monitored_run_fires_nothing() {
    for (pending, scale) in [(1u32, 50u64), (2, 100)] {
        let mut config = ExperimentConfig::quick(5, Profile::Shopping);
        config.monitor = Some(obs::MonitorConfig::default().with_sensitivity(pending, scale));
        let report = run_experiment(&config);
        // 200 RBEs with 1 s think → close to 200 WIPS delivered.
        assert!(report.awips > 150.0, "AWIPS {}", report.awips);
        assert!(report.mean_wirt_ms < 500.0, "WIRT {}", report.mean_wirt_ms);
        assert!(report.dependability.accuracy_percent > 99.0);
        assert_eq!(
            report.alerts.firings(),
            0,
            "fault-free run fired an alert at sensitivity ({pending}, {scale}): {:?}",
            report.alerts.entries
        );
        let score = obs::score_alerts(&report.alerts, &report.injections);
        assert_eq!(score.false_positives, 0);
    }
}

/// FNV-1a-64 of `text`, with its length: a fingerprint small enough to
/// pin in source.
fn fnv1a(text: &str) -> (u64, usize) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h, text.len())
}

/// Every byte `obs` derives from a trace, pinned. The values were
/// captured from the code before the one-table / one-store refactor; a
/// refactor of `obs` must reproduce them unchanged. (A deliberate change
/// to the simulated run itself re-pins them, like any golden.)
#[test]
fn obs_outputs_match_pinned_fingerprints() {
    let a = &traced()[0];
    let trace = obs::jsonl::encode_all(&a.trace);
    let runs = obs::jsonl::decode_runs(&trace).expect("canonical trace decodes");
    assert_eq!(runs.len(), 1);
    assert!(runs[0].1 == a.trace, "decode must invert encode");
    let reencoded = obs::jsonl::encode_all(&runs[0].1);

    let cfg = obs::TimelineConfig::default();
    let store = obs::TraceStore::build(&a.trace);
    let mut tl = obs::Timeline::from_store(&store, cfg.window_us);
    let spans = obs::SpanProfile::from_store(&store);
    tl.dominant_phase = spans.dominant_phases(tl.window_us, tl.windows.len());
    let causal = obs::CausalProfile::from_store(&store);

    let got = [
        ("trace", fnv1a(&trace)),
        ("reencoded", fnv1a(&reencoded)),
        ("timeline_csv", fnv1a(&tl.csv_rows("run"))),
        ("spans", fnv1a(&format!("{:?}", spans.spans))),
        ("causal_paths", fnv1a(&format!("{:?}", causal.paths))),
        ("incidents", fnv1a(&format!("{:?}", store.incidents))),
        (
            "latency_summary",
            fnv1a(&format!("{:?}", store.latency_summary())),
        ),
    ];
    let want: [(&str, (u64, usize)); 7] = [
        ("trace", (0xf149_605a_49c4_28b7, 43931125)),
        ("reencoded", (0xf149_605a_49c4_28b7, 43931125)),
        ("timeline_csv", (0xb37c_1838_f546_4bc2, 1791)),
        ("spans", (0x3477_7eaa_1899_6eb6, 656187)),
        ("causal_paths", (0x2be5_461c_ab3f_36a9, 1436154)),
        ("incidents", (0xee5b_f0c5_34ac_cad1, 284)),
        ("latency_summary", (0x2f0f_e571_2ad2_ed93, 312)),
    ];
    assert_eq!(got, want, "got {got:#x?}");
}
