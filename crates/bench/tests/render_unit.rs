//! Tests of the report renderers (they feed EXPERIMENTS.md, so their
//! layout is part of the deliverable). Each table is pinned whole, on
//! fixed inputs.

use bench::render::{
    render_accuracy, render_alert_quality, render_autonomy, render_blame_categories,
    render_blame_windows, render_checkpoint_sweep, render_fast_vs_classic, render_performability,
    render_performability_delayed, render_phases, render_recovery_times, render_scaleup,
    render_speedup, wips_plot,
};
use bench::{FaultRun, RecoveryTimePoint, ScaleupResult, SweepPoint};
use cluster::{AuditReport, RunReport};
use faultload::{DependabilityReport, PerformabilityWindow, RecoverySpan};
use obs::causal::WindowBlame;
use obs::{AlertLog, AlertPhase, AlertTransition, Hist, InjectionLog};
use tpcw::Profile;

fn sweep() -> Vec<SweepPoint> {
    [
        (4, 1000.0, 100.0),
        (8, 1600.25, 110.5),
        (12, 2000.0, 1234.56),
    ]
    .map(|(replicas, wips, wirt_ms)| SweepPoint {
        replicas,
        wips,
        wirt_ms,
    })
    .to_vec()
}

fn scaleup() -> ScaleupResult {
    ScaleupResult {
        points: sweep(),
        fit: (950.0, -12.5),
        wips_wirt_r2: 0.98765,
    }
}

fn window(awips: f64, cv: f64) -> PerformabilityWindow {
    PerformabilityWindow {
        from_us: 0,
        to_us: 0,
        awips,
        cv,
    }
}

fn span(crash_at: u64, recovered_at: Option<u64>) -> RecoverySpan {
    RecoverySpan {
        server: 0,
        crash_at,
        restart_at: crash_at + 3_000_000,
        recovered_at,
        manual: false,
    }
}

fn report(
    recovery: Vec<PerformabilityWindow>,
    pv_percent: Vec<f64>,
    spans: Vec<RecoverySpan>,
) -> RunReport {
    let schedule = tpcw::Schedule::quick(60);
    RunReport {
        recorder: tpcw::Recorder::new(schedule.total_us()),
        spans,
        reconfigs: Vec::new(),
        dependability: DependabilityReport {
            failure_free: window(480.25, 0.0512),
            recovery,
            pv_percent,
            availability: 0.998_765,
            accuracy_percent: 99.987_1,
            autonomy: 1.0,
        },
        awips: 0.0,
        mean_wirt_ms: 0.0,
        schedule,
        server_status: Vec::new(),
        net_messages: 0,
        net_bytes: 0,
        disk_writes: 0,
        disk_appends: 0,
        audit: AuditReport {
            checks: 0,
            violations: Vec::new(),
            total_violations: 0,
        },
        trace: Vec::new(),
        engine_events: 0,
        injections: InjectionLog::default(),
        alerts: AlertLog::default(),
    }
}

/// A 5-replica browsing run with one recovery, an 8-replica ordering
/// run with two (the second never completed), and an 8-replica
/// shopping run that recorded no recovery window.
fn grid() -> Vec<FaultRun> {
    let one = report(
        vec![window(350.5, 0.21)],
        vec![-27.02],
        vec![span(90_000_000, Some(131_500_000))],
    );
    let two = report(
        vec![window(300.0, 0.3), window(410.75, 0.125)],
        vec![-37.53, -14.47],
        vec![span(80_000_000, Some(120_000_000)), span(130_000_000, None)],
    );
    let none = report(Vec::new(), Vec::new(), Vec::new());
    vec![
        FaultRun {
            replicas: 5,
            profile: Profile::Browsing,
            ebs: 50,
            report: one,
        },
        FaultRun {
            replicas: 8,
            profile: Profile::Ordering,
            ebs: 50,
            report: two,
        },
        FaultRun {
            replicas: 8,
            profile: Profile::Shopping,
            ebs: 50,
            report: none,
        },
    ]
}

fn recovery_points() -> Vec<RecoveryTimePoint> {
    let mut points = Vec::new();
    for (r, replicas) in [5usize, 8].into_iter().enumerate() {
        for (p, profile) in Profile::ALL.into_iter().enumerate() {
            for (e, ebs) in [30u32, 50, 70].into_iter().enumerate() {
                if (r + p + e) % 5 == 4 {
                    continue;
                }
                let recovery_secs = 20.0 + 10.0 * e as f64 + 1.25 * p as f64 + 0.5 * r as f64;
                points.push(RecoveryTimePoint {
                    replicas,
                    profile,
                    ebs,
                    recovery_secs,
                });
            }
        }
    }
    points
}

fn checkpoint_rows() -> [(u64, f64, f64, u64); 3] {
    [
        (2_000, 180.5, 41.0, 91_234),
        (20_000, 181.0, 44.55, 12_345),
        (100_000, 179.9, 52.0, 6_789),
    ]
}

fn fast_vs_classic_rows() -> Vec<(usize, Profile, [f64; 4])> {
    vec![
        (5, Profile::Shopping, [481.25, 152.5, 470.0, 210.25]),
        (8, Profile::Ordering, [455.5, 1234.5, 401.0, 98.0]),
    ]
}

/// A monitored crash run whose one injection was detected after 2 s and
/// resolved after 9 s, beside a fault-free run that fired nothing.
fn alert_runs() -> Vec<(String, RunReport)> {
    let mut crash = report(Vec::new(), Vec::new(), Vec::new());
    crash.injections.record(10_000_000, 1, obs::INJECT_CRASH);
    let transition = |t_us, phase| AlertTransition {
        t_us,
        rule: "replica_down",
        subject: 1,
        phase,
        elapsed_us: 0,
    };
    crash.alerts.entries = vec![
        transition(11_000_000, AlertPhase::Pending),
        transition(12_000_000, AlertPhase::Firing),
        transition(19_000_000, AlertPhase::Resolved),
    ];
    let quiet = report(Vec::new(), Vec::new(), Vec::new());
    vec![
        ("crash scrape=1s sens=eager".to_string(), crash),
        ("fault-free scrape=5s sens=default".to_string(), quiet),
    ]
}

fn phases() -> Vec<(&'static str, Hist)> {
    let hist = |samples: &[u64]| {
        let mut h = Hist::new();
        for &s in samples {
            h.observe(s);
        }
        h
    };
    vec![
        ("batch_wait", hist(&[0, 0, 150, 80_000])),
        ("persist_accept", hist(&[1_200, 1_500, 1_800])),
        ("quorum_decide", hist(&[2_000, 30_000])),
    ]
}

const BLAME: (f64, [u64; 5]) = (2_345.6, [1_000, 2_000, 0, 500, 12_345]);

fn blame_windows() -> Vec<WindowBlame> {
    vec![
        WindowBlame {
            start_us: 0,
            paths: 12,
            totals: [1_500, 200, 3_400, 0, 9_050],
        },
        WindowBlame {
            start_us: 5_000_000,
            paths: 123_456,
            totals: [987_654, 12_345, 600, 2_500, 50],
        },
    ]
}

#[test]
fn wips_plot_shapes_and_markers() {
    let mut series = vec![100u32; 60];
    for s in series.iter_mut().take(40).skip(30) {
        *s = 20; // a dip
    }
    let plot = wips_plot(&series, &[(30_000_000, 'c'), (40_000_000, 'r')], 60);
    assert!(plot.contains('c') && plot.contains('r'));
    assert!(plot.contains("peak≈100"));
    let lines: Vec<&str> = plot.lines().collect();
    assert_eq!(lines.len(), 3, "header + plot + markers");
    // The dip must render visibly lower than the plateau.
    let plot_line = lines[1];
    let plateau = plot_line.chars().next().unwrap();
    let dip = plot_line.chars().nth(33).unwrap();
    assert_ne!(plateau, dip, "dip must be visible: {plot_line}");
}

#[test]
fn wips_plot_empty_series() {
    assert_eq!(wips_plot(&[], &[], 10), "");
}

#[test]
fn speedup_table_contains_all_rows_and_ratios() {
    assert_eq!(
        render_speedup(Profile::Browsing, &sweep()),
        "Figure 3 (browsing) — saturated WIPSb and WIRT vs replicas
  replicas |    WIPS | WIRT(ms) |   S_k
         4 |  1000.0 |    100.0 |  1.00
         8 |  1600.2 |    110.5 |  1.60
        12 |  2000.0 |   1234.6 |  2.00
"
    );
}

#[test]
fn scaleup_table_ends_with_its_fit() {
    assert_eq!(
        render_scaleup(Profile::Ordering, &scaleup()),
        "Figure 4 (ordering) — WIPSo and WIRT at 1000 WIPS offered
  replicas |    WIPS | WIRT(ms)
         4 |  1000.0 |    100.0
         8 |  1600.2 |    110.5
        12 |  2000.0 |   1234.6
  fit: WIPS ≈ 950.0 -12.50·replicas   (-1.32%/replica)
  WIPS↔WIRT r² = 0.9877
"
    );
}

#[test]
fn dependability_grid_tables_match_their_goldens() {
    let runs = grid();
    assert_eq!(
        render_performability("Table 1 — one failure: performability", &runs),
        "Table 1 — one failure: performability
      |    failure free    |       recovery
  R/P |    AWIPS |      CV |    AWIPS |     CV |  PV(%)
  5/b |    480.2 |    0.05 |    350.5 |   0.21 |  -27.0
  8/o |    480.2 |    0.05 |    300.0 |   0.30 |  -37.5
  8/s |    480.2 |    0.05 |      NaN |    NaN |    NaN
"
    );
    assert_eq!(
        render_performability_delayed("Table 5 — delayed recovery: performability", &runs),
        "Table 5 — delayed recovery: performability
  R/P | no-fail AWIPS | R1 AWIPS |  PV(%) | R2 AWIPS |  PV(%)
  5/b |         480.2 |    350.5 |  -27.0 |      NaN |    NaN
  8/o |         480.2 |    300.0 |  -37.5 |    410.8 |  -14.5
  8/s |         480.2 |      NaN |    NaN |      NaN |    NaN
"
    );
    assert_eq!(
        render_accuracy("Table 2 — one failure: accuracy (%)", &runs),
        "Table 2 — one failure: accuracy (%)
  replicas | browsing | shopping | ordering
         5 |   99.987 |        - |        -
         8 |        - |   99.987 |   99.987
"
    );
    assert_eq!(
        render_autonomy("One failure: availability/autonomy", &runs),
        "One failure: availability/autonomy
  R/P | availability | autonomy | recoveries(s)
  5/b |      0.99877 |     1.00 | 38.5
  8/o |      0.99877 |     1.00 | 37.0, incomplete
  8/s |      0.99877 |     1.00 | 
"
    );
}

#[test]
fn checkpoint_sweep_shows_each_rows_disk_writes() {
    assert_eq!(
        render_checkpoint_sweep(&checkpoint_rows()),
        "  interval | AWIPS | recovery(s) | disk writes (all servers)
      2000 | 180.5 |        41.0 |                     91234
     20000 | 181.0 |        44.5 |                     12345
    100000 | 179.9 |        52.0 |                      6789
"
    );
}

#[test]
fn fast_vs_classic_table_matches_its_golden() {
    assert_eq!(
        render_fast_vs_classic(&fast_vs_classic_rows()),
        "== Ablation 1: Fast Paxos vs classic Paxos ==
  R profile   |  fast AWIPS |  fast WIRT | classic AWIPS | classic WIRT
  5 shopping  |       481.2 |    152.5ms |         470.0 |     210.2ms
  8 ordering  |       455.5 |   1234.5ms |         401.0 |      98.0ms
"
    );
}

#[test]
fn recovery_grid_has_all_cells() {
    assert_eq!(
        render_recovery_times(&recovery_points()),
        "Figure 6 — one-failure recovery times (s) by state size
  R  profile   |  300MB |  500MB |  700MB
  5R browsing  |   20.0 |   30.0 |   40.0
  5R shopping  |   21.2 |   31.2 |   41.2
  5R ordering  |   22.5 |   32.5 |      -
  8R browsing  |   20.5 |   30.5 |   40.5
  8R shopping  |   21.8 |   31.8 |      -
  8R ordering  |   23.0 |      - |   43.0
"
    );
}

#[test]
fn alert_quality_table_matches_its_golden() {
    let runs = alert_runs();
    let rows: Vec<(String, &RunReport)> = runs.iter().map(|(l, r)| (l.clone(), r)).collect();
    assert_eq!(
        render_alert_quality("Detection-latency / false-positive frontier", &rows),
        "Detection-latency / false-positive frontier
  run                            | inc | det | miss |  FP | fired | detect mean |   max | resolve mean
  crash scrape=1s sens=eager     |   1 |   1 |    0 |   0 |     1 |        2.0s |  2.0s |         9.0s
  fault-free scrape=5s sens=default |   0 |   0 |    0 |   0 |     0 |           - |     - |            -
"
    );
}

#[test]
fn trace_page_tables_match_their_goldens() {
    let phases = phases();
    assert_eq!(
        render_phases(|name| phases.iter().find(|(n, _)| *n == name).map(|(_, h)| h)),
        "  phase          |      n |  p50(ms) |  p99(ms) | mean(ms)
  batch_wait     |      4 |    0.000 |   65.535 |   20.038
  persist_accept |      3 |    1.364 |    1.705 |    1.500
  quorum_decide  |      2 |    2.000 |   16.383 |   16.000
"
    );
    assert_eq!(
        render_blame_categories(BLAME.0, BLAME.1),
        "  quorum decide mean 2.346 ms
  category         | total(ms) | share(%)
  queueing         |       1.0 |     6.3
  cpu_service      |       2.0 |    12.6
  net_transit      |       0.0 |     0.0
  retransmit_stall |       0.5 |     3.2
  disk_fsync       |      12.3 |    77.9
"
    );
    assert_eq!(
        render_blame_windows(5_000_000, &blame_windows()),
        "   window(5s) | paths | queueing | cpu | net | retransmit | fsync (ms)
           0s |    12 |      1.5 |   0 |   3 |        0.0 |   9.1
           5s | 123456 |    987.7 |  12 |   1 |        2.5 |   0.1
"
    );
}

#[test]
fn mode_schedules_and_faultload_scaling() {
    use bench::Mode;
    let q = Mode::Quick.schedule();
    assert_eq!(q.interval_us, 180_000_000);
    let f = Mode::Full.schedule();
    assert_eq!(f.interval_us, 540_000_000);
    // Faultload times scale with the schedule in quick mode only.
    let fl = faultload::Faultload::single_crash();
    assert_eq!(
        Mode::Quick.faultload(fl.clone()).events[0].at_us,
        90_000_000
    );
    assert_eq!(Mode::Full.faultload(fl).events[0].at_us, 270_000_000);
    // Sweeps cover the paper's 4..=12 range.
    assert_eq!(Mode::Full.sweep_replicas(), (4..=12).collect::<Vec<_>>());
    assert_eq!(Mode::Quick.sweep_replicas(), vec![4, 6, 8, 10, 12]);
}
