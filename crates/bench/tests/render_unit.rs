//! Tests of the report renderers (they feed EXPERIMENTS.md, so their
//! layout is part of the deliverable).

use bench::render::{render_checkpoint_sweep, render_recovery_times, render_speedup, wips_plot};
use bench::{RecoveryTimePoint, SweepPoint};
use tpcw::Profile;

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
    let points = vec![
        SweepPoint {
            replicas: 4,
            wips: 1000.0,
            wirt_ms: 100.0,
        },
        SweepPoint {
            replicas: 8,
            wips: 1600.0,
            wirt_ms: 110.0,
        },
        SweepPoint {
            replicas: 12,
            wips: 2000.0,
            wirt_ms: 120.0,
        },
    ];
    let s = render_speedup(Profile::Browsing, &points);
    assert!(s.contains("WIPSb"));
    assert!(s.contains("1.60"));
    assert!(s.contains("2.00"));
}

#[test]
fn checkpoint_sweep_shows_each_rows_disk_writes() {
    let rows = [
        (2_000u64, 180.5, 41.0, 91_234u64),
        (20_000, 181.0, 44.5, 12_345),
        (100_000, 179.9, 52.0, 6_789),
    ];
    let s = render_checkpoint_sweep(&rows);
    assert!(s.starts_with("  interval | AWIPS | recovery(s) | disk writes (all servers)\n"));
    let body: Vec<&str> = s.lines().skip(1).collect();
    assert_eq!(body.len(), rows.len());
    for (line, (interval, _, _, disk_writes)) in body.iter().zip(rows) {
        assert!(line.contains(&interval.to_string()), "{line}");
        assert!(line.ends_with(&format!(" {disk_writes}")), "{line}");
    }
    assert!(!s.contains("see bench output"), "{s}");
}

#[test]
fn recovery_grid_has_all_cells() {
    let mut points = Vec::new();
    for replicas in [5usize, 8] {
        for profile in Profile::ALL {
            for (i, ebs) in [30u32, 50, 70].iter().enumerate() {
                points.push(RecoveryTimePoint {
                    replicas,
                    profile,
                    ebs: *ebs,
                    recovery_secs: 40.0 + 10.0 * i as f64,
                });
            }
        }
    }
    let s = render_recovery_times(&points);
    assert!(s.contains("5R browsing"));
    assert!(s.contains("8R ordering"));
    assert!(s.contains("40.0"));
    assert!(s.contains("60.0"));
    assert_eq!(s.lines().count(), 2 + 6, "header rows + six grid rows");
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
