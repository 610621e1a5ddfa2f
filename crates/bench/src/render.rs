//! Rendering helpers: paper-style tables and ASCII WIPS histograms,
//! plus the [`Console`] the `exp_*` binaries route all human-readable
//! output through.

use faultload::DependabilityReport;
use tpcw::Profile;

use crate::{FaultRun, RecoveryTimePoint, ScaleupResult, SweepPoint, GRID_REPLICAS};

/// Console output shared by the `exp_*` binaries.
///
/// Tables and plots go through [`Console::say`]; `--quiet` suppresses
/// them, and when `--json -` claims stdout for the machine-readable
/// report they are rerouted to stderr, so a JSON consumer reading
/// stdout never sees human text interleaved with the document. Status
/// notes ("wrote …") go through [`Console::note`], which always targets
/// stderr.
#[derive(Debug, Clone, Copy)]
pub struct Console {
    /// `--quiet`: print no tables, plots or notes.
    pub quiet: bool,
    /// `--json -`: tables and plots go to stderr.
    pub to_stderr: bool,
}

impl Console {
    /// Prints one human-readable block (suppressed by `--quiet`).
    pub fn say(&self, text: impl std::fmt::Display) {
        if self.quiet {
            return;
        }
        if self.to_stderr {
            eprintln!("{text}");
        } else {
            println!("{text}");
        }
    }

    /// Prints a status note to stderr (suppressed by `--quiet`).
    pub fn note(&self, text: impl std::fmt::Display) {
        if !self.quiet {
            eprintln!("{text}");
        }
    }
}

/// Renders a per-second WIPS series as a compact ASCII plot (the shape
/// of Figures 5/7/8), with crash/recovery markers.
pub fn wips_plot(series: &[u32], markers: &[(u64, char)], width: usize) -> String {
    const LEVELS: &[char] = &[' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    if series.is_empty() {
        return String::new();
    }
    let bucket = series.len().div_ceil(width);
    let cols: Vec<f64> = series
        .chunks(bucket)
        .map(|c| c.iter().map(|v| *v as f64).sum::<f64>() / c.len() as f64)
        .collect();
    let max = cols.iter().cloned().fold(1.0_f64, f64::max);
    let mut plot: String = cols
        .iter()
        .map(|v| {
            let idx = ((v / max) * (LEVELS.len() - 1) as f64).round() as usize;
            LEVELS[idx.min(LEVELS.len() - 1)]
        })
        .collect();
    let mut marker_line = vec![b' '; plot.chars().count()];
    for (t_us, ch) in markers {
        let sec = (*t_us / 1_000_000) as usize;
        let col = sec / bucket;
        if col < marker_line.len() {
            marker_line[col] = *ch as u8;
        }
    }
    plot.push('\n');
    plot.push_str(&String::from_utf8_lossy(&marker_line));
    format!("peak≈{max:.0} WIPS/s, {bucket}s per column\n{plot}")
}

/// Renders a speedup sweep (one Figure 3 panel).
pub fn render_speedup(profile: Profile, points: &[SweepPoint]) -> String {
    let mut out = format!(
        "Figure 3 ({}) — saturated {} and WIRT vs replicas\n",
        profile.name(),
        profile.metric_name()
    );
    out.push_str("  replicas |    WIPS | WIRT(ms) |   S_k\n");
    let base = points
        .iter()
        .find(|p| p.replicas == 4)
        .map(|p| p.wips)
        .unwrap_or(1.0);
    for p in points {
        out.push_str(&format!(
            "  {:8} | {:7.1} | {:8.1} | {:5.2}\n",
            p.replicas,
            p.wips,
            p.wirt_ms,
            p.wips / base
        ));
    }
    out
}

/// Renders a scaleup sweep (one Figure 4 panel).
pub fn render_scaleup(profile: Profile, result: &ScaleupResult) -> String {
    let mut out = format!(
        "Figure 4 ({}) — {} and WIRT at 1000 WIPS offered\n",
        profile.name(),
        profile.metric_name()
    );
    out.push_str("  replicas |    WIPS | WIRT(ms)\n");
    for p in &result.points {
        out.push_str(&format!(
            "  {:8} | {:7.1} | {:8.1}\n",
            p.replicas, p.wips, p.wirt_ms
        ));
    }
    let (a, b) = result.fit;
    out.push_str(&format!(
        "  fit: WIPS ≈ {a:.1} {b:+.2}·replicas   ({:+.2}%/replica)\n",
        100.0 * b / a.max(1.0)
    ));
    out.push_str(&format!("  WIPS↔WIRT r² = {:.4}\n", result.wips_wirt_r2));
    out
}

/// Renders a performability table (Tables 1/3) from a dependability
/// grid.
pub fn render_performability(title: &str, runs: &[FaultRun]) -> String {
    let mut out = format!("{title}\n");
    out.push_str("        |    failure free    |       recovery\n");
    out.push_str("  R/P   |    AWIPS |     CV  |    AWIPS |     CV |  PV(%)\n");
    for run in runs {
        let d = &run.report.dependability;
        let rec = d.recovery.first();
        out.push_str(&format!(
            "  {}/{} | {:8.1} | {:7.2} | {:8.1} | {:6.2} | {:+6.1}\n",
            run.replicas,
            &run.profile.name()[..1],
            d.failure_free.awips,
            d.failure_free.cv,
            rec.map(|w| w.awips).unwrap_or(f64::NAN),
            rec.map(|w| w.cv).unwrap_or(f64::NAN),
            d.pv_percent.first().copied().unwrap_or(f64::NAN),
        ));
    }
    out
}

/// Renders the delayed-recovery performability table (Table 5: separate
/// R1 and R2 windows).
pub fn render_performability_delayed(title: &str, runs: &[FaultRun]) -> String {
    let mut out = format!("{title}\n");
    out.push_str("  R/P   | no-fail AWIPS | R1 AWIPS |  PV(%) | R2 AWIPS |  PV(%)\n");
    for run in runs {
        let d = &run.report.dependability;
        let (r1, r2) = (d.recovery.first(), d.recovery.get(1));
        out.push_str(&format!(
            "  {}/{} | {:13.1} | {:8.1} | {:+6.1} | {:8.1} | {:+6.1}\n",
            run.replicas,
            &run.profile.name()[..1],
            d.failure_free.awips,
            r1.map(|w| w.awips).unwrap_or(f64::NAN),
            d.pv_percent.first().copied().unwrap_or(f64::NAN),
            r2.map(|w| w.awips).unwrap_or(f64::NAN),
            d.pv_percent.get(1).copied().unwrap_or(f64::NAN),
        ));
    }
    out
}

/// Renders an accuracy table (Tables 2/4/6).
pub fn render_accuracy(title: &str, runs: &[FaultRun]) -> String {
    let mut out = format!("{title}\n  replicas | browsing | shopping | ordering\n");
    for replicas in GRID_REPLICAS {
        let row: Vec<String> = Profile::ALL
            .iter()
            .map(|p| {
                runs.iter()
                    .find(|r| r.replicas == replicas && r.profile == *p)
                    .map(|r| format!("{:8.3}", r.report.dependability.accuracy_percent))
                    .unwrap_or_else(|| "       -".to_string())
            })
            .collect();
        out.push_str(&format!("  {:8} | {}\n", replicas, row.join(" | ")));
    }
    out
}

/// Renders the Figure 6 recovery-time grid.
pub fn render_recovery_times(points: &[RecoveryTimePoint]) -> String {
    let mut out = String::from(
        "Figure 6 — one-failure recovery times (s) by state size\n  R  profile   |  300MB |  500MB |  700MB\n",
    );
    for replicas in GRID_REPLICAS {
        for profile in Profile::ALL {
            let cells: Vec<String> = [30u32, 50, 70]
                .iter()
                .map(|ebs| {
                    points
                        .iter()
                        .find(|p| p.replicas == replicas && p.profile == profile && p.ebs == *ebs)
                        .map(|p| format!("{:6.1}", p.recovery_secs))
                        .unwrap_or_else(|| "     -".to_string())
                })
                .collect();
            out.push_str(&format!(
                "  {}R {:9} | {}\n",
                replicas,
                profile.name(),
                cells.join(" | ")
            ));
        }
    }
    out
}

/// Renders `exp_ablation`'s checkpoint-interval sweep, one row per
/// `(interval, awips, recovery_s, disk_writes)`: what a shorter interval
/// saves on recovery beside what it costs in disk writes.
pub fn render_checkpoint_sweep(rows: &[(u64, f64, f64, u64)]) -> String {
    let mut out = String::from("  interval | AWIPS | recovery(s) | disk writes (all servers)\n");
    for (interval, awips, recovery_s, disk_writes) in rows {
        out.push_str(&format!(
            "  {interval:8} | {awips:5.1} | {recovery_s:11.1} | {disk_writes:25}\n"
        ));
    }
    out
}

/// Renders availability/autonomy summary for a grid.
pub fn render_autonomy(title: &str, runs: &[FaultRun]) -> String {
    let mut out = format!("{title}\n  R/P   | availability | autonomy | recoveries(s)\n");
    for run in runs {
        let d: &DependabilityReport = &run.report.dependability;
        let recs: Vec<String> = run
            .report
            .spans
            .iter()
            .map(|s| {
                s.recovery_secs()
                    .map(|v| format!("{v:.1}"))
                    .unwrap_or_else(|| "incomplete".to_string())
            })
            .collect();
        out.push_str(&format!(
            "  {}/{} | {:12.5} | {:8.2} | {}\n",
            run.replicas,
            &run.profile.name()[..1],
            d.availability,
            d.autonomy,
            recs.join(", ")
        ));
    }
    out
}

/// An optional duration given in µs, to one decimal in `unit` (`"ms"`
/// or `"s"`), or `-` when absent: the one format of every optional
/// duration the binaries print.
pub fn dur(us: Option<u64>, unit: &str) -> String {
    match us {
        Some(us) if unit == "ms" => format!("{:.1}ms", us as f64 / 1e3),
        Some(us) => format!("{:.1}s", us as f64 / 1e6),
        None => "-".to_string(),
    }
}

/// One incident's [`obs::AvailabilityReport`] on one line: the
/// pre-incident baseline, the time to the victim's watchdog restart
/// and to failover, the degraded stretch, its deepest dip and the ramp
/// back to 95 % of baseline.
pub fn availability_row(r: &obs::AvailabilityReport) -> String {
    format!(
        "base {:6.1} WIPS  restart {:>6}  failover {:>6}  degraded {:>6}  dip {:5.1}%  ramp95 {:>6}",
        r.baseline_wips,
        dur(r.time_to_detect_us, "s"),
        dur(r.time_to_failover_us, "s"),
        dur(Some(r.degraded_us), "s"),
        r.wips_dip_pct,
        dur(r.ramp_to_95pct_us, "s"),
    )
}

/// A run's [`obs::FdQuality`] on one line, against its `crashes`: the
/// crashes the failure detectors suspected, with the p50 and max time
/// to suspicion, and the false suspicions of live peers with the p50
/// of how long each lasted.
pub fn fd_row(fd: &obs::FdQuality, crashes: usize) -> String {
    let (det, mistakes) = (&fd.detection_latency, &fd.mistake_duration);
    let q = |h: &obs::Hist, q: f64| dur((h.count() > 0).then(|| h.quantile(q)), "s");
    format!(
        "fd: {}/{crashes} crash(es) suspected, p50 {:>5} max {:>5}; \
         {} false suspicion(s), lasting p50 {:>5}",
        det.count(),
        q(det, 0.5),
        q(det, 1.0),
        fd.false_suspicions,
        q(mistakes, 0.5),
    )
}

/// Renders per-crash availability reports for a faultload grid — the
/// numbers behind the Figures 5/7/8 curves.
pub fn render_availability(title: &str, runs: &[FaultRun]) -> String {
    let mut out = format!("{title}\n");
    for run in runs {
        for r in crate::report::availability(&run.report, "crash") {
            out.push_str(&format!(
                "  {}/{} | {}\n",
                run.replicas,
                &run.profile.name()[..1],
                availability_row(&r),
            ));
        }
    }
    out
}

/// Renders the failure detectors' quality against the trace's ground
/// truth per traced run that crashed or suspected a live peer, or a
/// note when no run was traced (the metrics are derived from
/// `peer_suspected`/`peer_cleared` records).
pub fn render_fd_quality(title: &str, runs: &[FaultRun]) -> String {
    let mut out = format!("{title}\n");
    let mut any = false;
    for run in runs {
        if run.report.trace.is_empty() {
            continue;
        }
        let store = obs::TraceStore::build(&run.report.trace);
        let fd = store.fd_quality();
        if store.incidents.is_empty() && fd.false_suspicions == 0 {
            continue;
        }
        any = true;
        out.push_str(&format!(
            "  {}/{} | {}\n",
            run.replicas,
            &run.profile.name()[..1],
            fd_row(&fd, store.incidents.len()),
        ));
    }
    if !any {
        out.push_str("  (no traced runs — re-run with --trace for detector quality)\n");
    }
    out
}

/// Renders the online monitor's alert quality per run: ground-truth
/// incidents vs detected/missed, mean/max detection latency, false
/// positives, and the mean time-to-resolve. Rows whose runs were not
/// monitored (no alerts, no injections) still render — a fault-free
/// monitored baseline with zero firings is exactly the result the
/// false-positive column is for.
pub fn render_alert_quality(title: &str, runs: &[(String, &cluster::RunReport)]) -> String {
    let mut out = format!(
        "{title}\n  run                            | inc | det | miss |  FP | fired | detect mean |   max | resolve mean\n"
    );
    for (label, report) in runs {
        let score = crate::report::alert_score_from_run(report);
        let det = &score.detection_latency;
        let detected = det.count() > 0;
        let resolved: Vec<u64> = score
            .incidents
            .iter()
            .filter_map(|i| i.resolve_latency_us)
            .collect();
        let resolve_mean =
            (!resolved.is_empty()).then(|| resolved.iter().sum::<u64>() / resolved.len() as u64);
        out.push_str(&format!(
            "  {:<30} | {:3} | {:3} | {:4} | {:3} | {:5} | {:>11} | {:>5} | {:>12}\n",
            label,
            score.incidents.len(),
            det.count(),
            score.missed(),
            score.false_positives,
            score.firings,
            dur(detected.then(|| det.mean() as u64), "s"),
            dur(detected.then(|| det.max()), "s"),
            dur(resolve_mean, "s"),
        ));
    }
    out
}

/// Renders one fault run's WIPS histogram with crash (c) and recovery
/// (r) markers — the Figures 5/7/8 panels.
pub fn render_fault_histogram(run: &FaultRun) -> String {
    let mut markers: Vec<(u64, char)> = Vec::new();
    for span in &run.report.spans {
        markers.push((span.crash_at, 'c'));
        if let Some(r) = span.recovered_at {
            markers.push((r, 'r'));
        }
    }
    format!(
        "{}R {} ({}00MB):\n{}",
        run.replicas,
        run.profile.name(),
        run.ebs / 10,
        wips_plot(run.report.recorder.wips_series(), &markers, 90)
    )
}
