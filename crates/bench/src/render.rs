//! Rendering helpers: paper-style tables and ASCII WIPS histograms,
//! plus the [`Console`] the `exp_*` binaries route all human-readable
//! output through. Every table with a column header is one `table`
//! call: a title, a column list and the rows.

use std::fmt::Display;

use obs::causal::WindowBlame;
use obs::{BlameCategory, Hist};
use tpcw::Profile;

use crate::{grid, FaultRun, RecoveryTimePoint, ScaleupResult, SweepPoint, GRID_REPLICAS};

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

/// The one layout of every table the binaries print: the lines of
/// `title`, the header, then each row `rows` writes through its
/// callback, the cells of a line joined with ` | ` behind two spaces.
/// `cols` names the columns as `head:spec | head:spec …`; `spec` is a
/// format spec's width, `<` to pad on the right (cells otherwise pad
/// on the left), `+` to sign a number and `.p` to write it to `p`
/// decimals (it would cut text to `p` characters, so `-` marks an
/// absent number). A cell longer than its width is not cut.
pub(crate) fn table(
    title: &str,
    cols: &str,
    rows: impl FnOnce(&mut dyn FnMut(&[&dyn Display])),
) -> String {
    let (heads, specs): (Vec<&str>, Vec<&str>) =
        cols.split(" | ").filter_map(|c| c.rsplit_once(':')).unzip();
    let mut out: String = title.lines().map(|l| format!("{l}\n")).collect();
    let mut line = |cells: &[&dyn Display], decimals: bool| {
        assert_eq!(cells.len(), specs.len(), "one cell per column of {cols:?}");
        let cells = cells
            .iter()
            .zip(&specs)
            .map(|(v, spec)| pad(*v, spec, decimals));
        out.push_str(&format!("  {}\n", cells.collect::<Vec<_>>().join(" | ")));
    };
    // A header is text: its column's width and side, not its decimals.
    line(
        &heads.iter().map(|h| h as &dyn Display).collect::<Vec<_>>(),
        false,
    );
    rows(&mut |cells| line(cells, true));
    out
}

/// `v` padded and written as the column spec `spec` of a `table`
/// says, to its decimals if `decimals`.
fn pad(v: &dyn Display, spec: &str, decimals: bool) -> String {
    let digits = spec.trim_start_matches(['<', '+']);
    let (w, p) = digits.split_once('.').unwrap_or((digits, ""));
    let w: usize = w.parse().unwrap_or(0);
    match p.parse::<usize>().ok().filter(|_| decimals) {
        _ if spec.starts_with('<') => format!("{v:<w$}"),
        None => format!("{v:>w$}"),
        Some(p) if spec.starts_with('+') => format!("{v:>+w$.p$}"),
        Some(p) => format!("{v:>w$.p$}"),
    }
}

/// An optional number as a [`table`] cell: `-` when it is absent.
fn or_dash(v: Option<&f64>) -> &dyn Display {
    v.map_or(&"-", |v| v)
}

/// A grid run's `R/P` label: its replica count and its profile's
/// initial.
fn rp(run: &FaultRun) -> String {
    format!("{}/{}", run.replicas, &run.profile.name()[..1])
}

/// Renders a speedup sweep (one Figure 3 panel).
pub fn render_speedup(profile: Profile, points: &[SweepPoint]) -> String {
    let base = points.iter().find(|p| p.replicas == 4);
    let base = base.map_or(1.0, |p| p.wips);
    let (name, metric) = (profile.name(), profile.metric_name());
    let title = format!("Figure 3 ({name}) — saturated {metric} and WIRT vs replicas");
    let cols = "replicas:8 | WIPS:7.1 | WIRT(ms):8.1 | S_k:5.2";
    table(&title, cols, |row| {
        for p in points {
            row(&[&p.replicas, &p.wips, &p.wirt_ms, &(p.wips / base)]);
        }
    })
}

/// Renders a scaleup sweep (one Figure 4 panel).
pub fn render_scaleup(profile: Profile, result: &ScaleupResult) -> String {
    let (name, metric) = (profile.name(), profile.metric_name());
    let title = format!("Figure 4 ({name}) — {metric} and WIRT at 1000 WIPS offered");
    let mut out = table(&title, "replicas:8 | WIPS:7.1 | WIRT(ms):8.1", |row| {
        for p in &result.points {
            row(&[&p.replicas, &p.wips, &p.wirt_ms]);
        }
    });
    let ((a, b), r2) = (result.fit, result.wips_wirt_r2);
    let slope_pct = 100.0 * b / a.max(1.0);
    out.push_str(&format!(
        "  fit: WIPS ≈ {a:.1} {b:+.2}·replicas   ({slope_pct:+.2}%/replica)\n  WIPS↔WIRT r² = {r2:.4}\n"
    ));
    out
}

/// Renders a performability table (Tables 1/3) from a dependability
/// grid.
pub fn render_performability(title: &str, runs: &[FaultRun]) -> String {
    let title = format!("{title}\n      |    failure free    |       recovery");
    let cols = "R/P:<3 | AWIPS:8.1 | CV:7.2 | AWIPS:8.1 | CV:6.2 | PV(%):+6.1";
    table(&title, cols, |row| {
        for run in runs {
            let d = &run.report.dependability;
            let (free, rec) = (&d.failure_free, d.recovery.first());
            let (awips, cv) = (
                rec.map_or(f64::NAN, |w| w.awips),
                rec.map_or(f64::NAN, |w| w.cv),
            );
            let pv = d.pv_percent.first().copied().unwrap_or(f64::NAN);
            row(&[&rp(run), &free.awips, &free.cv, &awips, &cv, &pv]);
        }
    })
}

/// Renders the delayed-recovery performability table (Table 5: separate
/// R1 and R2 windows).
pub fn render_performability_delayed(title: &str, runs: &[FaultRun]) -> String {
    let cols =
        "R/P:<3 | no-fail AWIPS:13.1 | R1 AWIPS:8.1 | PV(%):+6.1 | R2 AWIPS:8.1 | PV(%):+6.1";
    table(title, cols, |row| {
        for run in runs {
            let d = &run.report.dependability;
            let awips = |i: usize| d.recovery.get(i).map_or(f64::NAN, |w| w.awips);
            let pv = |i: usize| d.pv_percent.get(i).copied().unwrap_or(f64::NAN);
            let free = d.failure_free.awips;
            row(&[&rp(run), &free, &awips(0), &pv(0), &awips(1), &pv(1)]);
        }
    })
}

/// Renders an accuracy table (Tables 2/4/6).
pub fn render_accuracy(title: &str, runs: &[FaultRun]) -> String {
    let cols = "replicas:8 | browsing:8.3 | shopping:8.3 | ordering:8.3";
    table(title, cols, |row| {
        for replicas in GRID_REPLICAS {
            let [b, s, o] = Profile::ALL.map(|p| {
                let at = |r: &&FaultRun| (r.replicas, r.profile) == (replicas, p);
                let run = runs.iter().find(at);
                or_dash(run.map(|r| &r.report.dependability.accuracy_percent))
            });
            row(&[&replicas, b, s, o]);
        }
    })
}

/// Renders the Figure 6 recovery-time grid.
pub fn render_recovery_times(points: &[RecoveryTimePoint]) -> String {
    let title = "Figure 6 — one-failure recovery times (s) by state size";
    let cols = "R  profile:<12 | 300MB:6.1 | 500MB:6.1 | 700MB:6.1";
    table(title, cols, |row| {
        for (replicas, profile) in grid() {
            let [small, medium, large] = [30u32, 50, 70].map(|ebs| {
                let key = (replicas, profile, ebs);
                let at = |p: &&RecoveryTimePoint| (p.replicas, p.profile, p.ebs) == key;
                or_dash(points.iter().find(at).map(|p| &p.recovery_secs))
            });
            let label = format!("{replicas}R {}", profile.name());
            row(&[&label, small, medium, large]);
        }
    })
}

/// Renders `exp_ablation`'s Fast-vs-classic-Paxos table, one row per
/// `(replicas, profile, [fast AWIPS, fast WIRT ms, classic AWIPS,
/// classic WIRT ms])`.
pub fn render_fast_vs_classic(rows: &[(usize, Profile, [f64; 4])]) -> String {
    let title = "== Ablation 1: Fast Paxos vs classic Paxos ==";
    let cols =
        "R profile:<11 | fast AWIPS:11.1 | fast WIRT:10 | classic AWIPS:13.1 | classic WIRT:11";
    table(title, cols, |row| {
        for (replicas, profile, [fast, fast_ms, classic, classic_ms]) in rows {
            let label = format!("{replicas} {}", profile.name());
            let (fast_ms, classic_ms) = (format!("{fast_ms:.1}ms"), format!("{classic_ms:.1}ms"));
            row(&[&label, fast, &fast_ms, classic, &classic_ms]);
        }
    })
}

/// Renders `exp_ablation`'s checkpoint-interval sweep, one row per
/// `(interval, awips, recovery_s, disk_writes)`: what a shorter interval
/// saves on recovery beside what it costs in disk writes.
pub fn render_checkpoint_sweep(rows: &[(u64, f64, f64, u64)]) -> String {
    let cols = "interval:8 | AWIPS:5.1 | recovery(s):11.1 | disk writes (all servers):25";
    table("", cols, |row| {
        for (interval, awips, recovery_s, disk_writes) in rows {
            row(&[interval, awips, recovery_s, disk_writes]);
        }
    })
}

/// Renders availability/autonomy summary for a grid.
pub fn render_autonomy(title: &str, runs: &[FaultRun]) -> String {
    let cols = "R/P:<3 | availability:12.5 | autonomy:8.2 | recoveries(s):<0";
    table(title, cols, |row| {
        for run in runs {
            let d = &run.report.dependability;
            let recs: Vec<String> = (run.report.spans.iter())
                .map(|s| {
                    s.recovery_secs()
                        .map_or("incomplete".into(), |v| format!("{v:.1}"))
                })
                .collect();
            row(&[&rp(run), &d.availability, &d.autonomy, &recs.join(", ")]);
        }
    })
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
            out.push_str(&format!("  {} | {}\n", rp(run), availability_row(&r)));
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
    for run in runs.iter().filter(|r| !r.report.trace.is_empty()) {
        let store = obs::TraceStore::build(&run.report.trace);
        let fd = store.fd_quality();
        if store.incidents.is_empty() && fd.false_suspicions == 0 {
            continue;
        }
        any = true;
        let fd = fd_row(&fd, store.incidents.len());
        out.push_str(&format!("  {} | {fd}\n", rp(run)));
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
    // `run` fits `exp_monitor`'s longest label,
    // `fault-free scrape=0.5s sens=default` (35).
    let cols = "run:<35 | inc:3 | det:3 | miss:4 | FP:3 | fired:5 | detect mean:11 | max:5 | resolve mean:12";
    table(title, cols, |row| {
        for (label, report) in runs {
            let score = crate::report::alert_score_from_run(report);
            let latency = &score.detection_latency;
            let detected = latency.count() > 0;
            let resolved: Vec<u64> = (score.incidents.iter())
                .filter_map(|i| i.resolve_latency_us)
                .collect();
            let resolve_mean = (!resolved.is_empty())
                .then(|| resolved.iter().sum::<u64>() / resolved.len() as u64);
            let (inc, det, miss) = (score.incidents.len(), latency.count(), score.missed());
            let (fp, fired) = (score.false_positives, score.firings);
            let mean = dur(detected.then(|| latency.mean() as u64), "s");
            let max = dur(detected.then(|| latency.max()), "s");
            let res = dur(resolve_mean, "s");
            row(&[label, &inc, &det, &miss, &fp, &fired, &mean, &max, &res]);
        }
    })
}

/// Renders `exp_trace`'s commit-pipeline phase table: each of
/// [`obs::PHASES`] that has a distribution, with its sample count and
/// its p50, p99 and mean in ms.
pub fn render_phases<'a>(phase: impl Fn(&str) -> Option<&'a Hist>) -> String {
    let cols = "phase:<14 | n:6 | p50(ms):8.3 | p99(ms):8.3 | mean(ms):8.3";
    table("", cols, |row| {
        for name in obs::PHASES {
            let Some(h) = phase(name) else { continue };
            let q = |q: f64| h.quantile(q) as f64 / 1e3;
            row(&[&name, &h.count(), &q(0.5), &q(0.99), &(h.mean() / 1e3)]);
        }
    })
}

/// Renders `exp_trace`'s blame by category: the mean quorum decide,
/// then each category's total µs (`by_category`, in
/// [`BlameCategory::ALL`] order) in ms and as a share of them all.
pub fn render_blame_categories(quorum_decide_mean_us: f64, by_category: [u64; 5]) -> String {
    let title = format!("  quorum decide mean {:.3} ms", quorum_decide_mean_us / 1e3);
    let total = by_category.iter().sum::<u64>() as f64;
    let cols = "category:<16 | total(ms):9.1 | share(%):7.1";
    table(&title, cols, |row| {
        for cat in BlameCategory::ALL {
            let us = by_category[cat.index()] as f64;
            let share = if total > 0.0 { us * 100.0 / total } else { 0.0 };
            row(&[&cat.name(), &(us / 1e3), &share]);
        }
    })
}

/// Renders `exp_trace`'s blame per `window_us` window: each window's
/// start, paths and per-category totals in ms.
pub fn render_blame_windows(window_us: u64, windows: &[WindowBlame]) -> String {
    let cols = format!(
        "window({}s):11 | paths:5 | queueing:8.1 | cpu:3.0 | net:3.0 | retransmit:10.1 | fsync (ms):5.1",
        window_us as f64 / 1e6
    );
    table("", &cols, |row| {
        for w in windows {
            let [queueing, cpu, net, retransmit, fsync] = w.totals.map(|us| us as f64 / 1e3);
            let start = format!("{:.0}s", w.start_us as f64 / 1e6);
            row(&[&start, &w.paths, &queueing, &cpu, &net, &retransmit, &fsync]);
        }
    })
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
