//! Beyond the paper — the online SLO monitor's detection frontier.
//!
//! Sweeps the in-sim telemetry pipeline's two operator knobs — scrape
//! interval and rule sensitivity — across the three incident families
//! (crash, flapping partition, planned replacement) plus a fault-free
//! baseline, and scores every fired alert against the faultload's
//! ground-truth injection log. The output is the frontier an operator
//! actually tunes on: detection latency vs. false positives, with the
//! passive failure-detector quality (PR 8's `fd_quality`) printed
//! side-by-side when tracing is on so the alerting pipeline's debounce
//! cost over the raw detector is visible.
//!
//! Flags: `--json <path>` emits the machine-readable report; `--trace
//! <path>` records structured traces (and enables the fd-quality
//! comparison); `--csv <path>` exports the windowed availability
//! timelines, alert markers included.

use bench::render::{dur, fd_row, render_alert_quality, MONITOR_LABEL};
use bench::{incident_config, monitor_fields, Cli, Console, Mode, INCIDENT_REPLICAS};
use cluster::{run_experiment, RunReport};
use obs::MonitorConfig;

/// The sensitivity settings of the standard rule set: each one's name,
/// pending ticks and threshold scale (%). Quick mode sweeps the first
/// two.
const SENSITIVITIES: [(&str, u32, u64); 3] =
    [("eager", 1, 50), ("default", 2, 100), ("patient", 3, 200)];

/// The incident families: each one's label and the
/// [`bench::incident_faultload`] it runs.
const FAMILIES: [(&str, &str); 4] = [
    ("crash", "crash"),
    ("partition", "partition"),
    ("reconfig", "replace"),
    ("fault-free", "fault-free"),
];

fn say_fd_side_by_side(con: &Console, report: &RunReport) {
    if report.trace.is_empty() {
        return;
    }
    let store = obs::TraceStore::build(&report.trace);
    let alerts = bench::alert_score_from_run(report);
    let det = &alerts.detection_latency;
    con.say(format_args!(
        "    detector vs. alert: {} | alert mean {} ({}/{} incidents) \
         — gap is the monitor's scrape + debounce cost",
        fd_row(&store.fd_quality(), store.incidents.len()),
        dur((det.count() > 0).then(|| det.mean() as u64), "s"),
        det.count(),
        alerts.incidents.len(),
    ));
}

fn main() {
    let cli = Cli::parse("exp_monitor", "--full --quiet --json --trace --csv");
    let (con, mode) = (cli.con, cli.mode);
    let intervals_us: Vec<u64> = match mode {
        Mode::Quick => vec![1_000_000, 5_000_000],
        Mode::Full => vec![500_000, 1_000_000, 5_000_000],
    };
    let sensitivities = match mode {
        Mode::Quick => &SENSITIVITIES[..2],
        Mode::Full => &SENSITIVITIES[..],
    };
    let mut rec = cli.recorder();
    con.say(format_args!(
        "Online SLO monitor frontier, {INCIDENT_REPLICAS} replicas ({mode:?} schedule):"
    ));

    let mut scored: Vec<(String, RunReport)> = Vec::new();
    for (family, incident) in FAMILIES {
        for &interval_us in &intervals_us {
            for &(sens, pending_ticks, scale_pct) in sensitivities {
                let scrape_s = interval_us as f64 / 1e6;
                let label = format!("{family} scrape={scrape_s}s sens={sens}");
                let mut config = incident_config(&cli, incident);
                let mut mon = MonitorConfig::default().with_sensitivity(pending_ticks, scale_pct);
                mon.scrape_interval_us = interval_us;
                config.monitor = Some(mon);
                let report = run_experiment(&config);
                con.say(format_args!(
                    "{label:<MONITOR_LABEL$} AWIPS {:7.1}  availability {:.5}  alerts fired {}",
                    report.awips,
                    report.dependability.availability,
                    report.alerts.firings(),
                ));
                say_fd_side_by_side(&con, &report);

                let mut extra = monitor_fields(&report);
                extra.push(("scrape_interval_us", interval_us as f64));
                rec.record(&label, &report, &extra);
                scored.push((label, report));
            }
        }
    }

    let rows: Vec<(String, &RunReport)> = scored
        .iter()
        .map(|(label, report)| (label.clone(), report))
        .collect();
    con.say(render_alert_quality(
        "Detection-latency / false-positive frontier",
        &rows,
    ));

    rec.finish();
}
