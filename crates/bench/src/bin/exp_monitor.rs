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

use bench::render::render_alert_quality;
use bench::{base_config, monitor_fields, timeline_from_run, Console, JsonReport, Mode, TraceSink};
use cluster::{run_experiment, RunReport};
use faultload::Faultload;
use obs::MonitorConfig;

/// One sensitivity setting of the standard rule set.
struct Sensitivity {
    name: &'static str,
    pending_ticks: u32,
    threshold_scale_pct: u64,
}

const EAGER: Sensitivity = Sensitivity {
    name: "eager",
    pending_ticks: 1,
    threshold_scale_pct: 50,
};
const DEFAULT: Sensitivity = Sensitivity {
    name: "default",
    pending_ticks: 2,
    threshold_scale_pct: 100,
};
const PATIENT: Sensitivity = Sensitivity {
    name: "patient",
    pending_ticks: 3,
    threshold_scale_pct: 200,
};

/// The faultload for one incident family, placed mid-interval so the
/// monitor's windows are warm before anything breaks.
fn family_faultload(name: &str, schedule: &tpcw::Schedule) -> Faultload {
    let measure = schedule.measure_start_us();
    let quarter = schedule.interval_us / 4;
    let mid = measure + 2 * quarter;
    match name {
        "fault-free" => Faultload::none(),
        "crash" => Faultload::single_crash_at(mid),
        // Two rounds of cutting a 3-node minority off for 10 s with
        // 20 s healed between — quorum holds, but enough backends
        // degrade for the SLO rules to see it.
        "partition" => Faultload::partition_flap(mid, 2, 10_000_000, 20_000_000, vec![0, 1, 2]),
        "reconfig" => Faultload::reconfig_replace(mid, 0),
        other => panic!("unknown incident family {other:?}"),
    }
}

fn monitored_config(
    mode: Mode,
    replicas: usize,
    family: &str,
    interval_us: u64,
    sens: &Sensitivity,
) -> cluster::ExperimentConfig {
    let mut config = base_config(mode, replicas, tpcw::Profile::Ordering);
    config.ebs = 30;
    config.rbes = 1_000;
    config.batch_max_updates = 8;
    config.batch_window_us = 80_000;
    if matches!(mode, Mode::Quick) {
        // Same compromise as exp_reconfig: long enough for warm rule
        // windows and a full post-incident ramp, short enough for CI.
        config.schedule = tpcw::Schedule::quick(120);
    }
    config.faultload = family_faultload(family, &config.schedule);
    config.monitor =
        MonitorConfig::on().with_sensitivity(sens.pending_ticks, sens.threshold_scale_pct);
    config.monitor.scrape_interval_us = interval_us;
    config
}

fn say_fd_side_by_side(con: &Console, report: &RunReport) {
    if report.trace.is_empty() {
        return;
    }
    let fd = obs::fd_quality(&report.trace);
    let alerts = bench::alert_score_from_run(report);
    let alert_p50: Vec<u64> = alerts
        .incidents
        .iter()
        .filter_map(|i| i.detection_latency_us)
        .collect();
    let alert_mean = if alert_p50.is_empty() {
        f64::NAN
    } else {
        alert_p50.iter().sum::<u64>() as f64 / alert_p50.len() as f64 / 1e6
    };
    con.say(format_args!(
        "    detector vs. alert: fd p50 {:.1}s ({}/{} crashes) | alert mean {:.1}s \
         ({}/{} incidents) — gap is the monitor's scrape + debounce cost",
        fd.detection_latency.quantile(0.5) as f64 / 1e6,
        fd.detected(),
        fd.incidents.len(),
        alert_mean,
        alerts.detected(),
        alerts.incidents.len(),
    ));
}

fn main() {
    let con = Console::from_args();
    let mode = Mode::from_args();
    let csv_path = bench::report::csv_path_from_args();
    let replicas = 8;

    let intervals_us: Vec<u64> = match mode {
        Mode::Quick => vec![1_000_000, 5_000_000],
        Mode::Full => vec![500_000, 1_000_000, 5_000_000],
    };
    let sensitivities: Vec<&Sensitivity> = match mode {
        Mode::Quick => vec![&EAGER, &DEFAULT],
        Mode::Full => vec![&EAGER, &DEFAULT, &PATIENT],
    };
    let families = ["crash", "partition", "reconfig", "fault-free"];

    let mut json = JsonReport::new("exp_monitor", mode);
    let mut trace = TraceSink::from_args();
    let mut csv = String::from(obs::Timeline::csv_header());
    csv.push('\n');
    con.say(format_args!(
        "Online SLO monitor frontier, {replicas} replicas ({mode:?} schedule):"
    ));

    let mut scored: Vec<(String, RunReport)> = Vec::new();
    for family in &families {
        for &interval_us in &intervals_us {
            for sens in &sensitivities {
                let label = format!(
                    "{family} scrape={}s sens={}",
                    interval_us as f64 / 1e6,
                    sens.name
                );
                let config = monitored_config(mode, replicas, family, interval_us, sens);
                let report = run_experiment(&config);
                con.say(format_args!(
                    "{label:<34} AWIPS {:7.1}  availability {:.5}  alerts fired {}",
                    report.awips,
                    report.dependability.availability,
                    report.alerts.firings(),
                ));
                say_fd_side_by_side(&con, &report);

                let mut extra = monitor_fields(&report);
                extra.push(("scrape_interval_us", interval_us as f64));
                json.push_with(&label, &report, &extra);
                trace.record_run(&label, &report);
                let cfg = obs::TimelineConfig::default();
                csv.push_str(&timeline_from_run(&report, &cfg).csv_rows(&label));
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

    json.write_if_requested();
    trace.write_if_requested();
    if let Some(path) = csv_path {
        bench::report::write_file_or_die(&path, &csv);
        con.note(format_args!("wrote {}", path.display()));
    }
}
