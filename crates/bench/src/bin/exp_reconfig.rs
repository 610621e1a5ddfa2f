//! Beyond the paper — planned membership changes vs. crash recovery.
//!
//! The paper's testbed holds N fixed and studies crashes; this
//! experiment makes N dynamic. Each scenario drives one operator
//! action through the Treplica configuration-epoch machinery —
//! scale-up (`add`), scale-down (`remove`), node replacement
//! (`replace`), a rolling restart (the software-upgrade drill, no
//! membership change), and permanent hardware loss followed by
//! reprovisioning — and reports the availability timeline next to the
//! plain-crash baseline: time to detect, time to failover, WIPS dip
//! depth, and the ramp back to 95 % of the pre-incident baseline.
//!
//! Flags: `--scenarios a,b,…` filters the scenario list; `--json
//! <path>` emits the machine-readable report; `--csv <path>` exports
//! the windowed availability timelines as one CSV artifact.

use bench::{
    base_config, reconfig_availability, timeline_from_run, Console, JsonReport, Mode, TraceSink,
};
use cluster::{run_experiment, RunReport};
use faultload::Faultload;

const SCENARIOS: &[&str] = &[
    "crash",
    "add",
    "remove",
    "replace",
    "rolling-restart",
    "permanent-loss",
];

/// The faultload for one scenario, with times placed relative to the
/// measurement interval so the 12-window availability baseline sits
/// entirely in post-ramp-up steady state.
fn scenario_faultload(name: &str, schedule: &tpcw::Schedule) -> Faultload {
    let measure = schedule.measure_start_us();
    let quarter = schedule.interval_us / 4;
    let mid = measure + 2 * quarter;
    match name {
        "crash" => Faultload::single_crash_at(mid),
        "add" => Faultload::reconfig_add(mid, 1),
        "remove" => Faultload::reconfig_remove(mid, vec![1]),
        "replace" => Faultload::reconfig_replace(mid, 0),
        // Three staggered restarts, one replica at a time.
        "rolling-restart" => Faultload::rolling_restart(measure + quarter, quarter / 2, 3),
        "permanent-loss" => Faultload::permanent_loss(measure + quarter, mid),
        other => panic!("unknown scenario {other:?}"),
    }
}

fn scenarios_from_args() -> Vec<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--scenarios" {
            let Some(list) = args.next() else {
                eprintln!("--scenarios requires a comma-separated list");
                std::process::exit(2);
            };
            let picked: Vec<String> = list.split(',').map(|s| s.trim().to_string()).collect();
            for s in &picked {
                if !SCENARIOS.contains(&s.as_str()) {
                    eprintln!("unknown scenario {s:?}; known: {SCENARIOS:?}");
                    std::process::exit(2);
                }
            }
            return picked;
        }
    }
    SCENARIOS.iter().map(|s| s.to_string()).collect()
}

fn opt_secs(v: Option<u64>) -> String {
    v.map(|us| format!("{:6.1}s", us as f64 / 1e6))
        .unwrap_or_else(|| "     -".to_string())
}

/// Prints one incident's availability decomposition.
fn say_breakdown(con: &Console, what: &str, r: &obs::AvailabilityReport) {
    con.say(format_args!(
        "    {what:<24} detect {}  failover {}  dip {:5.1}%  ramp95 {}",
        opt_secs(r.time_to_detect_us),
        opt_secs(r.time_to_failover_us),
        r.wips_dip_pct,
        opt_secs(r.ramp_to_95pct_us),
    ));
}

fn say_incidents(con: &Console, report: &RunReport) {
    for incident in &report.reconfigs {
        let accept = incident
            .accepted_at_us
            .map(|t| t.saturating_sub(incident.submitted_at_us));
        let complete = incident
            .completed_at_us
            .map(|t| t.saturating_sub(incident.submitted_at_us));
        con.say(format_args!(
            "    epoch {} (+{:?} -{:?})        accept {}  complete {}",
            incident.target_epoch,
            incident.add,
            incident.remove,
            opt_secs(accept),
            opt_secs(complete),
        ));
    }
}

fn main() {
    let con = Console::from_args();
    let mode = Mode::from_args();
    let scenarios = scenarios_from_args();
    let csv_path = bench::report::csv_path_from_args();
    let replicas = 8;

    let mut json = JsonReport::new("exp_reconfig", mode);
    let mut trace = TraceSink::from_args();
    let mut csv = String::from(obs::Timeline::csv_header());
    csv.push('\n');
    con.say(format_args!(
        "Membership changes vs. crash recovery, {replicas} replicas ({mode:?} schedule):"
    ));
    for name in &scenarios {
        let mut config = base_config(mode, replicas, tpcw::Profile::Ordering);
        config.ebs = 30;
        config.rbes = 1_000;
        config.batch_max_updates = 8;
        config.batch_window_us = 80_000;
        if matches!(mode, Mode::Quick) {
            // Long enough for a 60 s pre-incident baseline plus the
            // full ramp back; short enough for the CI smoke job.
            config.schedule = tpcw::Schedule::quick(120);
        }
        config.faultload = scenario_faultload(name, &config.schedule);
        let report = &run_experiment(&config);
        con.say(format_args!(
            "{name:<16} AWIPS {:7.1}  availability {:.5}  audit: {} checks, {} violations",
            report.awips,
            report.dependability.availability,
            report.audit.checks,
            report.audit.total_violations,
        ));
        say_incidents(&con, report);
        for r in bench::availability_from_run(report) {
            say_breakdown(&con, &format!("crash of node {}", r.node), &r);
        }
        // One report per submission: every incident in these faultloads
        // occupies its own window.
        let reconfig_reports = reconfig_availability(report);
        for r in &reconfig_reports {
            say_breakdown(&con, "reconfig (from submit)", r);
        }
        if !report.trace.is_empty() {
            let fd = obs::fd_quality(&report.trace);
            con.say(format_args!(
                "    fd quality: {}/{} crash(es) detected (p50 {:.1}s), \
                 {} false suspicion(s), mistake p50 {:.1}s",
                fd.detected(),
                fd.incidents.len(),
                fd.detection_latency.quantile(0.5) as f64 / 1e6,
                fd.false_suspicions,
                fd.mistake_duration.quantile(0.5) as f64 / 1e6,
            ));
        }

        let mut extra: Vec<(&str, f64)> = Vec::new();
        if let Some(incident) = report.reconfigs.first() {
            let complete = incident
                .completed_at_us
                .map(|t| t.saturating_sub(incident.submitted_at_us));
            extra.push(("reconfig_completed", complete.is_some() as u8 as f64));
            if let Some(us) = complete {
                extra.push(("reconfig_complete_us", us as f64));
            }
            // 0 = the change never degraded the service below the 95 %
            // threshold.
            let ramp = reconfig_reports
                .first()
                .and_then(|r| r.ramp_to_95pct_us)
                .unwrap_or(0);
            extra.push(("reconfig_ramp_to_95pct_us", ramp as f64));
        }
        json.push_with(name, report, &extra);
        trace.record_run(name, report);
        let cfg = obs::TimelineConfig::default();
        csv.push_str(&timeline_from_run(report, &cfg).csv_rows(name));
    }
    json.write_if_requested();
    trace.write_if_requested();
    if let Some(path) = csv_path {
        bench::report::write_file_or_die(&path, &csv);
        con.note(format_args!("wrote {}", path.display()));
    }
}
