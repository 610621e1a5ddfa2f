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

use bench::render::{availability_row, dur, fd_row};
use bench::{availability, incident_config, Cli, Console, INCIDENT_REPLICAS};
use cluster::{run_experiment, RunReport};

/// The scenarios `--scenarios` picks from, each one of
/// [`bench::incident_faultload`]'s.
const SCENARIOS: &[&str] = &[
    "crash",
    "add",
    "remove",
    "replace",
    "rolling-restart",
    "permanent-loss",
];

fn say_incidents(con: &Console, report: &RunReport) {
    for incident in &report.reconfigs {
        let accept = incident
            .accepted_at_us
            .map(|t| t.saturating_sub(incident.submitted_at_us));
        let complete = incident
            .completed_at_us
            .map(|t| t.saturating_sub(incident.submitted_at_us));
        con.say(format_args!(
            "    epoch {} (+{:?} -{:?})        accept {:>6}  complete {:>6}",
            incident.target_epoch,
            incident.add,
            incident.remove,
            dur(accept, "s"),
            dur(complete, "s"),
        ));
    }
}

fn main() {
    let cli = Cli::parse(
        "exp_reconfig",
        "--full --quiet --json --trace --csv --scenarios",
    );
    let scenarios: Vec<&str> = match cli.value("--scenarios") {
        Some(list) => list.split(',').map(str::trim).collect(),
        None => SCENARIOS.to_vec(),
    };
    if let Some(s) = scenarios.iter().find(|s| !SCENARIOS.contains(s)) {
        eprintln!("unknown scenario {s:?}; known: {SCENARIOS:?}");
        std::process::exit(2);
    }
    let con = cli.con;
    let mut rec = cli.recorder();
    con.say(format_args!(
        "Membership changes vs. crash recovery, {INCIDENT_REPLICAS} replicas ({:?} schedule):",
        cli.mode
    ));
    for name in scenarios {
        let report = &run_experiment(&incident_config(&cli, name));
        con.say(format_args!(
            "{name:<16} AWIPS {:7.1}  availability {:.5}  audit: {} checks, {} violations",
            report.awips,
            report.dependability.availability,
            report.audit.checks,
            report.audit.total_violations,
        ));
        say_incidents(&con, report);
        for r in availability(report, "crash") {
            let what = format!("crash of node {}", r.node);
            con.say(format_args!("    {what:<24} {}", availability_row(&r)));
        }
        // One report per submission: every incident in these faultloads
        // occupies its own window.
        let reconfig_reports = availability(report, "reconfig_proposed");
        for r in &reconfig_reports {
            let what = "reconfig (from submit)";
            con.say(format_args!("    {what:<24} {}", availability_row(r)));
        }
        if !report.trace.is_empty() {
            let store = obs::TraceStore::build(&report.trace);
            let fd = fd_row(&store.fd_quality(), store.incidents.len());
            con.say(format_args!("    {fd}"));
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
        rec.record(name, report, &extra);
    }
    rec.finish();
}
