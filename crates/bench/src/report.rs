//! Machine-readable run reports: every `exp_*` binary accepts
//! `--json <path>` and writes its [`RunReport`]s there as a single JSON
//! document (hand-rolled — the repo carries no serialization crates).
//!
//! The document shape is stable so a consumer (CI's artifact upload)
//! can read it without knowing which experiment produced it:
//!
//! ```json
//! {
//!   "experiment": "exp_batching",
//!   "mode": "quick",
//!   "runs": [
//!     {"label": "ordering batch=8", "batch": 8, "awips": 312.4, ...}
//!   ]
//! }
//! ```

use std::io::Write as _;
use std::path::PathBuf;

use cluster::RunReport;
use obs::jsonl::quote;

use crate::render::Console;
use crate::Mode;

/// Parses `--<flag> <path>` from argv. Returns `None` when absent;
/// terminates with an error when the flag is given without a path.
fn path_arg(flag: &str) -> Option<PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            match args.next() {
                Some(p) => return Some(PathBuf::from(p)),
                None => {
                    eprintln!("{flag} requires a path argument");
                    std::process::exit(2);
                }
            }
        }
    }
    None
}

/// Parses `--json <path>` from argv (`-` means stdout).
pub fn json_path_from_args() -> Option<PathBuf> {
    path_arg("--json")
}

/// Parses `--trace <path>` from argv: where the run's structured trace
/// (JSONL) goes. Presence of the flag is also what turns tracing on —
/// see [`crate::trace_config_from_args`].
pub fn trace_path_from_args() -> Option<PathBuf> {
    path_arg("--trace")
}

/// Parses `--csv <path>` from argv: where a binary's windowed-timeline
/// CSV export goes (one of the artifacts CI's `experiments` job uploads).
pub fn csv_path_from_args() -> Option<PathBuf> {
    path_arg("--csv")
}

/// Parses `--out <path>` from argv: where `exp_all` writes its
/// markdown report.
pub fn out_path_from_args() -> Option<PathBuf> {
    path_arg("--out")
}

/// True when `--json -` routes the JSON document to stdout, which
/// reroutes all human output to stderr (see [`Console`]).
pub fn json_to_stdout() -> bool {
    json_path_from_args().is_some_and(|p| p.as_os_str() == "-")
}

/// Accumulates labelled runs and writes them as one JSON document.
pub struct JsonReport {
    experiment: String,
    mode: Mode,
    runs: Vec<String>,
}

impl JsonReport {
    /// Starts an empty report for one experiment binary.
    pub fn new(experiment: &str, mode: Mode) -> Self {
        JsonReport {
            experiment: experiment.to_string(),
            mode,
            runs: Vec::new(),
        }
    }

    /// Adds one run under `label`.
    pub fn push(&mut self, label: &str, report: &RunReport) {
        self.push_with(label, report, &[]);
    }

    /// Adds one run with extra numeric fields (e.g. the swept knob).
    pub fn push_with(&mut self, label: &str, report: &RunReport, extra: &[(&str, f64)]) {
        let committed = committed_updates(report);
        let secs = report.schedule.total_us() as f64 / 1e6;
        let mut fields = vec![
            format!("\"label\": {}", quote(label)),
            format!("\"awips\": {}", json_f64(report.awips)),
            format!("\"mean_wirt_ms\": {}", json_f64(report.mean_wirt_ms)),
            format!("\"committed_updates\": {committed}"),
            format!(
                "\"updates_per_sec\": {}",
                json_f64(committed as f64 / secs.max(1e-9))
            ),
            format!("\"net_messages\": {}", report.net_messages),
            format!("\"net_bytes\": {}", report.net_bytes),
            format!("\"disk_writes\": {}", report.disk_writes),
            format!("\"disk_appends\": {}", report.disk_appends),
            format!(
                "\"availability\": {}",
                json_f64(report.dependability.availability)
            ),
            format!(
                "\"accuracy_percent\": {}",
                json_f64(report.dependability.accuracy_percent)
            ),
            format!("\"audit_checks\": {}", report.audit.checks),
            format!("\"audit_violations\": {}", report.audit.total_violations),
        ];
        fields.extend(availability_fields(report));
        for (k, v) in extra {
            fields.push(format!("{}: {}", quote(k), json_f64(*v)));
        }
        self.runs.push(format!("    {{{}}}", fields.join(", ")));
    }

    /// Adds one row of bare numeric fields (sweep experiments that
    /// aggregate away the underlying [`RunReport`]s).
    pub fn push_raw(&mut self, label: &str, fields: &[(&str, f64)]) {
        let mut parts = vec![format!("\"label\": {}", quote(label))];
        for (k, v) in fields {
            parts.push(format!("{}: {}", quote(k), json_f64(*v)));
        }
        self.runs.push(format!("    {{{}}}", parts.join(", ")));
    }

    /// Renders the JSON document.
    pub fn render(&self) -> String {
        let mode = match self.mode {
            Mode::Quick => "quick",
            Mode::Full => "full",
        };
        format!(
            "{{\n  \"experiment\": {},\n  \"mode\": \"{mode}\",\n  \"runs\": [\n{}\n  ]\n}}\n",
            quote(&self.experiment),
            self.runs.join(",\n"),
        )
    }

    /// Writes the document to the `--json` path, if one was given on the
    /// command line (`-` prints it to stdout). Terminates with an error
    /// if the write fails (a CI job consuming a half-written file would
    /// be worse than a loud failure).
    pub fn write_if_requested(&self) {
        let Some(path) = json_path_from_args() else {
            return;
        };
        let doc = self.render();
        if path.as_os_str() == "-" {
            print!("{doc}");
            return;
        }
        write_file_or_die(&path, &doc);
        Console::from_args().note(format_args!("wrote {}", path.display()));
    }
}

/// Writes `doc` to `path`, terminating with an error on failure (a CI
/// job consuming a half-written artifact would be worse than a loud
/// failure).
pub fn write_file_or_die(path: &PathBuf, doc: &str) {
    let write = std::fs::File::create(path).and_then(|mut f| f.write_all(doc.as_bytes()));
    if let Err(e) = write {
        eprintln!("failed to write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// Accumulates per-run trace records and writes them as one JSONL file
/// when `--trace <path>` was given. Each run's records are preceded by
/// a `{"run":"label"}` header line so `exp_trace` can split a
/// multi-configuration file back into runs. The rendering is the
/// canonical form from [`obs::jsonl`], so two deterministic runs
/// produce byte-identical files.
pub struct TraceSink {
    path: Option<PathBuf>,
    out: String,
}

impl TraceSink {
    /// Builds a sink from argv; inert (all methods no-ops) without
    /// `--trace`.
    pub fn from_args() -> TraceSink {
        TraceSink {
            path: trace_path_from_args(),
            out: String::new(),
        }
    }

    /// Whether `--trace` was given (and so tracing should be on).
    pub fn active(&self) -> bool {
        self.path.is_some()
    }

    /// Appends one run's trace under a header line for `label`.
    pub fn record_run(&mut self, label: &str, report: &RunReport) {
        if !self.active() {
            return;
        }
        self.out.push_str(&obs::jsonl::encode_run_header(label));
        self.out.push('\n');
        self.out.push_str(&obs::jsonl::encode_all(&report.trace));
    }

    /// Writes the accumulated JSONL to the `--trace` path, if any.
    pub fn write_if_requested(&self) {
        let Some(path) = &self.path else {
            return;
        };
        write_file_or_die(path, &self.out);
        Console::from_args().note(format_args!("wrote {}", path.display()));
    }
}

/// The run's committed-update count: the highest `applied` across the
/// surviving replicas (all agree modulo in-flight deliveries).
pub fn committed_updates(report: &RunReport) -> u64 {
    report
        .server_status
        .iter()
        .flatten()
        .map(|s| s.applied)
        .max()
        .unwrap_or(0)
}

/// Fault and reconfiguration markers of a run: one `crash`/`restart`/
/// `recovery_complete` triple per recovery span (a span that never
/// restarted — permanent hardware loss — contributes only its crash),
/// plus a `reconfig_proposed`/`epoch_change` pair per membership
/// change. Marker nodes are the victim, joiner, or removed replica.
pub fn run_markers(report: &RunReport) -> Vec<(u64, u32, &'static str)> {
    let mut markers: Vec<(u64, u32, &'static str)> = Vec::new();
    for span in &report.spans {
        markers.push((span.crash_at, span.server as u32, "crash"));
        if span.restart_at > span.crash_at {
            markers.push((span.restart_at, span.server as u32, "restart"));
        }
        if let Some(t) = span.recovered_at {
            markers.push((t, span.server as u32, "recovery_complete"));
        }
    }
    for incident in &report.reconfigs {
        let node = incident
            .add
            .first()
            .or_else(|| incident.remove.first())
            .copied()
            .unwrap_or(0) as u32;
        markers.push((incident.submitted_at_us, node, "reconfig_proposed"));
        if let Some(t) = incident.completed_at_us {
            markers.push((t, node, "epoch_change"));
        }
    }
    // Operator-visible alert windows from the online monitor (empty
    // unless the run was monitored). Cluster-scoped alerts are pinned
    // to the proxy/admin node so every marker has a plottable lane.
    let admin_node = report.server_status.len() as u32;
    for alert in &report.alerts.entries {
        let node = if alert.subject == obs::SUBJECT_CLUSTER {
            admin_node
        } else {
            alert.subject
        };
        match alert.phase {
            obs::AlertPhase::Firing => markers.push((alert.t_us, node, "alert_firing")),
            obs::AlertPhase::Resolved => markers.push((alert.t_us, node, "alert_resolved")),
            obs::AlertPhase::Pending => {}
        }
    }
    markers.sort_unstable();
    markers
}

/// Scores the run's alert log against its own ground-truth injection
/// log ([`RunReport::ground_truth`]).
pub fn alert_score_from_run(report: &RunReport) -> obs::AlertScore {
    obs::score_alerts(&report.alerts, &report.ground_truth())
}

/// The monitor's JSON fields for a monitored run: alert counts, the
/// scorer's verdicts, and the mean/max detection latency over detected
/// incidents (0 when nothing was injected, as on the fault-free
/// baseline).
pub fn monitor_fields(report: &RunReport) -> Vec<(&'static str, f64)> {
    let score = alert_score_from_run(report);
    let detected: Vec<u64> = score
        .incidents
        .iter()
        .filter_map(|i| i.detection_latency_us)
        .collect();
    let det_mean = if detected.is_empty() {
        0.0
    } else {
        detected.iter().sum::<u64>() as f64 / detected.len() as f64
    };
    let det_max = detected.iter().copied().max().unwrap_or(0) as f64;
    vec![
        ("monitor_incidents", score.incidents.len() as f64),
        ("monitor_missed_incidents", score.missed() as f64),
        ("monitor_false_positives", score.false_positives as f64),
        ("monitor_alerts_fired", score.firings as f64),
        ("alert_detection_latency_us", det_mean),
        ("alert_detection_max_us", det_max),
    ]
}

/// The run's WIPS curve as an [`obs::Timeline`], with the markers from
/// [`run_markers`] attached — the untraced path to the paper's
/// availability decomposition (the traced path goes through
/// `exp_trace timeline` on a full trace).
pub fn timeline_from_run(report: &RunReport, cfg: &obs::TimelineConfig) -> obs::Timeline {
    obs::Timeline::from_series(
        report.recorder.wips_series(),
        report.recorder.error_series(),
        cfg.window_us,
        &run_markers(report),
    )
}

/// Derives per-crash [`obs::AvailabilityReport`]s from a run's
/// recorded per-second WIPS series and recovery spans.
pub fn availability_from_run(report: &RunReport) -> Vec<obs::AvailabilityReport> {
    if report.spans.is_empty() {
        return Vec::new();
    }
    let cfg = obs::TimelineConfig::default();
    let tl = timeline_from_run(report, &cfg);
    obs::availability_reports(&tl, &cfg, &["crash"])
}

/// Derives one [`obs::AvailabilityReport`] per membership change,
/// anchored on the operator's submission (`reconfig_proposed`): the
/// baseline is the pre-submission WIPS, and the dip/ramp measure what
/// the epoch switch cost the service.
pub fn reconfig_availability(report: &RunReport) -> Vec<obs::AvailabilityReport> {
    if report.reconfigs.is_empty() {
        return Vec::new();
    }
    let cfg = obs::TimelineConfig::default();
    let tl = timeline_from_run(report, &cfg);
    obs::availability_reports(&tl, &cfg, &["reconfig_proposed"])
}

/// The availability-report JSON fields of a run's first crash incident
/// (empty when the faultload injected none).
fn availability_fields(report: &RunReport) -> Vec<String> {
    let reports = availability_from_run(report);
    let Some(first) = reports.first() else {
        return Vec::new();
    };
    let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |x| x.to_string());
    vec![
        format!("\"incidents\": {}", reports.len()),
        format!("\"baseline_wips\": {}", json_f64(first.baseline_wips)),
        format!("\"time_to_detect_us\": {}", opt(first.time_to_detect_us)),
        format!(
            "\"time_to_failover_us\": {}",
            opt(first.time_to_failover_us)
        ),
        format!("\"degraded_us\": {}", first.degraded_us),
        format!("\"wips_dip_pct\": {}", json_f64(first.wips_dip_pct)),
        format!("\"ramp_to_95pct_us\": {}", opt(first.ramp_to_95pct_us)),
    ]
}

fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    // Fixed 4-decimal formatting: two reports diff in values, not in
    // 16-digit float noise.
    let s = format!("{v:.4}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() || s == "-" || s == "-0" {
        "0".to_string()
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_f64_rejects_non_finite() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn json_f64_uses_fixed_decimals() {
        assert_eq!(json_f64(485.666_666_666_7), "485.6667");
        assert_eq!(json_f64(0.0), "0");
        assert_eq!(json_f64(-0.000_01), "0", "rounds to signless zero");
        assert_eq!(json_f64(99.999_96), "100");
        assert_eq!(json_f64(1.25), "1.25");
    }
}
