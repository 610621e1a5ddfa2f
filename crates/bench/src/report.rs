//! What the `exp_*` binaries leave behind besides their console
//! output: the [`Recorder`], and the per-run derivations it and the
//! renderers share.
//!
//! The `--json` document is hand-rolled (the repo carries no
//! serialization crates) and its shape is stable, so a consumer (CI's
//! artifact upload) can read it without knowing which experiment
//! produced it:
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

use cluster::RunReport;
use obs::jsonl::quote;

use crate::cli::Cli;
use crate::render::Console;
use crate::Mode;

/// What a binary's finished runs leave behind, kept only for the flags
/// given: a JSON row per run for `--json`, the run's trace under a
/// `{"run":"label"}` header for `--trace` (so `exp_trace` can split a
/// multi-run file back into runs), its windowed timeline rows for
/// `--csv`, and every block [`Recorder::say`] prints for `--out`.
/// Traces and timelines use the canonical renderings of [`obs::jsonl`]
/// and [`obs::Timeline`], so two same-seed runs write byte-identical
/// files. [`Recorder::finish`] writes them.
pub struct Recorder<'a> {
    cli: &'a Cli,
    rows: Vec<String>,
    trace: String,
    csv: String,
    out: String,
}

impl<'a> Recorder<'a> {
    pub(crate) fn new(cli: &'a Cli) -> Self {
        Recorder {
            cli,
            rows: Vec::new(),
            trace: String::new(),
            csv: String::new(),
            out: String::new(),
        }
    }

    /// Records one finished run under `label`; its JSON row also
    /// carries the numeric fields of `extra` (the swept knob, say).
    pub fn record(&mut self, label: &str, report: &RunReport, extra: &[(&str, f64)]) {
        if self.cli.value("--json").is_some() {
            let committed = committed_updates(report);
            let secs = report.schedule.total_us() as f64 / 1e6;
            let d = &report.dependability;
            let mut fields = vec![
                ("awips", json_f64(report.awips)),
                ("mean_wirt_ms", json_f64(report.mean_wirt_ms)),
                ("committed_updates", committed.to_string()),
                (
                    "updates_per_sec",
                    json_f64(committed as f64 / secs.max(1e-9)),
                ),
                ("net_messages", report.net_messages.to_string()),
                ("net_bytes", report.net_bytes.to_string()),
                ("disk_writes", report.disk_writes.to_string()),
                ("disk_appends", report.disk_appends.to_string()),
                ("availability", json_f64(d.availability)),
                ("accuracy_percent", json_f64(d.accuracy_percent)),
                ("audit_checks", report.audit.checks.to_string()),
                (
                    "audit_violations",
                    report.audit.total_violations.to_string(),
                ),
            ];
            fields.extend(availability_fields(report));
            fields.extend(extra.iter().map(|(k, v)| (*k, json_f64(*v))));
            self.push_row(label, fields);
        }
        if self.cli.has("--trace") {
            self.trace.push_str(&obs::jsonl::encode_run_header(label));
            self.trace.push('\n');
            self.trace.push_str(&obs::jsonl::encode_all(&report.trace));
        }
        if self.cli.value("--csv").is_some() {
            let timeline = timeline_from_run(report, &obs::TimelineConfig::default());
            self.csv.push_str(&timeline.csv_rows(label));
        }
    }

    /// Records one JSON row of bare numeric fields: a sweep point whose
    /// runs were aggregated away.
    pub fn row(&mut self, label: &str, fields: &[(&str, f64)]) {
        if self.cli.value("--json").is_some() {
            self.push_row(
                label,
                fields.iter().map(|(k, v)| (*k, json_f64(*v))).collect(),
            );
        }
    }

    fn push_row(&mut self, label: &str, fields: Vec<(&str, String)>) {
        let mut parts = vec![format!("\"label\": {}", quote(label))];
        parts.extend(fields.iter().map(|(k, v)| format!("{}: {v}", quote(k))));
        self.rows.push(format!("    {{{}}}", parts.join(", ")));
    }

    /// Prints one human-readable block and keeps it for `--out`.
    pub fn say(&mut self, text: String) {
        self.cli.con.say(&text);
        if self.cli.value("--out").is_some() {
            self.out.push_str(&text);
            self.out.push('\n');
        }
    }

    /// Writes what was asked for: the JSON document (`--json -` prints
    /// it to stdout), the trace, the timeline CSV and the `--out`
    /// report.
    pub fn finish(self) {
        let con = &self.cli.con;
        if let Some(path) = self.cli.value("--json") {
            let mode = match self.cli.mode {
                Mode::Quick => "quick",
                Mode::Full => "full",
            };
            let doc = format!(
                "{{\n  \"experiment\": {},\n  \"mode\": \"{mode}\",\n  \"runs\": [\n{}\n  ]\n}}\n",
                quote(self.cli.name),
                self.rows.join(",\n"),
            );
            if path == "-" {
                print!("{doc}");
            } else {
                write_or_die(con, path, &doc);
            }
        }
        if let Some(path) = self.cli.value("--trace") {
            write_or_die(con, path, &self.trace);
        }
        if let Some(path) = self.cli.value("--csv") {
            let header = obs::Timeline::csv_header();
            write_or_die(con, path, &format!("{header}\n{}", self.csv));
        }
        if let Some(path) = self.cli.value("--out") {
            write_or_die(con, path, &self.out);
        }
    }
}

/// Writes `doc` to `path` and notes it, terminating with an error on
/// failure (a CI job consuming a half-written artifact would be worse
/// than a loud failure).
pub fn write_or_die(con: &Console, path: &str, doc: &str) {
    let write = std::fs::File::create(path).and_then(|mut f| f.write_all(doc.as_bytes()));
    if let Err(e) = write {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
    con.note(format_args!("wrote {path}"));
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
/// log.
pub fn alert_score_from_run(report: &RunReport) -> obs::AlertScore {
    obs::score_alerts(&report.alerts, &report.injections)
}

/// The monitor's JSON fields for a monitored run: alert counts, the
/// scorer's verdicts, and the mean/max detection latency over detected
/// incidents (0 when nothing was injected, as on the fault-free
/// baseline).
pub fn monitor_fields(report: &RunReport) -> Vec<(&'static str, f64)> {
    let score = alert_score_from_run(report);
    let detection = &score.detection_latency;
    vec![
        ("monitor_incidents", score.incidents.len() as f64),
        ("monitor_missed_incidents", score.missed() as f64),
        ("monitor_false_positives", score.false_positives as f64),
        ("monitor_alerts_fired", score.firings as f64),
        ("alert_detection_latency_us", detection.mean()),
        ("alert_detection_max_us", detection.max() as f64),
    ]
}

/// The run's WIPS curve as an [`obs::Timeline`], with the markers from
/// [`run_markers`] attached — the untraced path to the paper's
/// availability decomposition (the traced path is `exp_trace` on a
/// full trace).
pub fn timeline_from_run(report: &RunReport, cfg: &obs::TimelineConfig) -> obs::Timeline {
    obs::Timeline::from_series(
        report.recorder.wips_series(),
        report.recorder.error_series(),
        cfg.window_us,
        &run_markers(report),
    )
}

/// One [`obs::AvailabilityReport`] per `kind` marker of the run's
/// per-second WIPS series: `"crash"` for its recovery spans, or
/// `"reconfig_proposed"` for its membership changes, anchored on the
/// operator's submission so the baseline is the pre-submission WIPS and
/// the dip and ramp measure what the epoch switch cost the service.
pub fn availability(report: &RunReport, kind: &str) -> Vec<obs::AvailabilityReport> {
    let cfg = obs::TimelineConfig::default();
    obs::availability_reports(&timeline_from_run(report, &cfg), &cfg, &[kind])
}

/// The availability-report JSON fields of a run's first crash incident
/// (empty when the faultload injected none).
fn availability_fields(report: &RunReport) -> Vec<(&'static str, String)> {
    let reports = availability(report, "crash");
    let Some(first) = reports.first() else {
        return Vec::new();
    };
    let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |x| x.to_string());
    vec![
        ("incidents", reports.len().to_string()),
        ("baseline_wips", json_f64(first.baseline_wips)),
        ("time_to_detect_us", opt(first.time_to_detect_us)),
        ("time_to_failover_us", opt(first.time_to_failover_us)),
        ("degraded_us", first.degraded_us.to_string()),
        ("wips_dip_pct", json_f64(first.wips_dip_pct)),
        ("ramp_to_95pct_us", opt(first.ramp_to_95pct_us)),
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
