//! Trace reader: `exp_trace <trace.jsonl> [--check] [--csv <path>]
//! [--quiet]`.
//!
//! Input is the JSONL a traced experiment writes via `--trace <path>`:
//! runs separated by `{"run":"label"}` headers. The file is decoded
//! once, and each run is indexed once into an [`obs::TraceStore`] and
//! printed as one page: one block per crash joining its
//! [`obs::Incident`] row and its [`obs::AvailabilityReport`], the
//! consensus and commit-latency lines, the phase table
//! ([`obs::SpanProfile`]) and the blame tables by category, node, link
//! and window ([`obs::CausalProfile`]).
//!
//! `--csv <path>` writes the windowed timeline rows under
//! [`obs::Timeline::csv_header`]. `--check` exits 1 unless some crash
//! breakdown is complete, every run has exactly one crash incident and
//! some incident degraded and ramped back to 95 % of baseline, and
//! every run has causal paths, all telescoping, with nonzero disk-fsync
//! blame.

use bench::render::{self, availability_row, dur};
use bench::report::write_or_die;
use bench::Cli;
use obs::{
    availability_reports, AvailabilityReport, BlameCategory, CausalProfile, Incident, SpanProfile,
    Timeline, TimelineConfig, TraceStore,
};

const USAGE: &str = "usage: exp_trace <trace.jsonl> [--check] [--csv <path>] [--quiet]";

fn usage(why: &str) -> ! {
    eprintln!("exp_trace: {why}\n{USAGE}");
    std::process::exit(2);
}

/// What `--check` counts over the runs of a trace.
#[derive(Default)]
struct Tally {
    incidents: usize,
    complete: usize,
    runs_with_one_incident: usize,
    ramped: usize,
    /// Per-run failures of the causal-path check.
    blame: Vec<String>,
}

fn main() {
    let cli = Cli::parse_args("exp_trace", "--check --csv --quiet", bench::cli::args())
        .unwrap_or_else(|why| usage(&why));
    let [path] = cli.words.as_slice() else {
        usage(&format!("expected one trace path, got {:?}", cli.words))
    };
    let con = cli.con;
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("exp_trace: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let (runs, skipped) = obs::jsonl::decode_runs_counting(&text).unwrap_or_else(|e| {
        eprintln!("exp_trace: {path}: {e}");
        std::process::exit(1);
    });
    drop(text);
    if skipped > 0 {
        con.note(format_args!(
            "skipped {skipped} record(s) with unknown event kinds (newer trace schema?)"
        ));
    }

    let cfg = TimelineConfig::default();
    let mut csv = format!("{}\n", Timeline::csv_header());
    let mut tally = Tally::default();
    for (label, records) in &runs {
        let label = if label.is_empty() {
            "(unlabelled)"
        } else {
            label
        };
        let store = TraceStore::build(records);
        let mut tl = Timeline::from_store(&store, cfg.window_us);
        let spans = SpanProfile::from_store(&store);
        tl.dominant_phase = spans.dominant_phases(tl.window_us, tl.windows.len());
        let reports = availability_reports(&tl, &cfg, &["crash"]);
        let causal = CausalProfile::from_store(&store);
        con.say(page(label, &store, &tl, &reports, &spans, &causal));
        csv.push_str(&tl.csv_rows(label));
        tally.add(label, &store.incidents, &reports, &causal);
    }
    if let Some(csv_path) = cli.value("--csv") {
        write_or_die(&con, csv_path, &csv);
    }
    con.say(format_args!(
        "{} run(s), {} crash incident(s), {} complete breakdown(s), \
         {} degraded-and-ramped-back incident(s)",
        runs.len(),
        tally.incidents,
        tally.complete,
        tally.ramped,
    ));
    if cli.has("--check") {
        let failures = tally.failures(path, runs.len());
        for f in &failures {
            eprintln!("exp_trace: {f}");
        }
        if !failures.is_empty() {
            std::process::exit(1);
        }
        con.say("check: passed");
    }
}

impl Tally {
    /// Counts one run's crash incidents and reports, and checks its
    /// causal paths.
    fn add(
        &mut self,
        label: &str,
        incidents: &[Incident],
        reports: &[AvailabilityReport],
        causal: &CausalProfile,
    ) {
        self.incidents += incidents.len();
        self.complete += incidents.iter().filter(|b| b.complete).count();
        self.runs_with_one_incident += (reports.len() == 1) as usize;
        self.ramped += reports
            .iter()
            .filter(|r| {
                r.degraded_us > 0
                    && r.brackets_crash()
                    && r.ramp_to_95pct_us.is_some_and(|us| us > 0)
            })
            .count();
        let paths = &causal.paths;
        if paths.is_empty() {
            self.blame
                .push(format!("{label}: no causal paths reconstructed"));
        }
        let broken = paths.iter().filter(|p| !p.telescopes()).count();
        if broken > 0 {
            self.blame.push(format!(
                "{label}: {broken}/{} paths violate the telescoping invariant",
                paths.len()
            ));
        }
        if causal.blame_by_category()[BlameCategory::DiskFsync.index()] == 0 && !paths.is_empty() {
            self.blame.push(format!(
                "{label}: zero disk-fsync blame — synchronous log \
                 appends missing from the critical path"
            ));
        }
    }

    /// The failed assertions of `--check` over the `runs` of `path`.
    fn failures(self, path: &str, runs: usize) -> Vec<String> {
        let mut failures = Vec::new();
        if self.complete == 0 {
            failures.push(format!("no complete recovery breakdown in {path}"));
        }
        if runs == 0 || self.runs_with_one_incident != runs {
            failures.push(format!(
                "expected exactly one crash incident per run in {path} \
                 ({}/{runs} runs qualify)",
                self.runs_with_one_incident
            ));
        } else if self.ramped == 0 {
            failures.push(format!(
                "no incident in {path} shows a degraded stretch bracketing its crash \
                 with a ramp back to 95% of baseline"
            ));
        }
        failures.extend(self.blame);
        if runs == 0 {
            failures.push(format!("{path}: no runs in trace"));
        }
        failures
    }
}

/// One run's page.
fn page(
    label: &str,
    store: &TraceStore,
    tl: &Timeline,
    reports: &[AvailabilityReport],
    spans: &SpanProfile,
    causal: &CausalProfile,
) -> String {
    let mut out = format!(
        "== {label} ({} records, {} windows of {}s, {} markers, {} spans, {} causal paths) ==\n",
        store.records.len(),
        tl.windows.len(),
        tl.window_us as f64 / 1e6,
        tl.markers.len(),
        spans.spans.len(),
        causal.paths.len(),
    );
    if store.incidents.is_empty() {
        out.push_str("  no crash incidents\n");
    }
    for b in &store.incidents {
        let report = reports
            .iter()
            .find(|r| r.node == b.node && r.crash_at_us == b.crash_at_us);
        out.push_str(&crash_block(b, report));
    }
    let s = store.latency_summary();
    out.push_str(&format!(
        "  consensus: {} updates delivered, {} batches carrying {} updates, \
         {} log appends ({:.2} upd/append)\n",
        s.updates_delivered,
        s.batches,
        s.batched_updates,
        s.log_appends,
        s.coalescing_ratio(),
    ));
    let h = &s.commit_latency;
    if h.count() > 0 {
        out.push_str(&format!(
            "  commit latency (ms): n={} mean {:.2} p50≤{:.2} p90≤{:.2} p99≤{:.2} max {:.2}\n",
            h.count(),
            h.mean() / 1e3,
            h.quantile(0.5) as f64 / 1e3,
            h.quantile(0.9) as f64 / 1e3,
            h.quantile(0.99) as f64 / 1e3,
            h.max() as f64 / 1e3,
        ));
    }
    out.push_str(&phase_table(spans));
    out.push_str(&blame_tables(causal, tl.window_us));
    out
}

/// One crash: its [`Incident`] row, then its availability report when
/// the timeline has one.
fn crash_block(b: &Incident, report: Option<&AvailabilityReport>) -> String {
    let status = if b.complete { "complete" } else { "INCOMPLETE" };
    let ms = |us: Option<u64>| format!("{:>11}", dur(us, "ms"));
    let by = b
        .suspected_by
        .map_or(String::new(), |n| format!(" by n{n}"));
    let reelection = match b.reelection_us {
        None => "none needed".to_string(),
        us => ms(us),
    };
    let mut out = format!(
        "  node {} crashed at {:.1}s [{status}]\n    fd suspicion     {}{by}\n    \
         watchdog restart {}\n    re-election      {reelection}\n    checkpoint load  {}  ∥  \
         log replay {}\n    backlog replay   {}\n    total            {}\n",
        b.node,
        b.crash_at_us as f64 / 1e6,
        ms(b.suspected_after_us),
        ms(b.detection_us),
        ms(b.checkpoint_load_us),
        dur(b.log_replay_us, "ms"),
        ms(b.backlog_replay_us),
        ms(b.total_us),
    );
    if let Some(r) = report {
        out.push_str(&format!(
            "    availability     {}  (crash window {})\n",
            availability_row(r),
            r.crash_window
        ));
    }
    out
}

fn phase_table(spans: &SpanProfile) -> String {
    let mut out = render::render_phases(|name| spans.phase(name));
    let all = &spans.spans;
    let exact = all.iter().filter(|s| s.phase_sum_us() == s.total_us);
    out.push_str(&format!(
        "  pipeline phases sum exactly to commit latency for {}/{} spans\n",
        exact.count(),
        all.len()
    ));
    out
}

/// The blame tables: by category, node, link and `window_us` window.
fn blame_tables(causal: &CausalProfile, window_us: u64) -> String {
    let mut out =
        render::render_blame_categories(causal.quorum_decide_mean_us(), causal.blame_by_category());
    out.push_str("  blame by node:");
    for (node, us) in causal.blame_by_node() {
        out.push_str(&format!(" n{node}={:.1}ms", us as f64 / 1e3));
    }
    out.push_str("\n  net transit by link:");
    let links = causal.blame_by_link();
    if links.is_empty() {
        out.push_str(" (none)");
    }
    for ((from, to), us) in links {
        out.push_str(&format!(" {from}->{to}={:.1}ms", us as f64 / 1e3));
    }
    out.push('\n');
    out.push_str(&render::render_blame_windows(
        window_us,
        &causal.windows(window_us),
    ));
    out
}
