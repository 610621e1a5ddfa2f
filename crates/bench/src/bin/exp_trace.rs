//! Trace reader — every offline question asked of a structured trace,
//! behind one loader: `exp_trace <breakdown|timeline|blame> <trace.jsonl>`.
//!
//! Input is the JSONL a traced experiment writes via `--trace <path>`
//! (e.g. `exp_one_crash --trace one_crash.jsonl`): one record per line,
//! runs separated by `{"run":"label"}` headers. Each run is indexed
//! once into an [`obs::TraceStore`]; the subcommand picks the queries.
//!
//! * `breakdown` — the paper's recovery decomposition per crash
//!   incident (detection, re-election, checkpoint load ∥ log replay,
//!   backlog re-learn) plus commit latency and group-commit coalescing
//!   per run. `--require-breakdown` exits nonzero unless at least one
//!   *complete* breakdown was reconstructed.
//! * `timeline` — the windowed availability curves behind the paper's
//!   figures (per-window WIPS, errors, commits, commit-latency
//!   quantiles, queue depth, disk and network activity, fault markers,
//!   dominant critical-path phase), the per-crash availability reports
//!   and the per-phase latency table. `--csv <path>` writes one row per
//!   (run, window), `--jsonl <path>` the same windows as JSONL;
//!   `--window-us <n>` sets the window (µs; 0 is a usage error, exit 2).
//!   `--require-one-incident` exits nonzero unless every run carries
//!   exactly one crash incident and at least one shows a degraded
//!   stretch bracketing the crash with a measured ramp back to 95 % of
//!   baseline.
//! * `blame` — the cross-node critical path of every locally-submitted
//!   update, each microsecond of commit latency attributed to queueing,
//!   CPU service, net transit, retransmit stalls or disk fsync, per
//!   node and per link. `--csv <path>` writes aggregated blame rows
//!   (`run,category,node,peer,count,total_us`), `--jsonl <path>` one
//!   line per causal path. `--gate` exits nonzero unless every run
//!   yields causal paths, every path's segments telescope exactly to
//!   its commit latency, and log appends show up as nonzero disk-fsync
//!   blame.
//!
//! All exports are byte-identical across same-seed runs.

use bench::report::write_or_die;
use bench::{Cli, Console};
use obs::jsonl::Run;
use obs::{
    availability_reports, AvailabilityReport, BlameCategory, CausalProfile, Incident, SpanProfile,
    Timeline, TimelineConfig, TraceStore,
};

const USAGE: &str = "usage: exp_trace breakdown <trace.jsonl> [--require-breakdown] [--quiet]
       exp_trace timeline  <trace.jsonl> [--csv <path>] [--jsonl <path>] [--window-us <n>] \
[--require-one-incident] [--quiet]
       exp_trace blame     <trace.jsonl> [--csv <path>] [--jsonl <path>] [--window-us <n>] \
[--gate] [--quiet]";

fn usage(why: &str) -> ! {
    eprintln!("exp_trace: {why}\n{USAGE}");
    std::process::exit(2);
}

/// The parsed command line. Every flag belongs to the subcommands that
/// list it in [`USAGE`]; for any other it is a usage error.
struct Args {
    subcommand: Subcommand,
    cli: Cli,
    path: String,
    window_us: u64,
    /// The subcommand's CI assertion (`--require-breakdown`,
    /// `--require-one-incident`, `--gate`).
    assert: bool,
}

impl Args {
    fn parse() -> Args {
        let mut argv = bench::cli::args().into_iter();
        let command = argv.next().unwrap_or_else(|| usage("missing subcommand"));
        // The subcommand and its flags, its CI assertion first.
        let (subcommand, flags): (Subcommand, &str) = match command.as_str() {
            "breakdown" => (breakdown, "--require-breakdown --quiet"),
            "timeline" => (
                timeline,
                "--require-one-incident --quiet --csv --jsonl --window-us",
            ),
            "blame" => (blame, "--gate --quiet --csv --jsonl --window-us"),
            other => usage(&format!("unknown subcommand {other:?}")),
        };
        let cli = Cli::parse_args("exp_trace", flags, argv).unwrap_or_else(|why| usage(&why));
        let window_us =
            match cli.value("--window-us") {
                None => TimelineConfig::default().window_us,
                Some(v) => v.parse().ok().filter(|us| *us > 0).unwrap_or_else(|| {
                    usage(&format!("--window-us must be positive (µs), got {v:?}"))
                }),
            };
        let path = match cli.words.as_slice() {
            [path] => path.clone(),
            [] => usage("missing input path"),
            _ => usage("more than one input path"),
        };
        Args {
            subcommand,
            assert: flags.split(' ').next().is_some_and(|f| cli.has(f)),
            cli,
            path,
            window_us,
        }
    }
}

/// One subcommand: reduces every run, writes its exports, prints its
/// summary, and returns the failures of its CI assertion (empty = pass).
type Subcommand = fn(&Console, &Args, &[Run]) -> Vec<String>;

fn main() {
    let args = Args::parse();
    let con = args.cli.con;
    let path = &args.path;
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
    let failures = (args.subcommand)(&con, &args, &runs);
    if args.assert && !failures.is_empty() {
        for f in &failures {
            eprintln!("exp_trace: {f}");
        }
        std::process::exit(1);
    }
}

/// Each run's display label and its records indexed into a store, one
/// run at a time.
fn stores(runs: &[Run]) -> impl Iterator<Item = (&str, TraceStore<'_>)> {
    runs.iter().map(|(label, records)| {
        let label = if label.is_empty() {
            "(unlabelled)"
        } else {
            label
        };
        (label, TraceStore::build(records))
    })
}

/// Writes `text` to the path given with `flag`, if one was.
fn export(args: &Args, flag: &str, text: &str) {
    if let Some(path) = args.cli.value(flag) {
        write_or_die(&args.cli.con, path, text);
    }
}

fn breakdown(con: &Console, args: &Args, runs: &[Run]) -> Vec<String> {
    let (mut incidents, mut complete) = (0usize, 0usize);
    for (label, store) in stores(runs) {
        con.say(format_args!(
            "== {label} ({} records) ==",
            store.records.len()
        ));
        if store.incidents.is_empty() {
            con.say("  no crash incidents");
        }
        for b in &store.incidents {
            incidents += 1;
            complete += b.complete as usize;
            con.say(render_breakdown(b));
        }
        let s = store.latency_summary();
        con.say(format_args!(
            "  consensus: {} updates delivered, {} batches carrying {} updates, \
             {} log appends ({:.2} upd/append)",
            s.updates_delivered,
            s.batches,
            s.batched_updates,
            s.log_appends,
            s.coalescing_ratio(),
        ));
        let h = &s.commit_latency;
        if h.count() > 0 {
            con.say(format_args!(
                "  commit latency (ms): n={} mean {:.2} p50≤{:.2} p90≤{:.2} p99≤{:.2} max {:.2}",
                h.count(),
                h.mean() / 1e3,
                h.quantile(0.5) as f64 / 1e3,
                h.quantile(0.9) as f64 / 1e3,
                h.quantile(0.99) as f64 / 1e3,
                h.max() as f64 / 1e3,
            ));
        }
        con.say("");
    }
    con.say(format_args!(
        "{} run(s), {incidents} crash incident(s), {complete} complete breakdown(s)",
        runs.len()
    ));
    if complete > 0 {
        return Vec::new();
    }
    vec![format!("no complete recovery breakdown in {}", args.path)]
}

fn render_breakdown(b: &Incident) -> String {
    let phase = |v: Option<u64>, absent: &str| match v {
        Some(us) => format!("{:10.1} ms", us as f64 / 1e3),
        None => format!("{absent:>13}"),
    };
    let status = if b.complete { "complete" } else { "INCOMPLETE" };
    format!(
        "  node {} crashed at {:.1}s [{status}]\n    detection       {}\n    re-election     {}\n    checkpoint load {}  ∥  log replay {}\n    backlog replay  {}\n    total           {}",
        b.node,
        b.crash_at_us as f64 / 1e6,
        phase(b.detection_us, "no restart"),
        phase(b.reelection_us, "none needed"),
        phase(b.checkpoint_load_us, "—"),
        phase(b.log_replay_us, "—"),
        phase(b.backlog_replay_us, "—"),
        phase(b.total_us, "—"),
    )
}

fn timeline(con: &Console, args: &Args, runs: &[Run]) -> Vec<String> {
    let cfg = TimelineConfig {
        window_us: args.window_us,
        ..TimelineConfig::default()
    };
    let mut csv = format!("{}\n", Timeline::csv_header());
    let mut jsonl = String::new();
    let mut runs_with_crash = 0usize;
    let mut runs_with_one_incident = 0usize;
    let mut ramped_incidents = 0usize;
    for (label, store) in stores(runs) {
        let mut tl = Timeline::from_store(&store, cfg.window_us);
        let profile = SpanProfile::from_store(&store);
        tl.dominant_phase = profile.dominant_phases(tl.window_us, tl.windows.len());
        let reports = availability_reports(&tl, &cfg, &["crash"]);

        con.say(format_args!(
            "== {label} ({} windows of {}s, {} markers, {} spans) ==",
            tl.windows.len(),
            tl.window_us as f64 / 1e6,
            tl.markers.len(),
            profile.spans.len(),
        ));
        if reports.is_empty() {
            con.say("  no crash incidents");
        } else {
            runs_with_crash += 1;
            runs_with_one_incident += (reports.len() == 1) as usize;
        }
        for r in &reports {
            ramped_incidents += (r.degraded_us > 0
                && r.brackets_crash()
                && r.ramp_to_95pct_us.is_some_and(|us| us > 0))
                as usize;
            con.say(render_report(r));
        }
        con.say(render_phase_table(&profile));
        csv.push_str(&tl.csv_rows(label));
        jsonl.push_str(&tl.to_jsonl(label));
        con.say("");
    }
    export(args, "--csv", &csv);
    export(args, "--jsonl", &jsonl);
    con.say(format_args!(
        "{} run(s), {runs_with_crash} with crash incident(s), \
         {ramped_incidents} degraded-and-ramped-back incident(s)",
        runs.len()
    ));
    let path = &args.path;
    if runs_with_crash == 0 || runs_with_one_incident != runs.len() {
        return vec![format!(
            "expected exactly one crash incident per run in {path} \
             ({runs_with_one_incident}/{} runs qualify)",
            runs.len()
        )];
    }
    if ramped_incidents == 0 {
        return vec![format!(
            "no incident in {path} shows a degraded stretch bracketing its crash \
             with a ramp back to 95% of baseline"
        )];
    }
    Vec::new()
}

fn render_report(r: &AvailabilityReport) -> String {
    let secs = |v: Option<u64>| match v {
        Some(us) => format!("{:.1}s", us as f64 / 1e6),
        None => "-".to_string(),
    };
    format!(
        "  node {} crashed at {:.1}s (window {}): baseline {:.1} WIPS, \
         detect {}, failover {}, degraded {:.1}s, dip {:.1}%, ramp95 {}",
        r.node,
        r.crash_at_us as f64 / 1e6,
        r.crash_window,
        r.baseline_wips,
        secs(r.time_to_detect_us),
        secs(r.time_to_failover_us),
        r.degraded_us as f64 / 1e6,
        r.wips_dip_pct,
        secs(r.ramp_to_95pct_us),
    )
}

fn render_phase_table(profile: &SpanProfile) -> String {
    let mut out = String::from("  phase          |      n |  p50(ms) |  p99(ms) | mean(ms)\n");
    for name in obs::PHASES {
        let Some(h) = profile.phase(name) else {
            continue;
        };
        out.push_str(&format!(
            "  {name:14} | {:6} | {:8.3} | {:8.3} | {:8.3}\n",
            h.count(),
            h.quantile(0.5) as f64 / 1e3,
            h.quantile(0.99) as f64 / 1e3,
            h.mean() / 1e3,
        ));
    }
    let exact = profile
        .spans
        .iter()
        .filter(|s| s.phase_sum_us() == s.total_us)
        .count();
    out.push_str(&format!(
        "  pipeline phases sum exactly to commit latency for {exact}/{} spans",
        profile.spans.len()
    ));
    out
}

fn blame(con: &Console, args: &Args, runs: &[Run]) -> Vec<String> {
    let mut csv = String::from("run,category,node,peer,count,total_us\n");
    let mut jsonl = String::new();
    let mut failures: Vec<String> = Vec::new();
    for (label, store) in stores(runs) {
        let profile = CausalProfile::from_store(&store);
        let by_cat = profile.blame_by_category();
        let total: u64 = by_cat.iter().sum();

        con.say(format_args!(
            "== {label} ({} causal paths, quorum decide mean {:.3} ms) ==",
            profile.paths.len(),
            profile.quorum_decide_mean_us() / 1e3,
        ));
        con.say(render_category_table(&by_cat, total));
        con.say(render_node_table(&profile));
        con.say(render_link_table(&profile));
        con.say(render_window_table(&profile, args.window_us));
        con.say("");

        // The per-run CSVs share one header: keep only the rows.
        let rows = profile.blame_csv(label);
        csv.push_str(rows.split_once('\n').map(|(_, r)| r).unwrap_or(""));
        jsonl.push_str(&obs::jsonl::encode_run_header(label));
        jsonl.push('\n');
        jsonl.push_str(&profile.to_jsonl());

        if profile.paths.is_empty() {
            failures.push(format!("{label}: no causal paths reconstructed"));
        }
        let broken = profile.paths.iter().filter(|p| !p.telescopes()).count();
        if broken > 0 {
            failures.push(format!(
                "{label}: {broken}/{} paths violate the telescoping invariant",
                profile.paths.len()
            ));
        }
        if by_cat[BlameCategory::DiskFsync.index()] == 0 && !profile.paths.is_empty() {
            failures.push(format!(
                "{label}: zero disk-fsync blame — synchronous log \
                 appends missing from the critical path"
            ));
        }
    }
    export(args, "--csv", &csv);
    export(args, "--jsonl", &jsonl);
    con.say(format_args!("{} run(s) profiled", runs.len()));
    if runs.is_empty() {
        failures.push(format!("{}: no runs in trace", args.path));
    }
    if args.assert && failures.is_empty() {
        con.say("gate: all paths telescope, disk fsync on the critical path");
    }
    failures
}

fn render_category_table(by_cat: &[u64; 5], total: u64) -> String {
    let mut out = String::from("  category         | total(ms) | share(%)\n");
    for cat in BlameCategory::ALL {
        let us = by_cat[cat.index()];
        let share = if total > 0 {
            us as f64 * 100.0 / total as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "  {:16} | {:9.1} | {share:7.1}\n",
            cat.name(),
            us as f64 / 1e3,
        ));
    }
    out
}

fn render_node_table(profile: &CausalProfile) -> String {
    let mut out = String::from("  blame by node:");
    for (node, us) in profile.blame_by_node() {
        out.push_str(&format!(" n{node}={:.1}ms", us as f64 / 1e3));
    }
    out
}

fn render_link_table(profile: &CausalProfile) -> String {
    let mut out = String::from("  net transit by link:");
    let links = profile.blame_by_link();
    if links.is_empty() {
        out.push_str(" (none)");
    }
    for ((from, to), us) in links {
        out.push_str(&format!(" {from}->{to}={:.1}ms", us as f64 / 1e3));
    }
    out
}

fn render_window_table(profile: &CausalProfile, window_us: u64) -> String {
    let mut out = format!(
        "  window({}s) | paths | queueing | cpu | net | retransmit | fsync (ms)\n",
        window_us as f64 / 1e6
    );
    for w in profile.windows(window_us) {
        let ms = |i: usize| w.totals[i] as f64 / 1e3;
        out.push_str(&format!(
            "  {:10.0}s | {:5} | {:8.1} | {:3.0} | {:3.0} | {:10.1} | {:5.1}\n",
            w.start_us as f64 / 1e6,
            w.paths,
            ms(0),
            ms(1),
            ms(2),
            ms(3),
            ms(4),
        ));
    }
    out
}
