//! # bench — experiment harness regenerating every table and figure
//!
//! One function per paper artifact (Figures 3–8, Tables 1–6), each
//! returning structured results and rendering the paper's layout. The
//! `exp_*` binaries wrap these; `exp_all` runs the complete evaluation
//! and writes an `EXPERIMENTS.md`-ready report.
//!
//! Two fidelity modes:
//!
//! * **quick** (default) — the measurement interval and faultload times
//!   are scaled to ⅓ of the paper's (180 s interval, crashes at
//!   80/90/130 s) so the whole evaluation runs in minutes;
//! * **full** (`--full`) — the paper's exact schedule (30 s ramp-up,
//!   540 s interval, crashes at 240/270/390 s).
//!
//! State sizes (300/500/700 MB) are never scaled: recovery times are a
//! direct function of them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod parallel;
pub mod render;
pub mod report;

pub use parallel::run_parallel;
pub use render::Console;
pub use report::{
    alert_score_from_run, availability_from_run, committed_updates, json_path_from_args,
    monitor_fields, reconfig_availability, run_markers, timeline_from_run, trace_path_from_args,
    JsonReport, TraceSink,
};

use cluster::{estimated_capacity, run_experiment, ExperimentConfig, RunReport};
use faultload::Faultload;
use tpcw::{linear_fit, r_squared, Profile, Schedule};

/// The switches and the value-taking flags the `exp_*` binaries built
/// on [`Mode::from_args`] define between them.
const SWITCHES: &[&str] = &["--full", "--quiet"];
const VALUE_FLAGS: &[&str] = &["--json", "--trace", "--csv", "--scenarios", "--out"];

/// The first `--…` argument that is none of those flags, if any. The
/// argument after a value-taking flag is its value whatever it looks
/// like, as the parsers of those flags read it.
fn unknown_flag(args: impl IntoIterator<Item = String>) -> Option<String> {
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if VALUE_FLAGS.contains(&a.as_str()) {
            args.next();
        } else if a.starts_with("--") && !SWITCHES.contains(&a.as_str()) {
            return Some(a);
        }
    }
    None
}

/// Harness fidelity mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// ⅓-scale schedule, coarser sweeps.
    Quick,
    /// The paper's exact schedule and sweeps.
    Full,
}

impl Mode {
    /// Parses `--full` from argv. Every `exp_*` binary except
    /// `exp_trace` starts here, so this is also where a flag none of
    /// them defines exits 2 rather than running the default sweep.
    pub fn from_args() -> Mode {
        if let Some(flag) = unknown_flag(std::env::args().skip(1)) {
            eprintln!(
                "unknown flag {flag}; known: {} and, with a value, {}",
                SWITCHES.join(" "),
                VALUE_FLAGS.join(" ")
            );
            std::process::exit(2);
        }
        if std::env::args().any(|a| a == "--full") {
            Mode::Full
        } else {
            Mode::Quick
        }
    }

    /// The measurement schedule for this mode.
    pub fn schedule(self) -> Schedule {
        match self {
            Mode::Quick => Schedule::quick(180),
            Mode::Full => Schedule::paper(),
        }
    }

    /// Scales a paper faultload to this mode's schedule.
    pub fn faultload(self, f: Faultload) -> Faultload {
        match self {
            Mode::Quick => f.scaled(1, 3),
            Mode::Full => f,
        }
    }

    /// Replica counts for sweep experiments.
    pub fn sweep_replicas(self) -> Vec<usize> {
        match self {
            Mode::Quick => vec![4, 6, 8, 10, 12],
            Mode::Full => (4..=12).collect(),
        }
    }
}

/// The paper's {5, 8}-replica ensembles the dependability grids run on.
pub const GRID_REPLICAS: [usize; 2] = [5, 8];

/// Base configuration shared by all experiments in a mode. Tracing is
/// enabled when `--trace <path>` is on the command line, so every
/// binary built on this config records structured traces exactly when
/// there is somewhere to write them.
pub fn base_config(mode: Mode, replicas: usize, profile: Profile) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper(replicas);
    config.profile = profile;
    config.schedule = mode.schedule();
    config.trace = trace_config_from_args();
    config
}

/// The [`simnet::TraceConfig`] implied by argv: on iff `--trace` was
/// given.
pub fn trace_config_from_args() -> simnet::TraceConfig {
    if trace_path_from_args().is_some() {
        simnet::TraceConfig::on()
    } else {
        simnet::TraceConfig::default()
    }
}

/// One point of a sweep experiment.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Replica count.
    pub replicas: usize,
    /// Measured throughput (interactions/s) over the interval.
    pub wips: f64,
    /// Mean response time (ms).
    pub wirt_ms: f64,
}

/// Figure 3 — speedup: saturated WIPS and WIRT vs. replica count for
/// each workload, 500 MB initial state.
pub fn fig3_speedup(mode: Mode, profile: Profile) -> Vec<SweepPoint> {
    run_parallel(mode.sweep_replicas(), |replicas| {
        let mut config = base_config(mode, replicas, profile);
        config.ebs = 50;
        // Saturating load: 1.35× the analytic capacity estimate.
        config.rbes = ((estimated_capacity(profile, replicas) * 1.35) as usize).max(600);
        let report = run_experiment(&config);
        SweepPoint {
            replicas,
            wips: report.awips,
            wirt_ms: report.mean_wirt_ms,
        }
    })
}

/// Figure 4 scaleup results: points plus the paper's regression and
/// correlation analysis.
pub struct ScaleupResult {
    /// The sweep points.
    pub points: Vec<SweepPoint>,
    /// Linear fit `wips = a + b·replicas`.
    pub fit: (f64, f64),
    /// r² of WIPS ↔ WIRT across the sweep.
    pub wips_wirt_r2: f64,
}

/// Figure 4 — scaleup: WIPS and WIRT at a fixed offered load of 1000
/// WIPS (1000 RBEs at 1 s think time), 300 MB state.
pub fn fig4_scaleup(mode: Mode, profile: Profile) -> ScaleupResult {
    let points: Vec<SweepPoint> = run_parallel(mode.sweep_replicas(), |replicas| {
        let mut config = base_config(mode, replicas, profile);
        config.ebs = 30;
        config.rbes = 1_000;
        let report = run_experiment(&config);
        SweepPoint {
            replicas,
            wips: report.awips,
            wirt_ms: report.mean_wirt_ms,
        }
    });
    let xy: Vec<(f64, f64)> = points.iter().map(|p| (p.replicas as f64, p.wips)).collect();
    let fit = linear_fit(&xy);
    let ww: Vec<(f64, f64)> = points.iter().map(|p| (p.wips, p.wirt_ms)).collect();
    ScaleupResult {
        fit,
        wips_wirt_r2: r_squared(&ww),
        points,
    }
}

/// One dependability run (a figure-5/7/8-style experiment).
pub struct FaultRun {
    /// Replica count.
    pub replicas: usize,
    /// Workload profile.
    pub profile: Profile,
    /// Initial state size (EB scale: 30/50/70).
    pub ebs: u32,
    /// The full run report.
    pub report: RunReport,
}

/// Runs one faultload experiment.
pub fn fault_run(
    mode: Mode,
    replicas: usize,
    profile: Profile,
    ebs: u32,
    faultload: Faultload,
) -> FaultRun {
    let mut config = base_config(mode, replicas, profile);
    config.ebs = ebs;
    config.rbes = 1_000;
    config.faultload = mode.faultload(faultload);
    let report = run_experiment(&config);
    FaultRun {
        replicas,
        profile,
        ebs,
        report,
    }
}

/// Figures 5/7/8 + Tables 1–6 — the full dependability grid for one
/// faultload: replicas {5, 8} × the three profiles, 500 MB state.
pub fn dependability_grid(mode: Mode, faultload: &Faultload) -> Vec<FaultRun> {
    let mut points = Vec::new();
    for replicas in GRID_REPLICAS {
        for profile in Profile::ALL {
            points.push((replicas, profile));
        }
    }
    run_parallel(points, |(replicas, profile)| {
        fault_run(mode, replicas, profile, 50, faultload.clone())
    })
}

/// The body of `exp_one_crash`, `exp_two_crashes` and
/// `exp_delayed_recovery`: the dependability grid under `faultload`,
/// `--json` / `--trace` if asked, the 5-replica fault histograms, then
/// five tables under `titles` — performability (in the given layout),
/// accuracy, autonomy, availability, failure-detector quality.
pub fn crash_experiment(
    name: &str,
    faultload: &Faultload,
    performability: fn(&str, &[FaultRun]) -> String,
    titles: [&str; 5],
) {
    let con = Console::from_args();
    let mode = Mode::from_args();
    let runs = dependability_grid(mode, faultload);
    let mut json = JsonReport::new(name, mode);
    let mut trace = TraceSink::from_args();
    for run in &runs {
        let label = format!("{}r {:?} ebs={}", run.replicas, run.profile, run.ebs);
        json.push(&label, &run.report);
        trace.record_run(&label, &run.report);
    }
    json.write_if_requested();
    trace.write_if_requested();
    for run in runs.iter().filter(|r| r.replicas == 5) {
        con.say(render::render_fault_histogram(run));
    }
    let [perf, accuracy, autonomy, availability, fd_quality] = titles;
    con.say(performability(perf, &runs));
    con.say(render::render_accuracy(accuracy, &runs));
    con.say(render::render_autonomy(autonomy, &runs));
    con.say(render::render_availability(availability, &runs));
    con.say(render::render_fd_quality(fd_quality, &runs));
}

/// One cell of the Figure 6 recovery-time grid.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryTimePoint {
    /// Replica count (5 or 8).
    pub replicas: usize,
    /// Profile.
    pub profile: Profile,
    /// State-size scale (30/50/70 EB ≈ 300/500/700 MB).
    pub ebs: u32,
    /// Measured recovery time (s), restart → operational.
    pub recovery_secs: f64,
}

/// Figure 6 — recovery times for the single-crash faultload across
/// state sizes, profiles and replica counts.
pub fn fig6_recovery_times(mode: Mode) -> Vec<RecoveryTimePoint> {
    let mut points = Vec::new();
    for replicas in GRID_REPLICAS {
        for profile in Profile::ALL {
            for ebs in [30u32, 50, 70] {
                points.push((replicas, profile, ebs));
            }
        }
    }
    run_parallel(points, |(replicas, profile, ebs)| {
        let run = fault_run(mode, replicas, profile, ebs, Faultload::single_crash());
        let recovery_secs = run
            .report
            .spans
            .first()
            .and_then(|s| s.recovery_secs())
            .unwrap_or(f64::NAN);
        RecoveryTimePoint {
            replicas,
            profile,
            ebs,
            recovery_secs,
        }
    })
}

#[cfg(test)]
mod tests {
    fn unknown_flag(args: &str) -> Option<String> {
        super::unknown_flag(args.split_whitespace().map(String::from))
    }

    #[test]
    fn only_flags_the_workspace_defines_pass() {
        assert_eq!(unknown_flag(""), None);
        let all = "--full --quiet --json out.json --trace t.jsonl --csv t.csv \
                   --scenarios replace,rolling-restart --out report.md";
        assert_eq!(unknown_flag(all), None);
        assert_eq!(unknown_flag("--gate"), Some("--gate".into()));
        assert_eq!(unknown_flag("--quiet --ful"), Some("--ful".into()));
        assert_eq!(unknown_flag("--json g.json --gate"), Some("--gate".into()));
        // A value is never a flag: `-` (stdout), or a path with dashes.
        assert_eq!(unknown_flag("--json - --full"), None);
        assert_eq!(unknown_flag("--json --odd-name.json"), None);
    }
}
