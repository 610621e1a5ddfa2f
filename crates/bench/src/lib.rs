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
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod parallel;
pub mod render;
pub mod report;

pub use cli::Cli;
pub use parallel::run_parallel;
pub use render::Console;
pub use report::{
    alert_score_from_run, availability, committed_updates, monitor_fields, run_markers,
    timeline_from_run, Recorder,
};

use cluster::{estimated_capacity, run_experiment, ExperimentConfig, RunReport};
use faultload::Faultload;
use tpcw::{linear_fit, r_squared, Profile, Schedule};

/// Harness fidelity mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// ⅓-scale schedule, coarser sweeps.
    Quick,
    /// The paper's exact schedule and sweeps.
    Full,
}

impl Mode {
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
/// on when `--trace <path>` was given, so every binary built on this
/// config records structured traces exactly when there is somewhere to
/// write them.
pub fn base_config(cli: &Cli, replicas: usize, profile: Profile) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper(replicas);
    config.profile = profile;
    config.schedule = cli.mode.schedule();
    if cli.has("--trace") {
        config.trace = simnet::TraceConfig::on();
    }
    config
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

impl SweepPoint {
    /// The point's JSON fields.
    pub fn fields(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("replicas", self.replicas as f64),
            ("wips", self.wips),
            ("wirt_ms", self.wirt_ms),
        ]
    }
}

/// One point per replica count of the mode's sweep, `ebs` EB of state
/// and `rbes(replicas)` browsers.
fn sweep(
    cli: &Cli,
    profile: Profile,
    ebs: u32,
    rbes: impl Fn(usize) -> usize + Sync,
) -> Vec<SweepPoint> {
    run_parallel(cli.mode.sweep_replicas(), |replicas| {
        let mut config = base_config(cli, replicas, profile);
        config.ebs = ebs;
        config.rbes = rbes(replicas);
        let report = run_experiment(&config);
        SweepPoint {
            replicas,
            wips: report.awips,
            wirt_ms: report.mean_wirt_ms,
        }
    })
}

/// Figure 3 — speedup: saturated WIPS and WIRT vs. replica count for
/// each workload, 500 MB initial state.
pub fn fig3_speedup(cli: &Cli, profile: Profile) -> Vec<SweepPoint> {
    // Saturating load: 1.35× the analytic capacity estimate.
    sweep(cli, profile, 50, |replicas| {
        ((estimated_capacity(profile, replicas) * 1.35) as usize).max(600)
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
pub fn fig4_scaleup(cli: &Cli, profile: Profile) -> ScaleupResult {
    let points = sweep(cli, profile, 30, |_| 1_000);
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
    cli: &Cli,
    replicas: usize,
    profile: Profile,
    ebs: u32,
    faultload: Faultload,
) -> FaultRun {
    let mut config = base_config(cli, replicas, profile);
    config.ebs = ebs;
    config.rbes = 1_000;
    config.faultload = cli.mode.faultload(faultload);
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
pub fn dependability_grid(cli: &Cli, faultload: &Faultload) -> Vec<FaultRun> {
    let mut points = Vec::new();
    for replicas in GRID_REPLICAS {
        for profile in Profile::ALL {
            points.push((replicas, profile));
        }
    }
    run_parallel(points, |(replicas, profile)| {
        fault_run(cli, replicas, profile, 50, faultload.clone())
    })
}

/// One of the paper's crash faultloads, as its binary and `exp_all`
/// run it.
pub struct CrashExperiment {
    /// The binary, and the `experiment` of its JSON document.
    pub name: &'static str,
    /// `exp_all`'s heading for the section.
    pub heading: &'static str,
    /// What `exp_all` puts before each of the section's JSON labels.
    pub prefix: &'static str,
    /// The paper's faultload.
    pub faultload: fn() -> Faultload,
    /// The performability table's layout.
    pub performability: fn(&str, &[FaultRun]) -> String,
    /// The titles of the performability, accuracy, autonomy,
    /// availability and failure-detector quality tables.
    pub titles: [&'static str; 5],
}

/// Figure 5 + Tables 1–2 — one crash, one autonomous recovery.
pub const ONE_CRASH: CrashExperiment = CrashExperiment {
    name: "exp_one_crash",
    heading: "== One crash (Fig 5, Tables 1-2) ==",
    prefix: "one-crash ",
    faultload: Faultload::single_crash,
    performability: render::render_performability,
    titles: [
        "Table 1 — one failure: performability",
        "Table 2 — one failure: accuracy (%)",
        "One failure: availability/autonomy",
        "One failure: availability decomposition",
        "One failure: failure-detector quality",
    ],
};

/// Figure 7 + Tables 3–4 — two overlapped crashes, autonomous
/// recoveries.
pub const TWO_CRASHES: CrashExperiment = CrashExperiment {
    name: "exp_two_crashes",
    heading: "== Two overlapped crashes (Fig 7, Tables 3-4) ==",
    prefix: "two-crashes ",
    faultload: Faultload::double_crash,
    performability: render::render_performability,
    titles: [
        "Table 3 — two overlapped crashes: performability",
        "Table 4 — two overlapped crashes: accuracy (%)",
        "Two crashes: availability/autonomy",
        "Two crashes: availability decomposition",
        "Two crashes: failure-detector quality",
    ],
};

/// Figure 8 + Tables 5–6 — two crashes, one autonomous and one delayed
/// (operator-triggered) recovery.
pub const DELAYED_RECOVERY: CrashExperiment = CrashExperiment {
    name: "exp_delayed_recovery",
    heading: "== Delayed recovery (Fig 8, Tables 5-6) ==",
    prefix: "delayed-recovery ",
    faultload: Faultload::double_crash_delayed,
    performability: render::render_performability_delayed,
    titles: [
        "Table 5 — delayed recovery: performability",
        "Table 6 — delayed recovery: accuracy (%)",
        "Delayed recovery: availability/autonomy",
        "Delayed recovery: availability decomposition",
        "Delayed recovery: failure-detector quality",
    ],
};

/// One dependability section: the grid under `exp`'s faultload, each
/// run recorded as `{prefix}{R}r {profile} ebs={ebs}`, and its
/// rendering — the 5-replica fault histograms, then the first `tables`
/// of `exp`'s tables.
pub fn crash_section(
    cli: &Cli,
    rec: &mut Recorder,
    exp: &CrashExperiment,
    prefix: &str,
    tables: usize,
) -> Vec<String> {
    let runs = dependability_grid(cli, &(exp.faultload)());
    for run in &runs {
        let label = format!(
            "{prefix}{}r {:?} ebs={}",
            run.replicas, run.profile, run.ebs
        );
        rec.record(&label, &run.report, &[]);
    }
    let renderers = [
        exp.performability,
        render::render_accuracy,
        render::render_autonomy,
        render::render_availability,
        render::render_fd_quality,
    ];
    let histograms = runs.iter().filter(|r| r.replicas == 5);
    let mut blocks: Vec<String> = histograms.map(render::render_fault_histogram).collect();
    let titled = exp.titles.iter().zip(renderers).take(tables);
    blocks.extend(titled.map(|(title, render)| render(title, &runs)));
    blocks
}

/// The body of `exp_one_crash`, `exp_two_crashes` and
/// `exp_delayed_recovery`: [`crash_section`] with all five tables.
pub fn crash_experiment(exp: &CrashExperiment) {
    let cli = Cli::parse(exp.name, "--full --quiet --json --trace");
    let mut rec = cli.recorder();
    let blocks = crash_section(&cli, &mut rec, exp, "", 5);
    rec.finish();
    for block in blocks {
        cli.con.say(block);
    }
}

/// The membership-change and incident scenarios `exp_reconfig` and
/// `exp_monitor` run, each placed relative to the measurement interval
/// so the 12-window availability baseline and the monitor's rule
/// windows sit in post-ramp-up steady state before anything breaks.
pub fn incident_faultload(name: &str, schedule: &Schedule) -> Faultload {
    let measure = schedule.measure_start_us();
    let quarter = schedule.interval_us / 4;
    let mid = measure + 2 * quarter;
    match name {
        "fault-free" => Faultload::none(),
        "crash" => Faultload::single_crash_at(mid),
        "add" => Faultload::reconfig_add(mid, 1),
        "remove" => Faultload::reconfig_remove(mid, vec![1]),
        "replace" => Faultload::reconfig_replace(mid, 0),
        // Three staggered restarts, one replica at a time.
        "rolling-restart" => Faultload::rolling_restart(measure + quarter, quarter / 2, 3),
        "permanent-loss" => Faultload::permanent_loss(measure + quarter, mid),
        // Two rounds of cutting a 3-node minority off for 10 s with
        // 20 s healed between — quorum holds, but enough backends
        // degrade for the SLO rules to see it.
        "partition" => Faultload::partition_flap(mid, 2, 10_000_000, 20_000_000, vec![0, 1, 2]),
        other => panic!("unknown incident {other:?}"),
    }
}

/// The replica count of [`incident_config`].
pub const INCIDENT_REPLICAS: usize = 8;

/// The deployment `exp_reconfig` and `exp_monitor` put one incident
/// into: [`INCIDENT_REPLICAS`] replicas on the ordering mix, 30 EB, 1 000 RBEs, group
/// commit of 8 updates within 80 ms, and in quick mode a 120 s
/// interval — long enough for a 60 s pre-incident baseline and the
/// full ramp back, short enough for CI.
pub fn incident_config(cli: &Cli, incident: &str) -> ExperimentConfig {
    let mut config = base_config(cli, INCIDENT_REPLICAS, Profile::Ordering);
    config.ebs = 30;
    config.rbes = 1_000;
    config.batch_max_updates = 8;
    config.batch_window_us = 80_000;
    if cli.mode == Mode::Quick {
        config.schedule = Schedule::quick(120);
    }
    config.faultload = incident_faultload(incident, &config.schedule);
    config
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
pub fn fig6_recovery_times(cli: &Cli) -> Vec<RecoveryTimePoint> {
    let mut points = Vec::new();
    for replicas in GRID_REPLICAS {
        for profile in Profile::ALL {
            for ebs in [30u32, 50, 70] {
                points.push((replicas, profile, ebs));
            }
        }
    }
    run_parallel(points, |(replicas, profile, ebs)| {
        let run = fault_run(cli, replicas, profile, ebs, Faultload::single_crash());
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
