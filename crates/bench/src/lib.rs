//! # bench — experiment harness regenerating every table and figure
//!
//! One [`Section`] per paper artifact group (Figures 3–8, Tables 1–6):
//! each runs its points, records its `--json` rows and renders the
//! paper's layout. Each figure binary runs one section; `exp_all` runs
//! every one of [`SECTIONS`] and writes an `EXPERIMENTS.md`-ready
//! report.
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

/// The dependability grid: each of [`GRID_REPLICAS`] with each profile.
fn grid() -> impl Iterator<Item = (usize, Profile)> {
    let replicas = GRID_REPLICAS.into_iter();
    replicas.flat_map(|r| Profile::ALL.map(|p| (r, p)))
}

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
    let points = grid().flat_map(|(r, p)| [30u32, 50, 70].map(|ebs| (r, p, ebs)));
    run_parallel(points.collect(), |(replicas, profile, ebs)| {
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

/// One paper artifact group: the points it runs, the `--json` rows it
/// records and the blocks it renders. Its own binary runs it alone
/// ([`Section::main`]); `exp_all` runs each of [`SECTIONS`] in turn
/// ([`Section::report`]), with its heading, its labels prefixed and, of
/// a crash section's five tables, the first three.
pub struct Section {
    /// The section's binary, and the `experiment` of its JSON document.
    name: &'static str,
    /// `exp_all`'s heading for the section.
    heading: &'static str,
    /// What `exp_all` puts before each of the section's JSON labels.
    prefix: &'static str,
    body: Body,
}

/// What a [`Section`] runs and renders.
enum Body {
    /// Figure 3 — saturated WIPS and WIRT vs. replica count for each
    /// workload, 500 MB initial state.
    Speedup,
    /// Figure 4 — [`fig4_scaleup`] for each workload.
    Scaleup,
    /// Figure 6 — recovery times for the single-crash faultload across
    /// state sizes, profiles and replica counts.
    RecoveryTimes,
    /// Figures 5/7/8 + Tables 1–6 — the `grid` at 500 MB under one
    /// crash faultload: the 5-replica fault histograms, then Tables
    /// `table` (performability) and `table + 1` (accuracy) and the
    /// autonomy, availability and detector tables, named `long`/`short`.
    Crash {
        faultload: fn() -> Faultload,
        performability: fn(&str, &[FaultRun]) -> String,
        table: u8,
        long: &'static str,
        short: &'static str,
    },
}

/// The paper's evaluation, in `exp_all`'s order.
pub const SECTIONS: [Section; 6] = [
    Section {
        name: "exp_speedup",
        heading: "== Figure 3: speedup ==",
        prefix: "fig3 ",
        body: Body::Speedup,
    },
    Section {
        name: "exp_scaleup",
        heading: "== Figure 4: scaleup ==",
        prefix: "fig4 ",
        body: Body::Scaleup,
    },
    Section {
        name: "exp_one_crash",
        heading: "== One crash (Fig 5, Tables 1-2) ==",
        prefix: "one-crash ",
        body: Body::Crash {
            faultload: Faultload::single_crash,
            performability: render::render_performability,
            table: 1,
            long: "one failure",
            short: "One failure",
        },
    },
    Section {
        name: "exp_recovery_times",
        heading: "== Recovery times (Fig 6) ==",
        prefix: "fig6 ",
        body: Body::RecoveryTimes,
    },
    Section {
        name: "exp_two_crashes",
        heading: "== Two overlapped crashes (Fig 7, Tables 3-4) ==",
        prefix: "two-crashes ",
        body: Body::Crash {
            faultload: Faultload::double_crash,
            performability: render::render_performability,
            table: 3,
            long: "two overlapped crashes",
            short: "Two crashes",
        },
    },
    Section {
        name: "exp_delayed_recovery",
        heading: "== Delayed recovery (Fig 8, Tables 5-6) ==",
        prefix: "delayed-recovery ",
        body: Body::Crash {
            faultload: Faultload::double_crash_delayed,
            performability: render::render_performability_delayed,
            table: 5,
            long: "delayed recovery",
            short: "Delayed recovery",
        },
    },
];

impl Section {
    /// The whole of the figure binary `name`, which runs the section of
    /// that name: every JSON row under its bare label, then every block.
    pub fn main(name: &str) {
        let section = SECTIONS.iter().find(|s| s.name == name);
        let section = section.expect("every figure binary has its section");
        let flags = match section.body {
            Body::Crash { .. } => "--full --quiet --json --trace",
            _ => "--full --quiet --json",
        };
        let cli = Cli::parse(section.name, flags);
        let mut rec = cli.recorder();
        let blocks = section.run(&cli, &mut rec, "", usize::MAX);
        rec.finish();
        for block in blocks {
            cli.con.say(block);
        }
    }

    /// The section in `exp_all`'s report: its heading, then its blocks
    /// (a crash section's first three tables only), its JSON labels
    /// behind its prefix.
    pub fn report(&self, cli: &Cli, rec: &mut Recorder) {
        rec.say(self.heading.into());
        for block in self.run(cli, rec, self.prefix, 3) {
            rec.say(block);
        }
    }

    /// Runs the section's points, records their rows labelled behind
    /// `prefix` and returns its blocks, at most `tables` of a crash
    /// section's five tables among them.
    fn run(&self, cli: &Cli, rec: &mut Recorder, prefix: &str, tables: usize) -> Vec<String> {
        match self.body {
            Body::Speedup => (Profile::ALL.iter())
                .map(|&profile| {
                    // Saturating load: 1.35× the analytic capacity estimate.
                    let points = sweep(cli, profile, 50, |replicas| {
                        ((estimated_capacity(profile, replicas) * 1.35) as usize).max(600)
                    });
                    for p in &points {
                        rec.row(&format!("{prefix}{profile:?} {}r", p.replicas), &p.fields());
                    }
                    render::render_speedup(profile, &points)
                })
                .collect(),
            Body::Scaleup => (Profile::ALL.iter())
                .map(|&profile| {
                    let result = fig4_scaleup(cli, profile);
                    let (intercept, slope) = result.fit;
                    for p in &result.points {
                        let mut fields = p.fields();
                        fields.extend([("fit_intercept", intercept), ("fit_slope", slope)]);
                        rec.row(&format!("{prefix}{profile:?} {}r", p.replicas), &fields);
                    }
                    render::render_scaleup(profile, &result)
                })
                .collect(),
            Body::RecoveryTimes => {
                let points = fig6_recovery_times(cli);
                for p in &points {
                    let (replicas, profile, ebs) = (p.replicas, p.profile, p.ebs);
                    let label = format!("{prefix}{replicas}r {profile:?} ebs={ebs}");
                    let (r, e, secs) = (replicas as f64, ebs as f64, p.recovery_secs);
                    rec.row(
                        &label,
                        &[("replicas", r), ("ebs", e), ("recovery_secs", secs)],
                    );
                }
                vec![render::render_recovery_times(&points)]
            }
            Body::Crash {
                faultload,
                performability,
                table,
                long,
                short,
            } => {
                let runs = run_parallel(grid().collect(), |(replicas, profile)| {
                    fault_run(cli, replicas, profile, 50, faultload())
                });
                for run in &runs {
                    let (replicas, profile, ebs) = (run.replicas, run.profile, run.ebs);
                    let label = format!("{prefix}{replicas}r {profile:?} ebs={ebs}");
                    rec.record(&label, &run.report, &[]);
                }
                let titles = [
                    format!("Table {table} — {long}: performability"),
                    format!("Table {} — {long}: accuracy (%)", table + 1),
                    format!("{short}: availability/autonomy"),
                    format!("{short}: availability decomposition"),
                    format!("{short}: failure-detector quality"),
                ];
                let renders: [fn(&str, &[FaultRun]) -> String; 5] = [
                    performability,
                    render::render_accuracy,
                    render::render_autonomy,
                    render::render_availability,
                    render::render_fd_quality,
                ];
                let histograms = runs.iter().filter(|r| r.replicas == 5);
                let tables = titles.iter().zip(renders).take(tables);
                (histograms.map(render::render_fault_histogram))
                    .chain(tables.map(|(title, render)| render(title, &runs)))
                    .collect()
            }
        }
    }
}
