//! The end-to-end run of one workload: cold set-up probes, then untraced
//! reps timed from outside, then the output checks.
//!
//! Two clocks. *Simulated-clock* numbers are exact functions of (code,
//! seed): they come from the planned reps only, whose count and seeds
//! are fixed, so two runs of the same code agree bit for bit.
//! *Host-clock* numbers are medians over every rep made, and a run keeps
//! making reps — cycling through the planned seeds again — until
//! `--seconds` of measuring have passed. Each such extra rep must
//! reproduce the fingerprint its seed gave the first time, which is the
//! same-seed determinism check.

use std::process::Command;
use std::time::Instant;

use cluster::{run_experiment, RunReport};
use tpcw::Interaction;

use crate::alloc::allocations;
use crate::spans::Spans;
use crate::stats::{dip_pct, median, spread_pct};
use crate::workloads::{rep_seed, Workload};

/// What a traced and an untraced run of one seed must agree on, and
/// what two runs of one seed must agree on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub engine_events: u64,
    pub net_messages: u64,
    pub net_bytes: u64,
    pub disk_appends: u64,
    pub total_ok: u64,
    pub awips_bits: u64,
}

impl Fingerprint {
    pub fn of(report: &RunReport) -> Fingerprint {
        Fingerprint {
            engine_events: report.engine_events,
            net_messages: report.net_messages,
            net_bytes: report.net_bytes,
            disk_appends: report.disk_appends,
            total_ok: report.recorder.total_ok(),
            awips_bits: report.awips.to_bits(),
        }
    }
}

/// Committed updates of a run: the furthest any replica applied.
pub fn committed_updates(report: &RunReport) -> u64 {
    report
        .server_status
        .iter()
        .flatten()
        .map(|s| s.applied)
        .max()
        .unwrap_or(0)
}

/// The checks every rep must pass, traced or not. Returns what failed.
pub fn check_report(workload: &Workload, report: &RunReport) -> Vec<String> {
    let mut failures = Vec::new();
    if report.audit.total_violations != 0 {
        failures.push(format!(
            "{} audit violations",
            report.audit.total_violations
        ));
    }
    if report.spans.len() != workload.crashes {
        failures.push(format!(
            "{} crash spans, expected {}",
            report.spans.len(),
            workload.crashes
        ));
    }
    let end_us = report.schedule.total_us();
    for span in &report.spans {
        match span.recovered_at {
            Some(at) if at <= end_us => {}
            _ => failures.push(format!(
                "server {} did not recover inside the run",
                span.server
            )),
        }
    }
    let live = &report.server_status[..workload.replicas];
    if live.iter().any(Option::is_none) {
        failures.push("a replica is down at the end of the run".to_string());
    }
    if live.iter().flatten().any(|s| s.recovering) {
        failures.push("a replica is still recovering at the end of the run".to_string());
    }
    // The run ends under load, so replicas may differ by the decrees in
    // flight at that instant; one that is further behind has fallen out.
    let applied = || live.iter().flatten().map(|s| s.applied);
    let (min, max) = (applied().min().unwrap_or(0), applied().max().unwrap_or(0));
    if min * 100 < max * 99 {
        failures.push(format!(
            "a live replica is behind: applied {min} against {max}"
        ));
    }
    failures
}

/// The simulated-clock values of one rep.
#[derive(Debug, Clone, Copy)]
struct SimRep {
    awips: f64,
    wirt_p50_us: u64,
    wirt_p999_us: u64,
    cart_wirt_p90_us: u64,
    wirt_samples: u64,
    worst_second_pct: f64,
    updates: u64,
    ok: u64,
    errors: u64,
    sim_s: f64,
}

fn sim_rep(report: &RunReport) -> SimRep {
    let s = &report.schedule;
    let (from, to) = (s.measure_start_us(), s.measure_end_us());
    let rec = &report.recorder;
    let cart_wirt_p90_us = rec
        .wirt_compliance(from, to)
        .into_iter()
        .find(|(interaction, ..)| *interaction == Interaction::ShoppingCart)
        .map_or(0, |(_, p90, ..)| p90);
    let (b0, b1) = ((from / 1_000_000) as usize, (to / 1_000_000) as usize);
    let failure_free = report.dependability.failure_free.awips;
    SimRep {
        awips: report.awips,
        wirt_p50_us: rec.wirt_percentile(from, to, 50.0),
        wirt_p999_us: rec.wirt_percentile(from, to, 99.9),
        cart_wirt_p90_us,
        wirt_samples: rec.wips_series()[b0..b1].iter().map(|c| *c as u64).sum(),
        worst_second_pct: 100.0 - dip_pct(rec.wips_series(), b0, b1, failure_free),
        updates: committed_updates(report),
        ok: rec.total_ok(),
        errors: rec.total_errors(),
        sim_s: s.total_us() as f64 / 1e6,
    }
}

/// Peak resident set of this process so far, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// One cold set-up: a fresh process of this executable that runs the
/// workload's configuration with a zero-length schedule and exits. Timed
/// from before the spawn to after the exit, so it includes process start
/// and the cold population cache, and excludes compile time.
fn setup_probe(workload: &Workload) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let status = Command::new(exe)
        .args(["--setup-probe", workload.name])
        .status()
        .map_err(|e| format!("spawn set-up probe: {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    if status.success() {
        Ok(secs)
    } else {
        Err(format!("set-up probe exited with {status}"))
    }
}

pub struct Outcome {
    pub metrics: Vec<(String, f64)>,
    /// Context that is not a declared metric: sample counts, rep spread.
    pub notes: Vec<(String, f64)>,
    pub failures: Vec<String>,
    /// The benchmark's operations are its reps — whole simulated
    /// experiments with their output checks. (What the simulated
    /// browsers saw fail is a measured output, `sim_accuracy_pct`.)
    pub reps: u64,
}

/// Cold set-ups per run: at least this many, and more of a cheap one —
/// up to the cap, for as long as the budget lasts — because a 0.1 s
/// set-up is noisier than a 0.6 s one.
const SETUP_PROBES_MIN: usize = 7;
const SETUP_PROBES_MAX: usize = 25;
const SETUP_BUDGET_S: f64 = 3.0;

/// `quick` is the smoke mode of `cargo test`: one rep, one set-up
/// probe, no extra reps. Numbers from it mean nothing.
pub fn run(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    quick: bool,
    spans: &mut Spans,
) -> Outcome {
    let mut failures = Vec::new();

    spans.enter("setup");
    let (min, max) = if quick {
        (1, 1)
    } else {
        (SETUP_PROBES_MIN, SETUP_PROBES_MAX)
    };
    let mut setup_s: Vec<f64> = Vec::new();
    let mut probes = 0;
    while probes < min || (probes < max && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S) {
        match spans.time("setup_probe", |_| setup_probe(workload)).0 {
            Ok(secs) => setup_s.push(secs),
            Err(e) => failures.push(e),
        }
        probes += 1;
    }
    // Fill the population cache in this process too, so that the first
    // rep is timed like the others.
    spans.time("warm_up", |_| run_experiment(&workload.setup_config()));
    spans.exit();

    let planned = if quick { 1 } else { workload.reps };
    let mut sims: Vec<SimRep> = Vec::new();
    let mut prints: Vec<Fingerprint> = Vec::new();
    let mut allocs = 0u64;
    let mut host_s_per_sim_s = Vec::new();
    let mut host_events_per_s = Vec::new();
    let measuring = Instant::now();
    let mut i = 0;
    while i < planned || (!quick && measuring.elapsed().as_secs_f64() < seconds) {
        let slot = i % planned;
        let config = workload.config(rep_seed(seed, slot));
        spans.enter(&format!("rep:{i}"));
        let before = allocations();
        let (report, host_s) = spans.time("cluster.run_experiment", |_| run_experiment(&config));
        let rep_allocs = allocations() - before;
        let sim = sim_rep(&report);
        let print = Fingerprint::of(&report);
        let mut rep_failures = check_report(workload, &report);
        drop(report);
        spans.exit();

        host_s_per_sim_s.push(host_s / sim.sim_s);
        host_events_per_s.push(print.engine_events as f64 / host_s);
        if i < planned {
            sims.push(sim);
            prints.push(print);
            allocs += rep_allocs;
        } else if print != prints[slot] {
            rep_failures.push(format!(
                "did not reproduce rep {slot} of the same seed: {print:?} vs {:?}",
                prints[slot]
            ));
        }
        failures.extend(rep_failures.into_iter().map(|f| format!("rep {i}: {f}")));
        i += 1;
    }
    let peak_rss = peak_rss_mb();

    let n = sims.len() as f64;
    let sim_s: f64 = sims.iter().map(|s| s.sim_s).sum();
    let ok: u64 = sims.iter().map(|s| s.ok).sum();
    let errors: u64 = sims.iter().map(|s| s.errors).sum();
    let updates: u64 = sims.iter().map(|s| s.updates).sum();
    // The reps are equally long runs on different seeds, so simulated
    // values are pooled by their mean (for AWIPS that is the rate over
    // all intervals together). A tail percentile takes one of two values
    // a rep, by whether a victim led; the mean of four moves by quarters
    // of the gap where their median would jump by halves.
    let mean = |f: fn(&SimRep) -> f64| sims.iter().map(f).sum::<f64>() / n;
    let metrics = vec![
        ("sim_awips", mean(|s| s.awips)),
        ("sim_wirt_p50_ms", mean(|s| s.wirt_p50_us as f64) / 1e3),
        ("sim_wirt_p999_ms", mean(|s| s.wirt_p999_us as f64) / 1e3),
        (
            "sim_cart_wirt_p90_ms",
            mean(|s| s.cart_wirt_p90_us as f64) / 1e3,
        ),
        ("sim_updates_per_s", updates as f64 / sim_s),
        ("sim_worst_second_pct", mean(|s| s.worst_second_pct)),
        (
            "sim_accuracy_pct",
            100.0 * ok as f64 / (ok + errors).max(1) as f64,
        ),
        ("host_s_per_sim_s", median(&host_s_per_sim_s)),
        ("host_events_per_s", median(&host_events_per_s)),
        ("host_allocs_per_sim_s", allocs as f64 / sim_s),
        ("host_peak_rss_mb", peak_rss),
        ("setup_s", median(&setup_s)),
    ];
    let notes = vec![
        ("reps_planned", n),
        ("reps_made", i as f64),
        ("wirt_samples_per_rep", mean(|s| s.wirt_samples as f64)),
        ("setup_probes", setup_s.len() as f64),
        ("host_rep_spread_pct", spread_pct(&host_s_per_sim_s)),
        ("measuring_s", measuring.elapsed().as_secs_f64()),
        ("interactions", (ok + errors) as f64),
        ("interactions_failed", errors as f64),
    ];
    Outcome {
        metrics: metrics
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        notes: notes.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        failures,
        reps: i as u64,
    }
}
