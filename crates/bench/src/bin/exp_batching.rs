//! Beyond the paper — group-commit batching ablation.
//!
//! The paper's Treplica deployment proposes every client update as its
//! own consensus decree, so a saturated ordering-heavy mix pays one
//! stable-log append (and one Paxos round) per update. This experiment
//! sweeps the middleware's group-commit knob
//! (`ExperimentConfig::batch_max_updates`) across the three TPC-W mixes
//! at a saturating offered load and reports committed-update throughput
//! next to the consensus-log append count — the batching win is real
//! only if both move: more updates per second, proportionally fewer
//! appends, and a zero-violation audit. The ordering-mix pair
//! batch 1 / batch 8 is held at ≥ 1.8× by
//! `tests/full_stack.rs::group_commit_speeds_up_the_saturated_ordering_mix`.

use bench::{base_config, committed_updates, Cli, Mode};
use cluster::{estimated_capacity, run_experiment};
use tpcw::Profile;

fn main() {
    let cli = Cli::parse("exp_batching", "--full --quiet --json --trace");
    let (con, mode) = (cli.con, cli.mode);
    let replicas = 8;

    let mut rec = cli.recorder();
    con.say(format_args!(
        "Group-commit batching, {replicas} replicas, saturating load ({mode:?} schedule):"
    ));
    for profile in Profile::ALL {
        let mut baseline: Option<(f64, u64)> = None;
        for batch in [1usize, 2, 4, 8, 16, 32] {
            let mut config = base_config(&cli, replicas, profile);
            config.ebs = 50;
            if matches!(mode, Mode::Quick) {
                // Half-length schedule keeps the quick sweep under a
                // few minutes; the sim is deterministic, so shorter
                // runs are still exactly reproducible.
                config.schedule = tpcw::Schedule::quick(30);
            }
            // Saturating load: several times the analytic capacity
            // estimate, so the consensus hot path (not client think
            // time) stays the bottleneck even after batching lifts the
            // capacity — the closed loop must pin every batch size at
            // its own saturation point.
            config.rbes = ((estimated_capacity(profile, replicas) * 5.0) as usize).max(600);
            config.batch_max_updates = batch;
            // Even at saturation the CPU admits updates one page at a
            // time (~5 ms apart — mean handle cost over the update
            // ratio), so the window must cover `batch` admissions or
            // size-triggered flushes never happen. 10 ms per hoped-for
            // update gives 2× headroom; batch = 1 keeps the
            // pre-batching immediate flush.
            config.batch_window_us = if batch == 1 { 0 } else { batch as u64 * 10_000 };
            let report = run_experiment(&config);
            let committed = committed_updates(&report);
            let secs = report.schedule.total_us() as f64 / 1e6;
            let ups = committed as f64 / secs;
            let (base_ups, base_appends) = *baseline.get_or_insert((ups, report.disk_appends));
            let label = format!("{profile:?} batch={batch}");
            con.say(format_args!(
                "{label:<22} {ups:8.1} upd/s ({:5.2}x)  AWIPS {:7.1}  WIRT {:7.2} ms  \
                 log appends {:8} ({:5.2}x)  audit: {} checks, {} violations",
                ups / base_ups.max(1e-9),
                report.awips,
                report.mean_wirt_ms,
                report.disk_appends,
                report.disk_appends as f64 / base_appends.max(1) as f64,
                report.audit.checks,
                report.audit.total_violations,
            ));
            rec.record(&label, &report, &[("batch", batch as f64)]);
        }
    }
    rec.finish();
}
