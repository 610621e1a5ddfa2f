//! Design-choice ablations (DESIGN.md §3):
//!
//! 1. **Fast Paxos vs classic Paxos** — the paper's middleware switches
//!    to Fast Paxos whenever ⌈3N/4⌉ replicas are up; this ablation runs
//!    the same workloads with fast rounds disabled to isolate what the
//!    fast path buys (one fewer message delay on the write path) and
//!    what it costs (larger quorum, collision recovery).
//! 2. **Checkpoint interval** — more frequent checkpoints shorten the
//!    log suffix a recovering replica replays but cost more disk writes;
//!    this sweep measures both sides.

use bench::render::{render_checkpoint_sweep, render_fast_vs_classic};
use bench::{base_config, Cli};
use cluster::run_experiment;
use faultload::Faultload;
use tpcw::Profile;

fn main() {
    let cli = Cli::parse("exp_ablation", "--full --quiet --json --trace");
    let (con, mode) = (cli.con, cli.mode);
    let mut rec = cli.recorder();

    let mut rows = Vec::new();
    for replicas in [5usize, 8] {
        for profile in [Profile::Shopping, Profile::Ordering] {
            let [(fast, fast_ms), (classic, classic_ms)] = [false, true].map(|classic_only| {
                let mut config = base_config(&cli, replicas, profile);
                config.ebs = 30;
                config.rbes = 1_000;
                config.classic_only = classic_only;
                let report = run_experiment(&config);
                let kind = if classic_only { "classic" } else { "fast" };
                let label = format!("{replicas}r {} {kind}", profile.name());
                rec.record(&label, &report, &[]);
                (report.awips, report.mean_wirt_ms)
            });
            rows.push((replicas, profile, [fast, fast_ms, classic, classic_ms]));
        }
    }
    con.say(render_fast_vs_classic(&rows).trim_end());

    con.say("\n== Ablation 2: checkpoint interval (5 replicas, shopping, one crash) ==");
    let mut rows = Vec::new();
    for interval in [2_000u64, 20_000, 100_000] {
        let mut config = base_config(&cli, 5, Profile::Shopping);
        config.ebs = 30;
        config.rbes = 1_000;
        config.checkpoint_interval = interval;
        config.faultload = mode.faultload(Faultload::single_crash());
        let report = run_experiment(&config);
        let label = format!("checkpoint interval {interval}");
        rec.record(&label, &report, &[("checkpoint_interval", interval as f64)]);
        let recovery = report
            .spans
            .first()
            .and_then(|s| s.recovery_secs())
            .unwrap_or(f64::NAN);
        rows.push((interval, report.awips, recovery, report.disk_writes));
    }
    con.say(render_checkpoint_sweep(&rows).trim_end());
    rec.finish();
}
