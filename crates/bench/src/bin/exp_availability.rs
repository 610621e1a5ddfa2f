//! Long-horizon availability experiment (the paper's question 1: "how
//! long can RobustStore be expected to run without interruption?").
//!
//! Subjects a five-replica deployment to repeated random crashes (one
//! every ~2 minutes of a 10-minute measurement interval, all recovered
//! autonomously) and reports availability, accuracy and autonomy across
//! the whole horizon — plus the consensus traffic bill.

use bench::render::render_availability;
use bench::{base_config, Cli, FaultRun, Mode};
use cluster::run_experiment;
use faultload::{FaultEvent, Faultload, RecoveryKind};
use tpcw::{Profile, Schedule};

fn main() {
    let cli = Cli::parse("exp_availability", "--full --quiet --json --trace");
    let con = cli.con;
    let interval_secs = match cli.mode {
        Mode::Quick => 300,
        Mode::Full => 600,
    };
    let mut rec = cli.recorder();
    for profile in [Profile::Browsing, Profile::Shopping] {
        let mut config = base_config(&cli, 5, profile);
        config.schedule = Schedule::quick(interval_secs);
        config.ebs = 30;
        config.rbes = 1_000;
        // One crash every ~100 s, round-robin over victims, all
        // autonomous. Recovery (~40 s for 300 MB) completes before the
        // next fault lands.
        let events: Vec<FaultEvent> = (0..(interval_secs / 100))
            .map(|k| FaultEvent {
                at_us: (60 + 100 * k) * 1_000_000,
                victim: k as usize,
                recovery: RecoveryKind::Autonomous,
            })
            .collect();
        let faults = events.len();
        config.faultload = Faultload {
            events,
            ..Faultload::default()
        };
        let report = run_experiment(&config);
        let label = format!("{} {faults} crashes", profile.name());
        rec.record(&label, &report, &[]);
        let d = &report.dependability;
        con.say(format_args!(
            "{:9}: {faults} crashes over {interval_secs}s → availability {:.5}, accuracy {:.3}%, autonomy {:.2}, AWIPS {:.1}",
            profile.name(),
            d.availability,
            d.accuracy_percent,
            d.autonomy,
            report.awips,
        ));
        for span in &report.spans {
            con.say(format_args!(
                "  server {} crashed {:>3.0}s recovered in {:>5.1}s",
                span.server,
                span.crash_at as f64 / 1e6,
                span.recovery_secs().unwrap_or(f64::NAN)
            ));
        }
        con.say(format_args!(
            "  consensus bill: {:.2}M messages, {:.1} MB on the wire, {:.2}M disk writes",
            report.net_messages as f64 / 1e6,
            report.net_bytes as f64 / 1e6,
            report.disk_writes as f64 / 1e6,
        ));
        let run = FaultRun {
            replicas: 5,
            profile,
            ebs: 30,
            report,
        };
        con.say(render_availability(
            "  per-crash availability decomposition",
            &[run],
        ));
    }
    rec.finish();
}
