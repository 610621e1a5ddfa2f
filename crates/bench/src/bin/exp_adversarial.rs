//! Beyond the paper — adversarial faultloads under the invariant auditor.
//!
//! The paper's faultload is limited to crashes and reboots (§5.1); this
//! experiment subjects the same testbed to the failure modes a LAN and a
//! commodity disk actually exhibit — message loss, duplication and
//! reordering, partition flaps, failed fsyncs with torn log tails — and
//! reports the dependability measures next to the auditor's verdict.
//! Every run asserts zero consensus-invariant violations before
//! returning, so the numbers below are from runs whose agreement,
//! durability ordering and mode discipline were checked end to end.

use bench::render::render_fd_quality;
use bench::{base_config, Cli, FaultRun, Mode};
use cluster::run_experiment;
use faultload::Faultload;
use simnet::LinkFault;
use tpcw::Profile;

fn main() {
    let cli = Cli::parse("exp_adversarial", "--full --quiet --json --trace");
    let (con, mode) = (cli.con, cli.mode);
    let mut seeds = vec![42u64];
    if let Mode::Full = mode {
        seeds.extend(43..52);
    }

    let base = base_config(&cli, 5, Profile::Shopping);
    let total = base.schedule.total_us();
    let measure = base.schedule.measure_start_us();
    let named: Vec<(&str, Faultload)> = vec![
        (
            "lossy links ",
            Faultload::lossy_links(
                0,
                total,
                LinkFault {
                    loss: 0.02,
                    duplicate: 0.01,
                    reorder: 0.10,
                },
            ),
        ),
        (
            "part. flaps ",
            Faultload::partition_flap(measure, 3, total / 20, total / 20, vec![1, 3]),
        ),
        (
            "faulty disk ",
            Faultload::faulty_disk(measure, total, 0, 0.001),
        ),
        ("adversarial ", Faultload::adversarial_mix(total * 3 / 4)),
    ];

    let mut rec = cli.recorder();
    let mut runs: Vec<FaultRun> = Vec::new();
    con.say(format_args!(
        "Adversarial faultloads, 5 replicas, shopping mix ({mode:?} schedule):"
    ));
    for (name, faultload) in named {
        for &seed in &seeds {
            let mut config = base.clone();
            config.seed = seed;
            config.faultload = faultload.clone();
            let report = run_experiment(&config);
            let label = format!("{} seed {seed}", name.trim());
            rec.record(&label, &report, &[("seed", seed as f64)]);
            let d = &report.dependability;
            con.say(format_args!(
                "{name} seed {seed:3}: AWIPS {:7.1}  avail {:.5}  acc {:6.3}%  \
                 spans {}  audit: {} checks, {} violations",
                report.awips,
                d.availability,
                d.accuracy_percent,
                report.spans.len(),
                report.audit.checks,
                report.audit.total_violations,
            ));
            runs.push(FaultRun {
                replicas: 5,
                profile: Profile::Shopping,
                ebs: config.ebs,
                report,
            });
        }
    }
    con.say(render_fd_quality(
        "Adversarial faultloads: failure-detector quality",
        &runs,
    ));
    rec.finish();
}
