//! Figure 6 — recovery times vs state size (300/500/700 MB).
use bench::render::render_recovery_times;
use bench::{fig6_recovery_times, Cli};

fn main() {
    let cli = Cli::parse("exp_recovery_times", "--full --quiet --json");
    let mut rec = cli.recorder();
    let points = fig6_recovery_times(&cli);
    for p in &points {
        rec.row(
            &format!("{}r {:?} ebs={}", p.replicas, p.profile, p.ebs),
            &[
                ("replicas", p.replicas as f64),
                ("ebs", p.ebs as f64),
                ("recovery_secs", p.recovery_secs),
            ],
        );
    }
    rec.finish();
    cli.con.say(render_recovery_times(&points));
}
