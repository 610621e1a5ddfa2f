//! Figure 3 — speedup experiments (saturated WIPS/WIRT vs replicas).
use bench::{fig3_speedup, render::render_speedup, Cli};
use tpcw::Profile;

fn main() {
    let cli = Cli::parse("exp_speedup", "--full --quiet --json");
    let mut rec = cli.recorder();
    for profile in Profile::ALL {
        let points = fig3_speedup(&cli, profile);
        for p in &points {
            rec.row(&format!("{profile:?} {}r", p.replicas), &p.fields());
        }
        cli.con.say(render_speedup(profile, &points));
    }
    rec.finish();
}
