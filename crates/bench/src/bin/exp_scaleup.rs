//! Figure 4 — scaleup at 1000 WIPS offered (+ regression/correlation).
use bench::{fig4_scaleup, render::render_scaleup, Cli};
use tpcw::Profile;

fn main() {
    let cli = Cli::parse("exp_scaleup", "--full --quiet --json");
    let mut rec = cli.recorder();
    for profile in Profile::ALL {
        let result = fig4_scaleup(&cli, profile);
        for p in &result.points {
            let mut fields = p.fields();
            fields.extend([("fit_intercept", result.fit.0), ("fit_slope", result.fit.1)]);
            rec.row(&format!("{profile:?} {}r", p.replicas), &fields);
        }
        cli.con.say(render_scaleup(profile, &result));
    }
    rec.finish();
}
