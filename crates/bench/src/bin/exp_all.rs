//! Runs the complete evaluation (Figures 3–8, Tables 1–6) and writes a
//! markdown-ready report to `--out <path>` (default: stdout only).
use bench::render::{render_recovery_times, render_scaleup, render_speedup};
use bench::{
    crash_section, fig3_speedup, fig4_scaleup, fig6_recovery_times, Cli, CrashExperiment, Recorder,
    DELAYED_RECOVERY, ONE_CRASH, TWO_CRASHES,
};
use tpcw::Profile;

fn main() {
    let cli = Cli::parse("exp_all", "--full --quiet --json --out");
    let mut rec = cli.recorder();

    rec.say(format!("mode: {:?}\n", cli.mode));
    rec.say("== Figure 3: speedup ==".into());
    for profile in Profile::ALL {
        let points = fig3_speedup(&cli, profile);
        for p in &points {
            rec.row(&format!("fig3 {profile:?} {}r", p.replicas), &p.fields());
        }
        rec.say(render_speedup(profile, &points));
    }
    rec.say("== Figure 4: scaleup ==".into());
    for profile in Profile::ALL {
        let result = fig4_scaleup(&cli, profile);
        rec.say(render_scaleup(profile, &result));
    }

    section(&cli, &mut rec, &ONE_CRASH);
    rec.say("== Recovery times (Fig 6) ==".into());
    rec.say(render_recovery_times(&fig6_recovery_times(&cli)));
    section(&cli, &mut rec, &TWO_CRASHES);
    section(&cli, &mut rec, &DELAYED_RECOVERY);
    rec.finish();
}

/// One dependability section of the report: its heading, then
/// [`crash_section`]'s histograms and first three tables.
fn section(cli: &Cli, rec: &mut Recorder, exp: &CrashExperiment) {
    rec.say(exp.heading.into());
    for block in crash_section(cli, rec, exp, exp.prefix, 3) {
        rec.say(block);
    }
}
