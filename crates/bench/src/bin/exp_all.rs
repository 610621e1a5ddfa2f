//! Runs the complete evaluation (Figures 3–8, Tables 1–6) and writes a
//! markdown-ready report to `--out <path>` (default: stdout only).
use bench::{Cli, SECTIONS};

fn main() {
    let cli = Cli::parse("exp_all", "--full --quiet --json --out");
    let mut rec = cli.recorder();
    rec.say(format!("mode: {:?}\n", cli.mode));
    for section in &SECTIONS {
        section.report(&cli, &mut rec);
    }
    rec.finish();
}
