//! Figure 8 + Tables 5–6 — two crashes, one autonomous and one delayed
//! (operator-triggered) recovery.
use bench::render::render_performability_delayed;
use faultload::Faultload;

fn main() {
    bench::crash_experiment(
        "exp_delayed_recovery",
        &Faultload::double_crash_delayed(),
        render_performability_delayed,
        [
            "Table 5 — delayed recovery: performability",
            "Table 6 — delayed recovery: accuracy (%)",
            "Delayed recovery: availability/autonomy",
            "Delayed recovery: availability decomposition",
            "Delayed recovery: failure-detector quality",
        ],
    );
}
