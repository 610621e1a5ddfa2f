//! Figure 5 + Tables 1–2 — one crash, one autonomous recovery.
use bench::render::render_performability;
use faultload::Faultload;

fn main() {
    bench::crash_experiment(
        "exp_one_crash",
        &Faultload::single_crash(),
        render_performability,
        [
            "Table 1 — one failure: performability",
            "Table 2 — one failure: accuracy (%)",
            "One failure: availability/autonomy",
            "One failure: availability decomposition",
            "One failure: failure-detector quality",
        ],
    );
}
