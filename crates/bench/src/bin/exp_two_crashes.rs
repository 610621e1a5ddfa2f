//! Figure 7 + Tables 3–4 — two overlapped crashes, autonomous recoveries.
use bench::render::render_performability;
use faultload::Faultload;

fn main() {
    bench::crash_experiment(
        "exp_two_crashes",
        &Faultload::double_crash(),
        render_performability,
        [
            "Table 3 — two overlapped crashes: performability",
            "Table 4 — two overlapped crashes: accuracy (%)",
            "Two crashes: availability/autonomy",
            "Two crashes: availability decomposition",
            "Two crashes: failure-detector quality",
        ],
    );
}
