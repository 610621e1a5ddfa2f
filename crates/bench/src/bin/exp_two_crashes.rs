//! Figure 7 + Tables 3–4 — two overlapped crashes, autonomous recoveries.
fn main() {
    bench::crash_experiment(&bench::TWO_CRASHES);
}
