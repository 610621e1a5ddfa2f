//! Figure 5 + Tables 1–2 — one crash, one autonomous recovery.
fn main() {
    bench::crash_experiment(&bench::ONE_CRASH);
}
