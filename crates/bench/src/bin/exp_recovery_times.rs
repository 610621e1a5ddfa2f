//! Figure 6 — recovery times vs state size (300/500/700 MB).
fn main() {
    bench::Section::main("exp_recovery_times");
}
