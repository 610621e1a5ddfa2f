//! Figure 3 — speedup experiments (saturated WIPS/WIRT vs replicas).
fn main() {
    bench::Section::main("exp_speedup");
}
