//! Figure 4 — scaleup at 1000 WIPS offered (+ regression/correlation).
fn main() {
    bench::Section::main("exp_scaleup");
}
