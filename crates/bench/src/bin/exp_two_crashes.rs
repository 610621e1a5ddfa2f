//! Figure 7 + Tables 3–4 — two overlapped crashes, autonomous recoveries.
fn main() {
    bench::Section::main("exp_two_crashes");
}
