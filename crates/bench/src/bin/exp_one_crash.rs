//! Figure 5 + Tables 1–2 — one crash, one autonomous recovery.
fn main() {
    bench::Section::main("exp_one_crash");
}
