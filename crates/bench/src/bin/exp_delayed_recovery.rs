//! Figure 8 + Tables 5–6 — two crashes, one autonomous and one delayed
//! (operator-triggered) recovery.
fn main() {
    bench::Section::main("exp_delayed_recovery");
}
