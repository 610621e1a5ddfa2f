//! The command lines of the `exp_*` binaries, run as processes.

use std::process::Command;

/// Runs `bin` with `args` and asserts a usage error: exit 2, with
/// `flag` named on stderr.
fn assert_usage_error(bin: &str, args: &[&str], flag: &str) {
    let out = Command::new(bin).args(args).output();
    let out = out.expect("run the binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(flag), "{bin} {args:?}: {stderr}");
}

/// A flag no binary knows, a flag this binary does not act on and a
/// flag missing its value each exit 2 before the first run starts.
#[test]
fn a_flag_the_binary_would_ignore_exits_2() {
    let cases: &[(&str, &[&str])] = &[
        (env!("CARGO_BIN_EXE_exp_speedup"), &["--trace", "t.jsonl"]),
        (env!("CARGO_BIN_EXE_exp_scaleup"), &["--trace", "t.jsonl"]),
        (
            env!("CARGO_BIN_EXE_exp_recovery_times"),
            &["--csv", "x.csv"],
        ),
        (
            env!("CARGO_BIN_EXE_exp_one_crash"),
            &["--scenarios", "crash"],
        ),
        (env!("CARGO_BIN_EXE_exp_two_crashes"), &["--out", "r.md"]),
        (
            env!("CARGO_BIN_EXE_exp_delayed_recovery"),
            &["--csv", "x.csv"],
        ),
        (
            env!("CARGO_BIN_EXE_exp_adversarial"),
            &["--scenarios", "crash"],
        ),
        (env!("CARGO_BIN_EXE_exp_availability"), &["--csv", "x.csv"]),
        (env!("CARGO_BIN_EXE_exp_batching"), &["--csv", "x.csv"]),
        (env!("CARGO_BIN_EXE_exp_ablation"), &["--out", "r.md"]),
        (env!("CARGO_BIN_EXE_exp_reconfig"), &["--out", "r.md"]),
        (env!("CARGO_BIN_EXE_exp_monitor"), &["--scenarios", "crash"]),
        (env!("CARGO_BIN_EXE_exp_all"), &["--trace", "t.jsonl"]),
        (env!("CARGO_BIN_EXE_exp_all"), &["--out"]),
        (env!("CARGO_BIN_EXE_exp_batching"), &["--ful", "--quiet"]),
    ];
    for (bin, args) in cases {
        assert_usage_error(bin, args, args[0]);
    }
}

/// A window of zero µs is a usage error (exit 2, the flag named), not a
/// silent one-microsecond window: over a 100 s trace the timeline would
/// hold a hundred million windows. Flags are checked before the trace
/// is read, so none is needed.
#[test]
fn zero_window_is_a_usage_error() {
    let args = ["timeline", "absent.jsonl", "--window-us", "0"];
    assert_usage_error(env!("CARGO_BIN_EXE_exp_trace"), &args, "--window-us");
}
