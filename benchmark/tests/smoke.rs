//! Smoke test of the built harness in `--quick` mode: every workload,
//! both passes, through the same command line the driver uses. Quick
//! mode makes one rep, one set-up probe and a tenth of the probe
//! iterations, so its numbers mean nothing; what is checked is that
//! every declared metric is emitted, every output check passes and the
//! result line has the contract's shape.

use std::path::Path;
use std::process::Command;

fn run(workload: &str, trace: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_repo-benchmark"))
        .current_dir(root)
        .args(["--quick", "--workload", workload, "--seed", "5"])
        .args(["--seconds", "1", "--trace", trace])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().unwrap().to_string()
}

fn check(workload: &str, trace: &str, expect: &[&str]) {
    let line = run(workload, trace);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    for name in expect {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing: {line}"
        );
    }
}

/// One test, one workload after the other: every run writes
/// `benchmark/out/`, and tests of one binary run on parallel threads.
#[test]
fn every_workload_both_passes() {
    check(
        "browse_steady",
        "0",
        &["sim_awips", "host_s_per_sim_s", "setup_s"],
    );
    check(
        "browse_steady",
        "1",
        &["host_share.tpcw_store", "obs.blame_share.queueing"],
    );
    check(
        "order_sat_b8",
        "0",
        &["sim_updates_per_s", "host_allocs_per_sim_s"],
    );
    check(
        "order_sat_b8",
        "1",
        &["paxos.msgs_per_update.accepted", "core.updates_per_batch"],
    );
    check(
        "shop_2crash_b1",
        "0",
        &["sim_worst_second_pct", "sim_accuracy_pct"],
    );
    check(
        "shop_2crash_b1",
        "1",
        &["faultload.recovery_s", "core.recovery.log_replay_us"],
    );
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--frobnicate", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repo-benchmark"))
            .current_dir(root)
            .args(args)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
