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
        (env!("CARGO_BIN_EXE_exp_trace"), &["--gate"]),
        (env!("CARGO_BIN_EXE_exp_trace"), &["--jsonl", "x"]),
        (env!("CARGO_BIN_EXE_exp_trace"), &["--window-us", "5"]),
        (env!("CARGO_BIN_EXE_exp_trace"), &["breakdown", "t.jsonl"]),
    ];
    for (bin, args) in cases {
        assert_usage_error(bin, args, args[0]);
    }
}

/// A traced crash read back whole: `--check` passes, the page names
/// the crashed node, and the CSV starts with the timeline header. A
/// trace whose one run has no records fails the check. The run is
/// `ExperimentConfig::quick`'s 5 replicas with a 120 s interval: the
/// shortest that puts the crash (mid-interval, at 90 s) after the 60 s
/// of post-ramp-up baseline the ramp-back check compares against.
#[test]
fn check_passes_on_a_traced_crash_and_fails_on_an_empty_run() {
    let mut config = cluster::ExperimentConfig::quick(5, tpcw::Profile::Shopping);
    config.schedule = tpcw::Schedule::quick(120);
    config.faultload = bench::incident_faultload("crash", &config.schedule);
    config.trace = simnet::TraceConfig::on();
    let report = cluster::run_experiment(&config);
    let dir = env!("CARGO_TARGET_TMPDIR");
    let (trace, csv) = (format!("{dir}/crash.jsonl"), format!("{dir}/crash.csv"));
    let header = obs::jsonl::encode_run_header("crash");
    let text = format!("{header}\n{}", obs::jsonl::encode_all(&report.trace));
    std::fs::write(&trace, text).expect("write the trace");
    let exp_trace = env!("CARGO_BIN_EXE_exp_trace");
    let out = Command::new(exp_trace)
        .args([trace.as_str(), "--check", "--csv", csv.as_str()])
        .output()
        .expect("run exp_trace");
    let page = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{page}{stderr}");
    let victim = report.spans[0].server;
    assert!(
        page.contains(&format!("node {victim} crashed at")),
        "{page}"
    );
    let rows = std::fs::read_to_string(&csv).expect("read the CSV");
    assert!(rows.starts_with(obs::Timeline::csv_header()), "{rows}");

    std::fs::write(&trace, "{\"run\":\"x\"}\n").expect("write the trace");
    let out = Command::new(exp_trace)
        .args([trace.as_str(), "--check"])
        .output();
    assert_eq!(out.expect("run exp_trace").status.code(), Some(1));
}
