//! The `exp_trace` command line, run as a process.

use std::process::Command;

use obs::{TraceEvent, TraceRecord};

/// A window of zero µs is a usage error (exit 2, the flag named), not a
/// silent one-microsecond window: over a 100 s trace the timeline would
/// hold a hundred million windows.
#[test]
fn zero_window_is_a_usage_error() {
    let records = [
        TraceRecord {
            t_us: 0,
            node: 0,
            event: TraceEvent::QueueSample { depth: 1 },
        },
        TraceRecord {
            t_us: 1_000,
            node: 1,
            event: TraceEvent::PartitionHealed,
        },
    ];
    let path = std::env::temp_dir().join(format!("exp_trace_cli_{}.jsonl", std::process::id()));
    std::fs::write(&path, obs::jsonl::encode_all(&records)).expect("write the trace");
    let out = Command::new(env!("CARGO_BIN_EXE_exp_trace"))
        .arg("timeline")
        .arg(&path)
        .args(["--window-us", "0"])
        .output()
        .expect("run exp_trace");
    std::fs::remove_file(&path).expect("remove the trace");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--window-us"), "stderr: {stderr}");
}
