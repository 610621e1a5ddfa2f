//! Shared by the scenario suites: what a run of the testbed shows of
//! itself.

use cluster::RunReport;

/// A fingerprint of everything the workload can observe. If a same-seed
/// rerun diverged, or an observer such as the tracer perturbed the run,
/// at least one of these differs.
pub fn fingerprint(report: &RunReport) -> String {
    format!(
        "awips={:x} wirt={:x} net={}:{} disk={}:{} status={:?} spans={:?} \
         wips={:?} audit={:?} reconfigs={:?}",
        report.awips.to_bits(),
        report.mean_wirt_ms.to_bits(),
        report.net_messages,
        report.net_bytes,
        report.disk_writes,
        report.disk_appends,
        report.server_status,
        report.spans,
        report.recorder.wips_series(),
        report.audit,
        report.reconfigs,
    )
}
