//! Windowed availability timelines and availability reports.
//!
//! The paper's headline evidence is a *curve*, not an aggregate: WIPS
//! sampled in short windows across a faultload run, showing the dip at
//! the crash, the failover plateau, and the recovery ramp (PAPER.md
//! §5, Figs. 4–8). This module reduces a
//! [`TraceRecord`](crate::TraceRecord) stream into exactly that
//! curve — per-window interaction throughput, committed
//! updates, commit-latency quantiles, queue depth, disk and network
//! activity — with fault/recovery markers aligned to window boundaries,
//! and derives an [`AvailabilityReport`] per crash (time to detect,
//! time to failover, degraded-window length, dip depth, ramp time back
//! to 95 % of the pre-crash baseline).
//!
//! Everything here is integer bucketing over already-deterministic
//! traces, so the same `(seed, config)` pair renders byte-identical
//! CSV output.

#![expect(
    clippy::indexing_slicing,
    reason = "windows and markers are indexed by positions computed from their own lengths; this module is a trace reducer, off the replica path"
)]

use std::collections::BTreeMap;

use crate::event::TraceEvent;
use crate::metrics::Hist;
use crate::store::TraceStore;

/// A window is *degraded* when its WIPS drops below this fraction of
/// baseline (the paper's 95 % ramp-back criterion, inverted).
const DEGRADED_FRAC: f64 = 0.95;

/// Failover is reached at the first window back above this fraction of
/// baseline (service is limping but answering again).
const FAILOVER_FRAC: f64 = 0.5;

/// Degradation must begin within this many windows after the crash to
/// be attributed to it.
const GRACE_WINDOWS: usize = 2;

/// Tuning knobs for windowing and availability detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineConfig {
    /// Window length in µs (default 5 s — fine enough to see a crash
    /// dip on a quick run, coarse enough to smooth think-time noise).
    pub window_us: u64,
    /// How many pre-crash windows form the WIPS baseline mean.
    pub baseline_windows: usize,
}

impl Default for TimelineConfig {
    fn default() -> Self {
        TimelineConfig {
            window_us: 5_000_000,
            baseline_windows: 12,
        }
    }
}

/// A fault or recovery event snapped to its containing window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Marker {
    /// Event time, µs.
    pub t_us: u64,
    /// Node the event belongs to.
    pub node: u32,
    /// The event's canonical kind tag (`"crash"`, `"restart"`, …).
    pub kind: &'static str,
    /// Index of the window containing `t_us`.
    pub window: usize,
}

/// One window's aggregated series values.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Window start, µs.
    pub start_us: u64,
    /// Successful client interactions completed in the window.
    pub ok: u64,
    /// Failed client interactions in the window.
    pub err: u64,
    /// Updates committed (applied on their submitter) in the window.
    pub committed: u64,
    /// Submit-to-apply latencies of those commits.
    pub latency: Hist,
    /// Largest sampled work-queue depth across all servers.
    pub queue_depth_max: u64,
    /// Stable-log appends issued in the window.
    pub disk_appends: u64,
    /// Network messages sent in the window (differenced samples).
    pub net_messages: u64,
    /// Network payload bytes carried in the window.
    pub net_bytes: u64,
}

impl Window {
    /// Web interactions per second over the window.
    pub fn wips(&self, window_us: u64) -> f64 {
        per_second(self.ok, window_us)
    }

    /// Failed interactions per second over the window.
    pub fn errors_per_s(&self, window_us: u64) -> f64 {
        per_second(self.err, window_us)
    }

    /// Committed updates per second over the window.
    pub fn committed_per_s(&self, window_us: u64) -> f64 {
        per_second(self.committed, window_us)
    }
}

fn per_second(count: u64, window_us: u64) -> f64 {
    if window_us == 0 {
        0.0
    } else {
        count as f64 * 1_000_000.0 / window_us as f64
    }
}

/// A whole run reduced to per-window series plus event markers.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Window length, µs.
    pub window_us: u64,
    /// The windows, index 0 starting at t = 0.
    pub windows: Vec<Window>,
    /// Fault/recovery markers in trace order.
    pub markers: Vec<Marker>,
    /// Dominant critical-path phase per window, when a span profile was
    /// attached (see [`crate::spans::SpanProfile::dominant_phases`]).
    pub dominant_phase: Vec<Option<&'static str>>,
}

impl Timeline {
    /// `n` empty windows of `window_us`, with the raw `(t_us, node,
    /// kind)` events snapped to their containing window as markers.
    fn blank(window_us: u64, n: usize, events: &[(u64, u32, &'static str)]) -> Timeline {
        let window = |w: usize| Window {
            start_us: w as u64 * window_us,
            ..Window::default()
        };
        let marker = |&(t_us, node, kind): &(u64, u32, &'static str)| Marker {
            t_us,
            node,
            kind,
            window: ((t_us / window_us) as usize).min(n - 1),
        };
        Timeline {
            window_us,
            windows: (0..n).map(window).collect(),
            markers: events.iter().map(marker).collect(),
            dominant_phase: vec![None; n],
        }
    }

    /// Windows the run's load and resource samples into `window_us`
    /// windows and snaps the store's fault markers to their windows.
    pub fn from_store(store: &TraceStore, window_us: u64) -> Timeline {
        let records = store.records;
        let window_us = window_us.max(1);
        // The run extends to the latest stamp we can see; a client
        // sample describes a whole second, which may end after the
        // record that reported it.
        let mut end_us = 0u64;
        for rec in records {
            end_us = end_us.max(rec.t_us);
            if let TraceEvent::ClientSample { sec, .. } = rec.event {
                end_us = end_us.max((sec + 1) * 1_000_000);
            }
        }
        let n = (end_us / window_us) as usize + 1;
        let mut tl = Timeline::blank(window_us, n, &store.markers);
        // Per-node last cumulative network sample, for differencing.
        let mut net_prev: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for rec in records {
            let w = ((rec.t_us / window_us) as usize).min(n - 1);
            match rec.event {
                TraceEvent::ClientSample { sec, ok, err } => {
                    // The sample names its second explicitly, so counts
                    // land in the right window no matter when the
                    // client got around to emitting them.
                    let sw = (((sec * 1_000_000) / window_us) as usize).min(n - 1);
                    tl.windows[sw].ok += ok;
                    tl.windows[sw].err += err;
                }
                // Every replica applies every update; count each once,
                // on its submitter.
                TraceEvent::UpdateDelivered {
                    submitter,
                    latency_us,
                    ..
                } if submitter == rec.node => {
                    tl.windows[w].committed += 1;
                    if latency_us > 0 {
                        tl.windows[w].latency.observe(latency_us);
                    }
                }
                TraceEvent::QueueSample { depth } => {
                    tl.windows[w].queue_depth_max = tl.windows[w].queue_depth_max.max(depth);
                }
                TraceEvent::LogAppend { .. } => {
                    tl.windows[w].disk_appends += 1;
                }
                TraceEvent::NetSample { messages, bytes } => {
                    let (pm, pb) = net_prev
                        .insert(rec.node, (messages, bytes))
                        .unwrap_or((0, 0));
                    tl.windows[w].net_messages += messages.saturating_sub(pm);
                    tl.windows[w].net_bytes += bytes.saturating_sub(pb);
                }
                _ => {}
            }
        }
        tl
    }

    /// Builds a timeline from per-second ok/error series (as produced
    /// by the untraced experiment recorder) plus raw `(t_us, node,
    /// kind)` fault markers. Only the interaction columns are
    /// populated; commit/disk/net series stay zero.
    pub fn from_series(
        ok: &[u32],
        err: &[u32],
        window_us: u64,
        markers: &[(u64, u32, &'static str)],
    ) -> Timeline {
        let window_us = window_us.max(1);
        let mut end_us = (ok.len().max(err.len()) as u64) * 1_000_000;
        for (t, _, _) in markers {
            end_us = end_us.max(*t);
        }
        let n = (end_us.saturating_sub(1) / window_us) as usize + 1;
        let mut tl = Timeline::blank(window_us, n, markers);
        for (sec, count) in ok.iter().enumerate() {
            let w = (((sec as u64) * 1_000_000 / window_us) as usize).min(n - 1);
            tl.windows[w].ok += *count as u64;
        }
        for (sec, count) in err.iter().enumerate() {
            let w = (((sec as u64) * 1_000_000 / window_us) as usize).min(n - 1);
            tl.windows[w].err += *count as u64;
        }
        tl
    }

    /// The CSV header matching [`Timeline::csv_rows`].
    pub fn csv_header() -> &'static str {
        "run,window,start_s,wips,errors_per_s,committed_per_s,\
         commit_p50_ms,commit_p95_ms,commit_p99_ms,queue_depth_max,\
         disk_appends,net_messages,net_bytes,dominant_phase,events"
    }

    /// Renders the windows as CSV rows (no header), one per window,
    /// labelled with `run`. Floats use fixed decimals so same-seed
    /// output is byte-identical and diffs stay readable.
    pub fn csv_rows(&self, run: &str) -> String {
        let mut out = String::new();
        let run = csv_field(run);
        for (w, win) in self.windows.iter().enumerate() {
            let events = self.window_events(w);
            out.push_str(&format!(
                "{run},{w},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                fixed(win.start_us as f64 / 1_000_000.0, 2),
                fixed(win.wips(self.window_us), 2),
                fixed(win.errors_per_s(self.window_us), 2),
                fixed(win.committed_per_s(self.window_us), 2),
                fixed(win.latency.quantile(0.5) as f64 / 1_000.0, 3),
                fixed(win.latency.quantile(0.95) as f64 / 1_000.0, 3),
                fixed(win.latency.quantile(0.99) as f64 / 1_000.0, 3),
                win.queue_depth_max,
                win.disk_appends,
                win.net_messages,
                win.net_bytes,
                self.dominant_phase.get(w).copied().flatten().unwrap_or(""),
                events,
            ));
        }
        out
    }

    /// Semicolon-joined `kind:node` markers inside window `w`.
    fn window_events(&self, w: usize) -> String {
        let tags: Vec<String> = self
            .markers
            .iter()
            .filter(|m| m.window == w)
            .map(|m| format!("{}:{}", m.kind, m.node))
            .collect();
        tags.join(";")
    }
}

/// Fixed-decimal float formatting (deterministic, diff-friendly).
fn fixed(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Quotes a CSV field only when it needs it.
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Availability decomposition of one crash incident, derived from the
/// WIPS curve (the paper's Table/Figure view of a faultload).
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityReport {
    /// The crashed node.
    pub node: u32,
    /// Crash time, µs.
    pub crash_at_us: u64,
    /// Window containing the crash.
    pub crash_window: usize,
    /// Mean WIPS over the pre-crash baseline windows.
    pub baseline_wips: f64,
    /// Crash → the victim's restart marker (the watchdog delay).
    pub time_to_detect_us: Option<u64>,
    /// Crash → end of the first window back above the failover
    /// fraction of baseline (service answering again, even degraded).
    pub time_to_failover_us: Option<u64>,
    /// First degraded window (inclusive), when any window degraded.
    pub degraded_from: Option<usize>,
    /// One past the last degraded window.
    pub degraded_until: Option<usize>,
    /// Length of the degraded stretch, µs (0 when none).
    pub degraded_us: u64,
    /// Deepest WIPS dip during the degraded stretch, as a percentage
    /// of baseline lost (100 = total outage, 0 = no dip).
    pub wips_dip_pct: f64,
    /// Crash → start of the first window back at ≥ `DEGRADED_FRAC` of
    /// baseline. `None` when the run never degraded or never ramped
    /// back inside the trace.
    pub ramp_to_95pct_us: Option<u64>,
}

impl AvailabilityReport {
    /// Whether the degraded stretch brackets the crash: degradation
    /// begins in (or within grace of) the crash window and ends after
    /// it.
    pub fn brackets_crash(&self) -> bool {
        match (self.degraded_from, self.degraded_until) {
            (Some(from), Some(until)) => from >= self.crash_window && until > self.crash_window,
            _ => false,
        }
    }
}

/// Derives one [`AvailabilityReport`] per marker whose kind is in
/// `kinds` — the incident anchors the baseline/degradation analysis.
/// `&["crash"]` gives one report per crash; other useful anchors are
/// `"reconfig_proposed"` (the operator submits a membership change) and
/// `"epoch_change"` (the fence delivers). Note several replicas trace the same epoch change,
/// one marker each; callers wanting one report per incident should
/// keep the first report per anchor window.
pub fn availability_reports(
    tl: &Timeline,
    cfg: &TimelineConfig,
    kinds: &[&str],
) -> Vec<AvailabilityReport> {
    let n = tl.windows.len();
    let wips: Vec<f64> = tl.windows.iter().map(|w| w.wips(tl.window_us)).collect();
    let mut out = Vec::new();
    for (mi, marker) in tl.markers.iter().enumerate() {
        if !kinds.contains(&marker.kind) {
            continue;
        }
        let cw = marker.window;
        // Baseline: mean WIPS over the windows before the crash window
        // (bounded lookback). A crash in window 0 has no history; fall
        // back to the crash window itself.
        let lo = cw.saturating_sub(cfg.baseline_windows);
        let baseline = if cw > lo {
            wips[lo..cw].iter().sum::<f64>() / (cw - lo) as f64
        } else {
            wips[cw]
        };
        let degraded_threshold = DEGRADED_FRAC * baseline;
        // Find the degraded stretch: first window at/after the crash
        // (within grace) below threshold, extended while still below.
        let from = (cw..n.min(cw + GRACE_WINDOWS + 1)).find(|&w| wips[w] < degraded_threshold);
        let until = from.map(|f| {
            let mut u = f;
            while u < n && wips[u] < degraded_threshold {
                u += 1;
            }
            u
        });
        let degraded_us = match (from, until) {
            (Some(f), Some(u)) => (u - f) as u64 * tl.window_us,
            _ => 0,
        };
        // Ramp-back: the start of the first window back at >= the
        // degraded threshold. None when degradation runs off the end.
        let ramp = match (from, until) {
            (Some(_), Some(u)) if u < n => {
                Some((u as u64 * tl.window_us).saturating_sub(marker.t_us))
            }
            _ => None,
        };
        let dip = match (from, until) {
            (Some(f), Some(u)) if baseline > 0.0 && u > f => {
                let min = wips[f..u].iter().copied().fold(f64::INFINITY, f64::min);
                100.0 * (1.0 - min / baseline)
            }
            _ => 0.0,
        };
        // Failover: first window (from the degradation start, else the
        // crash window) whose WIPS is back above the failover fraction;
        // the service has failed over once that window *ends*.
        let failover_threshold = FAILOVER_FRAC * baseline;
        let time_to_failover = (from.unwrap_or(cw)..n)
            .find(|w| wips[*w] >= failover_threshold)
            .map(|w| ((w as u64 + 1) * tl.window_us).saturating_sub(marker.t_us));
        // Detection: the victim's next restart marker.
        let time_to_detect = tl.markers[mi..]
            .iter()
            .find(|m| m.kind == "restart" && m.node == marker.node && m.t_us >= marker.t_us)
            .map(|m| m.t_us - marker.t_us);
        out.push(AvailabilityReport {
            node: marker.node,
            crash_at_us: marker.t_us,
            crash_window: cw,
            baseline_wips: baseline,
            time_to_detect_us: time_to_detect,
            time_to_failover_us: time_to_failover,
            degraded_from: from,
            degraded_until: until,
            degraded_us,
            wips_dip_pct: dip,
            ramp_to_95pct_us: ramp,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceRecord;
    use crate::testkit::*;

    fn timeline(records: &[TraceRecord]) -> Timeline {
        Timeline::from_store(&TraceStore::build(records), 5_000_000)
    }

    fn sample(sec: u64, ok: u64) -> TraceRecord {
        rec(
            (sec + 1) * 1_000_000,
            9,
            TraceEvent::ClientSample { sec, ok, err: 0 },
        )
    }

    #[test]
    fn outage_produces_empty_windows() {
        // Traffic for 5 s, total outage for 10 s, traffic again: the
        // outage windows must exist and read zero, not be skipped.
        let mut records: Vec<TraceRecord> = (0..5).map(|s| sample(s, 10)).collect();
        records.extend((15..20).map(|s| sample(s, 10)));
        let tl = timeline(&records);
        assert_eq!(tl.windows.len(), 5);
        assert_eq!(tl.windows[0].ok, 50);
        assert_eq!(tl.windows[1].ok, 0, "outage window present and empty");
        assert_eq!(tl.windows[2].ok, 0);
        assert_eq!(tl.windows[3].ok, 50);
        assert_eq!(tl.windows[1].wips(tl.window_us), 0.0);
    }

    #[test]
    fn run_shorter_than_one_window() {
        let records = vec![sample(0, 7), appended(800_000, 0)];
        let tl = timeline(&records);
        assert_eq!(tl.windows.len(), 1);
        assert_eq!(tl.windows[0].ok, 7);
        assert_eq!(tl.windows[0].disk_appends, 1);
        // Rates still normalise by the full window length.
        assert!((tl.windows[0].wips(tl.window_us) - 1.4).abs() < 1e-9);
    }

    #[test]
    fn crash_exactly_on_window_boundary() {
        // Baseline 10 wips for 10 s, crash at exactly t = 10 s (the
        // first µs of window 2), outage for 5 s, recovery after.
        let mut records: Vec<TraceRecord> = (0..10).map(|s| sample(s, 10)).collect();
        records.push(crash(10_000_000, 0));
        records.push(restart(12_000_000, 0));
        records.extend((15..20).map(|s| sample(s, 10)));
        let tl = timeline(&records);
        let marker = tl.markers.iter().find(|m| m.kind == "crash").unwrap();
        assert_eq!(
            marker.window, 2,
            "boundary crash lands in the window it starts"
        );

        let reports = availability_reports(&tl, &TimelineConfig::default(), &["crash"]);
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.crash_window, 2);
        assert!((r.baseline_wips - 10.0).abs() < 1e-9);
        assert_eq!(r.degraded_from, Some(2));
        assert_eq!(r.degraded_until, Some(3));
        assert!(r.brackets_crash());
        assert_eq!(r.degraded_us, 5_000_000);
        assert_eq!(r.time_to_detect_us, Some(2_000_000));
        // Ramp: window 3 (15 s) is back at baseline; crash was at 10 s.
        assert_eq!(r.ramp_to_95pct_us, Some(5_000_000));
        // Failover: window 3 is the first back above 50 % of baseline,
        // complete at 20 s.
        assert_eq!(r.time_to_failover_us, Some(10_000_000));
        assert!((r.wips_dip_pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn degradation_running_off_the_end_has_no_ramp() {
        let mut records: Vec<TraceRecord> = (0..10).map(|s| sample(s, 10)).collect();
        records.push(crash(10_500_000, 1));
        // Trace ends while still degraded (a lone empty-window tail).
        records.push(rec(14_000_000, 1, TraceEvent::QueueSample { depth: 3 }));
        let tl = timeline(&records);
        let reports = availability_reports(&tl, &TimelineConfig::default(), &["crash"]);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].ramp_to_95pct_us, None);
        assert_eq!(reports[0].time_to_failover_us, None);
        assert!(reports[0].degraded_us > 0);
    }

    #[test]
    fn commit_and_resource_columns_aggregate() {
        let records = vec![
            delivered(1_000, 0, 1, 0, 400),
            // Remote application of the same update: not re-counted.
            delivered_for(1_200, 1, 1, 0, 0, 0),
            rec(2_000, 0, TraceEvent::QueueSample { depth: 4 }),
            rec(2_500, 0, TraceEvent::QueueSample { depth: 2 }),
            rec(
                3_000,
                2,
                TraceEvent::NetSample {
                    messages: 100,
                    bytes: 5_000,
                },
            ),
            rec(
                4_000,
                2,
                TraceEvent::NetSample {
                    messages: 160,
                    bytes: 9_000,
                },
            ),
        ];
        let tl = timeline(&records);
        let w = &tl.windows[0];
        assert_eq!(w.committed, 1);
        assert_eq!(w.latency.count(), 1);
        assert_eq!(w.queue_depth_max, 4);
        // First sample seeds the cumulative counter, second differences.
        assert_eq!(w.net_messages, 160);
        assert_eq!(w.net_bytes, 9_000);
    }

    #[test]
    fn from_series_matches_from_records_interactions() {
        let ok: Vec<u32> = (0..20)
            .map(|s| if (5..15).contains(&s) { 0 } else { 10 })
            .collect();
        let err = vec![0u32; 20];
        let tl = Timeline::from_series(&ok, &err, 5_000_000, &[(7_000_000, 0, "crash")]);
        assert_eq!(tl.windows.len(), 4);
        assert_eq!(tl.windows[0].ok, 50);
        assert_eq!(tl.windows[1].ok, 0);
        assert_eq!(tl.markers.len(), 1);
        assert_eq!(tl.markers[0].window, 1);
        let reports = availability_reports(&tl, &TimelineConfig::default(), &["crash"]);
        assert_eq!(reports.len(), 1);
        assert!(reports[0].ramp_to_95pct_us.is_some());
    }

    #[test]
    fn alert_lifecycle_events_become_markers() {
        let records = vec![
            sample(0, 3),
            crash(500_000, 0),
            rec(
                2_000_000,
                5,
                TraceEvent::AlertPending {
                    rule: "replica_down",
                    subject: 0,
                },
            ),
            rec(
                3_000_000,
                5,
                TraceEvent::AlertFiring {
                    rule: "replica_down",
                    subject: 0,
                    pending_us: 1_000_000,
                },
            ),
            rec(
                9_000_000,
                5,
                TraceEvent::AlertResolved {
                    rule: "replica_down",
                    subject: 0,
                    firing_us: 6_000_000,
                },
            ),
        ];
        let tl = timeline(&records);
        let kinds: Vec<&str> = tl.markers.iter().map(|m| m.kind).collect();
        // Firing and resolve land next to the crash; pending stays out.
        assert_eq!(kinds, ["crash", "alert_firing", "alert_resolved"]);
        assert!(tl.window_events(0).contains("alert_firing:5"));
    }

    #[test]
    fn csv_and_jsonl_are_stable() {
        let records = vec![sample(0, 3), crash(500_000, 0)];
        let tl = timeline(&records);
        let csv = tl.csv_rows("run A");
        assert_eq!(
            csv,
            "run A,0,0.00,0.60,0.00,0.00,0.000,0.000,0.000,0,0,0,0,,crash:0\n"
        );
        // Labels with commas stay one CSV field.
        assert!(tl.csv_rows("a,b").starts_with("\"a,b\","));
        assert_eq!(Timeline::csv_header().split(',').count(), 15);
        assert_eq!(csv.trim_end().split(',').count(), 15);
    }
}
