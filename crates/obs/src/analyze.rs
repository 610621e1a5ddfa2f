//! Trace analysis over a [`TraceStore`]: commit-latency aggregation and
//! failure-detector scoring, plus [`recovery_breakdowns`], the store's
//! per-crash [`Incident`] rows (the paper's recovery decomposition:
//! detection, re-election, checkpoint load ∥ log replay, backlog) built
//! straight from a record stream. All durations come from the records'
//! sim-time stamps, so the analyzer needs nothing but the JSONL file.

use crate::event::TraceRecord;
use crate::metrics::Hist;
use crate::store::{Incident, TraceStore};

/// Every crash incident of `records` (one run's trace, in engine
/// order), in trace order: [`TraceStore::incidents`] without the rest of
/// the store.
pub fn recovery_breakdowns(records: &[TraceRecord]) -> Vec<Incident> {
    TraceStore::build(records).incidents
}

/// Commit-latency aggregation of one run.
#[derive(Debug, Clone, Default)]
pub struct LatencySummary {
    /// Submit-to-apply latency of locally submitted updates.
    pub commit_latency: Hist,
    /// Total updates applied (including remote ones with no latency).
    pub updates_delivered: u64,
    /// Group-commit batches flushed.
    pub batches: u64,
    /// Updates carried by those batches.
    pub batched_updates: u64,
    /// Stable-log appends issued.
    pub log_appends: u64,
}

impl LatencySummary {
    /// Updates per consensus-log append — the batching win. 0 when no
    /// appends were traced.
    pub fn coalescing_ratio(&self) -> f64 {
        if self.log_appends == 0 {
            0.0
        } else {
            self.updates_delivered as f64 / self.log_appends as f64
        }
    }
}

impl TraceStore<'_> {
    /// Commit latency and group-commit coalescing of the run.
    pub fn latency_summary(&self) -> LatencySummary {
        let mut s = LatencySummary {
            updates_delivered: self.updates_delivered,
            ..LatencySummary::default()
        };
        for d in &self.deliveries {
            s.commit_latency.observe(d.latency_us);
        }
        for (_, _, updates) in self.flushes.values().flatten() {
            s.batches += 1;
            s.batched_updates += updates;
        }
        s.log_appends = self.appends.values().map(|v| v.len() as u64).sum();
        s
    }
}

/// Failure-detector quality over one run: how fast real crashes were
/// detected, and how often live peers were wrongly suspected — the
/// completeness/accuracy trade the timeout encodes. The crashes
/// themselves, with who suspected each and when, are the store's
/// [`Incident`] rows.
#[derive(Debug, Clone, Default)]
pub struct FdQuality {
    /// Detection latencies of the crashes that were detected; its count
    /// is the number of detected crashes.
    pub detection_latency: Hist,
    /// `PeerSuspected` records naming a peer that was up — mistakes.
    pub false_suspicions: u64,
    /// How long each mistake lasted (`PeerCleared.suspected_us` for
    /// suspicions that started while the peer was up).
    pub mistake_duration: Hist,
}

/// Scores the failure detectors against the trace's ground truth; see
/// [`TraceStore::fd_quality`].
pub fn fd_quality(records: &[TraceRecord]) -> FdQuality {
    TraceStore::build(records).fd_quality()
}

impl TraceStore<'_> {
    /// Scores the failure detectors against the incident list: a peer
    /// is really down from its crash to its restart, so a suspicion of
    /// a down peer measures detection latency and a suspicion of a live
    /// peer counts as a false suspicion (its eventual `PeerCleared`
    /// contributes the mistake duration).
    pub fn fd_quality(&self) -> FdQuality {
        let mut q = FdQuality {
            false_suspicions: self.false_suspicions.len() as u64,
            ..FdQuality::default()
        };
        for latency in self.incidents.iter().filter_map(|i| i.suspected_after_us) {
            q.detection_latency.observe(latency);
        }
        for lasted in self.false_suspicions.iter().flatten() {
            q.mistake_duration.observe(*lasted);
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::testkit::*;

    /// Hand-built trace: leader crashes mid-batch, a survivor is
    /// elected, the victim restarts, loads its checkpoint while the log
    /// replays, then re-learns the backlog.
    fn crash_mid_batch_trace() -> Vec<TraceRecord> {
        vec![
            flushed(900, 0, 0, 4),
            appended(950, 0),
            // Crash strikes while the batch's append is in flight.
            crash(1_000, 0),
            elected(1_400, 1),
            restart(3_000, 0),
            rec(3_010, 0, TraceEvent::LogReplayStart { bytes: 4_000 }),
            rec(3_020, 0, TraceEvent::CheckpointLoadStart { bytes: 1 << 20 }),
            rec(3_510, 0, TraceEvent::LogReplayed { records: 10 }),
            rec(4_020, 0, TraceEvent::CheckpointLoaded { slot: 50 }),
            rec(6_000, 0, TraceEvent::RecoveryComplete { slot: 61 }),
        ]
    }

    #[test]
    fn crash_mid_batch_phases() {
        let out = recovery_breakdowns(&crash_mid_batch_trace());
        assert_eq!(out.len(), 1);
        let b = &out[0];
        assert!(b.complete);
        assert_eq!(b.node, 0);
        assert_eq!(b.crash_at_us, 1_000);
        assert_eq!(b.detection_us, Some(2_000));
        assert_eq!(b.reelection_us, Some(400));
        assert_eq!(b.log_replay_us, Some(500));
        assert_eq!(b.checkpoint_load_us, Some(1_000));
        // Local replay done at restart(3000) + max(500, 1000) = 4000;
        // backlog runs to 6000.
        assert_eq!(b.backlog_replay_us, Some(2_000));
        assert_eq!(b.total_us, Some(5_000));
    }

    #[test]
    fn checkpoint_load_overlaps_backlog_replay() {
        // The checkpoint is huge: the log replays and the backlog
        // re-learn effectively finishes while the checkpoint is still
        // streaming — the incident must end at the checkpoint, and the
        // backlog phase must account only for the tail after it.
        let trace = vec![
            crash(1_000, 2),
            restart(2_000, 2),
            rec(2_010, 2, TraceEvent::LogReplayStart { bytes: 100 }),
            rec(
                2_020,
                2,
                TraceEvent::CheckpointLoadStart { bytes: 80 << 20 },
            ),
            rec(2_110, 2, TraceEvent::LogReplayed { records: 2 }),
            rec(12_020, 2, TraceEvent::CheckpointLoaded { slot: 9 }),
            rec(12_500, 2, TraceEvent::RecoveryComplete { slot: 12 }),
        ];
        let out = recovery_breakdowns(&trace);
        assert_eq!(out.len(), 1);
        let b = &out[0];
        assert!(b.complete);
        assert_eq!(b.detection_us, Some(1_000));
        assert_eq!(b.reelection_us, None, "follower crash needs no election");
        assert_eq!(b.log_replay_us, Some(100));
        assert_eq!(b.checkpoint_load_us, Some(10_000));
        // Local done = 2000 + max(100, 10000) = 12000; complete at 12500.
        assert_eq!(b.backlog_replay_us, Some(500));
        assert_eq!(b.total_us, Some(11_500));
    }

    #[test]
    fn unfinished_incident_reported_incomplete() {
        let trace = vec![crash(1_000, 0), restart(2_000, 0)];
        let out = recovery_breakdowns(&trace);
        assert_eq!(out.len(), 1);
        assert!(!out[0].complete);
        assert_eq!(out[0].detection_us, Some(1_000));
        assert_eq!(out[0].total_us, None);
    }

    #[test]
    fn double_crash_opens_two_incidents() {
        let trace = vec![
            crash(1_000, 0),
            restart(2_000, 0),
            crash(5_000, 0),
            restart(6_000, 0),
            rec(7_000, 0, TraceEvent::RecoveryComplete { slot: 4 }),
        ];
        let out = recovery_breakdowns(&trace);
        assert_eq!(out.len(), 2);
        assert!(!out[0].complete, "first incident never completed");
        assert!(out[1].complete);
        assert_eq!(out[1].crash_at_us, 5_000);
    }

    #[test]
    fn elections_attributed_to_oldest_waiting_incident() {
        let trace = vec![
            crash(1_000, 0),
            crash(1_500, 1),
            elected(2_000, 2),
            elected(2_500, 2),
        ];
        let out = recovery_breakdowns(&trace);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].reelection_us, Some(1_000));
        assert_eq!(out[1].reelection_us, Some(1_000));
    }

    /// Rows keep trace order: nodes 3 and 1 crash in the same µs, node 3
    /// first, and each row carries its own suspicion and phases.
    #[test]
    fn same_microsecond_crashes_keep_trace_order() {
        let trace = vec![
            crash(1_000, 3),
            crash(1_000, 1),
            suspected(1_200, 0, 1),
            suspected(1_300, 2, 3),
            restart(2_000, 1),
            restart(2_500, 3),
            rec(2_600, 3, TraceEvent::RecoveryComplete { slot: 7 }),
        ];
        let out = recovery_breakdowns(&trace);
        let row = |i: &Incident| (i.node, i.suspected_after_us, i.suspected_by, i.detection_us);
        assert_eq!(out.len(), 2);
        assert_eq!(row(&out[0]), (3, Some(300), Some(2), Some(1_500)));
        assert_eq!(row(&out[1]), (1, Some(200), Some(0), Some(1_000)));
        assert_eq!((out[0].total_us, out[1].total_us), (Some(1_600), None));
    }

    #[test]
    fn fd_quality_scores_real_and_false_suspicions() {
        let trace = vec![
            // A false suspicion before any crash: node 1 wrongly
            // suspects node 2 for 300µs.
            suspected(500, 1, 2),
            cleared(800, 1, 2, 300),
            // A real crash of node 0, detected first by node 2.
            crash(1_000, 0),
            suspected(1_450, 2, 0),
            // A second detector firing later must not overwrite.
            suspected(1_500, 1, 0),
            restart(4_000, 0),
            // Clears after restart: real suspicions, not mistakes.
            cleared(4_100, 2, 0, 2_650),
        ];
        let store = TraceStore::build(&trace);
        assert_eq!(store.incidents.len(), 1);
        let i = &store.incidents[0];
        assert_eq!(
            (i.node, i.suspected_after_us, i.suspected_by),
            (0, Some(450), Some(2))
        );
        let q = store.fd_quality();
        assert_eq!(q.detection_latency.count(), 1);
        assert_eq!(q.false_suspicions, 1);
        assert_eq!(q.mistake_duration.count(), 1);
    }

    #[test]
    fn fd_quality_undetected_crash_stays_open() {
        let trace = vec![crash(1_000, 3)];
        let out = recovery_breakdowns(&trace);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].suspected_after_us, None);
        assert_eq!(fd_quality(&trace).detection_latency.count(), 0);
    }

    #[test]
    fn latency_summary_aggregates() {
        let trace = vec![
            flushed(10, 0, 0, 3),
            appended(11, 0),
            delivered(50, 0, 0, 0, 40),
            delivered_for(51, 0, 0, 1, 0, 0),
        ];
        let s = TraceStore::build(&trace).latency_summary();
        assert_eq!(s.updates_delivered, 2);
        assert_eq!(s.commit_latency.count(), 1, "remote updates not sampled");
        assert_eq!(s.batches, 1);
        assert_eq!(s.batched_updates, 3);
        assert_eq!(s.log_appends, 1);
        assert!((s.coalescing_ratio() - 2.0).abs() < 1e-9);
    }
}
