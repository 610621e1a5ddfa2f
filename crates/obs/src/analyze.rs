//! Trace analysis: per-incident recovery breakdowns and commit-latency
//! aggregation, reconstructed from a record stream alone.
//!
//! This is the paper's recovery decomposition applied to our traces: a
//! crash incident spans *detection* (crash → watchdog restart),
//! *re-election* (crash → a surviving coordinator wins a new ballot;
//! absent when the victim was not the leader), and the restart work —
//! *checkpoint load* and *log replay* run in parallel, then the replica
//! re-learns the *backlog* it missed until it announces recovery
//! complete. All durations come from the records' sim-time stamps, so
//! the analyzer needs nothing but the JSONL file.

use crate::event::TraceRecord;
use crate::metrics::Hist;
use crate::store::TraceStore;

/// One crash incident reconstructed from a trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryBreakdown {
    /// The crashed node.
    pub node: u32,
    /// Crash time (µs).
    pub crash_at_us: u64,
    /// Restart time, if the node came back within the trace.
    pub restart_at_us: Option<u64>,
    /// Detection phase: crash → restart (the watchdog delay).
    pub detection_us: Option<u64>,
    /// Re-election: crash → first `LeaderElected` anywhere in the
    /// cluster afterwards. `None` when no election was needed (the
    /// victim was a follower) or none completed in the trace.
    pub reelection_us: Option<u64>,
    /// Checkpoint load start → loaded, on the restarted incarnation.
    pub checkpoint_load_us: Option<u64>,
    /// Log replay start → replayed, on the restarted incarnation.
    pub log_replay_us: Option<u64>,
    /// Backlog re-learn: local replay done (the later of log replay and
    /// checkpoint load) → `RecoveryComplete`.
    pub backlog_replay_us: Option<u64>,
    /// Whole incident: crash → `RecoveryComplete`.
    pub total_us: Option<u64>,
    /// Whether the incident closed with a `RecoveryComplete`.
    pub complete: bool,
}

/// Reconstructs all crash incidents from `records` (one run's trace,
/// in engine order); see [`TraceStore::recovery_breakdowns`].
pub fn recovery_breakdowns(records: &[TraceRecord]) -> Vec<RecoveryBreakdown> {
    TraceStore::build(records).recovery_breakdowns()
}

impl TraceStore<'_> {
    /// One breakdown per crash incident, ordered by crash time.
    ///
    /// A second crash of the same node closes the open incident as
    /// incomplete and starts a new one. Election and phase events are
    /// attributed to the oldest open incident they can explain: elections
    /// to the earliest incident still lacking one, load/replay/complete
    /// events to the incident of their own node. A phase has a duration
    /// once both its edges were traced.
    pub fn recovery_breakdowns(&self) -> Vec<RecoveryBreakdown> {
        let mut out: Vec<RecoveryBreakdown> = self
            .incidents
            .iter()
            .map(|i| {
                let since_crash = |t: u64| t.saturating_sub(i.crash_at_us);
                let duration =
                    |(start, end): (Option<u64>, Option<u64>)| Some(end?.saturating_sub(start?));
                let checkpoint_load_us = duration(i.checkpoint_load_us);
                let log_replay_us = duration(i.log_replay_us);
                // Local replay ends when both parallel restart reads are
                // done; the backlog re-learn covers the rest.
                let local_done = i.restart_at_us.unwrap_or(i.crash_at_us)
                    + checkpoint_load_us
                        .unwrap_or(0)
                        .max(log_replay_us.unwrap_or(0));
                RecoveryBreakdown {
                    node: i.node,
                    crash_at_us: i.crash_at_us,
                    restart_at_us: i.restart_at_us,
                    detection_us: i.restart_at_us.map(since_crash),
                    reelection_us: i.reelected_at_us.map(since_crash),
                    checkpoint_load_us,
                    log_replay_us,
                    backlog_replay_us: i.recovered_at_us.map(|t| t.saturating_sub(local_done)),
                    total_us: i.recovered_at_us.map(since_crash),
                    complete: i.recovered_at_us.is_some(),
                }
            })
            .collect();
        out.sort_by_key(|b| (b.crash_at_us, b.node));
        out
    }
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

/// Aggregates consensus round-trip latency and coalescing counters
/// over one run's records.
pub fn latency_summary(records: &[TraceRecord]) -> LatencySummary {
    TraceStore::build(records).latency_summary()
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

/// One real crash, as the failure detectors saw it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FdIncident {
    /// The crashed replica.
    pub peer: u32,
    /// Crash time (µs).
    pub crash_at_us: u64,
    /// Crash → first `PeerSuspected` of this peer anywhere in the
    /// cluster. `None` when no detector fired before the peer returned
    /// (or the trace ended).
    pub detection_latency_us: Option<u64>,
    /// The node whose detector fired first.
    pub detector: Option<u32>,
}

/// Failure-detector quality over one run: how fast real crashes were
/// detected, and how often live peers were wrongly suspected — the
/// completeness/accuracy trade the timeout encodes.
#[derive(Debug, Clone, Default)]
pub struct FdQuality {
    /// Real crashes, in trace order.
    pub incidents: Vec<FdIncident>,
    /// Detection latencies of the incidents that were detected.
    pub detection_latency: Hist,
    /// `PeerSuspected` records naming a peer that was up — mistakes.
    pub false_suspicions: u64,
    /// How long each mistake lasted (`PeerCleared.suspected_us` for
    /// suspicions that started while the peer was up).
    pub mistake_duration: Hist,
}

impl FdQuality {
    /// Incidents whose crash was detected by at least one peer.
    pub fn detected(&self) -> usize {
        self.incidents
            .iter()
            .filter(|i| i.detection_latency_us.is_some())
            .count()
    }
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
        for i in &self.incidents {
            let detection = i
                .suspected
                .map(|(t, by)| (t.saturating_sub(i.crash_at_us), by));
            if let Some((latency, _)) = detection {
                q.detection_latency.observe(latency);
            }
            q.incidents.push(FdIncident {
                peer: i.node,
                crash_at_us: i.crash_at_us,
                detection_latency_us: detection.map(|d| d.0),
                detector: detection.map(|d| d.1),
            });
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
        let q = fd_quality(&trace);
        assert_eq!(q.incidents.len(), 1);
        assert_eq!(q.detected(), 1);
        assert_eq!(q.incidents[0].peer, 0);
        assert_eq!(q.incidents[0].detection_latency_us, Some(450));
        assert_eq!(q.incidents[0].detector, Some(2));
        assert_eq!(q.detection_latency.count(), 1);
        assert_eq!(q.false_suspicions, 1);
        assert_eq!(q.mistake_duration.count(), 1);
    }

    #[test]
    fn fd_quality_undetected_crash_stays_open() {
        let trace = vec![crash(1_000, 3)];
        let q = fd_quality(&trace);
        assert_eq!(q.incidents.len(), 1);
        assert_eq!(q.detected(), 0);
        assert_eq!(q.incidents[0].detection_latency_us, None);
    }

    #[test]
    fn latency_summary_aggregates() {
        let trace = vec![
            flushed(10, 0, 0, 3),
            appended(11, 0),
            delivered(50, 0, 0, 0, 40),
            delivered_for(51, 0, 0, 1, 0, 0),
        ];
        let s = latency_summary(&trace);
        assert_eq!(s.updates_delivered, 2);
        assert_eq!(s.commit_latency.count(), 1, "remote updates not sampled");
        assert_eq!(s.batches, 1);
        assert_eq!(s.batched_updates, 3);
        assert_eq!(s.log_appends, 1);
        assert!((s.coalescing_ratio() - 2.0).abs() < 1e-9);
    }
}
