//! Per-slot critical-path profiling.
//!
//! Each locally submitted update leaves a causally ordered record
//! trail: `update_submitted` → `batch_flushed` (group commit) →
//! `accepted` (the durable append + local acceptance of the batch's
//! slot) → `decided` (quorum) → `update_delivered` (apply) →
//! `reply_sent` (the web tier unblocks the client). This module
//! stitches those records back into one span per update and aggregates
//! per-phase latency distributions, so "where did the latency go during
//! the degraded window" is answerable from a trace alone — the
//! Dapper-style decomposition applied to our commit path.
//!
//! Because every stamp is the dispatch time of the handler that
//! produced it, the four pipeline phases of a span sum *exactly* to the
//! end-to-end commit latency the middleware measured; nothing is lost
//! between phases.

use std::collections::BTreeMap;

use crate::event::TraceRecord;
use crate::metrics::Hist;
use crate::store::TraceStore;

/// Critical-path phase names, pipeline order. The first four partition
/// the submit→apply latency; `reply` is the tail from apply to the
/// client's response and is measured separately.
pub const PHASES: [&str; 5] = [
    "batch_wait",
    "persist_accept",
    "quorum_decide",
    "apply",
    "reply",
];

/// One update's stitched critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateSpan {
    /// Submitting replica.
    pub node: u32,
    /// Submitter-local sequence number.
    pub seq: u64,
    /// Consensus slot of the containing batch.
    pub slot: u64,
    /// Submit time, µs.
    pub submit_us: u64,
    /// Apply time, µs.
    pub deliver_us: u64,
    /// Submit → batch flush (group-commit queueing).
    pub batch_wait_us: u64,
    /// Flush → local acceptance (serialize, durable append, accept).
    pub persist_accept_us: u64,
    /// Acceptance → quorum decision.
    pub quorum_decide_us: u64,
    /// Decision → application to the local state machine.
    pub apply_us: u64,
    /// Apply → reply to the blocked client, when the reply was traced.
    pub reply_us: Option<u64>,
    /// End-to-end submit→apply latency as measured by the middleware.
    pub total_us: u64,
}

impl UpdateSpan {
    /// Sum of the four pipeline phases; equals [`UpdateSpan::total_us`]
    /// by construction.
    pub fn phase_sum_us(&self) -> u64 {
        self.batch_wait_us + self.persist_accept_us + self.quorum_decide_us + self.apply_us
    }

    /// The phase durations in [`PHASES`] order (reply 0 when untraced).
    pub fn phase_durations(&self) -> [(&'static str, u64); 5] {
        [
            (PHASES[0], self.batch_wait_us),
            (PHASES[1], self.persist_accept_us),
            (PHASES[2], self.quorum_decide_us),
            (PHASES[3], self.apply_us),
            (PHASES[4], self.reply_us.unwrap_or(0)),
        ]
    }
}

/// All stitched spans of one run plus per-phase distributions.
#[derive(Debug, Clone, Default)]
pub struct SpanProfile {
    /// Spans in delivery order.
    pub spans: Vec<UpdateSpan>,
    /// Per-phase latency distributions, keyed by [`PHASES`] name.
    pub phase_hists: BTreeMap<&'static str, Hist>,
}

impl SpanProfile {
    /// Stitches `records` (one run's trace, in engine order) into
    /// per-update spans.
    pub fn from_records(records: &[TraceRecord]) -> SpanProfile {
        SpanProfile::from_store(&TraceStore::build(records))
    }

    /// Stitches one span per local delivery whose submit was traced.
    pub fn from_store(store: &TraceStore) -> SpanProfile {
        let mut profile = SpanProfile::default();
        for d in &store.deliveries {
            let key = |id: u64| (d.node, d.incarnation, id);
            let Some(&submit) = store.submits.get(&key(d.seq)) else {
                continue; // submitted before tracing started
            };
            let flush = store.flush_for(d.node, d.seq, submit, d.t_us);
            // An edge first seen only after the apply (a late accept on
            // the fast path) is not on this update's path.
            let before_apply = |t: &u64| *t <= d.t_us;
            let accept = store.accepts.get(&key(d.slot)).copied();
            let decide = store.decides.get(&key(d.slot)).copied();
            // Clamp each stamp to be monotone so a missing edge
            // collapses its phase to zero instead of skewing the
            // others; the phases then telescope to exactly
            // deliver − submit.
            let s1 = flush.unwrap_or(submit).max(submit);
            let s2 = accept.filter(before_apply).map_or(s1, |t| t.max(s1));
            let s3 = decide.filter(before_apply).map_or(s2, |t| t.max(s2));
            let s4 = d.t_us.max(s3);
            let reply = store.replies.get(&key(d.seq));
            profile.spans.push(UpdateSpan {
                node: d.node,
                seq: d.seq,
                slot: d.slot,
                submit_us: submit,
                deliver_us: d.t_us,
                batch_wait_us: s1 - submit,
                persist_accept_us: s2 - s1,
                quorum_decide_us: s3 - s2,
                apply_us: s4 - s3,
                reply_us: reply.map(|t| t.saturating_sub(d.t_us)),
                total_us: d.latency_us,
            });
        }
        for span in &profile.spans {
            for (phase, dur) in span.phase_durations() {
                if phase == "reply" && span.reply_us.is_none() {
                    continue;
                }
                profile.phase_hists.entry(phase).or_default().observe(dur);
            }
        }
        profile
    }

    /// The distribution of one phase, if any span recorded it.
    pub fn phase(&self, name: &str) -> Option<&Hist> {
        self.phase_hists.get(name)
    }

    /// The dominant (largest total time) pipeline phase per window of
    /// length `window_us`, over `windows` windows, attributing each
    /// span to the window of its delivery. Ties resolve to the earlier
    /// pipeline phase; windows with no deliveries report `None`.
    #[expect(
        clippy::indexing_slicing,
        clippy::expect_used,
        reason = "`w` < `windows` = `totals.len()`; a row holds one total per `PHASES` name"
    )]
    pub fn dominant_phases(&self, window_us: u64, windows: usize) -> Vec<Option<&'static str>> {
        let window_us = window_us.max(1);
        let mut totals = vec![[0u64; 4]; windows];
        for span in &self.spans {
            let w = (span.deliver_us / window_us) as usize;
            if w >= windows {
                continue;
            }
            totals[w][0] += span.batch_wait_us;
            totals[w][1] += span.persist_accept_us;
            totals[w][2] += span.quorum_decide_us;
            totals[w][3] += span.apply_us;
        }
        totals
            .iter()
            .map(|t| {
                let sum: u64 = t.iter().sum();
                if sum == 0 {
                    return None;
                }
                let (best, _) = t
                    .iter()
                    .enumerate()
                    .max_by(|(ia, a), (ib, b)| {
                        (a, std::cmp::Reverse(ia)).cmp(&(b, std::cmp::Reverse(ib)))
                    })
                    .expect("non-empty");
                Some(PHASES[best])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::*;

    fn full_path(node: u32) -> Vec<TraceRecord> {
        vec![
            submitted(100, node, 0),
            submitted(150, node, 1),
            flushed(300, node, 0, 2),
            accepted(450, node, 5),
            decided(600, node, 5),
            delivered(700, node, 5, 0, 600),
            delivered(700, node, 5, 1, 550),
            replied(720, node, 0),
            replied(730, node, 1),
        ]
    }

    #[test]
    fn stitches_full_critical_path() {
        let profile = SpanProfile::from_records(&full_path(0));
        assert_eq!(profile.spans.len(), 2);
        let s = &profile.spans[0];
        assert_eq!(s.slot, 5);
        assert_eq!(s.batch_wait_us, 200);
        assert_eq!(s.persist_accept_us, 150);
        assert_eq!(s.quorum_decide_us, 150);
        assert_eq!(s.apply_us, 100);
        assert_eq!(s.reply_us, Some(20));
        assert_eq!(s.total_us, 600);
        // The second update shares the batch's flush/accept/decide
        // stamps but has its own submit and reply.
        let s = &profile.spans[1];
        assert_eq!(s.batch_wait_us, 150);
        assert_eq!(s.reply_us, Some(30));
    }

    #[test]
    fn phases_sum_exactly_to_commit_latency() {
        let profile = SpanProfile::from_records(&full_path(2));
        for span in &profile.spans {
            assert_eq!(span.phase_sum_us(), span.total_us, "span {}", span.seq);
            assert_eq!(span.phase_sum_us(), span.deliver_us - span.submit_us);
        }
    }

    #[test]
    fn remote_deliveries_do_not_close_spans() {
        let records = vec![
            submitted(100, 0, 0),
            // Node 1 applies node 0's update; no span for node 1.
            delivered_for(500, 1, 1, 0, 0, 0),
        ];
        let profile = SpanProfile::from_records(&records);
        assert!(profile.spans.is_empty());
    }

    #[test]
    fn missing_edges_collapse_to_zero_phases() {
        // No flush/accept/decide traced (e.g. trace started late): the
        // whole latency lands in batch_wait = 0 and apply picks up the
        // rest, but the sum stays exact.
        let records = vec![submitted(100, 0, 3), delivered(900, 0, 2, 3, 800)];
        let profile = SpanProfile::from_records(&records);
        assert_eq!(profile.spans.len(), 1);
        let s = &profile.spans[0];
        assert_eq!(s.batch_wait_us, 0);
        assert_eq!(s.persist_accept_us, 0);
        assert_eq!(s.quorum_decide_us, 0);
        assert_eq!(s.apply_us, 800);
        assert_eq!(s.phase_sum_us(), 800);
    }

    #[test]
    fn crash_clears_pending_pipeline_state() {
        let mut records = vec![
            submitted(100, 0, 0),
            crash(200, 0),
            restart(5_000, 0),
            // New incarnation reuses seq 0; its span must use the
            // post-restart submit stamp, not the stale one.
            submitted(6_000, 0, 0),
        ];
        records.extend(vec![
            flushed(6_100, 0, 0, 1),
            delivered(6_500, 0, 9, 0, 500),
        ]);
        let profile = SpanProfile::from_records(&records);
        assert_eq!(profile.spans.len(), 1);
        assert_eq!(profile.spans[0].submit_us, 6_000);
        assert_eq!(profile.spans[0].batch_wait_us, 100);
    }

    #[test]
    fn phase_hists_and_dominant_phase() {
        let profile = SpanProfile::from_records(&full_path(0));
        assert_eq!(profile.phase("batch_wait").unwrap().count(), 2);
        assert_eq!(profile.phase("reply").unwrap().count(), 2);
        assert_eq!(profile.phase("reply").unwrap().max(), 30);
        // Both deliveries land in window 0; batch_wait (200+150) beats
        // persist_accept (150+150) and quorum (150+150).
        let dom = profile.dominant_phases(1_000, 2);
        assert_eq!(dom, vec![Some("batch_wait"), None]);
    }
}
