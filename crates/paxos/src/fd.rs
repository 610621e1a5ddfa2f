//! Failure detection and the paper's operating-mode rule.
//!
//! Treplica (§2) runs Fast Paxos while at least ⌈3N/4⌉ processes are
//! working, falls back on classic Paxos while at least ⌊N/2⌋+1 are, and
//! blocks below a majority. The detector is the usual heartbeat timeout
//! scheme: every replica broadcasts `Alive` periodically; a peer not
//! heard from within the timeout is suspected.

use crate::types::{Membership, Quorums, ReplicaId};

/// The protocol operating mode derived from the live-replica estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// ≥ ⌈3N/4⌉ working: fast rounds enabled.
    Fast,
    /// ≥ ⌊N/2⌋+1 but < ⌈3N/4⌉: classic Paxos.
    Classic,
    /// < ⌊N/2⌋+1: no progress until recoveries.
    Blocked,
}

/// A suspicion edge reported by [`FailureDetector::poll_transitions`]:
/// pure observability output (detection-quality metrics), never fed
/// back into the mode rule or any protocol decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FdTransition {
    /// `peer` crossed the timeout and is now suspected.
    Suspected {
        /// The newly suspected peer.
        peer: ReplicaId,
        /// How long the peer had been silent when suspicion fired (µs).
        silent_us: u64,
    },
    /// A previously suspected `peer` was heard from again.
    Cleared {
        /// The peer whose suspicion is withdrawn.
        peer: ReplicaId,
        /// How long the suspicion lasted (µs).
        suspected_us: u64,
    },
}

/// Heartbeat-based failure detector, tracking the *current epoch's*
/// member set (ids may be sparse after a reconfiguration).
#[derive(Debug)]
pub struct FailureDetector {
    id: ReplicaId,
    quorums: Quorums,
    timeout_us: u64,
    /// The tracked members, sorted ascending.
    members: Vec<ReplicaId>,
    /// Last heartbeat receipt time per member (parallel to `members`,
    /// µs); `u64::MAX` marks "never heard", treated as alive during the
    /// initial grace period.
    last_heard: Vec<u64>,
    /// Suspicion edge state per member (parallel to `members`):
    /// `Some(t)` when the peer is currently suspected, with the time
    /// suspicion fired. Only [`FailureDetector::poll_transitions`]
    /// reads or writes this; `is_alive`/`mode` stay pure functions of
    /// the heartbeat history.
    suspected_at: Vec<Option<u64>>,
    started_at: u64,
}

impl FailureDetector {
    /// Creates a detector for replica `id` in a dense ensemble of
    /// `quorums.n()` replicas, with the given suspicion timeout (µs).
    /// Peers get a grace period of one timeout from `now` before they
    /// can be suspected.
    pub fn new(id: ReplicaId, quorums: Quorums, timeout_us: u64, now: u64) -> Self {
        FailureDetector {
            id,
            quorums,
            timeout_us,
            members: (0..obs::node_u32(quorums.n())).map(ReplicaId).collect(),
            last_heard: vec![u64::MAX; quorums.n()],
            suspected_at: vec![None; quorums.n()],
            started_at: now,
        }
    }

    /// Switches the detector to a new configuration. Retained members
    /// keep their heartbeat history; joining members count as heard at
    /// `now`, giving them one full timeout of grace before suspicion.
    /// The mode rule's N becomes the new epoch's ensemble size.
    pub fn set_membership(&mut self, membership: &Membership, now: u64) {
        let mut members = Vec::with_capacity(membership.n());
        let mut last_heard = Vec::with_capacity(membership.n());
        let mut suspected_at = Vec::with_capacity(membership.n());
        for &m in membership.members() {
            let idx = self.member_index(m);
            let heard = idx
                .and_then(|i| self.last_heard.get(i).copied())
                .unwrap_or(now);
            // Retained members keep their suspicion edge; joiners start
            // unsuspected (they have heartbeat grace anyway).
            let suspected = idx
                .and_then(|i| self.suspected_at.get(i).copied())
                .flatten();
            members.push(m);
            last_heard.push(heard);
            suspected_at.push(suspected);
        }
        self.members = members;
        self.last_heard = last_heard;
        self.suspected_at = suspected_at;
        self.quorums = membership.quorums();
    }

    fn member_index(&self, id: ReplicaId) -> Option<usize> {
        self.members.binary_search(&id).ok()
    }

    /// Records a heartbeat (or any message treated as liveness evidence)
    /// from `from` at time `now`.
    pub fn heard(&mut self, from: ReplicaId, now: u64) {
        if let Some(t) = self
            .member_index(from)
            .and_then(|i| self.last_heard.get_mut(i))
        {
            *t = now;
        }
    }

    /// Whether `peer` is currently considered alive at time `now`.
    /// Unknown replica ids (outside the current configuration) are
    /// never alive.
    pub fn is_alive(&self, peer: ReplicaId, now: u64) -> bool {
        if peer == self.id {
            return true;
        }
        match self
            .member_index(peer)
            .and_then(|i| self.last_heard.get(i).copied())
        {
            Some(u64::MAX) => now.saturating_sub(self.started_at) < self.timeout_us,
            Some(t) => now.saturating_sub(t) < self.timeout_us,
            None => false,
        }
    }

    fn alive_iter(&self, now: u64) -> impl Iterator<Item = ReplicaId> + '_ {
        self.members
            .iter()
            .copied()
            .filter(move |p| self.is_alive(*p, now))
    }

    /// The replicas currently considered alive.
    pub fn alive(&self, now: u64) -> Vec<ReplicaId> {
        self.alive_iter(now).collect()
    }

    /// Count of live replicas (including self).
    pub fn alive_count(&self, now: u64) -> usize {
        self.alive_iter(now).count()
    }

    /// The paper's mode rule applied to the current estimate.
    pub fn mode(&self, now: u64) -> Mode {
        let alive = self.alive_count(now);
        if alive >= self.quorums.fast() {
            Mode::Fast
        } else if alive >= self.quorums.classic() {
            Mode::Classic
        } else {
            Mode::Blocked
        }
    }

    /// The live replica with the lowest id — the election candidate.
    pub fn candidate(&self, now: u64) -> ReplicaId {
        self.alive_iter(now).min().unwrap_or(self.id)
    }

    /// Compares the liveness estimate against the recorded suspicion
    /// edges and returns the transitions since the last poll: a peer
    /// newly crossing the timeout yields [`FdTransition::Suspected`]
    /// (with its silence so far), a suspected peer heard from again
    /// yields [`FdTransition::Cleared`] (with the mistake/outage
    /// duration). Observability only — calling or not calling this
    /// never changes `mode()`/`candidate()`.
    pub fn poll_transitions(&mut self, now: u64) -> Vec<FdTransition> {
        let mut out = Vec::new();
        for (i, &peer) in self.members.iter().enumerate() {
            if peer == self.id {
                continue;
            }
            let alive = self.is_alive(peer, now);
            let Some(edge) = self.suspected_at.get_mut(i) else {
                continue;
            };
            match (alive, *edge) {
                (false, None) => {
                    let heard = self.last_heard.get(i).copied().unwrap_or(u64::MAX);
                    let since = if heard == u64::MAX {
                        self.started_at
                    } else {
                        heard
                    };
                    *edge = Some(now);
                    out.push(FdTransition::Suspected {
                        peer,
                        silent_us: now.saturating_sub(since),
                    });
                }
                (true, Some(at)) => {
                    *edge = None;
                    out.push(FdTransition::Cleared {
                        peer,
                        suspected_us: now.saturating_sub(at),
                    });
                }
                _ => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd() -> FailureDetector {
        FailureDetector::new(ReplicaId(2), Quorums::new(5), 1_000, 0)
    }

    #[test]
    fn all_alive_during_grace_period() {
        let d = fd();
        assert_eq!(d.alive_count(500), 5);
        assert_eq!(d.mode(500), Mode::Fast);
    }

    #[test]
    fn silence_after_grace_suspects_peers() {
        let mut d = fd();
        d.heard(ReplicaId(0), 900);
        // At t=1500: grace expired; only r0 (heard at 900) and self live.
        assert_eq!(d.alive_count(1_500), 2);
        assert_eq!(d.mode(1_500), Mode::Blocked);
    }

    #[test]
    fn mode_transitions_follow_paper_rule() {
        let mut d = fd();
        let now = 10_000;
        for i in [0u32, 1, 3] {
            d.heard(ReplicaId(i), now);
        }
        // 4 alive of 5 → fast quorum ⌈15/4⌉=4 → Fast.
        assert_eq!(d.mode(now), Mode::Fast);
        // Let r3's heartbeat age out: 3 alive ≥ majority 3 → Classic.
        let later = now + 900;
        d.heard(ReplicaId(0), later);
        d.heard(ReplicaId(1), later);
        assert_eq!(d.mode(now + 1_100), Mode::Classic);
        // Only self + r0? age r1 out too.
        d.heard(ReplicaId(0), now + 2_000);
        assert_eq!(d.mode(now + 2_500), Mode::Blocked);
    }

    #[test]
    fn self_always_alive() {
        let d = fd();
        assert!(d.is_alive(ReplicaId(2), u64::MAX - 1));
    }

    #[test]
    fn candidate_is_lowest_alive() {
        let mut d = fd();
        let now = 10_000;
        d.heard(ReplicaId(4), now);
        // grace expired for silent peers.
        assert_eq!(d.candidate(now), ReplicaId(2));
        d.heard(ReplicaId(1), now);
        assert_eq!(d.candidate(now), ReplicaId(1));
    }

    #[test]
    fn out_of_range_replica_ids_are_harmless() {
        // Regression: `heard`/`is_alive` indexed `last_heard` with the
        // raw replica index, so a corrupted or misrouted message naming
        // a replica outside the ensemble panicked the detector. Unknown
        // ids are now ignored and never considered alive.
        let mut d = fd();
        d.heard(ReplicaId(99), 100);
        assert!(!d.is_alive(ReplicaId(99), 100));
        assert_eq!(d.alive_count(100), 5, "grace period unaffected");
    }

    #[test]
    fn heartbeat_refresh_keeps_peer_alive() {
        let mut d = fd();
        for t in (0..10_000).step_by(500) {
            d.heard(ReplicaId(0), t);
        }
        assert!(d.is_alive(ReplicaId(0), 10_300));
    }

    #[test]
    fn poll_transitions_reports_each_edge_once() {
        let mut d = fd();
        let now = 10_000;
        d.heard(ReplicaId(0), now);
        d.heard(ReplicaId(1), now);
        d.heard(ReplicaId(3), now);
        d.heard(ReplicaId(4), now);
        assert!(d.poll_transitions(now).is_empty(), "everyone fresh");
        // r3 and r4 go silent past the timeout.
        let later = now + 1_500;
        d.heard(ReplicaId(0), later);
        d.heard(ReplicaId(1), later);
        let trs = d.poll_transitions(later);
        assert_eq!(
            trs,
            vec![
                FdTransition::Suspected {
                    peer: ReplicaId(3),
                    silent_us: 1_500,
                },
                FdTransition::Suspected {
                    peer: ReplicaId(4),
                    silent_us: 1_500,
                },
            ]
        );
        assert!(d.poll_transitions(later + 10).is_empty(), "edge, not level");
        // r3 comes back: one cleared edge with the suspicion duration.
        // (r0/r1 refreshed so they don't age out in the meantime.)
        d.heard(ReplicaId(0), later + 2_000);
        d.heard(ReplicaId(1), later + 2_000);
        d.heard(ReplicaId(3), later + 2_000);
        let trs = d.poll_transitions(later + 2_000);
        assert_eq!(
            trs,
            vec![FdTransition::Cleared {
                peer: ReplicaId(3),
                suspected_us: 2_000,
            }]
        );
        assert!(d.poll_transitions(later + 2_001).is_empty());
    }

    #[test]
    fn poll_transitions_never_suspects_self() {
        let mut d = fd();
        // All peers age out, far past grace.
        let trs = d.poll_transitions(50_000);
        assert_eq!(trs.len(), 4, "all peers but self: {trs:?}");
        assert!(trs.iter().all(|t| !matches!(
            t,
            FdTransition::Suspected { peer, .. } if *peer == ReplicaId(2)
        )));
    }

    #[test]
    fn poll_transitions_is_observation_only() {
        let mut d = fd();
        let now = 20_000;
        // Identical detector that is never polled.
        let mut undisturbed = fd();
        for i in [0u32, 1] {
            d.heard(ReplicaId(i), now);
            undisturbed.heard(ReplicaId(i), now);
        }
        let _ = d.poll_transitions(now + 100);
        assert_eq!(d.mode(now + 100), undisturbed.mode(now + 100));
        assert_eq!(d.candidate(now + 100), undisturbed.candidate(now + 100));
        assert_eq!(d.alive_count(now + 100), undisturbed.alive_count(now + 100));
    }

    #[test]
    fn set_membership_carries_suspicion_state() {
        use crate::types::{Membership, Reconfig};
        let mut d = fd();
        let now = 10_000;
        for i in [0u32, 1, 3, 4] {
            d.heard(ReplicaId(i), now);
        }
        // r4 goes silent and gets suspected.
        let later = now + 1_500;
        for i in [0u32, 1, 3] {
            d.heard(ReplicaId(i), later);
        }
        let trs = d.poll_transitions(later);
        assert_eq!(trs.len(), 1);
        // Replace r0 with r8: r4's open suspicion must survive so its
        // eventual clear still reports a duration.
        let m = Membership::initial(5)
            .apply(&Reconfig {
                epoch: 1,
                add: vec![ReplicaId(8)],
                remove: vec![ReplicaId(0)],
            })
            .expect("valid");
        d.set_membership(&m, later);
        d.heard(ReplicaId(4), later + 500);
        let trs = d.poll_transitions(later + 500);
        assert_eq!(
            trs,
            vec![FdTransition::Cleared {
                peer: ReplicaId(4),
                suspected_us: 500,
            }]
        );
    }

    #[test]
    fn set_membership_tracks_new_epoch() {
        use crate::types::{Membership, Reconfig};
        let mut d = fd();
        let now = 10_000;
        for i in [0u32, 1, 3, 4] {
            d.heard(ReplicaId(i), now);
        }
        assert_eq!(d.mode(now), Mode::Fast);
        // Replace r0 with r8: N stays 5, ids go sparse.
        let m = Membership::initial(5)
            .apply(&Reconfig {
                epoch: 1,
                add: vec![ReplicaId(8)],
                remove: vec![ReplicaId(0)],
            })
            .expect("valid");
        d.set_membership(&m, now);
        // The removed replica is no longer alive or a candidate; the
        // joiner counts as heard at the switch (grace), so the mode
        // rule still sees 5 of 5.
        assert!(!d.is_alive(ReplicaId(0), now + 1));
        assert!(d.is_alive(ReplicaId(8), now + 1));
        assert_eq!(d.alive_count(now + 1), 5);
        assert_eq!(d.mode(now + 1), Mode::Fast);
        assert_eq!(d.candidate(now + 1), ReplicaId(1));
        // Retained members kept their history: r3 heard at `now` ages
        // out together with the joiner.
        assert_eq!(d.alive_count(now + 1_100), 1, "only self before refresh");
        d.heard(ReplicaId(8), now + 1_200);
        assert!(d.is_alive(ReplicaId(8), now + 1_300));
    }
}
