//! The ensemble's two settings and the protocol's fixed timings.
//!
//! Every timing is a constant (µs of the driver's clock): the one
//! deployment measured, here as in the paper, is a LAN ensemble, and no
//! experiment varies them. The assertions below the constants hold the
//! relations the protocol relies on, so an inconsistent edit fails the
//! build.

/// Heartbeat broadcast period (100 ms).
pub const HEARTBEAT_INTERVAL_US: u64 = 100_000;
/// Failure-detector suspicion timeout (should be several heartbeats:
/// 3.5 of them).
pub const FD_TIMEOUT_US: u64 = 350_000;
/// How long a proposer waits for its proposal to be delivered before
/// re-proposing (must exceed a typical commit latency): 1 s.
pub const PROPOSE_RETRY_US: u64 = 1_000_000;
/// How long the coordinator lets fast-round votes sit undecided
/// before starting collision recovery for the slot (150 ms).
pub const COLLISION_TIMEOUT_US: u64 = 150_000;
/// Maximum decided entries in one catch-up reply.
pub const LEARN_CHUNK: usize = 2_000;
/// How far (slots) a peer may run ahead before we ask to be caught
/// up instead of waiting for straggling `Accepted` broadcasts.
pub const CATCHUP_LAG_SLOTS: u64 = 8;
/// Minimum spacing between heartbeat-triggered `LearnRequest`s, so
/// a flurry of `Alive` messages from many peers cannot stampede the
/// catch-up path.
pub const ALIVE_CATCHUP_THROTTLE_US: u64 = 50_000;
/// Minimum spacing between gap-repair `LearnRequest`s issued from
/// the tick path when delivery is blocked on a hole.
pub const GAP_REPAIR_THROTTLE_US: u64 = 100_000;
/// How long a *small* lag (≤ [`CATCHUP_LAG_SLOTS`]) may persist with
/// no delivery progress before we request catch-up anyway. Covers
/// the tail of the log: when the final `Accepted` broadcasts of a
/// burst are lost, no further traffic will ever re-deliver them, so
/// waiting for the lag threshold would strand the replica behind.
pub const TAIL_CATCHUP_GRACE_US: u64 = 400_000;
/// How long a new coordinator waits for promises beyond the classic
/// quorum before finalizing phase 1 without the stragglers (waiting
/// for everyone recovers minority-accepted values after outages).
pub const PREPARE_GRACE_US: u64 = 200_000;

const _: () = assert!(FD_TIMEOUT_US > 2 * HEARTBEAT_INTERVAL_US);
const _: () = assert!(PROPOSE_RETRY_US > COLLISION_TIMEOUT_US);
// Stalled-tail catch-up must out-wait ordinary commit latency
// (several heartbeats) but fire well before a proposal retry.
const _: () = assert!(TAIL_CATCHUP_GRACE_US > 2 * HEARTBEAT_INTERVAL_US);
const _: () = assert!(TAIL_CATCHUP_GRACE_US < PROPOSE_RETRY_US);
const _: () = assert!(ALIVE_CATCHUP_THROTTLE_US < HEARTBEAT_INTERVAL_US);

/// What distinguishes one ensemble from another.
#[derive(Debug, Clone)]
pub struct PaxosConfig {
    /// Ensemble size `N`.
    pub n: usize,
    /// Whether fast rounds are ever used. With `false` the ensemble is a
    /// pure classic-Paxos deployment (the baseline configuration).
    pub fast_enabled: bool,
}

impl PaxosConfig {
    /// An ensemble of `n` on a LAN-like network, fast rounds enabled.
    pub fn lan(n: usize) -> Self {
        PaxosConfig {
            n,
            fast_enabled: true,
        }
    }

    /// Same as [`PaxosConfig::lan`] but with fast rounds disabled.
    pub fn lan_classic_only(n: usize) -> Self {
        PaxosConfig {
            n,
            fast_enabled: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_only_disables_fast() {
        assert!(PaxosConfig::lan(5).fast_enabled);
        assert!(!PaxosConfig::lan_classic_only(5).fast_enabled);
    }
}
