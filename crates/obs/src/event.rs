//! The typed trace event taxonomy.
//!
//! Every interesting state transition of the stack — consensus protocol
//! steps, middleware durability actions, recovery phases, and injected
//! faults — is expressed as one [`TraceEvent`] variant. Events carry
//! only plain integers, booleans, and `'static` tag strings so that a
//! record is cheap to construct, trivially hashable, and renders to a
//! canonical JSONL line (see [`crate::jsonl`]) without any allocation
//! beyond the output string.
//!
//! Field conventions: slots, rounds, epochs, and sequence numbers are
//! `u64`; node/replica ids are `u32`; times and durations are
//! microseconds of simulated time.

use crate::jsonl::{put_field, Field, Fields};

/// Mode tag for [`TraceEvent::ModeSwitch`] (`"fast"`, `"classic"`,
/// `"blocked"`). Kept as strings so `obs` stays independent of the
/// consensus crate.
pub const MODE_FAST: &str = "fast";
/// Classic mode tag.
pub const MODE_CLASSIC: &str = "classic";
/// Blocked mode tag.
pub const MODE_BLOCKED: &str = "blocked";

/// Declares the whole event vocabulary once. Each row is
/// `Variant = "kind_tag" { field [as "json_key"]: type, … }`; from the
/// rows the macro derives the [`TraceEvent`] enum, [`TraceEvent::kind`],
/// the JSONL field encoder and decoder ([`crate::jsonl`] supplies the
/// per-type [`Field`] codecs for `u64`/`u32`/`bool`/tag strings), and an
/// all-variants sample list for tests. Adding an event is one row here
/// (plus, for a new tag string, one entry in `jsonl`'s tag vocabulary).
/// A field's JSON key is its name unless renamed with `as`.
macro_rules! trace_events {
    ($(
        $(#[$vmeta:meta])*
        $variant:ident = $kind:literal $({
            $( $(#[$fmeta:meta])* $field:ident $(as $key:literal)? : $ty:ty ),* $(,)?
        })?
    ),* $(,)?) => {
        /// One traced state transition.
        ///
        /// Variants group into four families: the consensus protocol
        /// (proposal/promise/accept/decide, elections, mode switches), the
        /// replication middleware (batching, log appends, checkpoints, recovery
        /// phases, delivery), the simulated environment (crash/restart, message
        /// loss, disk faults), and the experiment harness (partitions, injected
        /// fault profiles, audit violations).
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum TraceEvent {
            $( $(#[$vmeta])* $variant $({ $( $(#[$fmeta])* $field: $ty ),* })? ),*
        }

        impl TraceEvent {
            /// Canonical snake_case tag identifying the variant; used as the
            /// JSONL `e` field and as the per-node counter name.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( TraceEvent::$variant { .. } => $kind, )*
                }
            }

            /// Appends the variant's fields as `,"key":value` pairs in
            /// declaration order (the canonical JSONL field order).
            pub(crate) fn encode_fields(&self, out: &mut String) {
                match self {
                    $( TraceEvent::$variant $({ $($field),* })? => {
                        $($( put_field(out, json_key!($field $($key)?), $field); )*)?
                    } )*
                }
            }

            /// Rebuilds an event of `kind` from a parsed line's fields;
            /// `Ok(None)` means the kind is not in this build's vocabulary
            /// (the caller decides strict vs skip).
            pub(crate) fn decode_fields(kind: &str, f: &Fields) -> Result<Option<TraceEvent>, String> {
                Ok(Some(match kind {
                    $( $kind => TraceEvent::$variant $({
                        $( $field: Field::get(f, json_key!($field $($key)?))? ),*
                    })?, )*
                    _ => return Ok(None),
                }))
            }

            /// One event per variant, in table order, every field built
            /// from the next integer `next` yields.
            #[cfg(test)]
            pub(crate) fn samples(next: &mut dyn FnMut() -> u64) -> Vec<TraceEvent> {
                vec![
                    $( TraceEvent::$variant $({ $( $field: Field::from_int(next()) ),* })? ),*
                ]
            }
        }
    };
}

/// A field's JSON key: its own name unless the table renames it.
macro_rules! json_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

trace_events! {
    // --- consensus protocol ---
    /// A proposer issued a new client proposal (its per-epoch sequence).
    ProposalIssued = "proposal_issued" {
        /// Proposer-local sequence number within the current epoch.
        seq: u64,
    },
    /// The local acceptor promised ballot `(round, by)`.
    Promised = "promised" {
        /// Ballot round number.
        round: u64,
        /// Replica owning the ballot.
        by: u32,
    },
    /// The local acceptor accepted a decree.
    Accepted = "accepted" {
        /// Consensus slot.
        slot: u64,
        /// Ballot round of the acceptance.
        round: u64,
        /// Whether the ballot was a fast one.
        fast: bool,
    },
    /// The local learner marked a slot decided.
    Decided = "decided" {
        /// The decided slot.
        slot: u64,
        /// Whether the decree was a gap-filling no-op.
        noop: bool,
    },
    /// The local coordinator started phase 1 for a new ballot.
    PrepareStarted = "prepare_started" {
        /// Ballot round being prepared.
        round: u64,
        /// Whether it is a fast ballot.
        fast: bool,
    },
    /// The local coordinator gathered its promise quorum and took over.
    LeaderElected = "leader_elected" {
        /// Round of the winning ballot.
        round: u64,
        /// Whether the new round is fast.
        fast: bool,
    },
    /// The failure detector's availability mode changed.
    ModeSwitch = "mode_switch" {
        /// Previous mode (`"fast"` / `"classic"` / `"blocked"`).
        from: &'static str,
        /// New mode.
        to: &'static str,
    },
    /// The local leader proposed a configuration change.
    ReconfigProposed = "reconfig_proposed" {
        /// The configuration epoch the change would create.
        epoch: u64,
        /// Replicas being added.
        adds: u32,
        /// Replicas being removed.
        removes: u32,
    },
    /// The replica switched to a new configuration epoch at its fenced
    /// slot (or adopted one wholesale from a snapshot, `slot` 0).
    EpochChanged = "epoch_change" {
        /// The configuration epoch now in force.
        epoch: u64,
        /// Ensemble size of the new configuration.
        // "replicas", not "n": the envelope already uses "n" for the
        // node id and duplicate keys would corrupt the decode.
        n as "replicas": u32,
        /// Fence slot of the reconfiguration decree (0 for adoption via
        /// state transfer).
        slot: u64,
    },
    /// The middleware dropped a protocol message stamped with an older
    /// configuration epoch than the local one.
    StaleEpochRejected = "stale_epoch_rejected" {
        /// Sending replica.
        from: u32,
        /// Epoch the message was stamped with.
        msg_epoch: u64,
        /// The local (newer) epoch.
        local_epoch: u64,
    },

    // --- replication middleware ---
    /// A locally submitted update received its per-epoch sequence number
    /// and entered the group-commit pipeline. The span profiler uses
    /// this as the root of each update's critical path.
    UpdateSubmitted = "update_submitted" {
        /// Submitter-local sequence number within the current epoch.
        seq: u64,
    },
    /// A group-commit batch was flushed into consensus. The batch
    /// carries the consecutive local sequence numbers
    /// `[first_seq, first_seq + updates)`, which is how the span
    /// profiler joins each update to its flush edge.
    BatchFlushed = "batch_flushed" {
        /// Updates coalesced into the batch.
        updates: u64,
        /// What closed the batch: `"size"`, `"window"`, or `"single"`.
        trigger: &'static str,
        /// Sequence number of the batch's first update.
        first_seq: u64,
    },
    /// A consensus record was appended to the stable log.
    LogAppend = "log_append" {
        /// Serialized entry size in bytes.
        bytes: u64,
    },
    /// A previously issued log append reached the platter (fsync ok).
    AppendDurable = "append_durable",
    /// A checkpoint write was issued.
    CheckpointWrite = "checkpoint_write" {
        /// Checkpoint generation number.
        generation: u64,
        /// Application watermark covered by the checkpoint.
        slot: u64,
        /// Modeled checkpoint size in bytes.
        bytes: u64,
    },
    /// A checkpoint write became durable.
    CheckpointDurable = "checkpoint_durable" {
        /// Checkpoint generation number.
        generation: u64,
    },
    /// Recovery started loading the newest durable checkpoint.
    CheckpointLoadStart = "checkpoint_load_start" {
        /// Modeled checkpoint size in bytes.
        bytes: u64,
    },
    /// The checkpoint finished loading.
    CheckpointLoaded = "checkpoint_loaded" {
        /// Watermark slot restored from the checkpoint.
        slot: u64,
    },
    /// Recovery started replaying the stable consensus log.
    LogReplayStart = "log_replay_start" {
        /// Log size in bytes to stream back.
        bytes: u64,
    },
    /// The stable log finished replaying.
    LogReplayed = "log_replayed" {
        /// Records recovered from the log.
        records: u64,
    },
    /// Recovery finished: checkpoint loaded, log replayed, and the
    /// backlog re-learned from peers up to the cluster watermark.
    RecoveryComplete = "recovery_complete" {
        /// First slot this replica will apply next.
        slot: u64,
    },
    /// An update was applied to the local state machine.
    UpdateDelivered = "update_delivered" {
        /// Consensus slot of the containing batch.
        slot: u64,
        /// Index of the update inside its batch.
        index: u64,
        /// Replica that submitted the update.
        submitter: u32,
        /// Submitter-local sequence number of the update.
        seq: u64,
        /// Submit-to-apply latency in µs (0 when the submitter was a
        /// different replica, whose clock we do not see).
        latency_us: u64,
    },
    /// The web tier sent the blocked client its reply after applying the
    /// client's update locally (the end of the paper's blocking
    /// `execute()` path).
    ReplySent = "reply_sent" {
        /// Submitter-local sequence number of the answered update.
        seq: u64,
    },

    // --- periodic load & resource samples ---
    /// One second of client-side interaction completions (emitted by a
    /// client node when its clock crosses into a new second; seconds
    /// with no completions emit nothing).
    ClientSample = "client_sample" {
        /// The sampled second (index from run start).
        sec: u64,
        /// Successful interactions completed in that second.
        ok: u64,
        /// Failed interactions (connection errors, timeouts) in it.
        err: u64,
    },
    /// Cumulative network totals, sampled by the proxy each probe round
    /// (the proxy never crashes, so the series is monotone and the
    /// timeline can difference it into per-window traffic).
    NetSample = "net_sample" {
        /// Messages submitted to the network so far.
        messages: u64,
        /// Payload bytes carried so far.
        bytes: u64,
    },
    /// A server's work-queue depth, sampled on its middleware tick.
    QueueSample = "queue_sample" {
        /// Queued work items (pages being rendered + updates applying).
        depth: u64,
    },

    // --- simulated environment ---
    /// The node crashed (volatile state lost).
    Crash = "crash",
    /// The node restarted with a fresh incarnation.
    Restart = "restart" {
        /// New incarnation number.
        incarnation: u64,
    },
    /// A crash tore the in-flight log append: a strict prefix survived.
    TornWrite = "torn_write" {
        /// Bytes of the entry that reached the platter.
        bytes_kept: u64,
    },
    /// An injected media error failed a durable write (fsync failure).
    DiskWriteFailed = "disk_write_failed",
    /// A message left its sender (traced against the sender at the
    /// moment the engine accepted the transmission). Every send attempt
    /// gets a fresh engine-global transmission id `xid`; the matching
    /// [`TraceEvent::MsgRecv`] (or `MsgDropped` / `MsgDuplicated`)
    /// carries the same id, which is how the causal reconstructor pairs
    /// the two ends of a wire crossing.
    MsgSent = "msg_sent" {
        /// Engine-global transmission id.
        xid: u64,
        /// Intended receiver.
        to: u32,
        /// Wire size in bytes.
        bytes: u64,
    },
    /// A message arrived at its destination (traced against the
    /// receiver at delivery time, just before the handler runs).
    MsgRecv = "msg_recv" {
        /// Transmission id of the matching [`TraceEvent::MsgSent`].
        xid: u64,
        /// Sending node.
        from: u32,
        /// Wire size in bytes.
        bytes: u64,
    },
    /// The causal tag a protocol message carried on the wire (traced
    /// against the sender right after its `MsgSent`). `slot` / `round`
    /// use `u64::MAX` for "not applicable to this message kind".
    MsgTag = "msg_tag" {
        /// Transmission id of the tagged send.
        xid: u64,
        /// Protocol message kind (`"accept"`, `"accepted"`, …).
        kind: &'static str,
        /// Replica that stamped the tag (the protocol-level sender).
        origin: u32,
        /// Sender-local causal sequence number (monotone per replica).
        cseq: u64,
        /// Consensus slot provenance, `u64::MAX` when none.
        slot: u64,
        /// Ballot-round provenance, `u64::MAX` when none.
        round: u64,
    },
    /// The network model dropped an outgoing message.
    MsgDropped = "msg_dropped" {
        /// Transmission id of the lost send.
        xid: u64,
        /// Intended receiver.
        to: u32,
        /// Wire size of the lost message.
        bytes: u64,
        /// `"partition"`, `"loss"`, or `"dest_down"`.
        reason: &'static str,
    },
    /// The network model duplicated an outgoing message (both copies
    /// share the original send's `xid`).
    MsgDuplicated = "msg_duplicated" {
        /// Transmission id of the duplicated send.
        xid: u64,
        /// Receiver of both copies.
        to: u32,
    },
    /// The local failure detector started suspecting a peer (silence
    /// exceeded the timeout).
    PeerSuspected = "peer_suspected" {
        /// The suspected replica.
        peer: u32,
        /// How long the peer had been silent when suspicion began, µs.
        silent_us: u64,
    },
    /// The local failure detector cleared a suspicion (the peer was
    /// heard from again, or a membership change absolved it).
    PeerCleared = "peer_cleared" {
        /// The no-longer-suspected replica.
        peer: u32,
        /// How long the suspicion lasted, µs.
        suspected_us: u64,
    },

    // --- experiment harness ---
    /// The harness cut this node off from `peers` other nodes.
    PartitionCut = "partition_cut" {
        /// Number of peers now unreachable.
        peers: u64,
    },
    /// The harness healed all partitions involving this node.
    PartitionHealed = "partition_healed",
    /// The harness installed a lossy link-fault profile on this node's
    /// links (loss/duplicate probabilities in parts per million).
    NetFaultSet = "net_fault_set" {
        /// Drop probability, ppm.
        loss_ppm: u64,
        /// Duplication probability, ppm.
        dup_ppm: u64,
    },
    /// The harness cleared this node's link faults.
    NetFaultCleared = "net_fault_cleared",
    /// The harness armed a disk-fault profile on this node.
    DiskFaultSet = "disk_fault_set" {
        /// Write-failure probability, ppm.
        fail_ppm: u64,
        /// Whether crashes tear the in-flight append.
        torn: bool,
    },
    /// The harness disarmed this node's disk faults.
    DiskFaultCleared = "disk_fault_cleared",
    /// The invariant auditor recorded one or more new violations.
    AuditViolation = "audit_violation" {
        /// Cumulative violation count after this check.
        count: u64,
    },
    /// The online monitor saw a rule breach (not yet debounced).
    AlertPending = "alert_pending" {
        /// Rule name from the monitor's declarative rule set.
        rule: &'static str,
        /// Node the alert is about, or `u32::MAX` for cluster scope.
        subject: u32,
    },
    /// A monitor alert debounced into the firing state (a page).
    AlertFiring = "alert_firing" {
        /// Rule name.
        rule: &'static str,
        /// Node the alert is about, or `u32::MAX` for cluster scope.
        subject: u32,
        /// Time spent pending before firing, µs.
        pending_us: u64,
    },
    /// A firing monitor alert stayed clean long enough to resolve.
    AlertResolved = "alert_resolved" {
        /// Rule name.
        rule: &'static str,
        /// Node the alert is about, or `u32::MAX` for cluster scope.
        subject: u32,
        /// Time spent firing before resolving, µs.
        firing_us: u64,
    },
}

/// One trace record: an event stamped with simulated time and node id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time of the event, microseconds.
    pub t_us: u64,
    /// Node the event belongs to (dense simnet index).
    pub node: u32,
    /// The event.
    pub event: TraceEvent,
}

/// A dense node index, or a count of nodes, as the `u32` that trace
/// records, replica ids and the injection log carry. A cluster has a
/// handful of nodes, so the narrowing never drops a bit.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a cluster has a handful of nodes, so the narrowing never drops a bit"
)]
#[inline]
pub const fn node_u32(index: usize) -> u32 {
    index as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_unique() {
        let mut kinds: Vec<&str> = TraceEvent::samples(&mut || 0)
            .iter()
            .map(TraceEvent::kind)
            .collect();
        kinds.sort_unstable();
        let before = kinds.len();
        kinds.dedup();
        assert_eq!(before, kinds.len(), "duplicate kind tag");
    }
}
