//! The Treplica middleware node: consensus + durable log + checkpoints +
//! autonomous recovery behind the paper's state-machine interface.
//!
//! One [`Middleware`] instance runs per replica process. Like the
//! `paxos` core it is sans-io: the driver (the `cluster` crate, on
//! `simnet`) feeds it network messages, disk completions and ticks, and
//! applies the [`MwEffect`]s it returns. This is where the paper's
//! recovery story lives (§2, "Recovery"):
//!
//! * every acceptor record is appended to the durable `paxos.log`
//!   *before* its protocol message leaves the node;
//! * periodically the application state is checkpointed to disk and the
//!   log truncated to the suffix past the checkpoint;
//! * on restart, the node reloads the newest checkpoint (a bulk disk
//!   read proportional to the *modeled* state size) **in parallel with**
//!   re-reading its log and re-learning the backlog from the live
//!   replicas — exactly the two overlapping transfers whose relative
//!   sizes explain the recovery-time shapes in the paper's Figure 6.

use std::collections::BTreeMap;

use obs::{EventBuf, TraceConfig, TraceEvent};
use paxos::{
    Ballot, Batch, Effect as PaxosEffect, Membership, Mode, Msg, PaxosConfig, PersistToken,
    ProposalId, Record, Replica, ReplicaId, ReplicaStatus, Slot,
};
use simnet::{StableOp, StableStore};

use crate::app::{Application, Snapshot};
use crate::codec::record_slot;
use crate::impl_wire_struct;
use crate::queue::PersistentQueue;
use crate::wire::{Wire, WireError};

/// Key of the checkpoint metadata record.
pub const META_KEY: &str = "treplica.meta";
/// Name of the durable consensus log.
pub const LOG_NAME: &str = "paxos.log";

/// Per-message wire overhead added to encoded payloads (Ethernet + IP +
/// UDP headers).
const WIRE_OVERHEAD: u64 = 46;

/// Middleware tuning knobs.
#[derive(Debug, Clone)]
pub struct TreplicaConfig {
    /// Consensus configuration.
    pub paxos: PaxosConfig,
    /// Actions applied between checkpoints.
    pub checkpoint_interval: u64,
    /// Decided history retained in memory *behind* the checkpoint so
    /// recovering peers can learn their backlog without a full state
    /// transfer. If a peer falls further behind than this, the snapshot
    /// transfer path ([`MwMsg::SnapshotRequest`]) takes over.
    pub retention_slots: u64,
    /// Group commit: maximum updates coalesced into one consensus
    /// decree. `1` disables batching (every update is its own decree,
    /// the pre-batching behavior).
    pub batch_max_updates: usize,
    /// Group commit: maximum time (µs) the first update of a batch may
    /// wait for company before the batch is proposed anyway. `0` flushes
    /// every update immediately, regardless of `batch_max_updates`.
    pub batch_window_us: u64,
    /// Structured tracing (off by default: zero overhead when off).
    pub trace: TraceConfig,
}

impl TreplicaConfig {
    /// LAN defaults for an ensemble of `n` replicas (batching off).
    pub fn lan(n: usize) -> Self {
        TreplicaConfig {
            paxos: PaxosConfig::lan(n),
            checkpoint_interval: 2_000,
            retention_slots: 200_000,
            batch_max_updates: 1,
            batch_window_us: 0,
            trace: TraceConfig::default(),
        }
    }
}

/// Checkpoint metadata, durably written after its checkpoint data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Meta {
    /// Slots below this are covered by the checkpoint.
    pub checkpoint_slot: Slot,
    /// Checkpoint generation (its key is `treplica.ckpt.<generation>`).
    pub generation: u64,
    /// Promise floor: the acceptor must never promise below this (covers
    /// `Promised` records dropped by log truncation).
    pub promised: Ballot,
    /// Configuration epoch in force when the checkpoint was taken.
    pub epoch: u64,
    /// Member set of that epoch (restart resumes under it; newer epochs
    /// are re-learned from the log or from peers).
    pub members: Vec<ReplicaId>,
}

impl Meta {
    /// The key the checkpoint data of `generation` lives under.
    pub fn ckpt_key(generation: u64) -> String {
        format!("treplica.ckpt.{generation}")
    }
}

impl_wire_struct!(Meta {
    checkpoint_slot,
    generation,
    promised,
    epoch,
    members
});

/// Messages exchanged between middleware nodes: consensus traffic plus
/// the snapshot-transfer protocol used when a recovering replica's
/// backlog fell past the peers' retained history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MwMsg<A> {
    /// Consensus-layer traffic, stamped with the sender's configuration
    /// epoch so a reconfigured cohort can fence out stragglers: messages
    /// from an older epoch are dropped (and traced) instead of being
    /// counted under the new epoch's quorum rule.
    Paxos {
        /// Sender's configuration epoch at send time.
        epoch: u64,
        /// Causal provenance stamp (origin node, monotone send counter,
        /// slot/ballot), carried on every transmission so receivers'
        /// traces can be joined back to senders'. Stamped
        /// unconditionally — the counter advances and the bytes ship
        /// whether or not tracing is on, keeping traced and untraced
        /// runs byte-identical.
        tag: paxos::CausalTag,
        /// The consensus message.
        msg: Msg<A>,
    },
    /// A recovering replica asks a peer for its current state.
    SnapshotRequest,
    /// Full state transfer: `data` restores an application covering all
    /// slots below `covers`; `nominal` is the modeled transfer size.
    /// Carries the sender's configuration so a freshly provisioned node
    /// adopts the current member set along with the state.
    SnapshotReply {
        /// Delivery resumes at this slot after restoring.
        covers: Slot,
        /// Configuration epoch of the snapshot.
        epoch: u64,
        /// Member set of that epoch.
        members: Vec<ReplicaId>,
        /// Serialized application state.
        data: Vec<u8>,
        /// Modeled size (drives network transfer latency).
        nominal: u64,
    },
}

impl<A: Wire> MwMsg<A> {
    /// Bytes this message occupies on the wire (headers included); the
    /// snapshot payload is charged at its modeled size.
    pub fn wire_bytes(&self) -> u64 {
        WIRE_OVERHEAD
            + match self {
                MwMsg::Paxos { tag, msg, .. } => 1 + 8 + tag.wire_size() + msg.wire_size(),
                MwMsg::SnapshotRequest => 1,
                MwMsg::SnapshotReply {
                    members, nominal, ..
                } => 1 + 8 + 8 + 8 + members.wire_size() + *nominal,
            }
    }
}

/// Effects the driver must apply.
#[derive(Debug)]
pub enum MwEffect<App: Application> {
    /// Send a middleware message (wire size already computed).
    Send {
        /// Destination replica.
        to: ReplicaId,
        /// The message.
        msg: MwMsg<Batch<App::Action>>,
        /// Bytes on the wire (payload + headers).
        bytes: u64,
    },
    /// Issue a durable disk operation; completion must be reported via
    /// [`Middleware::on_disk_write_done`] with the same token.
    DiskWrite {
        /// The operation.
        op: StableOp,
        /// Completion token.
        token: u64,
        /// If set, the written key models this many bytes (drives the
        /// recovery read latency).
        nominal: Option<u64>,
    },
    /// Issue a bulk keyed read; completion via
    /// [`Middleware::on_disk_read_done`].
    DiskRead {
        /// Key to read.
        key: String,
        /// Completion token.
        token: u64,
    },
    /// Issue a raw read of `bytes` (log replay); completion via
    /// [`Middleware::on_disk_read_done`] with `value: None`.
    DiskReadRaw {
        /// Bytes to read.
        bytes: u64,
        /// Completion token.
        token: u64,
    },
    /// An action committed and was applied to the local state.
    Applied {
        /// Slot that ordered it.
        slot: Slot,
        /// Position inside the slot's batch (0 when batching is off).
        index: u32,
        /// Proposal identity (matches the id returned by `execute`).
        pid: ProposalId,
        /// Configuration epoch the slot was decided under.
        epoch: u64,
        /// The application's reply.
        reply: App::Reply,
    },
    /// A reconfiguration decree reached its fence: this node now runs
    /// under configuration `epoch` with the given member set (the driver
    /// provisions joiners / decommissions leavers on this signal).
    Reconfigured {
        /// The fence slot.
        slot: Slot,
        /// The new configuration epoch.
        epoch: u64,
        /// Members of the new epoch.
        members: Vec<ReplicaId>,
    },
    /// Recovery finished: checkpoint restored, log replayed, backlog
    /// re-learned. The replica now serves as if it had never crashed.
    RecoveryComplete,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TokenKind {
    PaxosPersist(PersistToken),
    CheckpointData,
    MetaWrite,
    LogTruncate,
    CheckpointDelete,
    CheckpointRead,
    LogRead,
}

/// Mirror of the durable log's shape (entry slots and sizes) kept in
/// memory for truncation decisions and recovery-read sizing.
#[derive(Debug, Default)]
struct LogMirror {
    first_index: u64,
    entries: Vec<(Option<Slot>, u64)>,
    /// Sum of the entries' sizes, kept by `push` and `truncate_front`.
    bytes: u64,
}

impl LogMirror {
    fn push(&mut self, slot: Option<Slot>, bytes: u64) {
        self.entries.push((slot, bytes));
        self.bytes += bytes;
    }

    fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Stable index of the first entry with an `Accepted` slot ≥ `cut`;
    /// entries before it are covered by the checkpoint.
    fn keep_from(&self, cut: Slot) -> u64 {
        for (i, (slot, _)) in self.entries.iter().enumerate() {
            if let Some(s) = slot {
                if *s >= cut {
                    return self.first_index + i as u64;
                }
            }
        }
        self.first_index + self.entries.len() as u64
    }

    fn truncate_front(&mut self, keep_from: u64) {
        if keep_from <= self.first_index {
            return;
        }
        let drop = ((keep_from - self.first_index) as usize).min(self.entries.len());
        let dropped: u64 = self.entries.drain(..drop).map(|(_, b)| b).sum();
        self.bytes -= dropped;
        self.first_index = keep_from.max(self.first_index);
    }
}

/// The durable state found on disk at restart.
#[derive(Debug)]
pub struct RecoveredDisk {
    /// Decoded checkpoint metadata, if a checkpoint completed before the
    /// crash.
    pub meta: Option<Meta>,
    /// Raw log entries (decoded lazily after the modeled log read).
    pub log_entries: Vec<Vec<u8>>,
    /// Stable index of the first surviving log entry; keeps the in-memory
    /// mirror aligned with the durable log across restarts so later
    /// checkpoint truncations cut at the right place.
    pub log_first_index: u64,
    /// Total log bytes (sizes the modeled read).
    pub log_bytes: u64,
}

impl RecoveredDisk {
    /// Inspects a node's stable store after restart.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the metadata record is corrupt.
    pub fn from_store(store: &StableStore) -> Result<RecoveredDisk, WireError> {
        let meta = match store.get(META_KEY) {
            Some(bytes) => Some(Meta::from_bytes(bytes)?),
            None => None,
        };
        let (log_entries, log_first_index, log_bytes) = match store.log(LOG_NAME) {
            Some(log) => (
                log.iter().map(|(_, e)| e.to_vec()).collect(),
                log.first_index(),
                log.bytes(),
            ),
            None => (Vec::new(), 0, 0),
        };
        Ok(RecoveredDisk {
            meta,
            log_entries,
            log_first_index,
            log_bytes,
        })
    }
}

#[derive(Debug)]
enum Phase {
    Active,
    Recovering {
        log_done: bool,
        checkpoint_done: bool,
        announced: bool,
    },
}

/// Error returned by [`Middleware::execute`] while the replica is still
/// recovering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StillRecovering;

impl std::fmt::Display for StillRecovering {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "replica is still recovering")
    }
}

impl std::error::Error for StillRecovering {}

/// Introspection snapshot of a middleware node.
#[derive(Debug, Clone)]
pub struct MwStatus {
    /// Consensus-layer status.
    pub paxos: ReplicaStatus,
    /// Whether recovery is still in progress.
    pub recovering: bool,
    /// Actions applied to the local state machine.
    pub applied: u64,
    /// Slot covered by the newest completed checkpoint.
    pub checkpoint_slot: Slot,
    /// Completed checkpoints.
    pub checkpoints: u64,
    /// Current durable-log size (mirror estimate).
    pub log_bytes: u64,
    /// Updates buffered in the open (not yet proposed) batch.
    pub pending_batch: usize,
}

/// One Treplica middleware node.
#[derive(Debug)]
pub struct Middleware<App: Application> {
    id: ReplicaId,
    config: TreplicaConfig,
    paxos: Replica<Batch<App::Action>>,
    app: Option<App>,
    queue: PersistentQueue<App::Action>,
    phase: Phase,
    tokens: BTreeMap<u64, TokenKind>,
    next_token: u64,
    log: LogMirror,
    applied: u64,
    applied_since_checkpoint: u64,
    checkpoint_slot: Slot,
    checkpoint_generation: u64,
    checkpoints_completed: u64,
    checkpoint_in_flight: bool,
    pending_meta: Option<Meta>,
    now: u64,
    epoch: u64,
    recovery_completed_at: Option<u64>,
    /// Group commit: updates buffered for the next batch proposal.
    pending_batch: Vec<(ProposalId, App::Action)>,
    /// When the open batch must be flushed even if not full.
    batch_deadline: Option<u64>,
    /// Allocator for per-update proposal ids (`execute` hands these out
    /// before the update joins a batch).
    update_seq: u64,
    /// Structured trace events (middleware-level, interleaved with the
    /// consensus core's in emission order). Drained by the driver via
    /// [`Middleware::take_trace`].
    trace: EventBuf,
    /// Submit times of locally-issued updates, for commit-latency trace
    /// points. Only populated while tracing is enabled.
    submit_times: BTreeMap<ProposalId, u64>,
    /// Monotone causal-tag counter, advanced on every protocol send.
    /// Unconditional (not trace-gated): the counter shapes the bytes on
    /// the wire, so it must not depend on whether anyone is watching.
    causal_seq: u64,
    /// Reused encode buffer for the per-message persist path (one
    /// exact-sized allocation per record instead of a growth chain).
    scratch: crate::wire::EncodeScratch,
}

impl<App: Application> Middleware<App> {
    /// Creates a fresh replica (first boot, empty disk) hosting `app`,
    /// and immediately checkpoints the initial state (the populated
    /// database is durable before the service opens, so any later
    /// recovery pays the full state reload the paper measures).
    pub fn bootstrap(
        id: ReplicaId,
        app: App,
        config: TreplicaConfig,
        now: u64,
    ) -> (Self, Vec<MwEffect<App>>) {
        let membership = Membership::initial(config.paxos.n);
        Self::bootstrap_with_membership(id, app, config, membership, now)
    }

    /// Like [`Middleware::bootstrap`], but under an explicit (possibly
    /// post-reconfiguration) member set — how the driver provisions a
    /// node joining mid-run: hand it the cluster's current configuration
    /// and let catch-up (log shipping or snapshot transfer) fill its
    /// state.
    pub fn bootstrap_with_membership(
        id: ReplicaId,
        app: App,
        config: TreplicaConfig,
        membership: Membership,
        now: u64,
    ) -> (Self, Vec<MwEffect<App>>) {
        let mut mw = Self::new_with_membership(id, app, config, membership, now);
        let mut out = Vec::new();
        mw.start_checkpoint(&mut out);
        (mw, out)
    }

    /// Creates a fresh replica (first boot, empty disk) hosting `app`.
    pub fn new(id: ReplicaId, app: App, config: TreplicaConfig, now: u64) -> Self {
        let membership = Membership::initial(config.paxos.n);
        Self::new_with_membership(id, app, config, membership, now)
    }

    /// [`Middleware::new`] under an explicit member set.
    pub fn new_with_membership(
        id: ReplicaId,
        app: App,
        config: TreplicaConfig,
        membership: Membership,
        now: u64,
    ) -> Self {
        let paxos = Replica::new_with_membership(id, config.paxos.clone(), membership, now);
        Middleware {
            app: Some(app),
            ..Self::base(id, config, paxos, now)
        }
    }

    /// A node at time `now` around `paxos` with nothing hosted, applied,
    /// checkpointed or in flight: what `new_with_membership` and
    /// `recover` both start from.
    fn base(
        id: ReplicaId,
        config: TreplicaConfig,
        mut paxos: Replica<Batch<App::Action>>,
        now: u64,
    ) -> Self {
        // Events feed both the full trace and the flight recorder, so
        // the buffers run whenever either sink is configured.
        paxos.set_tracing(config.trace.record_events());
        let trace = EventBuf::new(config.trace.record_events());
        Middleware {
            id,
            config,
            paxos,
            app: None,
            queue: PersistentQueue::new(),
            phase: Phase::Active,
            tokens: BTreeMap::new(),
            next_token: 0,
            log: LogMirror::default(),
            applied: 0,
            applied_since_checkpoint: 0,
            checkpoint_slot: Slot::ZERO,
            checkpoint_generation: 0,
            checkpoints_completed: 0,
            checkpoint_in_flight: false,
            pending_meta: None,
            now,
            epoch: 0,
            recovery_completed_at: None,
            pending_batch: Vec::new(),
            batch_deadline: None,
            update_seq: 0,
            trace,
            submit_times: BTreeMap::new(),
            causal_seq: 0,
            scratch: crate::wire::EncodeScratch::new(),
        }
    }

    /// Restarts a replica from its durable disk contents.
    ///
    /// `epoch` must strictly exceed the crashed incarnation's (the driver
    /// uses the simulator's incarnation counter). Returns the middleware
    /// (in recovery phase) plus the two bulk reads to issue: the
    /// checkpoint load and the log replay, which proceed in parallel.
    pub fn recover(
        id: ReplicaId,
        disk: RecoveredDisk,
        config: TreplicaConfig,
        epoch: u64,
        now: u64,
    ) -> (Self, Vec<MwEffect<App>>) {
        let meta = disk.meta.clone();
        let start_slot = meta
            .as_ref()
            .map(|m| m.checkpoint_slot)
            .unwrap_or(Slot::ZERO);
        let promised_floor = meta.as_ref().map(|m| m.promised).unwrap_or(Ballot::BOTTOM);
        // Resume under the checkpoint's configuration; any reconfiguration
        // decided since is re-learned from the log suffix or from peers
        // (whose snapshot replies carry their newer epoch).
        let membership = match meta.as_ref() {
            Some(m) if !m.members.is_empty() => Membership::new(m.epoch, m.members.clone()),
            _ => Membership::initial(config.paxos.n),
        };

        // Decode the surviving log records; the modeled read latency is
        // charged via the DiskReadRaw effect below. A crash mid-append
        // can leave a torn (truncated) record: its decode fails, but it
        // still occupies a stable log index, so mirror it as a slot-less
        // placeholder — dropping it would misalign every later entry's
        // index and make checkpoint truncation cut the wrong records.
        // Records appended by later incarnations after a torn tail must
        // keep replaying.
        let mut records: Vec<Record<Batch<App::Action>>> = Vec::new();
        let mut mirror = LogMirror {
            first_index: disk.log_first_index,
            ..LogMirror::default()
        };
        for entry in &disk.log_entries {
            match Record::from_bytes(entry) {
                Ok(r) => {
                    mirror.push(
                        match &r {
                            Record::Accepted { slot, .. } => Some(*slot),
                            Record::Promised(_) => None,
                        },
                        entry.len() as u64,
                    );
                    records.push(r);
                }
                Err(_) => mirror.push(None, entry.len() as u64),
            }
        }
        let floor_record = Record::Promised(promised_floor);
        let paxos = Replica::recover_with_membership(
            id,
            config.paxos.clone(),
            membership,
            std::iter::once(&floor_record).chain(records.iter()),
            start_slot,
            epoch,
            now,
        );
        let mut mw = Middleware {
            phase: Phase::Recovering {
                log_done: false,
                checkpoint_done: false,
                announced: false,
            },
            log: mirror,
            checkpoint_slot: start_slot,
            checkpoint_generation: meta.as_ref().map(|m| m.generation).unwrap_or(0),
            epoch,
            ..Self::base(id, config, paxos, now)
        };
        let mut fx = Vec::new();
        let log_token = mw.alloc(TokenKind::LogRead);
        mw.trace.push(TraceEvent::LogReplayStart {
            bytes: disk.log_bytes,
        });
        fx.push(MwEffect::DiskReadRaw {
            bytes: disk.log_bytes,
            token: log_token,
        });
        match meta {
            Some(m) => {
                let ckpt_token = mw.alloc(TokenKind::CheckpointRead);
                mw.trace.push(TraceEvent::CheckpointLoadStart { bytes: 0 });
                fx.push(MwEffect::DiskRead {
                    key: Meta::ckpt_key(m.generation),
                    token: ckpt_token,
                });
            }
            None => {
                // Nothing ever checkpointed: the application starts
                // empty and replays everything through the queue. The
                // caller must provide the initial state via
                // `install_initial_state`.
                if let Phase::Recovering {
                    checkpoint_done, ..
                } = &mut mw.phase
                {
                    *checkpoint_done = true;
                }
            }
        }
        (mw, fx)
    }

    /// Supplies the application for a recovery that found no checkpoint
    /// (e.g. a crash before the first checkpoint completed). The state
    /// must be the same deterministic initial state all replicas booted
    /// with; the queue backlog replays everything on top.
    pub fn install_initial_state(&mut self, app: App) {
        if self.app.is_none() {
            self.app = Some(app);
        }
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The hosted application (the paper's `getState()`', None only
    /// while a recovery's checkpoint is still loading).
    pub fn state(&self) -> Option<&App> {
        self.app.as_ref()
    }

    /// Whether this node is still recovering.
    pub fn is_recovering(&self) -> bool {
        matches!(self.phase, Phase::Recovering { .. })
    }

    /// When recovery completed (driver clock), if it has.
    pub fn recovery_completed_at(&self) -> Option<u64> {
        self.recovery_completed_at
    }

    /// Introspection snapshot.
    pub fn status(&self) -> MwStatus {
        MwStatus {
            paxos: self.paxos.status(),
            recovering: self.is_recovering(),
            applied: self.applied,
            checkpoint_slot: self.checkpoint_slot,
            checkpoints: self.checkpoints_completed,
            log_bytes: self.log.bytes(),
            pending_batch: self.pending_batch.len(),
        }
    }

    /// Consensus operating mode (fast / classic / blocked).
    pub fn mode(&self) -> Mode {
        self.paxos.mode()
    }

    fn alloc(&mut self, kind: TokenKind) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        self.tokens.insert(t, kind);
        t
    }

    /// Submits a deterministic action for total ordering (the paper's
    /// `execute()`; asynchronous — completion arrives as
    /// [`MwEffect::Applied`] with the returned id). `now` is the caller's
    /// clock, used to arm the group-commit window.
    ///
    /// The update joins the open batch; the batch is proposed as a
    /// single consensus decree once it holds
    /// [`TreplicaConfig::batch_max_updates`] updates or its
    /// [`TreplicaConfig::batch_window_us`] window expires (the driver
    /// polls [`Middleware::batch_deadline`] and calls
    /// [`Middleware::on_batch_timer`]).
    ///
    /// # Errors
    ///
    /// Returns [`StillRecovering`] until recovery completes.
    pub fn execute(
        &mut self,
        action: App::Action,
        now: u64,
    ) -> Result<(ProposalId, Vec<MwEffect<App>>), StillRecovering> {
        if self.is_recovering() {
            return Err(StillRecovering);
        }
        self.now = self.now.max(now);
        let pid = ProposalId {
            node: self.id,
            epoch: self.epoch,
            seq: self.update_seq,
        };
        self.update_seq += 1;
        if self.trace.enabled() {
            self.submit_times.insert(pid, self.now);
            self.trace
                .push(TraceEvent::UpdateSubmitted { seq: pid.seq });
        }
        let mut out = Vec::new();
        self.buffer_update(pid, action, &mut out);
        Ok((pid, out))
    }

    /// Adds an update to the open batch, flushing it when full (or
    /// immediately when the window is zero).
    fn buffer_update(
        &mut self,
        pid: ProposalId,
        action: App::Action,
        out: &mut Vec<MwEffect<App>>,
    ) {
        self.pending_batch.push((pid, action));
        if self.config.batch_window_us == 0 || self.config.batch_max_updates.max(1) == 1 {
            self.flush_pending("single", out);
        } else if self.pending_batch.len() >= self.config.batch_max_updates {
            self.flush_pending("size", out);
        } else if self.batch_deadline.is_none() {
            self.batch_deadline = Some(self.now + self.config.batch_window_us);
        }
    }

    /// Proposes the open batch as one consensus decree (one acceptor log
    /// append per replica instead of one per update — the group commit).
    /// `trigger` tags the trace event with what closed the batch.
    fn flush_pending(&mut self, trigger: &'static str, out: &mut Vec<MwEffect<App>>) {
        if self.pending_batch.is_empty() {
            return;
        }
        self.batch_deadline = None;
        let items = std::mem::take(&mut self.pending_batch);
        self.trace.push(TraceEvent::BatchFlushed {
            updates: items.len() as u64,
            trigger,
            first_seq: items.first().map_or(0, |(pid, _)| pid.seq),
        });
        let (_batch_pid, fx) = self.paxos.propose(Batch::new(items));
        let lowered = self.lower(fx);
        out.extend(lowered);
    }

    /// When the open batch must be flushed, if one is open. The driver
    /// arms a timer for this instant and calls
    /// [`Middleware::on_batch_timer`] when it fires.
    pub fn batch_deadline(&self) -> Option<u64> {
        self.batch_deadline
    }

    /// The group-commit window expired: propose whatever accumulated.
    /// Safe to call spuriously (stale timers are no-ops).
    pub fn on_batch_timer(&mut self, now: u64) -> Vec<MwEffect<App>> {
        self.now = self.now.max(now);
        let mut out = Vec::new();
        if self.batch_deadline.is_some_and(|d| d <= self.now) {
            self.flush_pending("window", &mut out);
        }
        out
    }

    /// Feeds an incoming middleware message.
    pub fn on_message(
        &mut self,
        from: ReplicaId,
        msg: MwMsg<Batch<App::Action>>,
        now: u64,
    ) -> Vec<MwEffect<App>> {
        self.now = self.now.max(now);
        if let Phase::Recovering {
            log_done: false, ..
        } = self.phase
        {
            // The process is still reading its log; like a booting
            // process whose sockets aren't up yet, it hears nothing.
            return Vec::new();
        }
        match msg {
            MwMsg::Paxos { epoch, msg: m, .. } => {
                let local = self.paxos.config_epoch();
                // Learning traffic is epoch-agnostic: it only reports
                // already-decided slots, and it is exactly what carries a
                // straggler (or a joiner) across a fence.
                let epoch_agnostic = matches!(
                    m,
                    Msg::Alive { .. } | Msg::LearnRequest { .. } | Msg::LearnReply { .. }
                );
                if !epoch_agnostic {
                    if epoch < local {
                        // Stale configuration: the sender has not crossed
                        // the fence yet. Counting its votes under the new
                        // epoch's quorum rule would be unsound.
                        self.trace.push(TraceEvent::StaleEpochRejected {
                            from: from.0,
                            msg_epoch: epoch,
                            local_epoch: local,
                        });
                        return Vec::new();
                    }
                    if epoch > local {
                        // We are behind the fence ourselves; only learning
                        // traffic until catch-up delivers the switch.
                        return Vec::new();
                    }
                }
                let fx = self.paxos.on_message(from, m, now);
                let mut out = self.lower(fx);
                self.maybe_request_snapshot(&mut out);
                out
            }
            MwMsg::SnapshotRequest => {
                let mut out = Vec::new();
                if let Some(app) = self.app.as_ref() {
                    if !self.is_recovering() {
                        let Snapshot {
                            data,
                            nominal_bytes,
                        } = app.snapshot();
                        let reply = MwMsg::SnapshotReply {
                            covers: self.paxos.decided_upto(),
                            // The epoch in force at `covers` (the
                            // delivery watermark), which is what the
                            // receiver resumes replay under.
                            epoch: self.paxos.log_epoch(),
                            members: self.paxos.membership().members().to_vec(),
                            data,
                            nominal: nominal_bytes,
                        };
                        let bytes = reply.wire_bytes();
                        out.push(MwEffect::Send {
                            to: from,
                            msg: reply,
                            bytes,
                        });
                    }
                }
                out
            }
            MwMsg::SnapshotReply {
                covers,
                epoch,
                members,
                data,
                ..
            } => {
                let mut out = Vec::new();
                if covers > self.paxos.decided_upto() {
                    if let Ok(app) = App::restore(&data) {
                        self.app = Some(app);
                        if let Phase::Recovering {
                            checkpoint_done, ..
                        } = &mut self.phase
                        {
                            *checkpoint_done = true;
                        }
                        // Adopt the sender's configuration along with its
                        // state: slots at `covers` and above were decided
                        // under it.
                        if epoch > self.paxos.config_epoch() && !members.is_empty() {
                            self.paxos.adopt_membership(Membership::new(epoch, members));
                        }
                        let fx = self.paxos.fast_forward(covers, epoch);
                        out.extend(self.lower(fx));
                    }
                }
                self.check_recovery_done(&mut out);
                out
            }
        }
    }

    /// Proposes a configuration change (the admin "add/remove/replace
    /// node" operation). Succeeds only on the current leader with no
    /// other reconfiguration in flight; the driver retries elsewhere on
    /// `false`. Completion arrives as [`MwEffect::Reconfigured`] at every
    /// member once the decree passes its fence.
    pub fn execute_reconfig(
        &mut self,
        add: Vec<ReplicaId>,
        remove: Vec<ReplicaId>,
        now: u64,
    ) -> (bool, Vec<MwEffect<App>>) {
        self.now = self.now.max(now);
        if self.is_recovering() {
            return (false, Vec::new());
        }
        let (ok, fx) = self.paxos.propose_reconfig(add, remove);
        let out = self.lower(fx);
        (ok, out)
    }

    /// The configuration (epoch + member set) this node currently runs
    /// under.
    pub fn membership(&self) -> &Membership {
        self.paxos.membership()
    }

    /// Whether a reconfiguration removed this node from the ensemble.
    pub fn is_retired(&self) -> bool {
        self.paxos.is_retired()
    }

    /// If a catch-up exchange revealed peers truncated past our
    /// watermark, ask the revealing peer for a full state transfer.
    fn maybe_request_snapshot(&mut self, out: &mut Vec<MwEffect<App>>) {
        if let Some((peer, _)) = self.paxos.take_snapshot_needed() {
            let msg = MwMsg::SnapshotRequest;
            let bytes = msg.wire_bytes();
            out.push(MwEffect::Send {
                to: peer,
                msg,
                bytes,
            });
        }
    }

    /// Periodic tick (heartbeats, elections, retries, checkpoint policy).
    pub fn on_tick(&mut self, now: u64) -> Vec<MwEffect<App>> {
        self.now = self.now.max(now);
        let mut out = if matches!(
            self.phase,
            Phase::Recovering {
                log_done: false,
                ..
            }
        ) {
            Vec::new()
        } else {
            let mut out = Vec::new();
            // Backstop for the group-commit window: the dedicated batch
            // timer normally flushes first, but a tick past the deadline
            // must not leave updates stranded.
            if self.batch_deadline.is_some_and(|d| d <= self.now) {
                self.flush_pending("window", &mut out);
            }
            let fx = self.paxos.on_tick(now);
            out.extend(self.lower(fx));
            out
        };
        self.maybe_request_snapshot(&mut out);
        self.check_recovery_done(&mut out);
        out
    }

    /// A durable write completed.
    pub fn on_disk_write_done(&mut self, token: u64) -> Vec<MwEffect<App>> {
        let kind = match self.tokens.remove(&token) {
            Some(k) => k,
            None => return Vec::new(),
        };
        match kind {
            TokenKind::PaxosPersist(pt) => {
                self.trace.push(TraceEvent::AppendDurable);
                let fx = self.paxos.on_persisted(pt);
                self.lower(fx)
            }
            TokenKind::CheckpointData => {
                // Data durable: now commit the metadata pointing at it.
                // Missing staged metadata is a token-bookkeeping bug;
                // skip the completion instead of killing the replica
                // outside the fault model (debug builds still assert).
                let Some(meta) = self.pending_meta.clone() else {
                    debug_assert!(false, "CheckpointData completion without staged meta");
                    return Vec::new();
                };
                let token = self.alloc(TokenKind::MetaWrite);
                let value = self.scratch.encode(&meta);
                vec![MwEffect::DiskWrite {
                    op: StableOp::Put {
                        key: META_KEY.to_string(),
                        value,
                    },
                    token,
                    nominal: None,
                }]
            }
            TokenKind::MetaWrite => {
                let Some(meta) = self.pending_meta.take() else {
                    debug_assert!(false, "MetaWrite completion without staged meta");
                    return Vec::new();
                };
                self.trace.push(TraceEvent::CheckpointDurable {
                    generation: meta.generation,
                });
                self.checkpoint_slot = meta.checkpoint_slot;
                self.checkpoints_completed += 1;
                self.checkpoint_in_flight = false;
                // Truncate the log below the checkpoint and drop the
                // consensus layer's decided history it covers.
                let keep_from = self.log.keep_from(meta.checkpoint_slot);
                self.log.truncate_front(keep_from);
                // Keep a retention window of decided history behind the
                // checkpoint for recovering peers.
                let retain_from = Slot(
                    meta.checkpoint_slot
                        .0
                        .saturating_sub(self.config.retention_slots),
                );
                self.paxos.truncate(retain_from);
                let trunc_token = self.alloc(TokenKind::LogTruncate);
                let mut fx = vec![MwEffect::DiskWrite {
                    op: StableOp::TruncateLog {
                        log: LOG_NAME.to_string(),
                        keep_from,
                    },
                    token: trunc_token,
                    nominal: None,
                }];
                // checked_sub doubles as the generation-0 guard: the very
                // first checkpoint has no predecessor to delete.
                if let Some(prev_gen) = meta.generation.checked_sub(1) {
                    let del_token = self.alloc(TokenKind::CheckpointDelete);
                    fx.push(MwEffect::DiskWrite {
                        op: StableOp::Delete {
                            key: Meta::ckpt_key(prev_gen),
                        },
                        token: del_token,
                        nominal: None,
                    });
                }
                fx
            }
            TokenKind::LogTruncate | TokenKind::CheckpointDelete => Vec::new(),
            TokenKind::CheckpointRead | TokenKind::LogRead => Vec::new(),
        }
    }

    /// A bulk read completed.
    pub fn on_disk_read_done(&mut self, token: u64, value: Option<Vec<u8>>) -> Vec<MwEffect<App>> {
        let kind = match self.tokens.remove(&token) {
            Some(k) => k,
            None => return Vec::new(),
        };
        let mut out = Vec::new();
        match kind {
            TokenKind::LogRead => {
                self.trace.push(TraceEvent::LogReplayed {
                    records: self.log.entries.len() as u64,
                });
                if let Phase::Recovering { log_done, .. } = &mut self.phase {
                    *log_done = true;
                }
                // The consensus layer is live now; its first ticks will
                // heartbeat and trigger backlog catch-up.
            }
            TokenKind::CheckpointRead => {
                if let Some(bytes) = value {
                    match App::restore(&bytes) {
                        Ok(app) => self.app = Some(app),
                        Err(_) => {
                            // Corrupt checkpoint: treat as absent; the
                            // caller's initial state + full replay will
                            // reconstruct (install_initial_state).
                        }
                    }
                }
                self.trace.push(TraceEvent::CheckpointLoaded {
                    slot: self.checkpoint_slot.0,
                });
                if let Phase::Recovering {
                    checkpoint_done, ..
                } = &mut self.phase
                {
                    *checkpoint_done = true;
                }
                self.drain_queue(&mut out);
            }
            _ => {}
        }
        self.check_recovery_done(&mut out);
        out
    }

    /// Lowers consensus effects into middleware effects, applying
    /// committed actions along the way. Decided batches are unpacked
    /// front to back so every update keeps its own `(slot, index)`
    /// position in the total order.
    fn lower(&mut self, fx: Vec<PaxosEffect<Batch<App::Action>>>) -> Vec<MwEffect<App>> {
        // Pull the consensus core's trace events first: they were emitted
        // while producing `fx`, so they precede the lowering below.
        if self.trace.enabled() {
            for e in self.paxos.take_trace_events() {
                self.trace.push(e);
            }
        }
        let mut out = Vec::with_capacity(fx.len());
        for e in fx {
            match e {
                PaxosEffect::Send { to, msg } => {
                    // The causal sequence advances on every send, traced
                    // or not, so the tag bytes on the wire — and hence
                    // the whole simulation — are identical either way.
                    self.causal_seq += 1;
                    let tag = paxos::CausalTag::for_msg(self.id, self.causal_seq, &msg);
                    let msg = MwMsg::Paxos {
                        epoch: self.paxos.config_epoch(),
                        tag,
                        msg,
                    };
                    let bytes = msg.wire_bytes();
                    out.push(MwEffect::Send { to, msg, bytes });
                }
                PaxosEffect::Persist { record, token } => {
                    let entry = self.scratch.encode(&record);
                    self.trace.push(TraceEvent::LogAppend {
                        bytes: entry.len() as u64,
                    });
                    self.log.push(record_slot(&entry), entry.len() as u64);
                    let t = self.alloc(TokenKind::PaxosPersist(token));
                    out.push(MwEffect::DiskWrite {
                        op: StableOp::Append {
                            log: LOG_NAME.to_string(),
                            entry,
                        },
                        token: t,
                        nominal: None,
                    });
                }
                PaxosEffect::Deliver {
                    slot,
                    pid: _batch_pid,
                    value,
                    epoch,
                } => {
                    // The effect carries the epoch the slot was decided
                    // under (`Replica::log_epoch`); reading
                    // `config_epoch()` here would be wrong — the core
                    // switches epoch mid-drain, so by the time a
                    // pre-fence slot is lowered it may already read the
                    // new configuration.
                    self.queue.push_batch(slot, epoch, &value);
                }
                PaxosEffect::Reconfigured { slot, membership } => {
                    out.push(MwEffect::Reconfigured {
                        slot,
                        epoch: membership.epoch(),
                        members: membership.members().to_vec(),
                    });
                }
            }
        }
        self.drain_queue(&mut out);
        out
    }

    /// Applies queued deliveries if the application state is available.
    fn drain_queue(&mut self, out: &mut Vec<MwEffect<App>>) {
        if matches!(
            self.phase,
            Phase::Recovering {
                checkpoint_done: false,
                ..
            }
        ) {
            return; // checkpoint still loading; hold the backlog.
        }
        let app = match self.app.as_mut() {
            Some(a) => a,
            None => return,
        };
        out.reserve(self.queue.len());
        while let Some(entry) = self.queue.try_dequeue() {
            let Some(action) = entry.action() else {
                debug_assert!(false, "queue entry outside its batch");
                continue;
            };
            let reply = app.apply(action);
            self.applied += 1;
            self.applied_since_checkpoint += 1;
            if self.trace.enabled() {
                // `latency_us` 0 marks an unknown submit time (remote or
                // replayed updates); the analyzer excludes those.
                let latency_us = self
                    .submit_times
                    .remove(&entry.pid)
                    .map(|t0| self.now.saturating_sub(t0))
                    .unwrap_or(0);
                self.trace.push(TraceEvent::UpdateDelivered {
                    slot: entry.slot.0,
                    index: u64::from(entry.index),
                    submitter: entry.pid.node.0,
                    seq: entry.pid.seq,
                    latency_us,
                });
            }
            out.push(MwEffect::Applied {
                slot: entry.slot,
                index: entry.index,
                pid: entry.pid,
                epoch: entry.epoch,
                reply,
            });
        }
        if self.applied_since_checkpoint >= self.config.checkpoint_interval
            && !self.checkpoint_in_flight
            && !self.is_recovering()
        {
            self.start_checkpoint(out);
        }
    }

    fn start_checkpoint(&mut self, out: &mut Vec<MwEffect<App>>) {
        // Only active nodes hold application state; a checkpoint request
        // on a recovering node is a phase-tracking bug — skip it rather
        // than panic on a protocol-driven path.
        let Some(app) = self.app.as_ref() else {
            debug_assert!(false, "start_checkpoint without application state");
            return;
        };
        let Snapshot {
            data,
            nominal_bytes,
        } = app.snapshot();
        self.applied_since_checkpoint = 0;
        self.checkpoint_in_flight = true;
        self.checkpoint_generation = self.checkpoint_generation.saturating_add(1);
        let meta = Meta {
            checkpoint_slot: self.paxos.decided_upto(),
            generation: self.checkpoint_generation,
            promised: self.paxos.status().ballot,
            epoch: self.paxos.config_epoch(),
            members: self.paxos.membership().members().to_vec(),
        };
        let key = Meta::ckpt_key(meta.generation);
        self.trace.push(TraceEvent::CheckpointWrite {
            generation: meta.generation,
            slot: meta.checkpoint_slot.0,
            bytes: nominal_bytes,
        });
        self.pending_meta = Some(meta);
        let token = self.alloc(TokenKind::CheckpointData);
        out.push(MwEffect::DiskWrite {
            op: StableOp::Put { key, value: data },
            token,
            nominal: Some(nominal_bytes),
        });
    }

    fn check_recovery_done(&mut self, out: &mut Vec<MwEffect<App>>) {
        let ready = matches!(
            self.phase,
            Phase::Recovering {
                log_done: true,
                checkpoint_done: true,
                announced: false,
            }
        ) && self.app.is_some()
            && !self.paxos_recovering();
        if ready {
            self.phase = Phase::Active;
            self.recovery_completed_at = Some(self.now);
            self.trace.push(TraceEvent::RecoveryComplete {
                slot: self.paxos.decided_upto().0,
            });
            out.push(MwEffect::RecoveryComplete);
        }
    }

    fn paxos_recovering(&self) -> bool {
        self.paxos.is_recovering()
    }

    /// The process epoch this middleware runs under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether *full* structured tracing is enabled on this node (metrics,
    /// latency observation, unbounded record capture).
    pub fn trace_enabled(&self) -> bool {
        self.config.trace.enabled
    }

    /// Whether trace events are being recorded at all — either full
    /// tracing or just the bounded flight ring. Drivers use this to
    /// decide whether draining [`Self::take_trace`] is worthwhile.
    pub fn trace_active(&self) -> bool {
        self.trace.enabled()
    }

    /// Drains the trace events buffered since the last call (middleware
    /// and consensus core interleaved in emission order). The driver
    /// stamps them with its clock and node id.
    pub fn take_trace(&mut self) -> std::vec::Drain<'_, TraceEvent> {
        if self.trace.enabled() {
            for e in self.paxos.take_trace_events() {
                self.trace.push(e);
            }
        }
        self.trace.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Snapshot;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Counter {
        total: u64,
    }

    impl Application for Counter {
        type Action = u64;
        type Reply = u64;
        fn apply(&mut self, action: &u64) -> u64 {
            self.total += *action;
            self.total
        }
        fn snapshot(&self) -> Snapshot {
            Snapshot {
                data: self.total.to_bytes(),
                nominal_bytes: 1_000_000,
            }
        }
        fn restore(data: &[u8]) -> Result<Self, WireError> {
            Ok(Counter {
                total: u64::from_bytes(data)?,
            })
        }
    }

    fn config() -> TreplicaConfig {
        TreplicaConfig {
            checkpoint_interval: 2,
            ..TreplicaConfig::lan(1)
        }
    }

    /// Drives a single-replica middleware synchronously: completes every
    /// disk op immediately and loops sends back into itself.
    fn drain(
        mw: &mut Middleware<Counter>,
        fx: Vec<MwEffect<Counter>>,
        store: &mut StableStore,
    ) -> Vec<u64> {
        drain_counting(mw, fx, store).0
    }

    /// Like [`drain`], but also counts durable log appends — the unit
    /// the group commit coalesces.
    fn drain_counting(
        mw: &mut Middleware<Counter>,
        fx: Vec<MwEffect<Counter>>,
        store: &mut StableStore,
    ) -> (Vec<u64>, usize) {
        let mut appends = 0;
        let mut applied = Vec::new();
        let mut queue = fx;
        while !queue.is_empty() {
            let mut next = Vec::new();
            for e in queue {
                match e {
                    MwEffect::Send { msg, .. } => {
                        next.extend(mw.on_message(ReplicaId(0), msg, 0));
                    }
                    MwEffect::DiskWrite { op, token, nominal } => {
                        if matches!(op, StableOp::Append { .. }) {
                            appends += 1;
                        }
                        if let (Some(nom), StableOp::Put { key, .. }) = (nominal, &op) {
                            store.set_nominal(key, nom);
                        }
                        store.apply(op);
                        next.extend(mw.on_disk_write_done(token));
                    }
                    MwEffect::DiskRead { key, token } => {
                        let value = store.get(&key).map(<[u8]>::to_vec);
                        next.extend(mw.on_disk_read_done(token, value));
                    }
                    MwEffect::DiskReadRaw { token, .. } => {
                        next.extend(mw.on_disk_read_done(token, None));
                    }
                    MwEffect::Applied { reply, .. } => applied.push(reply),
                    MwEffect::RecoveryComplete => {}
                    MwEffect::Reconfigured { .. } => {}
                }
            }
            queue = next;
        }
        (applied, appends)
    }

    fn active_single() -> (Middleware<Counter>, StableStore) {
        active_single_with(config())
    }

    fn active_single_with(config: TreplicaConfig) -> (Middleware<Counter>, StableStore) {
        let mut store = StableStore::new();
        let (mut mw, boot) = Middleware::bootstrap(ReplicaId(0), Counter { total: 0 }, config, 0);
        drain(&mut mw, boot, &mut store);
        // Single-replica ensemble elects itself on the first tick.
        let fx = mw.on_tick(0);
        drain(&mut mw, fx, &mut store);
        let fx = mw.on_tick(200_000);
        drain(&mut mw, fx, &mut store);
        (mw, store)
    }

    #[test]
    fn bootstrap_writes_generation_one_checkpoint() {
        let (mw, store) = active_single();
        assert!(
            store.get(&Meta::ckpt_key(1)).is_some(),
            "bootstrap checkpoint durable"
        );
        let meta = Meta::from_bytes(store.get(META_KEY).expect("meta")).expect("decodes");
        assert_eq!(meta.generation, 1);
        assert_eq!(meta.checkpoint_slot, Slot::ZERO);
        assert_eq!(mw.status().checkpoints, 1);
        assert_eq!(store.nominal_size(&Meta::ckpt_key(1)), 1_000_000);
    }

    #[test]
    fn execute_applies_and_checkpoints_on_interval() {
        let (mut mw, mut store) = active_single();
        let mut applied = Vec::new();
        for v in 1..=5u64 {
            let (_pid, fx) = mw.execute(v, 0).expect("active");
            applied.extend(drain(&mut mw, fx, &mut store));
        }
        assert_eq!(
            applied,
            vec![1, 3, 6, 10, 15],
            "replies are post-apply totals"
        );
        // interval = 2 → checkpoints after actions 2 and 4 (plus boot).
        let st = mw.status();
        assert!(
            st.checkpoints >= 3,
            "periodic checkpoints: {}",
            st.checkpoints
        );
        // Obsolete checkpoint generations are deleted.
        let latest = Meta::from_bytes(store.get(META_KEY).unwrap())
            .unwrap()
            .generation;
        assert!(store.get(&Meta::ckpt_key(latest)).is_some());
        assert!(
            store
                .get(&Meta::ckpt_key(latest.saturating_sub(2)))
                .is_none(),
            "older generations must be deleted"
        );
        // The durable log was truncated behind the checkpoint.
        let log = store.log(LOG_NAME).expect("log exists");
        assert!(log.first_index() > 0, "log must have been truncated");
    }

    #[test]
    fn execute_rejected_while_recovering() {
        let (mut mw, mut store) = active_single();
        let (_pid, fx) = mw.execute(42, 0).expect("active");
        drain(&mut mw, fx, &mut store);
        let disk = RecoveredDisk::from_store(&store).expect("disk");
        let (mut recovering, _fx) =
            Middleware::<Counter>::recover(ReplicaId(0), disk, config(), 1, 0);
        assert!(recovering.is_recovering());
        assert!(
            recovering.execute(1, 0).is_err(),
            "recovering replica rejects execute"
        );
    }

    #[test]
    fn recovery_restores_from_checkpoint_and_log() {
        let (mut mw, mut store) = active_single();
        for v in 1..=5u64 {
            let (_pid, fx) = mw.execute(v, 0).expect("active");
            drain(&mut mw, fx, &mut store);
        }
        drop(mw);
        let disk = RecoveredDisk::from_store(&store).expect("disk");
        assert!(disk.meta.is_some());
        let (mut mw2, fx) = Middleware::recover(ReplicaId(0), disk, config(), 1, 0);
        let mut store2 = store.clone();
        drain(&mut mw2, fx, &mut store2);
        // Single replica: catch-up completes against itself on ticks.
        for t in 1..50u64 {
            let fx = mw2.on_tick(t * 100_000);
            drain(&mut mw2, fx, &mut store2);
            if !mw2.is_recovering() {
                break;
            }
        }
        assert!(!mw2.is_recovering(), "single-replica recovery completes");
        assert_eq!(
            mw2.state().expect("state").total,
            15,
            "sum of 1..=5 restored"
        );
    }

    #[test]
    fn meta_requires_valid_bytes() {
        assert!(Meta::from_bytes(&[1, 2, 3]).is_err());
        let m = Meta {
            checkpoint_slot: Slot(9),
            generation: 3,
            promised: Ballot::BOTTOM,
            epoch: 2,
            members: vec![ReplicaId(0), ReplicaId(3), ReplicaId(7)],
        };
        assert_eq!(Meta::from_bytes(&m.to_bytes()).unwrap(), m);
        assert_eq!(Meta::ckpt_key(3), "treplica.ckpt.3");
    }

    /// Simulates a crash mid-append: the durable log's final entry is a
    /// strict prefix of a record encoding (never decodes).
    fn tear_last_record(store: &mut StableStore) {
        let torn = {
            let log = store.log(LOG_NAME).expect("log exists");
            let entry = log.iter().last().expect("non-empty log").1.to_vec();
            assert!(entry.len() >= 2, "need a record long enough to tear");
            entry[..entry.len() - 1].to_vec()
        };
        store.apply(StableOp::Append {
            log: LOG_NAME.to_string(),
            entry: torn,
        });
    }

    #[test]
    fn recovery_tolerates_torn_final_record() {
        let (mut mw, mut store) = active_single();
        for v in 1..=5u64 {
            let (_pid, fx) = mw.execute(v, 0).expect("active");
            drain(&mut mw, fx, &mut store);
        }
        drop(mw);
        tear_last_record(&mut store);
        let disk = RecoveredDisk::from_store(&store).expect("disk");
        let (mut mw2, fx) = Middleware::recover(ReplicaId(0), disk, config(), 1, 0);
        let mut store2 = store.clone();
        drain(&mut mw2, fx, &mut store2);
        for t in 1..50u64 {
            let fx = mw2.on_tick(t * 100_000);
            drain(&mut mw2, fx, &mut store2);
            if !mw2.is_recovering() {
                break;
            }
        }
        assert!(!mw2.is_recovering(), "torn tail must not wedge recovery");
        assert_eq!(
            mw2.state().expect("state").total,
            15,
            "no durable decision lost"
        );
    }

    #[test]
    fn recovery_replays_records_appended_beyond_a_torn_entry() {
        let (mut mw, mut store) = active_single();
        for v in 1..=3u64 {
            let (_pid, fx) = mw.execute(v, 0).expect("active");
            drain(&mut mw, fx, &mut store);
        }
        drop(mw);
        tear_last_record(&mut store);

        // First restart survives the torn entry and keeps serving; its new
        // appends land *after* the torn entry in the stable log.
        let disk = RecoveredDisk::from_store(&store).expect("disk");
        let (mut mw2, fx) = Middleware::recover(ReplicaId(0), disk, config(), 1, 0);
        drain(&mut mw2, fx, &mut store);
        for t in 1..50u64 {
            let fx = mw2.on_tick(t * 100_000);
            drain(&mut mw2, fx, &mut store);
            if !mw2.is_recovering() {
                break;
            }
        }
        assert!(!mw2.is_recovering());
        for v in 4..=5u64 {
            let (_pid, fx) = mw2.execute(v, 0).expect("active");
            drain(&mut mw2, fx, &mut store);
        }
        drop(mw2);

        // A second restart must replay the records beyond the torn entry;
        // stopping at the first undecodable record would lose them.
        let disk = RecoveredDisk::from_store(&store).expect("disk");
        let (mut mw3, fx) = Middleware::recover(ReplicaId(0), disk, config(), 2, 0);
        drain(&mut mw3, fx, &mut store);
        for t in 1..50u64 {
            let fx = mw3.on_tick(t * 100_000);
            drain(&mut mw3, fx, &mut store);
            if !mw3.is_recovering() {
                break;
            }
        }
        assert!(!mw3.is_recovering());
        assert_eq!(
            mw3.state().expect("state").total,
            15,
            "post-torn appends replayed"
        );
    }

    #[test]
    fn recovered_mirror_keeps_stable_log_alignment() {
        let (mut mw, mut store) = active_single();
        for v in 1..=5u64 {
            let (_pid, fx) = mw.execute(v, 0).expect("active");
            drain(&mut mw, fx, &mut store);
        }
        drop(mw);
        let truncated_first = store.log(LOG_NAME).expect("log").first_index();
        assert!(truncated_first > 0, "checkpointing truncated the log");

        let disk = RecoveredDisk::from_store(&store).expect("disk");
        assert_eq!(disk.log_first_index, truncated_first);
        let (mut mw2, fx) = Middleware::recover(ReplicaId(0), disk, config(), 1, 0);
        drain(&mut mw2, fx, &mut store);
        for t in 1..50u64 {
            let fx = mw2.on_tick(t * 100_000);
            drain(&mut mw2, fx, &mut store);
            if !mw2.is_recovering() {
                break;
            }
        }
        assert!(!mw2.is_recovering());
        // Keep executing so post-recovery checkpoints truncate again; a
        // mirror rebuilt at index 0 would compute keep_from cuts that lag
        // the stable log and never free the old records.
        for v in 6..=9u64 {
            let (_pid, fx) = mw2.execute(v, 0).expect("active");
            drain(&mut mw2, fx, &mut store);
        }
        let first_after = store.log(LOG_NAME).expect("log").first_index();
        assert!(
            first_after > truncated_first,
            "post-recovery truncation must advance: {first_after} vs {truncated_first}"
        );
    }

    #[test]
    fn mirror_bytes_track_the_entries() {
        let sum = |m: &LogMirror| m.entries.iter().map(|(_, b)| *b).sum::<u64>();
        let mut m = LogMirror {
            first_index: 10,
            ..LogMirror::default()
        };
        for (i, bytes) in [7u64, 0, 300, 41, 5].into_iter().enumerate() {
            m.push((i % 2 == 0).then_some(Slot(i as u64)), bytes);
        }
        assert_eq!((m.bytes(), sum(&m)), (353, 353));
        m.truncate_front(9); // below the log: nothing leaves
        assert_eq!(m.bytes(), 353);
        m.truncate_front(12); // inside the log
        assert_eq!((m.entries.len(), m.bytes(), sum(&m)), (3, 346, 346));
        m.push(None, 9);
        m.truncate_front(99); // past its end
        assert_eq!((m.entries.len(), m.bytes(), m.first_index), (0, 0, 99));

        // A recovered mirror counts the torn entry it keeps as a
        // placeholder, like the stable log does.
        let (mut mw, mut store) = active_single();
        for v in 1..=5u64 {
            let (_pid, fx) = mw.execute(v, 0).expect("active");
            drain(&mut mw, fx, &mut store);
        }
        drop(mw);
        tear_last_record(&mut store);
        let disk = RecoveredDisk::from_store(&store).expect("disk");
        let log_bytes = disk.log_bytes;
        let (mw2, _fx) = Middleware::<Counter>::recover(ReplicaId(0), disk, config(), 1, 0);
        assert!(mw2.log.entries.len() >= 2);
        assert_eq!(mw2.log.bytes(), sum(&mw2.log));
        assert_eq!(mw2.status().log_bytes, log_bytes);
    }

    #[test]
    fn snapshot_request_answered_only_when_active() {
        let (mut mw, _store) = active_single();
        let fx = mw.on_message(ReplicaId(0), MwMsg::SnapshotRequest, 0);
        let has_reply = fx.iter().any(|e| {
            matches!(
                e,
                MwEffect::Send {
                    msg: MwMsg::SnapshotReply { .. },
                    ..
                }
            )
        });
        assert!(has_reply, "active replica serves snapshots");
    }

    fn batching_config(max: usize, window_us: u64) -> TreplicaConfig {
        TreplicaConfig {
            checkpoint_interval: 100,
            batch_max_updates: max,
            batch_window_us: window_us,
            ..TreplicaConfig::lan(1)
        }
    }

    #[test]
    fn full_batch_commits_with_one_log_append() {
        let (mut mw, mut store) = active_single_with(batching_config(3, 1_000_000));
        let (_p1, fx1) = mw.execute(1, 0).expect("active");
        assert!(fx1.is_empty(), "first update only opens the batch");
        assert_eq!(mw.status().pending_batch, 1);
        let (_p2, fx2) = mw.execute(2, 0).expect("active");
        assert!(fx2.is_empty());
        assert_eq!(mw.status().pending_batch, 2);
        // The third update fills the batch: one decree, one log append,
        // all three applied in submission order.
        let (_p3, fx3) = mw.execute(3, 0).expect("active");
        let (applied, appends) = drain_counting(&mut mw, fx3, &mut store);
        assert_eq!(applied, vec![1, 3, 6], "intra-batch submission order");
        assert_eq!(appends, 1, "group commit: one append for three updates");
        assert_eq!(mw.status().pending_batch, 0);
        assert_eq!(mw.batch_deadline(), None, "flush disarms the window");
    }

    #[test]
    fn batch_window_timer_flushes_partial_batch() {
        let (mut mw, mut store) = active_single_with(batching_config(8, 5_000));
        let (_pid, fx) = mw.execute(7, 0).expect("active");
        assert!(fx.is_empty(), "update waits for company");
        let deadline = mw.batch_deadline().expect("window armed");
        let early = mw.on_batch_timer(deadline - 1);
        assert!(early.is_empty(), "stale timer fire is a no-op");
        assert_eq!(mw.status().pending_batch, 1);
        let fx = mw.on_batch_timer(deadline);
        let applied = drain(&mut mw, fx, &mut store);
        assert_eq!(applied, vec![7], "window expiry proposes the partial batch");
        assert_eq!(mw.batch_deadline(), None);
    }

    #[test]
    fn recovery_replays_batched_updates_in_order() {
        let config = batching_config(5, 1_000_000);
        let (mut mw, mut store) = active_single_with(config.clone());
        let mut applied = Vec::new();
        for v in 1..=5u64 {
            let (_pid, fx) = mw.execute(v, 0).expect("active");
            applied.extend(drain(&mut mw, fx, &mut store));
        }
        assert_eq!(applied, vec![1, 3, 6, 10, 15], "one batch of five");
        drop(mw);
        let disk = RecoveredDisk::from_store(&store).expect("disk");
        let (mut mw2, fx) = Middleware::recover(ReplicaId(0), disk, config, 1, 0);
        let mut store2 = store.clone();
        let mut replayed = drain(&mut mw2, fx, &mut store2);
        for t in 1..50u64 {
            let fx = mw2.on_tick(t * 100_000);
            replayed.extend(drain(&mut mw2, fx, &mut store2));
            if !mw2.is_recovering() {
                break;
            }
        }
        assert!(!mw2.is_recovering(), "single-replica recovery completes");
        // Replaying the batched record re-applies every update in its
        // original intra-batch position (the queue would panic on any
        // (slot, index) regression).
        assert_eq!(replayed, vec![1, 3, 6, 10, 15]);
        assert_eq!(mw2.state().expect("state").total, 15);
    }

    /// Regression test for the epoch fence: after a reconfiguration is
    /// delivered, protocol messages stamped with the old epoch must be
    /// dropped (and traced), newer-epoch messages dropped silently, and
    /// learning traffic must keep flowing regardless of epoch.
    #[test]
    fn reconfig_switches_epoch_and_rejects_stale_messages() {
        let config = TreplicaConfig {
            trace: TraceConfig::on(),
            ..config()
        };
        let (mut mw, mut store) = active_single_with(config);
        let _ = mw.take_trace();
        assert_eq!(mw.membership().epoch(), 0);

        let (ok, fx) = mw.execute_reconfig(vec![ReplicaId(1)], vec![], 0);
        assert!(ok, "the leader accepts a reconfig proposal");
        // Drive to completion: only messages addressed to this node loop
        // back (the new member does not exist in this test).
        let mut reconfigured = None;
        let mut queue = fx;
        while !queue.is_empty() {
            let mut next = Vec::new();
            for e in queue {
                match e {
                    MwEffect::Send {
                        to: ReplicaId(0),
                        msg,
                        ..
                    } => {
                        next.extend(mw.on_message(ReplicaId(0), msg, 0));
                    }
                    MwEffect::DiskWrite { op, token, .. } => {
                        store.apply(op);
                        next.extend(mw.on_disk_write_done(token));
                    }
                    MwEffect::Reconfigured { epoch, members, .. } => {
                        reconfigured = Some((epoch, members));
                    }
                    _ => {}
                }
            }
            queue = next;
        }
        let (epoch, members) = reconfigured.expect("reconfig decree delivered");
        assert_eq!(epoch, 1);
        assert_eq!(members, vec![ReplicaId(0), ReplicaId(1)]);
        assert_eq!(mw.membership().epoch(), 1);
        let _ = mw.take_trace();

        // A stale-epoch Accept is dropped and traced.
        let stale = MwMsg::Paxos {
            epoch: 0,
            tag: Default::default(),
            msg: Msg::Accept {
                ballot: Ballot::BOTTOM,
                slot: Slot(50),
                decree: paxos::Decree::Noop,
            },
        };
        let fx = mw.on_message(ReplicaId(1), stale, 0);
        assert!(fx.is_empty(), "stale-epoch accept produces no effects");
        let trace: Vec<TraceEvent> = mw.take_trace().collect();
        assert!(
            trace.iter().any(|e| matches!(
                e,
                TraceEvent::StaleEpochRejected {
                    from: 1,
                    msg_epoch: 0,
                    local_epoch: 1,
                }
            )),
            "stale-epoch rejection is traced: {trace:?}"
        );

        // Messages from a newer epoch are dropped silently (this node
        // must catch up before voting under an unknown quorum rule)...
        let ahead = MwMsg::Paxos {
            epoch: 7,
            tag: Default::default(),
            msg: Msg::Accept {
                ballot: Ballot::BOTTOM,
                slot: Slot(50),
                decree: paxos::Decree::Noop,
            },
        };
        let fx = mw.on_message(ReplicaId(1), ahead, 0);
        assert!(fx.is_empty(), "ahead-epoch accept produces no effects");

        // ...and learning traffic crosses the fence in both directions.
        let learn = MwMsg::Paxos {
            epoch: 0,
            tag: Default::default(),
            msg: Msg::LearnRequest {
                from_slot: Slot::ZERO,
            },
        };
        let fx = mw.on_message(ReplicaId(1), learn, 0);
        assert!(!fx.is_empty(), "stale-epoch learn request is answered");
        let trace: Vec<TraceEvent> = mw.take_trace().collect();
        assert!(
            trace
                .iter()
                .all(|e| !matches!(e, TraceEvent::StaleEpochRejected { .. })),
            "epoch-agnostic traffic is never rejected: {trace:?}"
        );
    }
}
