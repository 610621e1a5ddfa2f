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

use obs::{EventBuf, TraceEvent};
use paxos::{
    Ballot, Batch, Effect as PaxosEffect, Membership, Mode, PaxosConfig, PersistToken, ProposalId,
    Replica, ReplicaId, ReplicaStatus, Slot,
};
use simnet::StableOp;

use crate::app::{Application, Snapshot};
use crate::batcher::{Batcher, Flush};
use crate::checkpoint::{Checkpointer, LogMirror, Meta, LOG_NAME};
use crate::msg::{fence, Fence, MwMsg};
use crate::queue::PersistentQueue;
use crate::recovery::{RecoveredDisk, Recovery};

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
    CheckpointRead,
    LogRead,
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
    recovery: Recovery,
    /// Completions this node waits on.
    tokens: BTreeMap<u64, TokenKind>,
    next_token: u64,
    log: LogMirror,
    applied: u64,
    checkpoint: Checkpointer,
    now: u64,
    recovery_completed_at: Option<u64>,
    batcher: Batcher<App::Action>,
    /// Structured trace events (middleware-level, interleaved with the
    /// consensus core's in emission order). Drained by the driver via
    /// [`Middleware::take_trace`].
    trace: EventBuf,
    /// Submit times of locally-issued updates, for commit-latency trace
    /// points.
    submit_times: BTreeMap<ProposalId, u64>,
    /// Monotone causal-tag counter, advanced on every protocol send.
    /// Unconditional (not trace-gated): the counter shapes the bytes on
    /// the wire, so it must not depend on whether anyone is watching.
    causal_seq: u64,
    /// Reused encode buffer for the per-message persist path (one
    /// exact-sized allocation per record instead of a growth chain).
    scratch: crate::wire::EncodeScratch,
    /// The consensus core's effect buffer: every call into `paxos`
    /// appends here and [`Middleware::lower`] drains it, so the buffer
    /// is allocated once and keeps its working size.
    fx: Vec<PaxosEffect<Batch<App::Action>>>,
    /// The empty vector the next entry point returns its effects in:
    /// the last one handed back through [`Middleware::recycle`] and not
    /// taken since, or one without capacity.
    spare: Vec<MwEffect<App>>,
}

/// The most effects a vector kept by [`Middleware::recycle`] has room
/// for. A vector keeps the capacity of its largest burst (a backlog
/// applied at once after a restart). On the repo benchmark's two-crash
/// run, keeping every vector read 1.7 % more peak memory than keeping
/// only those up to this size, which read no more than handing none
/// back; on its saturated ordering run both save the same allocations.
const SPARE_MAX: usize = 64;

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
            ..Self::base(id, config, paxos, 0, now)
        }
    }

    /// Incarnation `epoch` of a node at time `now` around `paxos` with
    /// nothing hosted, applied, checkpointed or in flight: what
    /// `new_with_membership` and `recover` both start from.
    fn base(
        id: ReplicaId,
        config: TreplicaConfig,
        mut paxos: Replica<Batch<App::Action>>,
        epoch: u64,
        now: u64,
    ) -> Self {
        // Every experiment tracer keeps a flight ring, so the buffers
        // always run; the driver drains them after each handler.
        paxos.set_tracing(true);
        let first = ProposalId {
            node: id,
            epoch,
            seq: 0,
        };
        Middleware {
            id,
            config,
            paxos,
            app: None,
            queue: PersistentQueue::new(),
            recovery: Recovery::ACTIVE,
            tokens: BTreeMap::new(),
            next_token: 0,
            log: LogMirror::default(),
            applied: 0,
            checkpoint: Checkpointer::default(),
            now,
            recovery_completed_at: None,
            batcher: Batcher::new(first),
            trace: EventBuf::new(true),
            submit_times: BTreeMap::new(),
            causal_seq: 0,
            scratch: crate::wire::EncodeScratch::new(),
            fx: Vec::new(),
            spare: Vec::new(),
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

        // The modeled read latency of the log is charged via the
        // DiskReadRaw effect below.
        let (records, mirror) = disk.replay();
        let floor_record = paxos::Record::Promised(promised_floor);
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
            recovery: Recovery::restarted(meta.is_some()),
            log: mirror,
            checkpoint: Checkpointer::resume(start_slot, meta.as_ref().map_or(0, |m| m.generation)),
            ..Self::base(id, config, paxos, epoch, now)
        };
        let mut fx = Vec::new();
        let log_token = mw.alloc(Some(TokenKind::LogRead));
        mw.trace.push(TraceEvent::LogReplayStart {
            bytes: disk.log_bytes,
        });
        fx.push(MwEffect::DiskReadRaw {
            bytes: disk.log_bytes,
            token: log_token,
        });
        // With nothing ever checkpointed the application starts empty and
        // replays everything through the queue; the caller must provide
        // the initial state via `install_initial_state`.
        if let Some(m) = meta {
            let ckpt_token = mw.alloc(Some(TokenKind::CheckpointRead));
            mw.trace.push(TraceEvent::CheckpointLoadStart { bytes: 0 });
            fx.push(MwEffect::DiskRead {
                key: Meta::ckpt_key(m.generation),
                token: ckpt_token,
            });
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

    /// The hosted application (the paper's `getState()`', None only
    /// while a recovery's checkpoint is still loading).
    pub fn state(&self) -> Option<&App> {
        self.app.as_ref()
    }

    /// Whether this node is still recovering.
    pub fn is_recovering(&self) -> bool {
        self.recovery.is_recovering()
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
            checkpoint_slot: self.checkpoint.slot(),
            checkpoints: self.checkpoint.completed(),
            log_bytes: self.log.bytes(),
            pending_batch: self.batcher.len(),
        }
    }

    /// Consensus operating mode (fast / classic / blocked).
    pub fn mode(&self) -> Mode {
        self.paxos.mode()
    }

    /// The next completion token. Its completion continues as `then`;
    /// with nothing to continue it never enters the table, and an unknown
    /// token completes to no effects.
    fn alloc(&mut self, then: Option<TokenKind>) -> u64 {
        let t = self.next_token;
        self.next_token = self.next_token.saturating_add(1);
        if let Some(kind) = then {
            self.tokens.insert(t, kind);
        }
        t
    }

    fn disk_write(&mut self, op: StableOp, then: Option<TokenKind>) -> MwEffect<App> {
        MwEffect::DiskWrite {
            op,
            token: self.alloc(then),
            nominal: None,
        }
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
        let pid = self.batcher.next_pid();
        self.submit_times.insert(pid, self.now);
        self.trace
            .push(TraceEvent::UpdateSubmitted { seq: pid.seq });
        let mut out = self.take_spare();
        let flush = self.batcher.push((pid, action), self.now, &self.config);
        self.propose_batch(flush, &mut out);
        Ok((pid, out))
    }

    /// Proposes a batch the batcher closed, if it closed one, as one
    /// consensus decree (one acceptor log append per replica instead of
    /// one per update — the group commit).
    fn propose_batch(&mut self, flush: Option<Flush<App::Action>>, out: &mut Vec<MwEffect<App>>) {
        let Some((trigger, batch)) = flush else {
            return;
        };
        self.trace.push(TraceEvent::BatchFlushed {
            updates: batch.len() as u64,
            trigger,
            first_seq: batch.items.first().map_or(0, |(pid, _)| pid.seq),
        });
        self.paxos.propose_into(batch, &mut self.fx);
        self.lower(out);
    }

    /// When the open batch must be flushed, if one is open. The driver
    /// arms a timer for this instant and calls
    /// [`Middleware::on_batch_timer`] when it fires.
    pub fn batch_deadline(&self) -> Option<u64> {
        self.batcher.deadline()
    }

    /// The group-commit window expired: propose whatever accumulated.
    /// Safe to call spuriously (stale timers are no-ops).
    pub fn on_batch_timer(&mut self, now: u64) -> Vec<MwEffect<App>> {
        self.now = self.now.max(now);
        let mut out = self.take_spare();
        let flush = self.batcher.expire(self.now);
        self.propose_batch(flush, &mut out);
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
        if !self.recovery.log_replayed {
            return Vec::new();
        }
        match msg {
            MwMsg::Paxos { epoch, msg: m, .. } => {
                let local = self.paxos.config_epoch();
                match fence(&m, epoch, local) {
                    Fence::Admit => {}
                    Fence::Stale => {
                        self.trace.push(TraceEvent::StaleEpochRejected {
                            from: from.0,
                            msg_epoch: epoch,
                            local_epoch: local,
                        });
                        return Vec::new();
                    }
                    Fence::Ahead => return Vec::new(),
                }
                self.paxos.on_message_into(from, m, now, &mut self.fx);
                let mut out = self.take_spare();
                self.lower(&mut out);
                self.maybe_request_snapshot(&mut out);
                out
            }
            MwMsg::SnapshotRequest => {
                let mut out = self.take_spare();
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
                let mut out = self.take_spare();
                if covers > self.paxos.decided_upto() {
                    if let Ok(app) = App::restore(&data) {
                        self.app = Some(app);
                        self.recovery.checkpoint_loaded = true;
                        // Adopt the sender's configuration along with its
                        // state: slots at `covers` and above were decided
                        // under it.
                        if epoch > self.paxos.config_epoch() && !members.is_empty() {
                            self.paxos.adopt_membership(Membership::new(epoch, members));
                        }
                        self.paxos.fast_forward(covers, epoch, &mut self.fx);
                        self.lower(&mut out);
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
        let ok = self.paxos.propose_reconfig_into(add, remove, &mut self.fx);
        let mut out = Vec::new();
        self.lower(&mut out);
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
        let mut out = self.take_spare();
        if self.recovery.log_replayed {
            // Backstop for the group-commit window: the dedicated batch
            // timer normally flushes first, but a tick past the deadline
            // must not leave updates stranded.
            let flush = self.batcher.expire(self.now);
            self.propose_batch(flush, &mut out);
            self.paxos.on_tick_into(now, &mut self.fx);
            self.lower(&mut out);
        }
        self.maybe_request_snapshot(&mut out);
        self.check_recovery_done(&mut out);
        out
    }

    /// A durable write completed.
    pub fn on_disk_write_done(&mut self, token: u64) -> Vec<MwEffect<App>> {
        let Some(kind) = self.tokens.remove(&token) else {
            return Vec::new();
        };
        let mut out = self.take_spare();
        match kind {
            TokenKind::PaxosPersist(pt) => {
                self.trace.push(TraceEvent::AppendDurable);
                self.paxos.on_persisted_into(pt, &mut self.fx);
                self.lower(&mut out);
            }
            TokenKind::CheckpointData => {
                let Some(op) = self.checkpoint.data_durable(&mut self.scratch) else {
                    return out;
                };
                out.push(self.disk_write(op, Some(TokenKind::MetaWrite)));
            }
            TokenKind::MetaWrite => {
                let Some((meta, [truncate, delete])) = self.checkpoint.meta_durable(&mut self.log)
                else {
                    return out;
                };
                self.trace.push(TraceEvent::CheckpointDurable {
                    generation: meta.generation,
                });
                // Drop the consensus layer's decided history the
                // checkpoint covers, keeping a retention window behind it
                // for recovering peers.
                let retain_from = meta
                    .checkpoint_slot
                    .0
                    .saturating_sub(self.config.retention_slots);
                self.paxos.truncate(Slot(retain_from));
                out.push(self.disk_write(truncate, None));
                out.push(self.disk_write(delete, None));
            }
            TokenKind::CheckpointRead | TokenKind::LogRead => {}
        }
        out
    }

    /// A bulk read completed.
    pub fn on_disk_read_done(&mut self, token: u64, value: Option<Vec<u8>>) -> Vec<MwEffect<App>> {
        let Some(kind) = self.tokens.remove(&token) else {
            return Vec::new();
        };
        let mut out = self.take_spare();
        match kind {
            TokenKind::LogRead => {
                self.trace.push(TraceEvent::LogReplayed {
                    records: self.log.len() as u64,
                });
                self.recovery.log_replayed = true;
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
                    slot: self.checkpoint.slot().0,
                });
                self.recovery.checkpoint_loaded = true;
                self.drain_queue(&mut out);
            }
            TokenKind::PaxosPersist(_) | TokenKind::CheckpointData | TokenKind::MetaWrite => {}
        }
        self.check_recovery_done(&mut out);
        out
    }

    /// Takes back an effect vector an entry point returned, once the
    /// driver has applied its effects: the next entry point returns its
    /// effects in it instead of in a new vector. A vector with room for
    /// more than `SPARE_MAX` effects is dropped, so a burst does not stay
    /// allocated. Handing nothing back is correct too; every entry
    /// point then allocates its own vector, as before.
    pub fn recycle(&mut self, mut fx: Vec<MwEffect<App>>) {
        if fx.capacity() <= SPARE_MAX {
            fx.clear();
            self.spare = fx;
        }
    }

    /// The vector an entry point fills: the one handed back last, if it
    /// has not been taken since.
    fn take_spare(&mut self) -> Vec<MwEffect<App>> {
        std::mem::take(&mut self.spare)
    }

    /// Lowers the consensus effects buffered in `self.fx` onto `out`,
    /// applying committed actions along the way, and leaves the buffer
    /// empty with its capacity kept. Decided batches are unpacked front
    /// to back so every update keeps its own `(slot, index)` position in
    /// the total order.
    fn lower(&mut self, out: &mut Vec<MwEffect<App>>) {
        let mut fx = std::mem::take(&mut self.fx);
        // Pull the consensus core's trace events first: they were emitted
        // while producing `fx`, so they precede the lowering below.
        for e in self.paxos.take_trace_events() {
            self.trace.push(e);
        }
        // Room for one effect per consensus effect and one `Applied` per
        // update that `drain_queue` may apply: the backlog and the
        // batches delivered now.
        let delivered = fx.iter().map(|e| match e {
            PaxosEffect::Deliver { value, .. } => value.len(),
            _ => 0,
        });
        let applies = delivered.fold(self.queue.len(), usize::saturating_add);
        out.reserve(fx.len().saturating_add(applies));
        for e in fx.drain(..) {
            match e {
                PaxosEffect::Send { to, msg } => {
                    // The causal sequence advances on every send, traced
                    // or not, so the tag bytes on the wire — and hence
                    // the whole simulation — are identical either way.
                    self.causal_seq = self.causal_seq.saturating_add(1);
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
                    self.log.push(record.slot(), entry.len() as u64);
                    let log = LOG_NAME.to_string();
                    let then = Some(TokenKind::PaxosPersist(token));
                    out.push(self.disk_write(StableOp::Append { log, entry }, then));
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
        self.fx = fx;
        self.drain_queue(out);
    }

    /// Applies queued deliveries if the application state is available.
    fn drain_queue(&mut self, out: &mut Vec<MwEffect<App>>) {
        if !self.recovery.checkpoint_loaded {
            return; // hold the backlog.
        }
        let Some(app) = self.app.as_mut() else {
            return;
        };
        out.reserve(self.queue.len());
        while let Some(entry) = self.queue.try_dequeue() {
            let Some(action) = entry.action() else {
                debug_assert!(false, "queue entry outside its batch");
                continue;
            };
            let reply = app.apply(action);
            self.applied = self.applied.saturating_add(1);
            self.checkpoint.note_applied();
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
            out.push(MwEffect::Applied {
                slot: entry.slot,
                index: entry.index,
                pid: entry.pid,
                epoch: entry.epoch,
                reply,
            });
        }
        if self.checkpoint.due(self.config.checkpoint_interval) && !self.is_recovering() {
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
        let slot = self.paxos.decided_upto();
        let paxos = &self.paxos;
        let cover = |generation| Meta {
            checkpoint_slot: slot,
            generation,
            promised: paxos.status().ballot,
            epoch: paxos.config_epoch(),
            members: paxos.membership().members().to_vec(),
        };
        let (generation, op) = self.checkpoint.begin(cover, data);
        self.trace.push(TraceEvent::CheckpointWrite {
            generation,
            slot: slot.0,
            bytes: nominal_bytes,
        });
        let token = self.alloc(Some(TokenKind::CheckpointData));
        out.push(MwEffect::DiskWrite {
            op,
            token,
            nominal: Some(nominal_bytes),
        });
    }

    fn check_recovery_done(&mut self, out: &mut Vec<MwEffect<App>>) {
        if self
            .recovery
            .try_complete(self.app.is_some(), !self.paxos.is_recovering())
        {
            self.recovery_completed_at = Some(self.now);
            self.trace.push(TraceEvent::RecoveryComplete {
                slot: self.paxos.decided_upto().0,
            });
            out.push(MwEffect::RecoveryComplete);
        }
    }

    /// Drains the trace events buffered since the last call (middleware
    /// and consensus core interleaved in emission order). The driver
    /// stamps them with its clock and node id; one that never drains
    /// keeps every event.
    pub fn take_trace(&mut self) -> std::vec::Drain<'_, TraceEvent> {
        for e in self.paxos.take_trace_events() {
            self.trace.push(e);
        }
        self.trace.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::active_single;

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
}
