//! The Treplica middleware node: consensus + durable log + checkpoints +
//! autonomous recovery behind the paper's state-machine interface.
//!
//! One [`Middleware`] instance runs per replica process. Like the
//! `paxos` core it is sans-io: the driver (the `cluster` crate, on
//! `simnet`) feeds it network messages, disk completions and ticks
//! through [`Middleware::execute_into`], [`Middleware::on_message_into`],
//! [`Middleware::on_tick_into`], [`Middleware::on_batch_timer_into`],
//! [`Middleware::on_disk_write_done_into`] and
//! [`Middleware::on_disk_read_done_into`], and applies the [`MwEffect`]s
//! they append to the caller's buffer. `execute`, `on_message`,
//! `on_tick` and `on_disk_write_done` also have a form that returns a
//! fresh `Vec` instead, a one-line wrapper for callers that keep no
//! buffer. This is where the paper's recovery story lives (§2,
//! "Recovery"):
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

use obs::TraceEvent;
use paxos::{
    Ballot, Batch, Effect as PaxosEffect, Membership, Mode, PaxosConfig, PersistToken, ProposalId,
    Replica, ReplicaId, ReplicaStatus, Slot,
};
use simnet::{StableOp, StableStore};

use crate::app::{Application, Snapshot};
use crate::batcher::{Batcher, Flush};
use crate::checkpoint::{Checkpointer, LogMirror, Meta, LOG_NAME};
use crate::msg::{fence, Fence, MwMsg};
use crate::queue::PersistentQueue;
use crate::recovery::{self, Recovery};
use crate::wire::Wire;

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
    /// transfer path ([`MwMsg::SnapshotRequest`]) takes over. Keep it
    /// well below [`paxos::RING_SPAN`]: the consensus core's slot
    /// tables span the retained slots plus those in flight, and refuse
    /// slots beyond.
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
    /// [`Middleware::on_disk_read_done_into`].
    DiskRead {
        /// Key to read.
        key: String,
        /// Completion token.
        token: u64,
    },
    /// Issue a raw read of `bytes` (log replay); completion via
    /// [`Middleware::on_disk_read_done_into`] with `value: None`.
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
    app: App,
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
    /// Submit times of locally-issued updates, for commit-latency trace
    /// points.
    submit_times: BTreeMap<ProposalId, u64>,
    /// Monotone causal-tag counter, advanced on every protocol send.
    /// Unconditional (not trace-gated): the counter shapes the bytes on
    /// the wire, so it must not depend on whether anyone is watching.
    causal_seq: u64,
    /// Reused encode buffer for a checkpoint's data (one exact-sized
    /// allocation per value instead of a growth chain).
    scratch: crate::wire::EncodeScratch,
    /// Log name and entry buffers of completed appends, handed back
    /// through [`Middleware::recycle_append`]: each new log record is
    /// written into one of these, or into a new pair when none is left.
    appends: Vec<(String, Vec<u8>)>,
    /// The consensus core's effect buffer: every call into `paxos`
    /// appends here and [`Middleware::lower`] drains it, so the buffer
    /// is allocated once and keeps its working size.
    fx: Vec<PaxosEffect<Batch<App::Action>>>,
}

/// The most append buffers [`Middleware::recycle_append`] keeps. One
/// comes back per completed append, and an acceptor has only a few in
/// flight at once. On the repo benchmark's saturated ordering run (one
/// rep, seed 7) a pool of eight saved 34 648 of the 35 088 blocks its
/// 17 544 appends used to take.
const APPEND_SPARE_MAX: usize = 8;

impl<App: Application> Middleware<App> {
    /// Creates a fresh replica (first boot, empty disk) hosting `app`
    /// under `membership`, and immediately checkpoints the initial state
    /// (the populated database is durable before the service opens, so
    /// any later recovery pays the full state reload the paper
    /// measures). A node joining mid-run is handed the cluster's current
    /// configuration, and catch-up (log shipping or snapshot transfer)
    /// fills its state.
    pub fn bootstrap(
        id: ReplicaId,
        app: App,
        config: TreplicaConfig,
        membership: Membership,
        now: u64,
    ) -> (Self, Vec<MwEffect<App>>) {
        let paxos = Replica::new_with_membership(id, config.paxos.clone(), membership, now);
        let mut mw = Self::base(id, app, config, paxos, 0, now);
        let mut out = Vec::new();
        mw.start_checkpoint(&mut out);
        (mw, out)
    }

    /// Creates a fresh replica (first boot, empty disk) hosting `app`
    /// under the initial member set, without checkpointing it.
    pub fn new(id: ReplicaId, app: App, config: TreplicaConfig, now: u64) -> Self {
        let paxos = Replica::new(id, config.paxos.clone(), now);
        Self::base(id, app, config, paxos, 0, now)
    }

    /// Incarnation `epoch` of a node at time `now` hosting `app` around
    /// `paxos` with nothing applied, checkpointed or in flight: what
    /// `bootstrap`, `new` and `recover` all start from.
    fn base(
        id: ReplicaId,
        app: App,
        config: TreplicaConfig,
        paxos: Replica<Batch<App::Action>>,
        epoch: u64,
        now: u64,
    ) -> Self {
        let first = ProposalId {
            node: id,
            epoch,
            seq: 0,
        };
        Middleware {
            id,
            config,
            paxos,
            app,
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
            submit_times: BTreeMap::new(),
            causal_seq: 0,
            scratch: crate::wire::EncodeScratch::new(),
            appends: Vec::new(),
            fx: Vec::new(),
        }
    }

    /// Restarts a replica from its durable disk `store`, hosting `app`:
    /// the same deterministic initial state every replica booted with.
    /// The newest checkpoint replaces it once loaded; with none on disk
    /// (a crash before the first checkpoint completed, or metadata that
    /// does not decode) it stays, and the backlog replays everything on
    /// top.
    ///
    /// `epoch` must strictly exceed the crashed incarnation's (the driver
    /// uses the simulator's incarnation counter). Returns the middleware
    /// (in recovery phase) plus the two bulk reads to issue: the
    /// checkpoint load and the log replay, which proceed in parallel.
    pub fn recover(
        id: ReplicaId,
        store: &StableStore,
        app: App,
        config: TreplicaConfig,
        epoch: u64,
        now: u64,
    ) -> (Self, Vec<MwEffect<App>>) {
        let meta = recovery::read_meta(store);
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
        let mut mirror = LogMirror::default();
        let records = recovery::replay(store, &mut mirror);
        let paxos = Replica::recover_with_membership(
            id,
            config.paxos.clone(),
            membership,
            std::iter::once(paxos::Record::Promised(promised_floor)).chain(records),
            start_slot,
            epoch,
            now,
        );
        let log_bytes = mirror.bytes();
        let mut mw = Middleware {
            recovery: Recovery::restarted(meta.is_some()),
            log: mirror,
            checkpoint: Checkpointer::resume(start_slot, meta.as_ref().map_or(0, |m| m.generation)),
            ..Self::base(id, app, config, paxos, epoch, now)
        };
        let mut fx = Vec::new();
        let log_token = mw.alloc(Some(TokenKind::LogRead));
        mw.paxos
            .push_trace(TraceEvent::LogReplayStart { bytes: log_bytes });
        fx.push(MwEffect::DiskReadRaw {
            bytes: log_bytes,
            token: log_token,
        });
        if let Some(m) = meta {
            let ckpt_token = mw.alloc(Some(TokenKind::CheckpointRead));
            mw.paxos
                .push_trace(TraceEvent::CheckpointLoadStart { bytes: 0 });
            fx.push(MwEffect::DiskRead {
                key: Meta::ckpt_key(m.generation),
                token: ckpt_token,
            });
        }
        (mw, fx)
    }

    /// The hosted application (the paper's `getState()`). While a
    /// recovery's checkpoint is still loading it is the initial state.
    pub fn state(&self) -> &App {
        &self.app
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
    /// [`Middleware::on_batch_timer_into`]).
    ///
    /// # Errors
    ///
    /// Returns [`StillRecovering`] until recovery completes.
    pub fn execute(
        &mut self,
        action: App::Action,
        now: u64,
    ) -> Result<(ProposalId, Vec<MwEffect<App>>), StillRecovering> {
        let mut out = Vec::new();
        self.execute_into(action, now, &mut out)
            .map(|pid| (pid, out))
    }

    /// [`Middleware::execute`], appending to the caller's buffer;
    /// returns the update's id.
    ///
    /// # Errors
    ///
    /// Returns [`StillRecovering`] until recovery completes.
    pub fn execute_into(
        &mut self,
        action: App::Action,
        now: u64,
        out: &mut Vec<MwEffect<App>>,
    ) -> Result<ProposalId, StillRecovering> {
        if self.is_recovering() {
            return Err(StillRecovering);
        }
        self.now = self.now.max(now);
        let pid = self.batcher.next_pid();
        self.submit_times.insert(pid, self.now);
        self.paxos
            .push_trace(TraceEvent::UpdateSubmitted { seq: pid.seq });
        let flush = self.batcher.push((pid, action), self.now, &self.config);
        self.propose_batch(flush, out);
        Ok(pid)
    }

    /// Proposes a batch the batcher closed, if it closed one, as one
    /// consensus decree (one acceptor log append per replica instead of
    /// one per update — the group commit).
    fn propose_batch(&mut self, flush: Option<Flush<App::Action>>, out: &mut Vec<MwEffect<App>>) {
        let Some((trigger, batch)) = flush else {
            return;
        };
        self.paxos.push_trace(TraceEvent::BatchFlushed {
            updates: batch.len() as u64,
            trigger,
            first_seq: batch.items.first().map_or(0, |(pid, _)| pid.seq),
        });
        self.paxos.propose_into(batch, &mut self.fx);
        self.lower(out);
    }

    /// When the open batch must be flushed, if one is open. The driver
    /// arms a timer for this instant and calls
    /// [`Middleware::on_batch_timer_into`] when it fires.
    pub fn batch_deadline(&self) -> Option<u64> {
        self.batcher.deadline()
    }

    /// The group-commit window expired: propose whatever accumulated,
    /// appending the effects to the caller's buffer. Safe to call
    /// spuriously (stale timers are no-ops).
    pub fn on_batch_timer_into(&mut self, now: u64, out: &mut Vec<MwEffect<App>>) {
        self.now = self.now.max(now);
        let flush = self.batcher.expire(self.now);
        self.propose_batch(flush, out);
    }

    /// Feeds an incoming middleware message.
    pub fn on_message(
        &mut self,
        from: ReplicaId,
        msg: MwMsg<Batch<App::Action>>,
        now: u64,
    ) -> Vec<MwEffect<App>> {
        let mut out = Vec::new();
        self.on_message_into(from, msg, now, &mut out);
        out
    }

    /// [`Middleware::on_message`], appending to the caller's buffer.
    pub fn on_message_into(
        &mut self,
        from: ReplicaId,
        msg: MwMsg<Batch<App::Action>>,
        now: u64,
        out: &mut Vec<MwEffect<App>>,
    ) {
        self.now = self.now.max(now);
        if !self.recovery.log_replayed {
            return;
        }
        match msg {
            MwMsg::Paxos { epoch, msg: m, .. } => {
                let local = self.paxos.config_epoch();
                match fence(&m, epoch, local) {
                    Fence::Admit => {}
                    Fence::Stale => {
                        self.paxos.push_trace(TraceEvent::StaleEpochRejected {
                            from: from.0,
                            msg_epoch: epoch,
                            local_epoch: local,
                        });
                        return;
                    }
                    Fence::Ahead => return,
                }
                self.paxos.on_message_into(from, m, now, &mut self.fx);
                self.lower(out);
                self.maybe_request_snapshot(out);
            }
            MwMsg::SnapshotRequest => {
                if !self.is_recovering() {
                    let Snapshot {
                        data,
                        nominal_bytes,
                    } = self.app.snapshot();
                    let reply = MwMsg::SnapshotReply {
                        covers: self.paxos.decided_upto(),
                        // The epoch in force at `covers` (the delivery
                        // watermark), which is what the receiver resumes
                        // replay under.
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
            MwMsg::SnapshotReply {
                covers,
                epoch,
                members,
                data,
                ..
            } => {
                if covers > self.paxos.decided_upto() {
                    if let Ok(app) = App::restore(&data) {
                        self.app = app;
                        self.recovery.checkpoint_loaded = true;
                        // Adopt the sender's configuration along with its
                        // state: slots at `covers` and above were decided
                        // under it.
                        if epoch > self.paxos.config_epoch() && !members.is_empty() {
                            self.paxos.adopt_membership(Membership::new(epoch, members));
                        }
                        self.paxos.fast_forward(covers, epoch, &mut self.fx);
                        self.lower(out);
                    }
                }
                self.check_recovery_done(out);
            }
        }
    }

    /// Proposes a configuration change (the admin "add/remove/replace
    /// node" operation). Succeeds only on the current leader with no
    /// other reconfiguration in flight; the driver retries elsewhere on
    /// `false`. Completion arrives as [`MwEffect::Reconfigured`] at every
    /// member once the decree passes its fence. Appends the effects to
    /// the caller's buffer.
    pub fn execute_reconfig_into(
        &mut self,
        add: Vec<ReplicaId>,
        remove: Vec<ReplicaId>,
        now: u64,
        out: &mut Vec<MwEffect<App>>,
    ) -> bool {
        self.now = self.now.max(now);
        if self.is_recovering() {
            return false;
        }
        let ok = self.paxos.propose_reconfig_into(add, remove, &mut self.fx);
        self.lower(out);
        ok
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
        let mut out = Vec::new();
        self.on_tick_into(now, &mut out);
        out
    }

    /// [`Middleware::on_tick`], appending to the caller's buffer.
    pub fn on_tick_into(&mut self, now: u64, out: &mut Vec<MwEffect<App>>) {
        self.now = self.now.max(now);
        if self.recovery.log_replayed {
            // Backstop for the group-commit window: the dedicated batch
            // timer normally flushes first, but a tick past the deadline
            // must not leave updates stranded.
            let flush = self.batcher.expire(self.now);
            self.propose_batch(flush, out);
            self.paxos.on_tick_into(now, &mut self.fx);
            self.lower(out);
        }
        self.maybe_request_snapshot(out);
        self.check_recovery_done(out);
    }

    /// A durable write completed.
    pub fn on_disk_write_done(&mut self, token: u64) -> Vec<MwEffect<App>> {
        let mut out = Vec::new();
        self.on_disk_write_done_into(token, &mut out);
        out
    }

    /// [`Middleware::on_disk_write_done`], appending to the caller's
    /// buffer.
    pub fn on_disk_write_done_into(&mut self, token: u64, out: &mut Vec<MwEffect<App>>) {
        let Some(kind) = self.tokens.remove(&token) else {
            return;
        };
        match kind {
            TokenKind::PaxosPersist(pt) => {
                self.paxos.push_trace(TraceEvent::AppendDurable);
                self.paxos.on_persisted_into(pt, &mut self.fx);
                self.lower(out);
            }
            TokenKind::CheckpointData => {
                let Some(op) = self.checkpoint.data_durable(&mut self.scratch) else {
                    return;
                };
                out.push(self.disk_write(op, Some(TokenKind::MetaWrite)));
            }
            TokenKind::MetaWrite => {
                let Some((meta, [truncate, delete])) = self.checkpoint.meta_durable(&mut self.log)
                else {
                    return;
                };
                self.paxos.push_trace(TraceEvent::CheckpointDurable {
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
    }

    /// A bulk read completed: appends the effects to the caller's
    /// buffer.
    pub fn on_disk_read_done_into(
        &mut self,
        token: u64,
        value: Option<Vec<u8>>,
        out: &mut Vec<MwEffect<App>>,
    ) {
        let Some(kind) = self.tokens.remove(&token) else {
            return;
        };
        match kind {
            TokenKind::LogRead => {
                self.paxos.push_trace(TraceEvent::LogReplayed {
                    records: self.log.len() as u64,
                });
                self.recovery.log_replayed = true;
                // The consensus layer is live now; its first ticks will
                // heartbeat and trigger backlog catch-up.
            }
            TokenKind::CheckpointRead => {
                // A corrupt checkpoint counts as absent: the initial state
                // stays, and the full replay reconstructs on top of it.
                if let Some(bytes) = value {
                    if let Ok(app) = App::restore(&bytes) {
                        self.app = app;
                    }
                }
                self.paxos.push_trace(TraceEvent::CheckpointLoaded {
                    slot: self.checkpoint.slot().0,
                });
                self.recovery.checkpoint_loaded = true;
                self.drain_queue(out);
            }
            TokenKind::PaxosPersist(_) | TokenKind::CheckpointData | TokenKind::MetaWrite => {}
        }
        self.check_recovery_done(out);
    }

    /// Takes back the log name and entry buffer of a completed append
    /// (the disk keeps its own copy of the bytes): the next log record
    /// is written into them instead of into new ones. Up to
    /// `APPEND_SPARE_MAX` pairs are kept; the rest are dropped. Handing
    /// nothing back is correct too; every record then takes its own.
    pub fn recycle_append(&mut self, log: String, entry: Vec<u8>) {
        if self.appends.len() < APPEND_SPARE_MAX {
            self.appends.push((log, entry));
        }
    }

    /// Lowers the consensus effects buffered in `self.fx` onto `out`,
    /// applying committed actions along the way, and leaves the buffer
    /// empty with its capacity kept. Decided batches are unpacked front
    /// to back so every update keeps its own `(slot, index)` position in
    /// the total order.
    fn lower(&mut self, out: &mut Vec<MwEffect<App>>) {
        let mut fx = std::mem::take(&mut self.fx);
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
                    let (mut log, mut entry) = self.appends.pop().unwrap_or_default();
                    log.clear();
                    log.push_str(LOG_NAME);
                    entry.clear();
                    record.encode(&mut entry);
                    self.paxos.push_trace(TraceEvent::LogAppend {
                        bytes: entry.len() as u64,
                    });
                    self.log.push(record.slot(), entry.len() as u64);
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

    /// Applies queued deliveries once the checkpoint is loaded.
    fn drain_queue(&mut self, out: &mut Vec<MwEffect<App>>) {
        if !self.recovery.checkpoint_loaded {
            return; // hold the backlog.
        }
        while let Some(entry) = self.queue.try_dequeue() {
            let Some(action) = entry.action() else {
                debug_assert!(false, "queue entry outside its batch");
                continue;
            };
            let reply = self.app.apply(action);
            self.applied = self.applied.saturating_add(1);
            self.checkpoint.note_applied();
            // `latency_us` 0 marks an unknown submit time (remote or
            // replayed updates); the analyzer excludes those.
            let latency_us = self
                .submit_times
                .remove(&entry.pid)
                .map(|t0| self.now.saturating_sub(t0))
                .unwrap_or(0);
            self.paxos.push_trace(TraceEvent::UpdateDelivered {
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
        let Snapshot {
            data,
            nominal_bytes,
        } = self.app.snapshot();
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
        self.paxos.push_trace(TraceEvent::CheckpointWrite {
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
        if self.recovery.try_complete(!self.paxos.is_recovering()) {
            self.recovery_completed_at = Some(self.now);
            self.paxos.push_trace(TraceEvent::RecoveryComplete {
                slot: self.paxos.decided_upto().0,
            });
            out.push(MwEffect::RecoveryComplete);
        }
    }

    /// Drains the trace events buffered since the last call (middleware
    /// and consensus core interleaved in emission order: the middleware
    /// pushes its own onto the core's buffer). The driver stamps them
    /// with its clock and node id; one that never drains keeps every
    /// event.
    pub fn take_trace(&mut self) -> std::vec::Drain<'_, TraceEvent> {
        self.paxos.take_trace_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{
        active_single, active_single_with, batching_config, config, drain, Counter,
    };

    /// A buffer that already holds an effect: one with a token no node
    /// hands out.
    fn held() -> Vec<MwEffect<Counter>> {
        vec![MwEffect::DiskReadRaw {
            bytes: 0,
            token: u64::MAX,
        }]
    }

    /// What a call appended to a [`held`] buffer, once the held effect
    /// is seen still first.
    fn appended(mut buf: Vec<MwEffect<Counter>>) -> Vec<MwEffect<Counter>> {
        let first = buf.first();
        let kept = matches!(first, Some(MwEffect::DiskReadRaw { token, .. }) if *token == u64::MAX);
        assert!(kept, "the call appends after what the buffer held: {buf:?}");
        buf.split_off(1)
    }

    #[test]
    fn buffer_forms_append_what_the_vec_forms_return() {
        // Two identical nodes: `a` is driven through the `Vec` forms and
        // `b` through the buffer forms.
        let (mut a, mut disk_a) = active_single();
        let (mut b, mut disk_b) = active_single();
        let (pid, fx) = a.execute(5, 0).expect("active");
        let mut buf = held();
        assert_eq!(b.execute_into(5, 0, &mut buf), Ok(pid));
        let mut pending = vec![(fx, appended(buf))];
        let mut handled = 0;
        while let Some((fx_a, fx_b)) = pending.pop() {
            assert_eq!(format!("{fx_a:?}"), format!("{fx_b:?}"));
            for (ea, eb) in fx_a.into_iter().zip(fx_b) {
                let mut buf = held();
                let fx = match (ea, eb) {
                    (MwEffect::Send { msg: ma, .. }, MwEffect::Send { msg: mb, .. }) => {
                        b.on_message_into(ReplicaId(0), mb, 0, &mut buf);
                        a.on_message(ReplicaId(0), ma, 0)
                    }
                    (
                        MwEffect::DiskWrite { op: oa, token, .. },
                        MwEffect::DiskWrite { op: ob, .. },
                    ) => {
                        disk_a.apply(oa);
                        disk_b.apply(ob);
                        b.on_disk_write_done_into(token, &mut buf);
                        a.on_disk_write_done(token)
                    }
                    _ => continue,
                };
                handled += 1;
                pending.push((fx, appended(buf)));
            }
        }
        assert!(handled >= 2, "a write completed and a message arrived");
        assert_eq!(
            (a.state(), b.state()),
            (&Counter { total: 5 }, &Counter { total: 5 })
        );
        let mut buf = held();
        b.on_tick_into(400_000, &mut buf);
        let ticked = a.on_tick(400_000);
        assert_eq!(format!("{ticked:?}"), format!("{:?}", appended(buf)));

        // The forms without a `Vec` form.
        let mut buf = held();
        assert!(b.execute_reconfig_into(vec![ReplicaId(1)], vec![], 0, &mut buf));
        assert!(!appended(buf).is_empty(), "the reconfiguration is proposed");
        let (mut batching, _) = active_single_with(batching_config(8, 5_000));
        let (_, fx) = batching.execute(7, 0).expect("active");
        assert!(fx.is_empty(), "the update waits for its window");
        let deadline = batching.batch_deadline().expect("window armed");
        let mut buf = held();
        batching.on_batch_timer_into(deadline, &mut buf);
        assert!(!appended(buf).is_empty(), "the window's batch is proposed");
        // A restart reads its log, re-learns the update on a tick, and
        // applies it once its checkpoint is read.
        let initial = Counter { total: 0 };
        let (mut restarted, reads) =
            Middleware::recover(ReplicaId(0), &disk_a, initial, config(), 1, 0);
        let [MwEffect::DiskReadRaw { token: log, .. }, MwEffect::DiskRead { key, token }] =
            &reads[..]
        else {
            panic!("a log read and a checkpoint read: {reads:?}");
        };
        let mut buf = held();
        restarted.on_disk_read_done_into(*log, None, &mut buf);
        appended(buf);
        let fx = restarted.on_tick(100_000);
        drain(&mut restarted, fx, &mut disk_a);
        let mut buf = held();
        let checkpoint = disk_a.get(key).map(<[u8]>::to_vec);
        restarted.on_disk_read_done_into(*token, checkpoint, &mut buf);
        assert!(
            !appended(buf).is_empty(),
            "the checkpoint read applies the update"
        );
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
}
