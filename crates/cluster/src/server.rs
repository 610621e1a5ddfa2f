//! A server replica node: Tomcat + RobustStore + Treplica.
//!
//! Each node runs the web tier (a FIFO CPU queue handling interactions
//! at the `service` constants' costs) over the Treplica middleware
//! hosting the replicated bookstore. Reads are answered from
//! local state; updates are submitted to the persistent queue and
//! answered when the action commits and applies locally — the paper's
//! blocking `execute()` semantics, with the client connection standing
//! in for the blocked caller.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

use std::collections::{BTreeMap, VecDeque};

use obs::node_u32;
use paxos::{ProposalId, ReplicaId};
use robuststore::{Prepared, Reply, RobustStore, TpcwDatabase};
use simnet::{Engine, NodeId, SimDuration, StableOp};
use tpcw::{Interaction, PopulationParams, WebRequest};
use treplica::{Middleware, MwEffect, RecoveredDisk, TreplicaConfig};

use crate::audit::InvariantAuditor;
use crate::msg::ClusterMsg;
use crate::service;

/// Timer token: middleware tick.
pub const TOKEN_TICK: u64 = 0;
/// Timer token: CPU work completion.
pub const TOKEN_WORK: u64 = 1;
/// Timer token: group-commit batch window expiry.
pub const TOKEN_BATCH: u64 = 2;

/// Middleware tick cadence.
pub const TICK_US: u64 = 20_000;

#[derive(Debug)]
enum WorkKind {
    Handle {
        req_id: u64,
        from: NodeId,
        request: WebRequest,
    },
    Apply {
        pid: ProposalId,
        reply: Reply,
    },
}

#[derive(Debug)]
struct WorkItem {
    kind: WorkKind,
    cost_us: u64,
}

/// One application-server replica.
#[derive(Debug)]
pub struct ServerNode {
    /// Server index (== consensus ReplicaId == simnet NodeId index).
    pub idx: usize,
    node: NodeId,
    mw: Middleware<RobustStore>,
    facade: TpcwDatabase,
    queue: VecDeque<WorkItem>,
    busy: bool,
    outstanding: BTreeMap<ProposalId, (u64, NodeId, Interaction)>,
    ready: bool,
    /// Protocol CPU consumed since the last work item started: Treplica's
    /// threads preempt page rendering (OS time-slicing), so their cost is
    /// charged to the next piece of queued work rather than serialized
    /// behind it.
    cpu_debt_us: u64,
    /// Deadline (µs) the armed `TOKEN_BATCH` timer fires at, so the open
    /// batch's window is armed exactly once.
    batch_timer_armed: Option<u64>,
    /// Last second a `QueueSample` was traced for (one sample per
    /// second keeps the trace small).
    queue_sampled_sec: u64,
}

impl ServerNode {
    /// Boots a fresh replica (first start, empty disk) under the initial
    /// member set and arms its middleware tick.
    pub fn new(
        idx: usize,
        params: PopulationParams,
        config: TreplicaConfig,
        engine: &mut Engine<ClusterMsg>,
        auditor: &mut InvariantAuditor,
    ) -> ServerNode {
        let membership = paxos::Membership::initial(config.paxos.n);
        Self::join(idx, params, config, membership, engine, auditor)
    }

    /// Boots a brand-new replica joining an already-running ensemble
    /// under `membership` (a spare provisioned by a reconfiguration).
    /// The membership must already contain this node's id — it is the
    /// *post*-reconfig configuration. The joiner starts from an empty
    /// disk and catches up via log shipping / snapshot transfer.
    pub fn join(
        idx: usize,
        params: PopulationParams,
        config: TreplicaConfig,
        membership: paxos::Membership,
        engine: &mut Engine<ClusterMsg>,
        auditor: &mut InvariantAuditor,
    ) -> ServerNode {
        let (mw, boot_fx) = Middleware::bootstrap_with_membership(
            ReplicaId(node_u32(idx)),
            RobustStore::new(params),
            config,
            membership,
            engine.now().as_micros(),
        );
        let mut server = Self::start(idx, mw, 0, engine);
        server.apply_mw_effects(engine, boot_fx, auditor);
        server
    }

    /// Restarts a crashed replica from its durable disk. The node is
    /// not `ready` (health probes answer 503) until recovery completes.
    pub fn recover(
        idx: usize,
        params: PopulationParams,
        config: TreplicaConfig,
        engine: &mut Engine<ClusterMsg>,
        auditor: &mut InvariantAuditor,
    ) -> ServerNode {
        let node = NodeId(idx);
        auditor.on_restart(idx, engine.store(node));
        let disk = RecoveredDisk::from_store(engine.store(node)).unwrap_or(RecoveredDisk {
            meta: None,
            log_entries: Vec::new(),
            log_first_index: 0,
            log_bytes: 0,
        });
        let epoch = engine.node_state(node).incarnation.0;
        let now = engine.now().as_micros();
        let (mut mw, fx) = Middleware::recover(ReplicaId(node_u32(idx)), disk, config, epoch, now);
        mw.install_initial_state(RobustStore::new(params));
        let mut server = Self::start(idx, mw, epoch, engine);
        server.apply_mw_effects(engine, fx, auditor);
        server
    }

    /// The idle node around `mw`, its middleware tick armed; ready
    /// unless `mw` is recovering. `epoch` is the incarnation (0 on first
    /// boot) and goes into the facade's sampling seed.
    fn start(
        idx: usize,
        mw: Middleware<RobustStore>,
        epoch: u64,
        engine: &mut Engine<ClusterMsg>,
    ) -> ServerNode {
        let node = NodeId(idx);
        engine.set_timer(node, SimDuration::from_micros(TICK_US), TOKEN_TICK);
        ServerNode {
            idx,
            node,
            facade: TpcwDatabase::new(0x00fa_cade ^ idx as u64 ^ (epoch << 32)),
            queue: VecDeque::new(),
            busy: false,
            outstanding: BTreeMap::new(),
            ready: !mw.is_recovering(),
            mw,
            cpu_debt_us: 0,
            batch_timer_armed: None,
            queue_sampled_sec: engine.now().as_micros() / 1_000_000,
        }
    }

    /// Whether the application is serving (post-recovery).
    pub fn is_ready(&self) -> bool {
        self.ready
    }

    /// The configuration this replica currently runs under.
    pub fn membership(&self) -> &paxos::Membership {
        self.mw.membership()
    }

    /// Whether a reconfiguration removed this replica from the ensemble.
    pub fn is_retired(&self) -> bool {
        self.mw.is_retired()
    }

    /// Submits an administrative membership change at this replica.
    /// Returns `false` if it is not the leader (or a reconfiguration is
    /// already pending) — the driver retries at another node.
    pub fn execute_reconfig(
        &mut self,
        engine: &mut Engine<ClusterMsg>,
        add: Vec<ReplicaId>,
        remove: Vec<ReplicaId>,
        auditor: &mut InvariantAuditor,
    ) -> bool {
        let now = engine.now().as_micros();
        let (ok, fx) = self.mw.execute_reconfig(add, remove, now);
        self.apply_mw_effects(engine, fx, auditor);
        ok
    }

    /// Middleware introspection.
    pub fn mw_status(&self) -> treplica::MwStatus {
        self.mw.status()
    }

    /// When this incarnation's recovery completed, if it was recovering.
    pub fn recovery_completed_at(&self) -> Option<u64> {
        self.mw.recovery_completed_at()
    }

    /// Stamps the middleware's buffered trace events into the engine's
    /// tracer under this node's id, then appends an `AuditViolation`
    /// event if the auditor flagged anything since the last drain — so a
    /// violation sits in the trace right after the events that caused it.
    fn drain_trace(&mut self, engine: &mut Engine<ClusterMsg>, auditor: &mut InvariantAuditor) {
        for ev in self.mw.take_trace() {
            engine.trace(self.node, ev);
        }
        let fresh = auditor.take_unreported_violations();
        if fresh > 0 {
            engine.trace(self.node, obs::TraceEvent::AuditViolation { count: fresh });
        }
    }

    /// Carries out the middleware's effects in order, then hands their
    /// vector back to the middleware for its next entry point to fill.
    fn apply_mw_effects(
        &mut self,
        engine: &mut Engine<ClusterMsg>,
        mut fx: Vec<MwEffect<RobustStore>>,
        auditor: &mut InvariantAuditor,
    ) {
        for e in fx.drain(..) {
            match e {
                MwEffect::Send { to, msg, bytes } => {
                    let now_us = engine.now().as_micros();
                    auditor.on_send(self.idx, &msg, || self.mw.status().paxos, now_us);
                    // Note the causal tag before the message moves into the
                    // engine; the `MsgTag` record joins the transmission id
                    // with the protocol-level provenance for `obs::causal`.
                    let tag_info = match &msg {
                        treplica::MwMsg::Paxos { tag, msg: m, .. } => Some((m.kind(), *tag)),
                        _ => None,
                    };
                    let xid = engine.send_sized(
                        self.node,
                        NodeId(to.index()),
                        ClusterMsg::Mw(msg),
                        bytes,
                    );
                    if let Some((kind, tag)) = tag_info {
                        engine.trace(
                            self.node,
                            obs::TraceEvent::MsgTag {
                                xid,
                                kind,
                                origin: tag.origin,
                                cseq: tag.seq,
                                slot: tag.slot,
                                round: tag.round,
                            },
                        );
                    }
                }
                MwEffect::DiskWrite { op, token, nominal } => {
                    if let (Some(nom), StableOp::Put { key, .. }) = (nominal, &op) {
                        let key = key.clone();
                        engine.set_nominal(self.node, &key, nom);
                    }
                    auditor.on_disk_write(self.idx, &op, token, engine.now().as_micros());
                    engine.disk_write(self.node, op, token);
                }
                MwEffect::DiskRead { key, token } => engine.disk_read(self.node, &key, token),
                MwEffect::DiskReadRaw { bytes, token } => {
                    engine.disk_read_raw(self.node, bytes, token)
                }
                MwEffect::Applied {
                    slot,
                    index,
                    pid,
                    epoch,
                    reply,
                } => {
                    auditor.on_applied(self.idx, slot, index, pid, epoch, engine.now().as_micros());
                    self.enqueue(
                        engine,
                        WorkItem {
                            kind: WorkKind::Apply { pid, reply },
                            cost_us: service::APPLY_US,
                        },
                    );
                }
                MwEffect::Reconfigured { members, .. } => {
                    // A node the new configuration removed stops serving:
                    // health probes answer 503, the proxy routes around
                    // it, and the driver decommissions it.
                    if !members.contains(&ReplicaId(node_u32(self.idx))) {
                        self.ready = false;
                    }
                }
                MwEffect::RecoveryComplete => {
                    self.ready = true;
                }
            }
        }
        self.mw.recycle(fx);
        self.drain_trace(engine, auditor);
        self.sync_batch_timer(engine);
    }

    /// Arms a `TOKEN_BATCH` timer for the middleware's open group-commit
    /// window, if one exists and isn't armed yet. Timers left over from
    /// already-flushed batches fire as harmless no-ops.
    fn sync_batch_timer(&mut self, engine: &mut Engine<ClusterMsg>) {
        if let Some(deadline) = self.mw.batch_deadline() {
            if self.batch_timer_armed != Some(deadline) {
                self.batch_timer_armed = Some(deadline);
                let now = engine.now().as_micros();
                let delay = deadline.saturating_sub(now).max(1);
                engine.set_timer(self.node, SimDuration::from_micros(delay), TOKEN_BATCH);
            }
        } else {
            self.batch_timer_armed = None;
        }
    }

    fn enqueue(&mut self, engine: &mut Engine<ClusterMsg>, item: WorkItem) {
        self.queue.push_back(item);
        if !self.busy {
            self.busy = true;
            self.start_head(engine);
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "`enqueue` pushes first and `complete_head` checks `front()` first"
    )]
    fn start_head(&mut self, engine: &mut Engine<ClusterMsg>) {
        let cost = self
            .queue
            .front()
            .expect("head present")
            .cost_us
            .saturating_add(self.cpu_debt_us);
        self.cpu_debt_us = 0;
        engine.set_timer(self.node, SimDuration::from_micros(cost), TOKEN_WORK);
    }

    fn complete_head(&mut self, engine: &mut Engine<ClusterMsg>, auditor: &mut InvariantAuditor) {
        let item = match self.queue.pop_front() {
            Some(i) => i,
            None => {
                self.busy = false;
                return;
            }
        };
        match item.kind {
            WorkKind::Handle {
                req_id,
                from,
                request,
            } => {
                self.finish_handle(engine, req_id, from, request, auditor);
            }
            WorkKind::Apply { pid, reply } => {
                if let Some((req_id, from, interaction)) = self.outstanding.remove(&pid) {
                    let page = TpcwDatabase::write_result(interaction, &reply);
                    engine.send_sized(
                        self.node,
                        from,
                        ClusterMsg::Response {
                            req_id,
                            interaction,
                            ok: page.ok,
                            session: page.session,
                            bytes: page.page_bytes,
                        },
                        page.page_bytes,
                    );
                    // The blocked client is answered: the end of the
                    // paper's blocking execute() path, and the reply
                    // edge of this update's critical-path span.
                    if engine.trace_enabled() {
                        engine.trace(self.node, obs::TraceEvent::ReplySent { seq: pid.seq });
                    }
                }
            }
        }
        if self.queue.front().is_some() {
            self.start_head(engine);
        } else {
            self.busy = false;
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "requests are handled only once the middleware is ready, and it then has state"
    )]
    fn finish_handle(
        &mut self,
        engine: &mut Engine<ClusterMsg>,
        req_id: u64,
        from: NodeId,
        request: WebRequest,
        auditor: &mut InvariantAuditor,
    ) {
        let now = engine.now().as_micros();
        let interaction = request.interaction;
        match self.facade.prepare(&request, now) {
            Prepared::Read(op) => {
                let state = self.mw.state().expect("ready server has state");
                let page = TpcwDatabase::perform_read(state.store(), &op);
                engine.send_sized(
                    self.node,
                    from,
                    ClusterMsg::Response {
                        req_id,
                        interaction,
                        ok: page.ok,
                        session: page.session,
                        bytes: page.page_bytes,
                    },
                    page.page_bytes,
                );
            }
            Prepared::Write(action) => match self.mw.execute(action, now) {
                Ok((pid, fx)) => {
                    self.outstanding.insert(pid, (req_id, from, interaction));
                    self.apply_mw_effects(engine, fx, auditor);
                }
                Err(_) => {
                    engine.send(self.node, from, ClusterMsg::ConnError { req_id });
                }
            },
        }
    }

    /// Handles a message arriving at this server.
    pub fn on_message(
        &mut self,
        engine: &mut Engine<ClusterMsg>,
        from: NodeId,
        msg: ClusterMsg,
        auditor: &mut InvariantAuditor,
    ) {
        match msg {
            ClusterMsg::Mw(m) => {
                // Protocol handling is prompt (Treplica's threads and the
                // network stack preempt page rendering), but its CPU is
                // real: charge it as debt against the queued page work.
                self.cpu_debt_us = self.cpu_debt_us.saturating_add(service::PER_MSG_US);
                let now = engine.now().as_micros();
                let fx = self
                    .mw
                    .on_message(ReplicaId(node_u32(from.index())), m, now);
                self.apply_mw_effects(engine, fx, auditor);
            }
            ClusterMsg::Probe { seq } => {
                engine.send(
                    self.node,
                    from,
                    ClusterMsg::ProbeReply {
                        seq,
                        server: self.idx,
                        ready: self.ready,
                    },
                );
            }
            ClusterMsg::Request { req_id, request } => {
                if !self.ready {
                    engine.send(self.node, from, ClusterMsg::ConnError { req_id });
                    return;
                }
                let cost_us = service::handle_cost_us(request.interaction);
                self.enqueue(
                    engine,
                    WorkItem {
                        kind: WorkKind::Handle {
                            req_id,
                            from,
                            request,
                        },
                        cost_us,
                    },
                );
            }
            // Servers receive nothing else.
            _ => {}
        }
    }

    /// Handles a timer.
    pub fn on_timer(
        &mut self,
        engine: &mut Engine<ClusterMsg>,
        token: u64,
        auditor: &mut InvariantAuditor,
    ) {
        match token {
            TOKEN_TICK => {
                engine.set_timer(self.node, SimDuration::from_micros(TICK_US), TOKEN_TICK);
                let now = engine.now().as_micros();
                // Sample the work-queue depth once per second for the
                // timeline's per-node load series (the per-enqueue
                // histogram already captures the distribution).
                if engine.trace_enabled() {
                    let sec = now / 1_000_000;
                    if sec > self.queue_sampled_sec {
                        self.queue_sampled_sec = sec;
                        let depth = self.queue.len() as u64;
                        engine.trace(self.node, obs::TraceEvent::QueueSample { depth });
                    }
                }
                let fx = self.mw.on_tick(now);
                self.apply_mw_effects(engine, fx, auditor);
            }
            TOKEN_WORK => self.complete_head(engine, auditor),
            TOKEN_BATCH => {
                self.batch_timer_armed = None;
                let now = engine.now().as_micros();
                let fx = self.mw.on_batch_timer(now);
                self.apply_mw_effects(engine, fx, auditor);
            }
            _ => {}
        }
    }

    /// A durable write completed. The auditor marks the record durable
    /// *first* — the middleware's reaction releases the sends it gates.
    pub fn on_disk_write_done(
        &mut self,
        engine: &mut Engine<ClusterMsg>,
        token: u64,
        auditor: &mut InvariantAuditor,
    ) {
        auditor.on_disk_write_done(self.idx, token);
        let fx = self.mw.on_disk_write_done(token);
        self.apply_mw_effects(engine, fx, auditor);
    }

    /// A bulk read completed.
    pub fn on_disk_read_done(
        &mut self,
        engine: &mut Engine<ClusterMsg>,
        token: u64,
        value: Option<Vec<u8>>,
        auditor: &mut InvariantAuditor,
    ) {
        let fx = self.mw.on_disk_read_done(token, value);
        self.apply_mw_effects(engine, fx, auditor);
    }
}
