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

use std::collections::VecDeque;

use obs::node_u32;
use paxos::{ProposalId, ReplicaId, SeqRing};
use robuststore::{Prepared, Reply, RobustStore, TpcwDatabase};
use simnet::{Engine, NodeId, SimDuration, StableOp};
use tpcw::{Interaction, PopulationParams, WebRequest};
use treplica::{Middleware, MwEffect, TreplicaConfig};

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
    /// The effect buffer every middleware call appends to and
    /// `apply_mw_effects` drains: it keeps the capacity of the largest
    /// burst.
    fx: Vec<MwEffect<RobustStore>>,
    facade: TpcwDatabase,
    /// The CPU's work; its head is in service.
    queue: VecDeque<WorkItem>,
    /// Updates this incarnation executed and has not answered yet, with
    /// the request each answers, keyed by `pid.seq`: the middleware
    /// numbers its updates one after another. A pid of another
    /// incarnation finds no entry or one with a different pid.
    outstanding: SeqRing<(ProposalId, u64, NodeId, Interaction)>,
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
    /// Boots a fresh replica (first start, empty disk) under
    /// `membership` and arms its middleware tick: the initial member set
    /// at the start of a run, or the *post*-reconfig configuration for a
    /// spare joining a running ensemble. That configuration must contain
    /// this node's id; the joiner catches up via log shipping / snapshot
    /// transfer.
    pub fn boot(
        idx: usize,
        params: PopulationParams,
        config: TreplicaConfig,
        membership: paxos::Membership,
        engine: &mut Engine<ClusterMsg>,
        auditor: &mut InvariantAuditor,
    ) -> ServerNode {
        let (mw, boot_fx) = Middleware::bootstrap(
            ReplicaId(node_u32(idx)),
            RobustStore::new(params),
            config,
            membership,
            engine.now().as_micros(),
        );
        let mut server = Self::start(idx, mw, boot_fx, 0, engine);
        server.apply_mw_effects(engine, auditor);
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
        let store = engine.store(node);
        auditor.on_restart(idx, store);
        let epoch = engine.node_state(node).incarnation.0;
        let now = engine.now().as_micros();
        let id = ReplicaId(node_u32(idx));
        let initial = RobustStore::new(params);
        let (mw, fx) = Middleware::recover(id, store, initial, config, epoch, now);
        let mut server = Self::start(idx, mw, fx, epoch, engine);
        server.apply_mw_effects(engine, auditor);
        server
    }

    /// The idle node around `mw`, its middleware tick armed and `fx`
    /// its effect buffer; ready unless `mw` is recovering. `epoch` is
    /// the incarnation (0 on first boot) and goes into the facade's
    /// sampling seed.
    fn start(
        idx: usize,
        mw: Middleware<RobustStore>,
        fx: Vec<MwEffect<RobustStore>>,
        epoch: u64,
        engine: &mut Engine<ClusterMsg>,
    ) -> ServerNode {
        let node = NodeId(idx);
        engine.set_timer(node, SimDuration::from_micros(TICK_US), TOKEN_TICK);
        ServerNode {
            idx,
            node,
            fx,
            facade: TpcwDatabase::new(0x00fa_cade ^ idx as u64 ^ (epoch << 32)),
            queue: VecDeque::new(),
            outstanding: SeqRing::new(),
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
        let ok = self
            .mw
            .execute_reconfig_into(add, remove, now, &mut self.fx);
        self.apply_mw_effects(engine, auditor);
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

    /// Carries out the effects in the buffer in order and leaves it
    /// empty, its capacity kept for the next middleware call.
    fn apply_mw_effects(
        &mut self,
        engine: &mut Engine<ClusterMsg>,
        auditor: &mut InvariantAuditor,
    ) {
        let mut fx = std::mem::take(&mut self.fx);
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
        self.fx = fx;
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
        let idle = self.queue.is_empty();
        let cost_us = item.cost_us;
        self.queue.push_back(item);
        if idle {
            self.start_head(engine, cost_us);
        }
    }

    /// Puts the head, which costs `cost_us`, into service, charging it
    /// the protocol CPU spent since the last start.
    fn start_head(&mut self, engine: &mut Engine<ClusterMsg>, cost_us: u64) {
        let cost = cost_us.saturating_add(self.cpu_debt_us);
        self.cpu_debt_us = 0;
        engine.set_timer(self.node, SimDuration::from_micros(cost), TOKEN_WORK);
    }

    fn complete_head(&mut self, engine: &mut Engine<ClusterMsg>, auditor: &mut InvariantAuditor) {
        let Some(item) = self.queue.pop_front() else {
            return;
        };
        // The item waiting behind this one starts once its handling is
        // done; work the handling enqueues onto an empty queue starts in
        // `enqueue`.
        let next_cost_us = self.queue.front().map(|next| next.cost_us);
        match item.kind {
            WorkKind::Handle {
                req_id,
                from,
                request,
            } => {
                self.finish_handle(engine, req_id, from, request, auditor);
            }
            WorkKind::Apply { pid, reply } => {
                let waiting = match self.outstanding.get(pid.seq) {
                    Some(entry) if entry.0 == pid => self.outstanding.remove(pid.seq),
                    _ => None,
                };
                if let Some((_, req_id, from, interaction)) = waiting {
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
                    engine.trace(self.node, obs::TraceEvent::ReplySent { seq: pid.seq });
                }
            }
        }
        if let Some(cost_us) = next_cost_us {
            self.start_head(engine, cost_us);
        }
    }

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
                let page = TpcwDatabase::perform_read(self.mw.state().store(), &op);
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
            Prepared::Write(action) => match self.mw.execute_into(action, now, &mut self.fx) {
                Ok(pid) => {
                    let entry = (pid, req_id, from, interaction);
                    if self.outstanding.insert(pid.seq, entry).is_err() {
                        // Far more updates than ever wait at once: the
                        // update still commits, but its client hears an
                        // error instead of the page.
                        engine.send(self.node, from, ClusterMsg::ConnError { req_id });
                    }
                    self.apply_mw_effects(engine, auditor);
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
                let from = ReplicaId(node_u32(from.index()));
                self.mw.on_message_into(from, m, now, &mut self.fx);
                self.apply_mw_effects(engine, auditor);
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
                let sec = now / 1_000_000;
                if sec > self.queue_sampled_sec {
                    self.queue_sampled_sec = sec;
                    let depth = self.queue.len() as u64;
                    engine.trace(self.node, obs::TraceEvent::QueueSample { depth });
                }
                self.mw.on_tick_into(now, &mut self.fx);
                self.apply_mw_effects(engine, auditor);
            }
            TOKEN_WORK => self.complete_head(engine, auditor),
            TOKEN_BATCH => {
                self.batch_timer_armed = None;
                let now = engine.now().as_micros();
                self.mw.on_batch_timer_into(now, &mut self.fx);
                self.apply_mw_effects(engine, auditor);
            }
            _ => {}
        }
    }

    /// A durable write completed. The auditor marks the record durable
    /// *first* — the middleware's reaction releases the sends it gates.
    /// An append's buffers go back to the middleware for its next record.
    pub fn on_disk_write_done(
        &mut self,
        engine: &mut Engine<ClusterMsg>,
        token: u64,
        buffers: Option<(String, Vec<u8>)>,
        auditor: &mut InvariantAuditor,
    ) {
        if let Some((log, entry)) = buffers {
            self.mw.recycle_append(log, entry);
        }
        auditor.on_disk_write_done(self.idx, token);
        self.mw.on_disk_write_done_into(token, &mut self.fx);
        self.apply_mw_effects(engine, auditor);
    }

    /// A bulk read completed.
    pub fn on_disk_read_done(
        &mut self,
        engine: &mut Engine<ClusterMsg>,
        token: u64,
        value: Option<Vec<u8>>,
        auditor: &mut InvariantAuditor,
    ) {
        self.mw.on_disk_read_done_into(token, value, &mut self.fx);
        self.apply_mw_effects(engine, auditor);
    }
}
