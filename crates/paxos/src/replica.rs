//! The full replica: all Paxos roles composed behind one sans-io facade.
//!
//! Every Treplica process runs proposer, acceptor, learner and (when
//! elected) coordinator. [`Replica`] wires them together and owns the
//! cross-cutting concerns: durability gating of acceptor messages,
//! leader election and the fast/classic/blocked mode rule, fast-round
//! collision recovery, proposal retries, and log catch-up.
//!
//! Drive it with four entry points — [`Replica::propose_into`],
//! [`Replica::on_message_into`], [`Replica::on_tick_into`],
//! [`Replica::on_persisted_into`] — and apply the [`Effect`]s they
//! append to the caller's buffer. Each has a form that returns a fresh
//! `Vec` instead ([`Replica::on_message`] and so on), a one-line
//! wrapper for callers that keep no buffer.

use std::collections::BTreeMap;

use obs::{node_u32, TraceEvent, MODE_BLOCKED, MODE_CLASSIC, MODE_FAST};

use crate::acceptor::{Acceptor, AcceptorOut, Dest};
use crate::config::{
    PaxosConfig, ALIVE_CATCHUP_THROTTLE_US, CATCHUP_LAG_SLOTS, COLLISION_TIMEOUT_US, FD_TIMEOUT_US,
    GAP_REPAIR_THROTTLE_US, HEARTBEAT_INTERVAL_US, LEARN_CHUNK, PREPARE_GRACE_US, PROPOSE_RETRY_US,
    TAIL_CATCHUP_GRACE_US,
};
use crate::fd::{FailureDetector, Mode};
use crate::leader::{Leader, LeaderPhase};
use crate::learner::{Delivery, Learner};
use crate::msg::{AcceptedReport, Effect, Effects, Msg, PersistToken, Record};
use crate::proposer::Proposer;
use crate::types::{Ballot, Decree, Membership, ProposalId, Reconfig, ReplicaId, Slot};

/// Introspection snapshot of a replica (metrics and tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// Operating mode per the failure detector.
    pub mode: Mode,
    /// Whether this replica currently coordinates.
    pub leading: bool,
    /// Highest ballot observed.
    pub ballot: Ballot,
    /// Contiguously decided/delivered watermark.
    pub decided_upto: Slot,
    /// Proposals issued here and not yet delivered, plus other
    /// replicas' proposals parked here for routing; each counted once.
    pub pending_proposals: usize,
    /// Replicas the failure detector currently counts alive (self
    /// included) — the mode rule requires ⌈3N/4⌉ of them for `Fast`.
    pub alive: usize,
    /// Configuration epoch this replica currently operates under.
    pub epoch: u64,
    /// Ensemble size `N` of the current epoch (the mode rule's N).
    pub n: usize,
}

/// A complete Paxos/Fast Paxos replica (sans-io).
#[derive(Debug)]
pub struct Replica<V> {
    id: ReplicaId,
    config: PaxosConfig,
    acceptor: Acceptor<V>,
    learner: Learner<V>,
    leader: Leader<V>,
    proposer: Proposer<V>,
    fd: FailureDetector,
    /// Persist-token → the message released on completion.
    gated: BTreeMap<u64, (Dest, Msg<V>)>,
    next_token: u64,
    now: u64,
    last_heartbeat: u64,
    prepare_started: u64,
    /// Highest ballot observed anywhere (election and routing hints).
    highest_ballot: Ballot,
    /// The fast window as opened by the coordinator's `Any`; cleared
    /// by any higher whole-range prepare (single-slot recovery prepares
    /// leave it open).
    fast_window: Option<Ballot>,
    /// Proposals that could not be routed yet (no leader/blocked).
    unrouted: Vec<(ProposalId, V)>,
    last_learn_request: u64,
    /// Watermark + first-observed time of an uncleared small lag behind
    /// a peer; drives the stalled-tail catch-up (see
    /// [`TAIL_CATCHUP_GRACE_US`]).
    lag_since: Option<(Slot, u64)>,
    /// Set by [`Replica::recover`]: aggressively catch up (any positive
    /// lag triggers a learn request) until level with the ensemble.
    recovering: bool,
    /// A catch-up response revealed the peer truncated its history past
    /// our watermark: the middleware must perform a snapshot transfer.
    snapshot_needed: Option<(ReplicaId, Slot)>,
    /// The current configuration: epoch + member set. Quorum arithmetic,
    /// broadcasts and the failure detector all follow it.
    membership: Membership,
    /// A reconfiguration accepted by [`Replica::propose_reconfig`] while
    /// the coordinator held a fast ballot: assigned a slot as soon as
    /// the classic re-prepare completes.
    pending_reconfig: Option<Reconfig>,
    /// The slot a proposed `Reconfig` decree occupies. While set, the
    /// coordinator parks new assignments so no slot above the fence is
    /// decided under the old epoch; delivery of the fence slot clears it.
    reconfig_fence: Option<Slot>,
    /// The configuration epoch in force at the delivery watermark: the
    /// epoch stamped onto [`Effect::Deliver`]. Starts at the replay
    /// base (0 for an empty log, the checkpoint's epoch after recovery
    /// or a snapshot transfer) and advances as replayed fences cross —
    /// so it tracks the epoch slots were *decided* under, which for a
    /// catching-up joiner lags its own configuration's epoch.
    log_epoch: u64,
    /// Deliveries the learner unlocked during the current call, moved
    /// into the effect buffer by [`Replica::handle_deliveries`]: one
    /// allocation serves every call.
    delivered: Vec<Delivery<V>>,
    /// The slots a fast coordinator found stuck, kept empty between
    /// calls so that one allocation serves every call.
    stuck: Vec<Slot>,
    /// Structured trace events, the consensus core's and those its host
    /// adds through [`Replica::push_trace`], in emission order. The
    /// driver drains them via [`Replica::take_trace_events`].
    trace: Vec<TraceEvent>,
    /// Mode at the last trace check, for `ModeSwitch` edge detection.
    last_mode: Mode,
}

fn mode_tag(mode: Mode) -> &'static str {
    match mode {
        Mode::Fast => MODE_FAST,
        Mode::Classic => MODE_CLASSIC,
        Mode::Blocked => MODE_BLOCKED,
    }
}

impl<V: Clone + Eq + std::fmt::Debug> Replica<V> {
    /// Creates a fresh replica (empty durable log), delivering from slot
    /// 0 and proposing under epoch 0, in the bootstrap configuration
    /// (config epoch 0, dense members `0..config.n`).
    pub fn new(id: ReplicaId, config: PaxosConfig, now: u64) -> Self {
        let membership = Membership::initial(config.n);
        Self::with_state(id, config, membership, Acceptor::new(), Slot::ZERO, 0, now)
    }

    /// Creates a fresh replica in an explicit (possibly sparse, possibly
    /// later-epoch) configuration — how a node provisioned mid-run joins
    /// the ensemble it was added to.
    pub fn new_with_membership(
        id: ReplicaId,
        config: PaxosConfig,
        membership: Membership,
        now: u64,
    ) -> Self {
        Self::with_state(id, config, membership, Acceptor::new(), Slot::ZERO, 0, now)
    }

    /// Reconstructs a replica after a crash: `records` is the replica's
    /// durable acceptor log, `start_slot` the application-checkpoint
    /// watermark — the learner resumes delivery there and re-learns the
    /// suffix from its peers (the paper's queue re-synchronization) —
    /// and `epoch` the new process incarnation (must be greater than any
    /// previous one, so proposal ids never collide across lifetimes).
    pub fn recover<'a, I>(
        id: ReplicaId,
        config: PaxosConfig,
        records: I,
        start_slot: Slot,
        epoch: u64,
        now: u64,
    ) -> Self
    where
        I: IntoIterator<Item = &'a Record<V>>,
        V: 'a,
    {
        let membership = Membership::initial(config.n);
        let records = records.into_iter().cloned();
        Self::recover_with_membership(id, config, membership, records, start_slot, epoch, now)
    }

    /// [`Replica::recover`] with an explicit configuration — the one the
    /// replica's durable metadata recorded at its last checkpoint. Log
    /// replay and catch-up re-apply any reconfigurations decided after
    /// that point (stale ones are ignored by the epoch check). It takes
    /// the records by value, so a log decoded on the way in is never
    /// copied.
    pub fn recover_with_membership<I>(
        id: ReplicaId,
        config: PaxosConfig,
        membership: Membership,
        records: I,
        start_slot: Slot,
        epoch: u64,
        now: u64,
    ) -> Self
    where
        I: IntoIterator<Item = Record<V>>,
    {
        let acceptor = Acceptor::recover(records);
        let mut r = Self::with_state(id, config, membership, acceptor, start_slot, epoch, now);
        r.recovering = true;
        r
    }

    fn with_state(
        id: ReplicaId,
        config: PaxosConfig,
        membership: Membership,
        acceptor: Acceptor<V>,
        start_slot: Slot,
        epoch: u64,
        now: u64,
    ) -> Self {
        let quorums = membership.quorums();
        let mut fd = FailureDetector::new(id, quorums, FD_TIMEOUT_US, now);
        fd.set_membership(&membership, now);
        let last_mode = fd.mode(now);
        Replica {
            id,
            acceptor,
            learner: Learner::new(quorums, start_slot),
            leader: Leader::new(id, quorums),
            proposer: Proposer::new(id, epoch),
            fd,
            gated: BTreeMap::new(),
            next_token: 0,
            now,
            last_heartbeat: 0,
            prepare_started: 0,
            highest_ballot: Ballot::BOTTOM,
            fast_window: None,
            unrouted: Vec::new(),
            last_learn_request: 0,
            lag_since: None,
            recovering: false,
            snapshot_needed: None,
            // Delivering from slot 0 means replaying history decided
            // under epoch 0 regardless of the boot configuration; a
            // recovery from a checkpoint resumes at its epoch.
            log_epoch: if start_slot == Slot::ZERO {
                0
            } else {
                membership.epoch()
            },
            membership,
            pending_reconfig: None,
            reconfig_fence: None,
            delivered: Vec::new(),
            stuck: Vec::new(),
            trace: Vec::new(),
            last_mode,
            config,
        }
    }

    /// Buffers a trace event of the host process (the middleware) after
    /// the consensus core's own, so one buffer holds the process's
    /// events in the order they happened.
    #[inline]
    pub fn push_trace(&mut self, event: TraceEvent) {
        self.trace.push(event);
    }

    /// Drains the trace events buffered since the last call, in the
    /// order they were emitted. The buffer keeps its capacity, so the
    /// pushes after a drain do not allocate again.
    pub fn take_trace_events(&mut self) -> std::vec::Drain<'_, TraceEvent> {
        self.trace.drain(..)
    }

    /// Records the failure detector's edges since the last check: a
    /// `ModeSwitch` if the mode changed, then each suspicion edge
    /// ([`crate::FdTransition`] → `peer_suspected`/`peer_cleared`). It
    /// runs on every tick and message, so the mode rule must stay
    /// allocation-free. Pure observation: the edges never feed back
    /// into `mode()` or any protocol decision.
    fn trace_edges(&mut self) {
        let mode = self.fd.mode(self.now);
        if mode != self.last_mode {
            self.trace.push(TraceEvent::ModeSwitch {
                from: mode_tag(self.last_mode),
                to: mode_tag(mode),
            });
            self.last_mode = mode;
        }
        for tr in self.fd.poll_transitions(self.now) {
            self.trace.push(match tr {
                crate::FdTransition::Suspected { peer, silent_us } => TraceEvent::PeerSuspected {
                    peer: peer.0,
                    silent_us,
                },
                crate::FdTransition::Cleared { peer, suspected_us } => TraceEvent::PeerCleared {
                    peer: peer.0,
                    suspected_us,
                },
            });
        }
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// Introspection snapshot.
    pub fn status(&self) -> ReplicaStatus {
        // Our own parked proposals are already in the proposer's table.
        let parked_for_peers = self.unrouted.iter().filter(|(pid, _)| pid.node != self.id);
        ReplicaStatus {
            mode: self.fd.mode(self.now),
            leading: self.leader.is_leading(),
            ballot: self.highest_ballot,
            decided_upto: self.learner.next_deliver(),
            pending_proposals: self
                .proposer
                .pending_len()
                .saturating_add(parked_for_peers.count()),
            alive: self.fd.alive_count(self.now),
            epoch: self.membership.epoch(),
            n: self.membership.n(),
        }
    }

    /// The current configuration (epoch + member set).
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// The configuration epoch this replica operates under.
    pub fn config_epoch(&self) -> u64 {
        self.membership.epoch()
    }

    /// The configuration epoch in force at the delivery watermark — the
    /// epoch the *next* delivered slot belongs to. Lags
    /// [`Replica::config_epoch`] while a joiner replays history decided
    /// under earlier epochs.
    pub fn log_epoch(&self) -> u64 {
        self.log_epoch
    }

    /// Whether this replica was removed by a reconfiguration and is
    /// waiting to be decommissioned.
    pub fn is_retired(&self) -> bool {
        self.retired()
    }

    /// Removed from the configuration: the replica only answers
    /// catch-up requests until the driver decommissions it.
    fn retired(&self) -> bool {
        !self.membership.contains(self.id)
    }

    /// Contiguously decided watermark.
    pub fn decided_upto(&self) -> Slot {
        self.learner.next_deliver()
    }

    /// Current operating mode.
    pub fn mode(&self) -> Mode {
        self.fd.mode(self.now)
    }

    /// Whether this replica is still re-learning the backlog after a
    /// [`Replica::recover`] (clears once a peer reports no remaining lag).
    pub fn is_recovering(&self) -> bool {
        self.recovering
    }

    /// Discards consensus state below `upto` after the application
    /// checkpointed through it.
    pub fn truncate(&mut self, upto: Slot) {
        self.acceptor.truncate(upto);
        self.learner.truncate(upto);
    }

    fn observe_ballot(&mut self, ballot: Ballot) {
        self.leader.observe_round(ballot.round);
        if ballot > self.highest_ballot {
            if self.leader.is_leading() && ballot.node != self.id {
                self.leader.abdicate();
            }
            self.highest_ballot = ballot;
        }
    }

    /// Converts an acceptor output into effects, gating its send on
    /// persistence when a record is present.
    fn gate(&mut self, out: AcceptorOut<V>, fx: &mut Effects<V>) {
        match out.record {
            Some(record) => {
                self.trace.push(match &record {
                    Record::Promised(b) => TraceEvent::Promised {
                        round: b.round,
                        by: self.id.0,
                    },
                    Record::Accepted { ballot, slot, .. } => TraceEvent::Accepted {
                        slot: slot.0,
                        round: ballot.round,
                        fast: ballot.is_fast(),
                    },
                });
                let token = self.next_token;
                self.next_token = self.next_token.saturating_add(1);
                if let Some(send) = out.send {
                    self.gated.insert(token, send);
                }
                fx.persist(record, PersistToken(token));
            }
            None => self.emit(out.send, fx),
        }
    }

    fn emit(&self, send: Option<(Dest, Msg<V>)>, fx: &mut Effects<V>) {
        match send {
            Some((Dest::One(to), msg)) => fx.send(to, msg),
            Some((Dest::All, msg)) => fx.broadcast(self.membership.members(), msg),
            None => {}
        }
    }

    /// A durable write completed: release the gated message.
    pub fn on_persisted(&mut self, token: PersistToken) -> Vec<Effect<V>> {
        let mut out = Vec::new();
        self.on_persisted_into(token, &mut out);
        out
    }

    /// [`Replica::on_persisted`], appending to the caller's buffer.
    pub fn on_persisted_into(&mut self, token: PersistToken, out: &mut Vec<Effect<V>>) {
        let send = self.gated.remove(&token.0);
        self.emit(send, &mut Effects::new(out));
    }

    /// Submits a new proposal; returns its id and the immediate effects.
    pub fn propose(&mut self, value: V) -> (ProposalId, Vec<Effect<V>>) {
        let mut out = Vec::new();
        (self.propose_into(value, &mut out), out)
    }

    /// [`Replica::propose`], appending to the caller's buffer; returns
    /// the proposal's id.
    pub fn propose_into(&mut self, value: V, out: &mut Vec<Effect<V>>) -> ProposalId {
        let pid = self
            .proposer
            .submit(value.clone(), self.now, PROPOSE_RETRY_US);
        self.trace.push(TraceEvent::ProposalIssued { seq: pid.seq });
        self.route(pid, value, &mut Effects::new(out));
        pid
    }

    /// Routes a proposal according to the current mode: fast-broadcast to
    /// the acceptors, unicast to the coordinator, or park it.
    fn route(&mut self, pid: ProposalId, value: V, fx: &mut Effects<V>) {
        match self.fd.mode(self.now) {
            Mode::Blocked => {
                self.unrouted.push((pid, value));
            }
            mode => {
                // The fast window alone is not enough: the mode rule
                // forbids the fast path once the detector drops below
                // ⌈3N/4⌉ alive, even if no higher ballot closed the
                // window yet. Fall back to the coordinator instead.
                if mode == Mode::Fast && self.fast_window.is_some() {
                    fx.broadcast(self.membership.members(), Msg::FastPropose { pid, value });
                } else {
                    let owner = self.highest_ballot.node;
                    if self.highest_ballot > Ballot::BOTTOM && self.fd.is_alive(owner, self.now) {
                        fx.send(owner, Msg::Propose { pid, value });
                    } else {
                        self.unrouted.push((pid, value));
                    }
                }
            }
        }
    }

    /// Handles one incoming message.
    pub fn on_message(&mut self, from: ReplicaId, msg: Msg<V>, now: u64) -> Vec<Effect<V>> {
        let mut out = Vec::new();
        self.on_message_into(from, msg, now, &mut out);
        out
    }

    /// [`Replica::on_message`], appending to the caller's buffer.
    pub fn on_message_into(
        &mut self,
        from: ReplicaId,
        msg: Msg<V>,
        now: u64,
        out: &mut Vec<Effect<V>>,
    ) {
        self.now = self.now.max(now);
        let mut fx = Effects::new(out);
        if self.retired() {
            if let Msg::LearnRequest { from_slot } = msg {
                self.answer_learn(from, from_slot, &mut fx);
            }
            return;
        }
        self.fd.heard(from, self.now);
        self.trace_edges();
        match msg {
            Msg::Prepare {
                ballot,
                from_slot,
                only_slot,
            } => {
                self.observe_ballot(ballot);
                if only_slot.is_none() && self.fast_window.is_some_and(|w| ballot > w) {
                    self.fast_window = None;
                }
                let out = self.acceptor.on_prepare(from, ballot, from_slot, only_slot);
                self.gate(out, &mut fx);
            }
            Msg::Promise {
                ballot,
                only_slot,
                accepted,
                ..
            } => self.handle_promise(from, ballot, only_slot, accepted, &mut fx),
            Msg::Accept {
                ballot,
                slot,
                decree,
            } => {
                self.observe_ballot(ballot);
                let out = self.acceptor.on_accept(ballot, slot, decree);
                self.gate(out, &mut fx);
            }
            Msg::Any { ballot, from_slot } => {
                self.observe_ballot(ballot);
                let out = self.acceptor.on_any(ballot, from_slot);
                self.gate(out, &mut fx);
                if self.acceptor.fast_window_open() {
                    self.fast_window = Some(ballot);
                    self.flush_unrouted(&mut fx);
                }
            }
            Msg::FastPropose { pid, value } => {
                if self.learner.was_delivered(pid) {
                    // Retry of something already decided: ignore.
                } else if self.acceptor.fast_window_open() {
                    let out = self.acceptor.on_fast_propose(pid, value);
                    self.gate(out, &mut fx);
                } else if self.leader.is_leading() && !self.leader.ballot.is_fast() {
                    // Mode switched under the proposer: treat as classic.
                    self.classic_assign(pid, value, &mut fx);
                }
            }
            Msg::Propose { pid, value } => self.handle_propose(pid, value, &mut fx),
            Msg::Accepted {
                ballot,
                slot,
                decree,
            } => {
                self.observe_ballot(ballot);
                if ballot.is_fast() {
                    self.leader.observe_occupied(slot);
                }
                self.learner
                    .on_accepted(from, ballot, slot, decree, self.now, &mut self.delivered);
                self.handle_deliveries(&mut fx);
                if self.learner.is_decided(slot) {
                    self.leader.finish_recovery(slot);
                }
                self.maybe_recover_collisions(&mut fx);
            }
            Msg::Alive {
                ballot,
                decided_upto,
            } => self.handle_alive(from, ballot, decided_upto, &mut fx),
            Msg::LearnRequest { from_slot } => self.answer_learn(from, from_slot, &mut fx),
            Msg::LearnReply {
                entries,
                truncated_below,
                decided_upto,
            } => {
                self.learner.on_learned(entries, &mut self.delivered);
                self.handle_deliveries(&mut fx);
                if truncated_below > self.learner.next_deliver() {
                    // The responder no longer stores the slots we need:
                    // flag for a middleware-level snapshot transfer.
                    self.snapshot_needed = Some((from, truncated_below));
                } else if decided_upto > self.learner.next_deliver() {
                    self.request_learn(from, &mut fx);
                }
            }
        }
    }

    /// A phase-1b reply. A single-slot recovery's decree goes out as
    /// soon as its quorum answers, with the collision losers rescued; a
    /// whole-range prepare issues its plan once complete.
    fn handle_promise(
        &mut self,
        from: ReplicaId,
        ballot: Ballot,
        only_slot: Option<Slot>,
        accepted: Vec<AcceptedReport<V>>,
        fx: &mut Effects<V>,
    ) {
        let Some(slot) = only_slot else {
            if let Some((plan, next_free)) = self.leader.on_promise(from, ballot, accepted) {
                self.issue_plan(ballot, plan, next_free, fx);
            }
            return;
        };
        let Some((decree, losers)) = self
            .leader
            .on_recovery_promise(from, ballot, slot, accepted)
        else {
            return;
        };
        self.send_accept(ballot, slot, decree, fx);
        // Rescue collision losers right away: assign them fresh slots
        // under the main ballot instead of waiting out their proposers'
        // retry timers (or park them while a reconfiguration fence
        // holds). Unlike `classic_assign` this assigns even while the
        // detector reads `Blocked`.
        for (pid, value) in losers {
            if self.learner.was_delivered(pid) || !self.leader.is_leading() {
                continue;
            }
            if self.reconfig_fence.is_some() {
                self.unrouted.push((pid, value));
            } else {
                let fresh = self.leader.assign_slot();
                self.send_accept(self.leader.ballot, fresh, Decree::Value(pid, value), fx);
            }
        }
    }

    /// A heartbeat: adopt its ballot and, when the sender is decidedly
    /// ahead of us (or a small lag behind it has stalled), ask it for
    /// the missing slots.
    fn handle_alive(&mut self, from: ReplicaId, ballot: Ballot, upto: Slot, fx: &mut Effects<V>) {
        self.observe_ballot(ballot);
        if from == self.id {
            // Our own looped-back heartbeat carries no catch-up
            // information.
            return;
        }
        let next = self.learner.next_deliver();
        let behind = upto.0.saturating_sub(next.0);
        if self.recovering && behind == 0 {
            self.recovering = false;
        }
        let threshold = if self.recovering {
            0
        } else {
            CATCHUP_LAG_SLOTS
        };
        // A small lag is normally transient (broadcasts still in
        // flight) — but if it persists with no delivery progress, the
        // missing `Accepted`s were lost for good (e.g. the tail of a
        // burst over a lossy link) and only an explicit learn request
        // can close it.
        let tail_stalled = if behind == 0 {
            self.lag_since = None;
            false
        } else {
            match self.lag_since {
                Some((mark, since)) if mark == next => {
                    self.now.saturating_sub(since) > TAIL_CATCHUP_GRACE_US
                }
                _ => {
                    self.lag_since = Some((next, self.now));
                    false
                }
            }
        };
        if (behind > threshold || tail_stalled)
            && self.now.saturating_sub(self.last_learn_request) > ALIVE_CATCHUP_THROTTLE_US
        {
            self.request_learn(from, fx);
        }
    }

    /// A proposal sent to us as coordinator: ordered under a classic
    /// ballot, relayed onto the fast path under a fast one, parked while
    /// neither can proceed yet, and otherwise dropped — the proposer's
    /// retry re-routes it.
    fn handle_propose(&mut self, pid: ProposalId, value: V, fx: &mut Effects<V>) {
        if self.learner.was_delivered(pid) {
            // Already decided; drop the retry.
        } else if self.leader.is_leading() {
            if !self.leader.ballot.is_fast() {
                self.classic_assign(pid, value, fx);
            } else if self.fd.mode(self.now) == Mode::Fast {
                // Relay onto the fast path on the proposer's behalf.
                fx.broadcast(self.membership.members(), Msg::FastPropose { pid, value });
            } else {
                // Fast ballot but the detector has degraded: park until
                // the class-mismatch election re-prepares with a classic
                // ballot.
                self.unrouted.push((pid, value));
            }
        } else if self.leader.phase == LeaderPhase::Preparing {
            // Phase 1 in flight: park and serve once leading.
            self.unrouted.push((pid, value));
        }
    }

    /// Asks `peer` for the decided slots from our delivery watermark on.
    fn request_learn(&mut self, peer: ReplicaId, fx: &mut Effects<V>) {
        self.last_learn_request = self.now;
        let from_slot = self.learner.next_deliver();
        fx.send(peer, Msg::LearnRequest { from_slot });
    }

    /// Serves `peer`'s catch-up request from the decided log.
    fn answer_learn(&self, peer: ReplicaId, from_slot: Slot, fx: &mut Effects<V>) {
        let (entries, truncated_below, decided_upto) =
            self.learner.serve_learn(from_slot, LEARN_CHUNK);
        let reply = Msg::LearnReply {
            entries,
            truncated_below,
            decided_upto,
        };
        fx.send(peer, reply);
    }

    /// Takes the pending snapshot-transfer requirement, if a catch-up
    /// exchange revealed one: `(peer, its truncation watermark)`.
    pub fn take_snapshot_needed(&mut self) -> Option<(ReplicaId, Slot)> {
        self.snapshot_needed.take()
    }

    /// Installs the result of an external state transfer covering all
    /// slots below `slot`: delivery resumes there under `epoch` (the
    /// configuration epoch in force at the transfer's watermark), and
    /// any decided entries already known past the new watermark are
    /// delivered onto `out`.
    pub fn fast_forward(&mut self, slot: Slot, epoch: u64, out: &mut Vec<Effect<V>>) {
        self.log_epoch = self.log_epoch.max(epoch);
        self.learner.fast_forward(slot);
        if let Some((_, needed)) = self.snapshot_needed {
            if slot >= needed {
                self.snapshot_needed = None;
            }
        }
        self.learner.drain(&mut self.delivered);
        self.handle_deliveries(&mut Effects::new(out));
    }

    /// Installs a configuration learned out-of-band (a snapshot transfer
    /// whose checkpoint postdates one or more reconfigurations). Ignored
    /// unless strictly newer than the current epoch.
    pub fn adopt_membership(&mut self, membership: Membership) {
        if membership.epoch() <= self.membership.epoch() {
            return;
        }
        self.install_membership(membership, None);
    }

    /// Emits the deliveries the learner left in `self.delivered`,
    /// applying any reconfiguration fence it surfaced and resuming
    /// delivery past it.
    fn handle_deliveries(&mut self, fx: &mut Effects<V>) {
        let mut batch = std::mem::take(&mut self.delivered);
        loop {
            for d in batch.drain(..) {
                self.trace.push(TraceEvent::Decided {
                    slot: d.slot.0,
                    noop: false,
                });
                self.proposer.delivered(d.pid);
                fx.deliver(d.slot, d.pid, d.value, self.log_epoch);
            }
            match self.learner.take_reconfig() {
                Some((slot, rc)) => {
                    self.apply_reconfig(slot, rc, fx);
                    self.learner.ack_reconfig(slot, &mut batch);
                }
                None => break,
            }
        }
        self.delivered = batch;
    }

    /// Applies a delivered `Reconfig` decree: the fence at `slot` lifts
    /// and (unless the decree is stale) the new configuration takes
    /// over — quorum arithmetic, failure detection and broadcasts all
    /// switch to the new epoch's member set from this slot on.
    fn apply_reconfig(&mut self, slot: Slot, rc: Reconfig, fx: &mut Effects<V>) {
        if self.reconfig_fence == Some(slot) {
            self.reconfig_fence = None;
        }
        // Even a stale fence (replayed by a node already configured at
        // or past `rc.epoch`) marks where the log's epoch advances:
        // everything above this slot was decided under `rc.epoch`.
        self.log_epoch = self.log_epoch.max(rc.epoch);
        let Some(next) = self.membership.apply(&rc) else {
            // Stale: a decree replayed through catch-up after the epoch
            // already advanced. The fence still lifts; nothing changes.
            return;
        };
        self.install_membership(next, Some(slot));
        fx.reconfigured(slot, self.membership.clone());
        if !self.retired() {
            // Proposals parked behind the fence can flow again.
            self.flush_unrouted(fx);
        }
    }

    fn install_membership(&mut self, membership: Membership, slot: Option<Slot>) {
        self.membership = membership;
        let quorums = self.membership.quorums();
        self.learner.set_quorums(quorums);
        self.leader.set_quorums(quorums);
        self.fd.set_membership(&self.membership, self.now);
        self.trace.push(TraceEvent::EpochChanged {
            epoch: self.membership.epoch(),
            n: node_u32(self.membership.n()),
            slot: slot.map(|s| s.0).unwrap_or(0),
        });
    }

    /// The snapshot-transfer watermark a recovering peer asked us about:
    /// slots below this are no longer in our log (checkpoint required).
    pub fn truncated_below(&self) -> Slot {
        self.learner.truncated_below()
    }

    /// Requests a membership change, ordered through the log as a fenced
    /// [`Decree::Reconfig`]. Returns `false` (no effects) unless this
    /// replica is currently leading with no other change in flight and
    /// the command is valid against the current membership.
    ///
    /// Under a classic ballot the command is assigned its slot — the
    /// fence — immediately; under a fast ballot the coordinator first
    /// re-prepares classically (closing the fast window so no fast
    /// proposal can claim a slot above the fence under the old epoch)
    /// and assigns the command when phase 1 completes.
    pub fn propose_reconfig(
        &mut self,
        add: Vec<ReplicaId>,
        remove: Vec<ReplicaId>,
    ) -> (bool, Vec<Effect<V>>) {
        let mut out = Vec::new();
        (self.propose_reconfig_into(add, remove, &mut out), out)
    }

    /// [`Replica::propose_reconfig`], appending to the caller's buffer.
    pub fn propose_reconfig_into(
        &mut self,
        add: Vec<ReplicaId>,
        remove: Vec<ReplicaId>,
        out: &mut Vec<Effect<V>>,
    ) -> bool {
        let mut fx = Effects::new(out);
        if self.retired()
            || !self.leader.is_leading()
            || self.pending_reconfig.is_some()
            || self.reconfig_fence.is_some()
            || self.fd.mode(self.now) == Mode::Blocked
        {
            return false;
        }
        let rc = Reconfig {
            epoch: self.membership.epoch().saturating_add(1),
            add,
            remove,
        };
        if self.membership.apply(&rc).is_none() {
            return false;
        }
        self.trace.push(TraceEvent::ReconfigProposed {
            epoch: rc.epoch,
            adds: node_u32(rc.add.len()),
            removes: node_u32(rc.remove.len()),
        });
        if self.leader.ballot.is_fast() {
            self.pending_reconfig = Some(rc);
            self.start_phase1(false, &mut fx);
        } else {
            self.assign_reconfig(rc, &mut fx);
        }
        true
    }

    /// Assigns a validated reconfiguration its fence slot under the
    /// current classic ballot.
    fn assign_reconfig(&mut self, rc: Reconfig, fx: &mut Effects<V>) {
        if rc.epoch != self.membership.epoch().saturating_add(1) {
            return; // The epoch advanced since the request: stale.
        }
        let slot = self.leader.assign_slot();
        self.reconfig_fence = Some(slot);
        self.send_accept(self.leader.ballot, slot, Decree::Reconfig(rc), fx);
    }

    fn classic_assign(&mut self, pid: ProposalId, value: V, fx: &mut Effects<V>) {
        if self.fd.mode(self.now) == Mode::Blocked || self.reconfig_fence.is_some() {
            // Blocked, or a reconfiguration fence holds: no slot above
            // the fence may be assigned under the old epoch.
            self.unrouted.push((pid, value));
            return;
        }
        let slot = self.leader.assign_slot();
        self.send_accept(self.leader.ballot, slot, Decree::Value(pid, value), fx);
    }

    /// Broadcasts a phase-2a `Accept` to the current members.
    fn send_accept(&self, ballot: Ballot, slot: Slot, decree: Decree<V>, fx: &mut Effects<V>) {
        let accept = Msg::Accept {
            ballot,
            slot,
            decree,
        };
        fx.broadcast(self.membership.members(), accept);
    }

    /// Starts phase 1 over every slot from the delivery watermark with a
    /// fresh ballot of the requested class. It closes the fast window:
    /// the prepare outranks the `Any` that opened it.
    fn start_phase1(&mut self, fast: bool, fx: &mut Effects<V>) {
        let from_slot = self.learner.next_deliver();
        let ballot = self.leader.start_prepare(fast, from_slot);
        self.trace.push(TraceEvent::PrepareStarted {
            round: ballot.round,
            fast: ballot.is_fast(),
        });
        self.highest_ballot = ballot;
        self.fast_window = None;
        self.prepare_started = self.now;
        let prepare = Msg::Prepare {
            ballot,
            from_slot,
            only_slot: None,
        };
        fx.broadcast(self.membership.members(), prepare);
    }

    /// Starts a single-slot recovery round at `slot` unless one already
    /// runs there.
    fn prepare_slot(&mut self, slot: Slot, fx: &mut Effects<V>) {
        if let Some(ballot) = self.leader.start_recovery(slot, self.now) {
            let prepare = Msg::Prepare {
                ballot,
                from_slot: slot,
                only_slot: Some(slot),
            };
            fx.broadcast(self.membership.members(), prepare);
        }
    }

    fn issue_plan(
        &mut self,
        ballot: Ballot,
        plan: Vec<(Slot, Decree<V>)>,
        next_free: Slot,
        fx: &mut Effects<V>,
    ) {
        // `issue_plan` runs exactly when phase 1 completes and the
        // coordinator transitions to `Leading`.
        self.trace.push(TraceEvent::LeaderElected {
            round: ballot.round,
            fast: ballot.is_fast(),
        });
        for (slot, decree) in plan {
            self.send_accept(ballot, slot, decree, fx);
        }
        if ballot.is_fast() {
            // Only open the fast window if the mode rule still holds at
            // send time; the detector can degrade mid-election, and an
            // `Any` sent then would invite fast proposals that can never
            // gather a fast quorum. The class-mismatch election will
            // re-prepare with a classic ballot instead.
            if self.fd.mode(self.now) == Mode::Fast {
                fx.broadcast(
                    self.membership.members(),
                    Msg::Any {
                        ballot,
                        from_slot: next_free,
                    },
                );
            }
        } else {
            // A reconfiguration waiting for this classic ballot gets its
            // fence slot first, ahead of any parked proposals.
            if let Some(rc) = self.pending_reconfig.take() {
                self.assign_reconfig(rc, fx);
            }
            self.flush_unrouted(fx);
        }
    }

    fn flush_unrouted(&mut self, fx: &mut Effects<V>) {
        let parked = std::mem::take(&mut self.unrouted);
        for (pid, value) in parked {
            if self.learner.was_delivered(pid) {
                continue;
            }
            if self.leader.is_leading() && !self.leader.ballot.is_fast() {
                // We are the classic coordinator: assign directly
                // (covers proposals parked while phase 1 ran).
                self.classic_assign(pid, value, fx);
            } else {
                self.route(pid, value, fx);
            }
        }
    }

    fn maybe_recover_collisions(&mut self, fx: &mut Effects<V>) {
        if !self.leader.is_leading() || !self.leader.ballot.is_fast() {
            return;
        }
        let mut stuck = std::mem::take(&mut self.stuck);
        self.learner
            .stuck_slots(self.now, COLLISION_TIMEOUT_US, &mut stuck);
        for slot in stuck.drain(..) {
            if !self.learner.is_decided(slot) {
                self.prepare_slot(slot, fx);
            }
        }
        self.stuck = stuck;
    }

    /// Periodic driver callback: heartbeats, election, retries, and
    /// collision/recovery timeouts. Call it every few tens of
    /// milliseconds of driver time.
    pub fn on_tick(&mut self, now: u64) -> Vec<Effect<V>> {
        let mut out = Vec::new();
        self.on_tick_into(now, &mut out);
        out
    }

    /// [`Replica::on_tick`], appending to the caller's buffer.
    pub fn on_tick_into(&mut self, now: u64, out: &mut Vec<Effect<V>>) {
        self.now = self.now.max(now);
        if self.retired() {
            return;
        }
        self.trace_edges();
        let mut fx = Effects::new(out);

        if self.recovering && self.membership.n() == 1 {
            // A singleton ensemble has no peers to learn from: its log
            // replay alone is complete recovery.
            self.recovering = false;
        }

        // Heartbeats.
        if self.now.saturating_sub(self.last_heartbeat) >= HEARTBEAT_INTERVAL_US {
            self.last_heartbeat = self.now;
            let heartbeat = Msg::Alive {
                ballot: self.highest_ballot,
                decided_upto: self.learner.next_deliver(),
            };
            fx.broadcast(self.membership.members(), heartbeat);
        }

        let mode = self.fd.mode(self.now);
        if mode != Mode::Blocked {
            if self.fd.candidate(self.now) == self.id {
                self.run_election(mode, &mut fx);
            }
            self.repair_gap(&mut fx);
            // Proposal retries and parked proposals.
            let expired = self.proposer.expired(self.now, PROPOSE_RETRY_US);
            for (pid, value) in expired {
                if !self.learner.was_delivered(pid) {
                    self.route(pid, value, &mut fx);
                }
            }
            self.flush_unrouted(&mut fx);
        }

        // Collision recovery by timeout, and stalled recovery restart.
        self.maybe_recover_collisions(&mut fx);
        if self.leader.is_leading() {
            for slot in self
                .leader
                .stalled_recoveries(self.now, 4 * COLLISION_TIMEOUT_US)
            {
                self.leader.cancel_recovery(slot);
                self.prepare_slot(slot, &mut fx);
            }
        }
    }

    /// The election rule, run by the failure detector's candidate: start
    /// phase 1 when no live coordinator holds the highest ballot, when a
    /// prepare has stalled past the detector timeout (finalizing with
    /// the promises in hand once the grace expires), or when the leading
    /// ballot's class no longer matches the mode.
    fn run_election(&mut self, mode: Mode, fx: &mut Effects<V>) {
        // While a reconfiguration is in flight, hold the classic class:
        // a fast re-prepare would reopen the window and let fast
        // proposals claim slots above the fence under the old epoch.
        let want_fast = mode == Mode::Fast
            && self.config.fast_enabled
            && self.pending_reconfig.is_none()
            && self.reconfig_fence.is_none();
        let owner_dead = self.highest_ballot != Ballot::BOTTOM
            && !self.fd.is_alive(self.highest_ballot.node, self.now);
        let should_elect = match self.leader.phase {
            LeaderPhase::Idle => {
                self.highest_ballot == Ballot::BOTTOM
                    || owner_dead
                    || self.highest_ballot.node == self.id
            }
            LeaderPhase::Preparing => {
                // Election stalled (lost messages): retry.
                if self.now.saturating_sub(self.prepare_started) > PREPARE_GRACE_US
                    && self.leader.promise_count() >= 1
                {
                    // Grace expired: finalize with the quorum we have.
                    let ballot = self.leader.ballot;
                    if let Some((plan, next_free)) = self.leader.finalize_prepare() {
                        self.issue_plan(ballot, plan, next_free, fx);
                    }
                }
                self.now.saturating_sub(self.prepare_started) > FD_TIMEOUT_US
            }
            LeaderPhase::Leading => self.leader.ballot.is_fast() != want_fast,
        };
        if should_elect {
            self.start_phase1(want_fast, fx);
        }
    }

    /// Gap repair: if delivery is blocked by a hole whose slot was
    /// decided while we were down (or deaf), ongoing traffic can never
    /// fill it — fetch it explicitly from a live peer.
    fn repair_gap(&mut self, fx: &mut Effects<V>) {
        if !self.learner.gapped(self.now, 2 * COLLISION_TIMEOUT_US)
            || self.now.saturating_sub(self.last_learn_request) <= GAP_REPAIR_THROTTLE_US
        {
            return;
        }
        let owner = self.highest_ballot.node;
        let target = if self.highest_ballot != Ballot::BOTTOM
            && owner != self.id
            && self.fd.is_alive(owner, self.now)
        {
            Some(owner)
        } else {
            self.fd.alive(self.now).into_iter().find(|p| *p != self.id)
        };
        if let Some(target) = target {
            self.request_learn(target, fx);
        }
    }
}
