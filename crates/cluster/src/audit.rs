//! Always-on consensus invariant auditor.
//!
//! [`run_experiment`](crate::run_experiment) threads an
//! [`InvariantAuditor`] through every server's effect stream and checks,
//! on every send, durable write and delivery, the safety properties the
//! stack claims:
//!
//! * **Agreement** — no two replicas deliver different proposals for the
//!   same slot.
//! * **Durability ordering** — no `Promise` or `Accepted` leaves a
//!   replica before the corresponding [`Record`] is durable on its disk
//!   (the paper's write-ahead rule; [`paxos::Replica`] implements it by
//!   gating sends on persist tokens, and the auditor verifies the whole
//!   lowered pipeline end to end, crashes and torn tails included).
//! * **Monotone delivery** — each incarnation's applied slots strictly
//!   increase.
//! * **Mode rule** — fast-path traffic (`FastPropose`, `Any`) is sent
//!   only while the sender's failure detector counts ≥ ⌈3N/4⌉ replicas
//!   alive (§2's condition for fast rounds).
//!
//! The auditor observes; it never influences the run, so an audited run
//! is bit-identical to an unaudited one. Violations are collected as
//! human-readable strings and the experiment asserts there are none.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

use std::collections::{BTreeMap, BTreeSet};

use paxos::{Ballot, Batch, Mode, Msg, ProposalId, Quorums, Record, ReplicaStatus, Slot};
use robuststore::Action;
use simnet::{StableOp, StableStore};
use treplica::{Meta, MwMsg, Sink, Wire, WireError, LOG_NAME, META_KEY};

/// The consensus value type: a group-commit batch of store actions.
type ActionBatch = Batch<Action>;

/// Cap on recorded violation strings (all violations are still counted).
const MAX_RECORDED: usize = 100;

/// What a replica must have made durable before a given send is legal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum DurableKey {
    /// A `Record::Promised(ballot)` reached disk.
    Promise(Ballot),
    /// A `Record::Accepted { slot, ballot, decree }` reached disk
    /// (decrees are identified by their proposal id; `None` is a no-op).
    Accept(Slot, Ballot, Option<ProposalId>),
}

/// What the auditor reads in a record's value position: the batch is
/// checked where it lies ([`Wire::check`]) and nothing is built. The
/// record's own table still parses everything a [`DurableKey`] is made
/// of, so the auditor stays an independent reader of the bytes on their
/// way to disk without rebuilding eight actions per append.
#[derive(Debug)]
struct Unbuilt;

impl Wire for Unbuilt {
    /// Never written: the auditor only reads.
    fn encode<S: Sink>(&self, _out: &mut S) {}
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        ActionBatch::check(input).map(|()| Unbuilt)
    }
}

/// The key an encoded log record stands for, read through `Record`'s
/// table with a `V` in the value position.
fn durable_key<V: Wire>(entry: &[u8]) -> Result<DurableKey, WireError> {
    Ok(match Record::<V>::from_bytes(entry)? {
        Record::Promised(ballot) => DurableKey::Promise(ballot),
        Record::Accepted {
            ballot,
            slot,
            decree,
        } => DurableKey::Accept(slot, ballot, decree.proposal_id()),
    })
}

/// Outcome of one audited run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Individual invariant checks performed.
    pub checks: u64,
    /// Violations found (capped at 100 recorded strings).
    pub violations: Vec<String>,
    /// Total violations, including any beyond the recording cap.
    pub total_violations: u64,
}

/// What the auditor knows of one replica.
#[derive(Debug)]
struct ReplicaAudit {
    /// Records known durable on its disk.
    durable: BTreeSet<DurableKey>,
    /// Records in flight to disk, keyed by write token.
    pending: BTreeMap<u64, DurableKey>,
    /// Last `(slot, index)` applied by this incarnation.
    last_applied: Option<(Slot, u32)>,
}

impl ReplicaAudit {
    /// A fresh acceptor has implicitly promised ⊥ without writing.
    fn new() -> ReplicaAudit {
        ReplicaAudit {
            durable: BTreeSet::from([DurableKey::Promise(Ballot::BOTTOM)]),
            pending: BTreeMap::new(),
            last_applied: None,
        }
    }
}

/// Run-wide safety monitor for the replicated server ensemble.
#[derive(Debug)]
pub struct InvariantAuditor {
    /// First delivered `(proposal, config epoch)` per `(slot,
    /// index-in-batch)` position, with the delivering replica. Recording
    /// the epoch checks agreement *across* a reconfiguration boundary:
    /// two replicas must not only deliver the same decree at a slot,
    /// they must deliver it under the same configuration.
    chosen: BTreeMap<(Slot, u32), (Option<ProposalId>, u64, usize)>,
    /// Per replica index: spares a reconfiguration provisions are added
    /// on their first event.
    replicas: BTreeMap<usize, ReplicaAudit>,
    checks: u64,
    violations: Vec<String>,
    total_violations: u64,
    /// Violations already handed out via
    /// [`InvariantAuditor::take_unreported_violations`].
    reported: u64,
}

impl InvariantAuditor {
    /// An auditor for `n` server replicas. Reconfiguration may later
    /// introduce replicas with higher indices (spares); the per-replica
    /// state grows on demand.
    pub fn new(n: usize) -> InvariantAuditor {
        InvariantAuditor {
            chosen: BTreeMap::new(),
            replicas: (0..n).map(|idx| (idx, ReplicaAudit::new())).collect(),
            checks: 0,
            violations: Vec::new(),
            total_violations: 0,
            reported: 0,
        }
    }

    /// What the auditor knows of replica `idx`, added on first sight.
    fn replica(&mut self, idx: usize) -> &mut ReplicaAudit {
        self.replicas.entry(idx).or_insert_with(ReplicaAudit::new)
    }

    /// Violations found since the last call. The server driver polls
    /// this after each effect batch and traces an `AuditViolation` event
    /// against the node whose effects were being audited, giving every
    /// violation causal context in the trace.
    pub fn take_unreported_violations(&mut self) -> u64 {
        let delta = self.total_violations.saturating_sub(self.reported);
        self.reported = self.total_violations;
        delta
    }

    fn violation(&mut self, text: String) {
        self.total_violations = self.total_violations.saturating_add(1);
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(text);
        }
    }

    /// A replica issued a durable write. Reads the key of a consensus
    /// record off its bytes so the later completion can be matched
    /// against sends.
    pub fn on_disk_write(&mut self, idx: usize, op: &StableOp, token: u64, now_us: u64) {
        match op {
            StableOp::Append { log, entry } if log == LOG_NAME => {
                self.checks = self.checks.saturating_add(1);
                match durable_key::<Unbuilt>(entry) {
                    Ok(key) => {
                        self.replica(idx).pending.insert(token, key);
                    }
                    Err(_) => self.violation(format!(
                        "[{now_us}us] server {idx}: appended undecodable consensus record \
                         ({} bytes)",
                        entry.len()
                    )),
                }
            }
            StableOp::Put { key, value } if key == META_KEY => {
                self.checks = self.checks.saturating_add(1);
                match Meta::from_bytes(value) {
                    // The meta record re-asserts the promised floor; once
                    // durable it also justifies Promise sends.
                    Ok(meta) => {
                        let key = DurableKey::Promise(meta.promised);
                        self.replica(idx).pending.insert(token, key);
                    }
                    Err(_) => self.violation(format!(
                        "[{now_us}us] server {idx}: wrote undecodable metadata record"
                    )),
                }
            }
            _ => {}
        }
    }

    /// A durable write completed. Must be called *before* the server
    /// reacts (the reaction releases the sends this write gates).
    pub fn on_disk_write_done(&mut self, idx: usize, token: u64) {
        let replica = self.replica(idx);
        if let Some(key) = replica.pending.remove(&token) {
            replica.durable.insert(key);
        }
    }

    /// A durable write failed; nothing reached disk.
    pub fn on_disk_write_failed(&mut self, idx: usize, token: u64) {
        self.replica(idx).pending.remove(&token);
    }

    /// A replica is sending a middleware message. `sender_status` is
    /// asked for only when the message is one the mode rule constrains
    /// (`FastPropose`/`Any`): most sends are not, and building a status
    /// costs a failure-detector sweep.
    pub fn on_send(
        &mut self,
        idx: usize,
        msg: &MwMsg<ActionBatch>,
        sender_status: impl FnOnce() -> ReplicaStatus,
        now_us: u64,
    ) {
        let m = match msg {
            MwMsg::Paxos { msg: m, .. } => m,
            _ => return,
        };
        match m {
            Msg::Promise { ballot, .. } => {
                self.checks = self.checks.saturating_add(1);
                let durable = self
                    .replica(idx)
                    .durable
                    .contains(&DurableKey::Promise(*ballot));
                if !durable {
                    self.violation(format!(
                        "[{now_us}us] server {idx}: sent Promise for {ballot:?} before the \
                         promise record was durable"
                    ));
                }
            }
            Msg::Accepted {
                ballot,
                slot,
                decree,
            } => {
                self.checks = self.checks.saturating_add(1);
                let key = DurableKey::Accept(*slot, *ballot, decree.proposal_id());
                let durable = self.replica(idx).durable.contains(&key);
                if !durable {
                    self.violation(format!(
                        "[{now_us}us] server {idx}: sent Accepted for slot {slot:?} under \
                         {ballot:?} before the acceptance record was durable"
                    ));
                }
            }
            Msg::FastPropose { .. } | Msg::Any { .. } => {
                self.checks = self.checks.saturating_add(1);
                let status = sender_status();
                // The mode rule tracks the sender's *current epoch*: its
                // fast quorum is ⌈3N/4⌉ of that epoch's ensemble size,
                // not of the size the run started with.
                let fast_quorum = Quorums::new(status.n).fast();
                if status.mode != Mode::Fast {
                    self.violation(format!(
                        "[{now_us}us] server {idx}: sent fast-path {} in mode {:?}",
                        fast_name(m),
                        status.mode
                    ));
                } else if status.alive < fast_quorum {
                    self.violation(format!(
                        "[{now_us}us] server {idx}: sent fast-path {} with only {} of {} \
                         replicas alive in epoch {} (fast quorum is {})",
                        fast_name(m),
                        status.alive,
                        status.n,
                        status.epoch,
                        fast_quorum
                    ));
                }
            }
            _ => {}
        }
    }

    /// A replica delivered (applied) one update of a decided batch;
    /// `index` is the update's position inside its slot's batch and
    /// `epoch` is the configuration epoch the slot was decided under.
    pub fn on_applied(
        &mut self,
        idx: usize,
        slot: Slot,
        index: u32,
        pid: ProposalId,
        epoch: u64,
        now_us: u64,
    ) {
        self.checks = self.checks.saturating_add(1);
        match self.chosen.get(&(slot, index)) {
            Some((chosen_pid, chosen_epoch, first_by)) => {
                if *chosen_pid != Some(pid) {
                    self.violation(format!(
                        "[{now_us}us] AGREEMENT: server {idx} delivered {pid:?} at slot \
                         {slot:?}[{index}] but server {first_by} delivered {chosen_pid:?}"
                    ));
                } else if *chosen_epoch != epoch {
                    self.violation(format!(
                        "[{now_us}us] AGREEMENT: server {idx} delivered slot {slot:?}[{index}] \
                         under epoch {epoch} but server {first_by} delivered it under epoch \
                         {chosen_epoch}"
                    ));
                }
            }
            None => {
                self.chosen.insert((slot, index), (Some(pid), epoch, idx));
            }
        }
        self.checks = self.checks.saturating_add(1);
        let last = self.replica(idx).last_applied.replace((slot, index));
        if let Some(last) = last {
            if (slot, index) <= last {
                self.violation(format!(
                    "[{now_us}us] server {idx}: delivery watermark went backwards \
                     ({slot:?}[{index}] after {last:?})"
                ));
            }
        }
    }

    /// A replica crashed: its in-flight writes are lost and the next
    /// incarnation's delivery watermark restarts.
    pub fn on_crash(&mut self, idx: usize) {
        let replica = self.replica(idx);
        replica.pending.clear();
        replica.last_applied = None;
    }

    /// A replica is restarting: rebuild its durable set from what
    /// actually survived on disk (truncations and torn tails included).
    /// Torn entries fail to decode and are skipped — they gate nothing.
    pub fn on_restart(&mut self, idx: usize, store: &StableStore) {
        let durable = &mut self.replica(idx).durable;
        durable.clear();
        durable.insert(DurableKey::Promise(Ballot::BOTTOM));
        if let Some(bytes) = store.get(META_KEY) {
            if let Ok(meta) = Meta::from_bytes(bytes) {
                durable.insert(DurableKey::Promise(meta.promised));
            }
        }
        if let Some(log) = store.log(LOG_NAME) {
            for (_, entry) in log.iter() {
                if let Ok(key) = durable_key::<Unbuilt>(entry) {
                    durable.insert(key);
                }
            }
        }
    }

    /// The verdict so far.
    pub fn report(&self) -> AuditReport {
        AuditReport {
            checks: self.checks,
            violations: self.violations.clone(),
            total_violations: self.total_violations,
        }
    }
}

fn fast_name(m: &Msg<ActionBatch>) -> &'static str {
    match m {
        Msg::FastPropose { .. } => "FastPropose",
        Msg::Any { .. } => "Any",
        _ => "message",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status_in(mode: Mode, alive: usize, epoch: u64, n: usize) -> ReplicaStatus {
        ReplicaStatus {
            mode,
            leading: false,
            ballot: Ballot::BOTTOM,
            decided_upto: Slot(0),
            pending_proposals: 0,
            alive,
            epoch,
            n,
        }
    }

    fn status(mode: Mode, alive: usize) -> ReplicaStatus {
        status_in(mode, alive, 0, 4)
    }

    fn promise_msg(ballot: Ballot) -> MwMsg<ActionBatch> {
        MwMsg::Paxos {
            epoch: 0,
            tag: Default::default(),
            msg: Msg::Promise {
                ballot,
                from_slot: Slot(0),
                only_slot: None,
                accepted: Vec::new(),
            },
        }
    }

    #[test]
    fn ungated_promise_is_flagged_and_gated_promise_passes() {
        let mut audit = InvariantAuditor::new(3);
        let ballot = Ballot::classic(1, paxos::ReplicaId(0));
        let st = status(Mode::Classic, 2);
        audit.on_send(0, &promise_msg(ballot), || st.clone(), 10);
        assert_eq!(audit.report().total_violations, 1, "send before persist");

        let record = Record::<ActionBatch>::Promised(ballot);
        audit.on_disk_write(
            1,
            &StableOp::Append {
                log: LOG_NAME.to_string(),
                entry: record.to_bytes(),
            },
            7,
            20,
        );
        // Not yet durable: still a violation.
        audit.on_send(1, &promise_msg(ballot), || st.clone(), 21);
        assert_eq!(audit.report().total_violations, 2);
        audit.on_disk_write_done(1, 7);
        audit.on_send(1, &promise_msg(ballot), || st.clone(), 22);
        assert_eq!(audit.report().total_violations, 2, "durable promise passes");
    }

    fn pid(seq: u64) -> ProposalId {
        ProposalId {
            node: paxos::ReplicaId(2),
            epoch: 1,
            seq,
        }
    }

    /// A full group commit of orders: eight actions, five strings each.
    fn batch8() -> ActionBatch {
        let order = |seq: u32| Action::BuyConfirm {
            cart: tpcw::CartId(seq),
            customer: tpcw::CustomerId(40),
            payment: tpcw::Payment {
                cc_type: "VISA".into(),
                cc_num: "4111111111111111".into(),
                cc_name: "Test Buyer".into(),
                cc_expiry: 15_000,
                auth_id: tpcw::Text::from_fmt(format_args!("AUTH{seq:06}")),
                country: 7,
            },
            ship_type: 2,
            now: seq.into(),
        };
        Batch::new((0..8).map(|seq| (pid(seq.into()), order(seq))).collect())
    }

    fn accepted(decree: paxos::Decree<ActionBatch>) -> Record<ActionBatch> {
        Record::Accepted {
            ballot: Ballot::fast(7, paxos::ReplicaId(2)),
            slot: Slot(123),
            decree,
        }
    }

    fn append(entry: Vec<u8>) -> StableOp {
        StableOp::Append {
            log: LOG_NAME.to_string(),
            entry,
        }
    }

    /// The oracle is the path the auditor used to take: decode the whole
    /// record, batch and all, and read the key off the value.
    #[test]
    fn pending_key_is_the_one_a_full_decode_yields() {
        let records = [
            Record::Promised(Ballot::classic(3, paxos::ReplicaId(1))),
            accepted(paxos::Decree::Value(pid(999), batch8())),
            accepted(paxos::Decree::Noop),
            accepted(paxos::Decree::Reconfig(paxos::Reconfig {
                epoch: 3,
                add: vec![paxos::ReplicaId(5)],
                remove: vec![paxos::ReplicaId(0)],
            })),
        ];
        let mut audit = InvariantAuditor::new(3);
        for (token, record) in (0u64..).zip(&records) {
            let entry = record.to_bytes();
            let oracle = durable_key::<ActionBatch>(&entry).expect("a valid record");
            audit.on_disk_write(1, &append(entry), token, 10);
            let pending = &audit.replica(1).pending;
            assert_eq!(pending.get(&token), Some(&oracle), "{record:?}");
        }
        assert_eq!(audit.report().total_violations, 0);
        assert_eq!(audit.report().checks, records.len() as u64);
    }

    #[test]
    fn undecodable_appends_are_one_violation_each_and_gate_nothing() {
        let good = accepted(paxos::Decree::Value(pid(999), batch8())).to_bytes();
        // Everything before the batch's item count: tag, slot, ballot,
        // decree tag, proposal id.
        let count_at = good.len() - batch8().to_bytes().len();
        let mut empty = good[..count_at].to_vec();
        empty.extend(0u32.to_le_bytes());
        let mut bad_utf8 = good.clone();
        let visa = good
            .windows(4)
            .position(|w| w == b"VISA")
            .expect("a string");
        bad_utf8[visa] = 0xff;
        let oversized = {
            let items: Vec<_> = (0..=treplica::MAX_BATCH_ITEMS as u64)
                .map(|seq| {
                    let customer = tpcw::CustomerId(1);
                    (pid(seq), Action::RefreshSession { customer, now: seq })
                })
                .collect();
            let mut bytes = good[..count_at].to_vec();
            bytes.extend(items.to_bytes());
            bytes
        };
        let cases = [
            (WireError::BadUtf8, bad_utf8),
            (WireError::Invalid("empty batch"), empty),
            (
                WireError::Invalid("batch exceeds MAX_BATCH_ITEMS"),
                oversized,
            ),
            (WireError::UnexpectedEnd, good[..good.len() - 1].to_vec()),
        ];
        let mut audit = InvariantAuditor::new(3);
        for (seen, (what, entry)) in (1u64..).zip(cases) {
            assert_eq!(durable_key::<ActionBatch>(&entry), Err(what.clone()));
            assert_eq!(durable_key::<Unbuilt>(&entry), Err(what.clone()));
            audit.on_disk_write(0, &append(entry), seen, 10);
            let report = audit.report();
            assert_eq!(report.total_violations, seen, "{what:?}");
            let text = report.violations.last().expect("recorded");
            assert!(
                text.contains("appended undecodable consensus record"),
                "{what:?}: {text}"
            );
            let pending = &audit.replica(0).pending;
            assert!(pending.is_empty(), "{what:?} gates nothing");
        }
    }

    #[test]
    fn agreement_and_watermark_violations_are_caught() {
        let mut audit = InvariantAuditor::new(3);
        let pid = |seq| ProposalId {
            node: paxos::ReplicaId(0),
            epoch: 0,
            seq,
        };
        let (a, b) = (pid(1), pid(2));
        audit.on_applied(0, Slot(5), 0, a, 0, 100);
        audit.on_applied(1, Slot(5), 0, a, 0, 110);
        assert_eq!(audit.report().total_violations, 0);
        audit.on_applied(2, Slot(5), 0, b, 0, 120);
        assert_eq!(audit.report().total_violations, 1, "conflicting decree");

        audit.on_applied(0, Slot(4), 0, a, 0, 130);
        assert_eq!(audit.report().total_violations, 2, "watermark regression");
        // A crash resets the incarnation's watermark: replay is legal.
        audit.on_crash(1);
        audit.on_applied(1, Slot(5), 0, a, 0, 140);
        assert_eq!(audit.report().total_violations, 2);
    }

    #[test]
    fn epoch_disagreement_at_a_slot_is_caught() {
        let mut audit = InvariantAuditor::new(3);
        let pid = ProposalId {
            node: paxos::ReplicaId(0),
            epoch: 0,
            seq: 1,
        };
        // Same decree, different configuration epochs: a fence bug.
        audit.on_applied(0, Slot(5), 0, pid, 1, 100);
        audit.on_applied(1, Slot(5), 0, pid, 2, 110);
        assert_eq!(audit.report().total_violations, 1, "epoch mismatch");
        // A spare index beyond the initial n is tracked, not a panic.
        audit.on_applied(6, Slot(5), 0, pid, 1, 120);
        assert_eq!(audit.report().total_violations, 1);
    }

    #[test]
    fn intra_batch_positions_are_ordered_and_agreed() {
        let mut audit = InvariantAuditor::new(3);
        let pid = |seq| ProposalId {
            node: paxos::ReplicaId(0),
            epoch: 0,
            seq,
        };
        // One slot carrying a three-update batch: positions advance.
        audit.on_applied(0, Slot(7), 0, pid(1), 0, 100);
        audit.on_applied(0, Slot(7), 1, pid(2), 0, 101);
        audit.on_applied(0, Slot(7), 2, pid(3), 0, 102);
        assert_eq!(audit.report().total_violations, 0);

        // Another replica must unpack the same batch the same way.
        audit.on_applied(1, Slot(7), 0, pid(1), 0, 110);
        audit.on_applied(1, Slot(7), 1, pid(9), 0, 111);
        assert_eq!(audit.report().total_violations, 1, "batch position differs");

        // Replaying an earlier position of the same slot regresses.
        audit.on_applied(0, Slot(7), 1, pid(2), 0, 120);
        assert_eq!(audit.report().total_violations, 2, "index regression");
    }

    #[test]
    fn fast_path_requires_fast_mode_and_quorum() {
        let mut audit = InvariantAuditor::new(4);
        let any = MwMsg::Paxos {
            epoch: 0,
            tag: Default::default(),
            msg: Msg::Any {
                ballot: Ballot::fast(1, paxos::ReplicaId(0)),
                from_slot: Slot(0),
            },
        };
        audit.on_send(0, &any, || status(Mode::Fast, 4), 10);
        assert_eq!(audit.report().total_violations, 0);
        audit.on_send(0, &any, || status(Mode::Classic, 3), 20);
        assert_eq!(audit.report().total_violations, 1, "classic mode fast send");
        audit.on_send(0, &any, || status(Mode::Fast, 2), 30);
        assert_eq!(audit.report().total_violations, 2, "mode/FD mismatch");
        // The quorum check follows the sender's current epoch: after a
        // remove shrinks the ensemble to 3, ⌈3·3/4⌉ = 3 alive suffices.
        audit.on_send(0, &any, || status_in(Mode::Fast, 3, 1, 3), 40);
        assert_eq!(audit.report().total_violations, 2, "shrunk epoch quorum");
    }
}
