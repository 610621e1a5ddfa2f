//! The in-memory ensemble the protocol suites share: N `Replica`s with
//! synchronous message delivery and an instant disk, driven by hand.

// Each suite uses part of the driver.
#![allow(dead_code)]

use std::collections::VecDeque;
use std::fmt::Debug;

use paxos::{
    Effect, Msg, PaxosConfig, ProposalId, Record, Replica, ReplicaId, ReplicaStatus, Slot,
};

/// One driver tick, as the simulator's (20 ms).
pub const TICK: u64 = 20_000;

/// Deterministic in-memory ensemble driver.
pub struct Ensemble<V> {
    pub replicas: Vec<Option<Replica<V>>>,
    /// Durable acceptor log per node (survives crashes).
    pub logs: Vec<Vec<Record<V>>>,
    /// Delivered (slot, pid, value) per node, in delivery order.
    pub delivered: Vec<Vec<(Slot, ProposalId, V)>>,
    /// Observed `Reconfigured` effects per node: (fence slot, new epoch).
    pub reconfigs: Vec<Vec<(Slot, u64)>>,
    pub inboxes: Vec<VecDeque<(ReplicaId, Msg<V>)>>,
    pub config: PaxosConfig,
    pub now: u64,
    pub epochs: Vec<u64>,
}

impl<V: Clone + Eq + Debug> Ensemble<V> {
    pub fn new(config: PaxosConfig) -> Self {
        let n = config.n;
        Ensemble {
            replicas: (0..n)
                .map(|i| Some(Replica::new(ReplicaId(i as u32), config.clone(), 0)))
                .collect(),
            logs: vec![Vec::new(); n],
            delivered: vec![Vec::new(); n],
            reconfigs: vec![Vec::new(); n],
            inboxes: (0..n).map(|_| VecDeque::new()).collect(),
            config,
            now: 0,
            epochs: vec![0; n],
        }
    }

    /// Grows the per-node vectors so `idx` is addressable (joining
    /// replicas get ids beyond the seed ensemble).
    pub fn ensure_node(&mut self, idx: usize) {
        while self.replicas.len() <= idx {
            self.replicas.push(None);
            self.logs.push(Vec::new());
            self.delivered.push(Vec::new());
            self.reconfigs.push(Vec::new());
            self.inboxes.push(VecDeque::new());
            self.epochs.push(0);
        }
    }

    pub fn apply_effects(&mut self, node: usize, effects: Vec<Effect<V>>) {
        let mut queue = VecDeque::from(effects);
        while let Some(effect) = queue.pop_front() {
            match effect {
                Effect::Send { to, msg } => {
                    if let Some(Some(_)) = self.replicas.get(to.index()) {
                        self.inboxes[to.index()].push_back((ReplicaId(node as u32), msg));
                    }
                }
                Effect::Persist { record, token } => {
                    // Synchronous "disk": durable immediately.
                    self.logs[node].push(record);
                    if let Some(r) = self.replicas[node].as_mut() {
                        queue.extend(r.on_persisted(token));
                    }
                }
                Effect::Deliver {
                    slot, pid, value, ..
                } => {
                    self.delivered[node].push((slot, pid, value));
                }
                Effect::Reconfigured { slot, membership } => {
                    self.reconfigs[node].push((slot, membership.epoch()));
                }
            }
        }
    }

    /// Drains all inboxes until quiescent.
    pub fn settle(&mut self) {
        loop {
            let mut progressed = false;
            for i in 0..self.replicas.len() {
                while let Some((from, msg)) = self.inboxes[i].pop_front() {
                    progressed = true;
                    if let Some(r) = self.replicas[i].as_mut() {
                        let fx = r.on_message(from, msg, self.now);
                        self.apply_effects(i, fx);
                    }
                }
            }
            if !progressed {
                break;
            }
        }
    }

    /// Advances time by `dt` µs, ticking every replica and settling.
    pub fn step(&mut self, dt: u64) {
        self.now += dt;
        for i in 0..self.replicas.len() {
            if let Some(r) = self.replicas[i].as_mut() {
                let fx = r.on_tick(self.now);
                self.apply_effects(i, fx);
            }
        }
        self.settle();
    }

    /// Runs `steps` ticks of `dt` µs each.
    pub fn run(&mut self, steps: usize, dt: u64) {
        for _ in 0..steps {
            self.step(dt);
        }
    }

    pub fn propose(&mut self, node: usize, value: V) -> ProposalId {
        let (pid, fx) = self.replicas[node]
            .as_mut()
            .expect("proposing on a live node")
            .propose(value);
        self.apply_effects(node, fx);
        self.settle();
        pid
    }

    pub fn crash(&mut self, node: usize) {
        self.replicas[node] = None;
        self.inboxes[node].clear();
    }

    /// Asks `node`'s leader role to reconfigure the ensemble; applies
    /// the resulting effects and settles. Returns whether the leader
    /// took the request.
    pub fn reconfig(&mut self, node: usize, add: &[u32], remove: &[u32]) -> bool {
        let (ok, fx) = self.replicas[node]
            .as_mut()
            .expect("reconfig on a live node")
            .propose_reconfig(
                add.iter().map(|&i| ReplicaId(i)).collect(),
                remove.iter().map(|&i| ReplicaId(i)).collect(),
            );
        self.apply_effects(node, fx);
        self.settle();
        ok
    }

    /// Boots a brand-new replica `node` with the membership currently
    /// installed at live replica `from` (the driver-level analogue of
    /// provisioning a spare and handing it the cluster config).
    pub fn join(&mut self, node: usize, from: usize) {
        self.ensure_node(node);
        assert!(self.replicas[node].is_none());
        let membership = self.replicas[from]
            .as_ref()
            .expect("seed member alive")
            .membership()
            .clone();
        let r = Replica::new_with_membership(
            ReplicaId(node as u32),
            self.config.clone(),
            membership,
            self.now,
        );
        self.replicas[node] = Some(r);
    }

    /// Restarts a crashed node from its durable log; `start_slot` is the
    /// application checkpoint watermark (0 = replay everything via
    /// catch-up from peers).
    pub fn restart(&mut self, node: usize, start_slot: Slot) {
        assert!(self.replicas[node].is_none());
        self.epochs[node] += 1;
        let r = Replica::recover(
            ReplicaId(node as u32),
            self.config.clone(),
            self.logs[node].iter(),
            start_slot,
            self.epochs[node],
            self.now,
        );
        self.replicas[node] = Some(r);
        self.delivered[node].clear(); // fresh incarnation delivers from start_slot
    }

    /// Asserts all live replicas' delivered sequences are consistent
    /// prefixes (same slots in the same order with the same values).
    pub fn assert_agreement(&self) {
        let seqs: Vec<&Vec<(Slot, ProposalId, V)>> = self
            .replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_some())
            .map(|(i, _)| &self.delivered[i])
            .collect();
        for w in seqs.windows(2) {
            let (a, b) = (w[0], w[1]);
            // Align by slot: a checkpoint-recovered replica starts
            // delivering mid-log, so compare the overlapping slot range.
            for (slot, pid, value) in a.iter() {
                if let Some((_, pid2, value2)) = b.iter().find(|(s2, _, _)| s2 == slot) {
                    assert_eq!((pid, value), (pid2, value2), "divergence at {slot:?}");
                }
            }
        }
        // Exactly-once per replica.
        for d in &self.delivered {
            let mut pids: Vec<ProposalId> = d.iter().map(|(_, p, _)| *p).collect();
            pids.sort();
            pids.dedup();
            assert_eq!(pids.len(), d.len(), "duplicate delivery");
        }
    }

    pub fn max_delivered(&self) -> usize {
        self.delivered.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Number of live replicas.
    pub fn live(&self) -> usize {
        self.replicas.iter().filter(|r| r.is_some()).count()
    }

    /// Total records appended to the durable logs.
    pub fn logged(&self) -> usize {
        self.logs.iter().map(Vec::len).sum()
    }

    pub fn live_status(&self, node: usize) -> ReplicaStatus {
        self.replicas[node].as_ref().unwrap().status()
    }
}
