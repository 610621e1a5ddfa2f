//! A batch is allocated once and shared: whatever carries it on a
//! replica — messages, log records, votes, decided entries, deliveries —
//! holds a handle on the items the proposer allocated, never a copy.

use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use paxos::{
    Ballot, Batch, Decree, Effect, Learner, Msg, PaxosConfig, ProposalId, Quorums, Replica,
    ReplicaId, Slot,
};

type Value = Batch<&'static str>;

fn pid(node: u32, seq: u64) -> ProposalId {
    ProposalId {
        node: ReplicaId(node),
        epoch: 0,
        seq,
    }
}

fn proposal() -> Value {
    Batch::new(vec![(pid(1, 1), "a"), (pid(1, 2), "b")])
}

#[test]
fn a_learned_and_delivered_batch_is_the_proposers_allocation() {
    let proposed = proposal();
    let decree = Decree::Value(pid(1, 9), proposed.clone());
    let mut l: Learner<Value> = Learner::new(Quorums::new(8), Slot::ZERO);
    let b = Ballot::fast(1, ReplicaId(0));
    let mut out = Vec::new();
    // Each acceptor's `Accepted` carries a clone of what it accepted.
    for i in 0..6 {
        assert!(out.is_empty(), "decided before the fast quorum of 6");
        out.extend(l.on_accepted(ReplicaId(i), b, Slot(0), decree.clone(), 0));
    }
    assert_eq!(out.len(), 1);
    assert!(Arc::ptr_eq(&out[0].value.items, &proposed.items));
    let (entries, _, _) = l.serve_learn(Slot::ZERO, 1);
    let Some((_, Decree::Value(_, served))) = entries.first() else {
        panic!("slot 0 is served as a value: {entries:?}");
    };
    assert!(Arc::ptr_eq(&served.items, &proposed.items));
    // Nothing else holds the items: the test's two handles (`proposed`
    // and the one inside `decree`), the decided entry, the delivery and
    // the served copy. The six votes went when the slot decided.
    assert_eq!(Arc::strong_count(&proposed.items), 5);
}

/// Equality answers from the pointer when it can, and from the content
/// when it must: two batches built separately are still equal and hash
/// alike.
#[test]
fn separately_built_equal_batches_compare_equal_and_hash_alike() {
    let hash_of = |batch: &Value| {
        let mut hasher = DefaultHasher::new();
        batch.hash(&mut hasher);
        hasher.finish()
    };
    let (a, b) = (proposal(), proposal());
    assert!(!Arc::ptr_eq(&a.items, &b.items));
    assert_eq!(a, b);
    assert_eq!(hash_of(&a), hash_of(&b));
    assert_eq!(a, a.clone());
    assert_ne!(a, Batch::single(pid(1, 1), "a"));
}

/// Replicas on a synchronous bus with an instant disk.
struct Bus {
    replicas: Vec<Replica<Value>>,
    inbox: VecDeque<(usize, ReplicaId, Msg<Value>)>,
    delivered: Vec<Vec<Value>>,
    logged: usize,
    now: u64,
}

impl Bus {
    fn apply(&mut self, node: usize, effects: Vec<Effect<Value>>) {
        let mut queue = VecDeque::from(effects);
        while let Some(effect) = queue.pop_front() {
            match effect {
                Effect::Send { to, msg } => {
                    self.inbox
                        .push_back((to.index(), ReplicaId(node as u32), msg));
                }
                Effect::Persist { token, .. } => {
                    self.logged += 1;
                    queue.extend(self.replicas[node].on_persisted(token));
                }
                Effect::Deliver { value, .. } => self.delivered[node].push(value),
                Effect::Reconfigured { .. } => {}
            }
        }
    }

    fn settle(&mut self) {
        while let Some((to, from, msg)) = self.inbox.pop_front() {
            let effects = self.replicas[to].on_message(from, msg, self.now);
            self.apply(to, effects);
        }
    }

    fn tick(&mut self) {
        self.now += 20_000;
        for node in 0..self.replicas.len() {
            let effects = self.replicas[node].on_tick(self.now);
            self.apply(node, effects);
        }
        self.settle();
    }
}

/// A value proposed at one of five replicas travels proposer →
/// `FastPropose`/`Propose` → acceptors → log records → `Accepted` →
/// learners → `Deliver`, and comes out of every replica as the
/// allocation that went in.
#[test]
fn every_replica_delivers_the_proposers_allocation() {
    const N: usize = 5;
    let mut bus = Bus {
        replicas: (0..N)
            .map(|i| Replica::new(ReplicaId(i as u32), PaxosConfig::lan(N), 0))
            .collect(),
        inbox: VecDeque::new(),
        delivered: vec![Vec::new(); N],
        logged: 0,
        now: 0,
    };
    // Elect a coordinator and open the fast window.
    for _ in 0..30 {
        bus.tick();
    }
    let logged_before = bus.logged;

    let proposed = proposal();
    let (_, effects) = bus.replicas[3].propose(proposed.clone());
    bus.apply(3, effects);
    bus.settle();

    assert_eq!(bus.logged - logged_before, N, "one log record a replica");
    for (node, values) in bus.delivered.iter().enumerate() {
        assert_eq!(values.len(), 1, "replica {node} delivered the batch once");
        assert!(
            Arc::ptr_eq(&values[0].items, &proposed.items),
            "replica {node} delivered a copy"
        );
    }
}
