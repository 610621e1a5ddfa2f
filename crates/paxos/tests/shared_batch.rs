//! A batch is allocated once and shared: whatever carries it on a
//! replica — messages, log records, votes, decided entries, deliveries —
//! holds a handle on the items the proposer allocated, never a copy.

mod common;

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use common::{Ensemble, TICK};
use paxos::{Ballot, Batch, Decree, Learner, PaxosConfig, ProposalId, Quorums, ReplicaId, Slot};

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
    // Each acceptor's `Accepted` carries a clone of what it accepted;
    // the learner keeps the first and drops the others.
    for i in 0..6 {
        assert!(out.is_empty(), "decided before the fast quorum of 6");
        l.on_accepted(ReplicaId(i), b, Slot(0), decree.clone(), 0, &mut out);
        if out.is_empty() {
            assert_eq!(Arc::strong_count(&proposed.items), 3, "one vote held");
        }
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

/// A value proposed at one of five replicas travels proposer →
/// `FastPropose`/`Propose` → acceptors → log records → `Accepted` →
/// learners → `Deliver`, and comes out of every replica as the
/// allocation that went in.
#[test]
fn every_replica_delivers_the_proposers_allocation() {
    const N: usize = 5;
    let mut e: Ensemble<Value> = Ensemble::new(PaxosConfig::lan(N));
    // Elect a coordinator and open the fast window.
    e.run(30, TICK);
    let logged_before = e.logged();

    let proposed = proposal();
    e.propose(3, proposed.clone());

    assert_eq!(e.logged() - logged_before, N, "one log record a replica");
    for (node, values) in e.delivered.iter().enumerate() {
        assert_eq!(values.len(), 1, "replica {node} delivered the batch once");
        assert!(
            Arc::ptr_eq(&values[0].2.items, &proposed.items),
            "replica {node} delivered a copy"
        );
    }
}
