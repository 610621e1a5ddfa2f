//! The learner's vote table against the one it replaced: a decree per
//! acceptor per ballot in nested maps, counted by value. Fed the same
//! random stream of votes, catch-up replies, fences, truncations,
//! fast-forwards and ensemble changes, both must deliver the same
//! values in the same order and agree on `is_decided` and on
//! `stuck_slots`, through the impossibility and the staleness trigger.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use paxos::{
    Ballot, Batch, Decree, Delivery, Learner, ProposalId, Quorums, Reconfig, ReplicaId, Slot,
};

type Value = Batch<u32>;

/// The distinct decrees among `votes` with their vote counts, in order
/// of first appearance (acceptor order): the tally the learner used to
/// run on every vote.
fn count_votes<V: Eq>(
    votes: &BTreeMap<ReplicaId, Decree<V>>,
) -> impl Iterator<Item = (&Decree<V>, usize)> {
    votes.values().enumerate().filter_map(move |(i, d)| {
        if votes.values().take(i).any(|seen| seen == d) {
            return None;
        }
        let later = votes.values().skip(i + 1).filter(|v| *v == d).count();
        Some((d, later + 1))
    })
}

/// One slot's votes: ballot → (acceptor → decree), and the time of the
/// first.
type SlotVotes<V> = (BTreeMap<Ballot, BTreeMap<ReplicaId, Decree<V>>>, u64);

/// The learner as it was: every vote's decree kept per ballot and
/// acceptor, a delivered set of ids.
struct Oracle<V> {
    quorums: Quorums,
    votes: BTreeMap<Slot, SlotVotes<V>>,
    decided: BTreeMap<Slot, Decree<V>>,
    next_deliver: Slot,
    delivered_pids: BTreeSet<ProposalId>,
    truncated_below: Slot,
    pending_reconfig: Option<(Slot, Reconfig)>,
}

impl<V: Clone + Eq> Oracle<V> {
    fn new(quorums: Quorums) -> Self {
        Oracle {
            quorums,
            votes: BTreeMap::new(),
            decided: BTreeMap::new(),
            next_deliver: Slot::ZERO,
            delivered_pids: BTreeSet::new(),
            truncated_below: Slot::ZERO,
            pending_reconfig: None,
        }
    }

    fn is_decided(&self, slot: Slot) -> bool {
        slot < self.next_deliver || self.decided.contains_key(&slot)
    }

    fn required(&self, ballot: Ballot) -> usize {
        if ballot.is_fast() {
            self.quorums.fast()
        } else {
            self.quorums.classic()
        }
    }

    fn on_accepted(
        &mut self,
        from: ReplicaId,
        ballot: Ballot,
        slot: Slot,
        decree: Decree<V>,
        now: u64,
    ) -> Vec<Delivery<V>> {
        if self.is_decided(slot) {
            return Vec::new();
        }
        let needed = self.required(ballot);
        let entry = self
            .votes
            .entry(slot)
            .or_insert_with(|| (BTreeMap::new(), now));
        let ballot_votes = entry.0.entry(ballot).or_default();
        ballot_votes.insert(from, decree);
        let winner = count_votes(ballot_votes)
            .find(|(_, n)| *n >= needed)
            .map(|(d, _)| d)
            .cloned();
        match winner {
            Some(decree) => {
                self.votes.remove(&slot);
                self.decided.insert(slot, decree);
                self.drain()
            }
            None => Vec::new(),
        }
    }

    fn on_learned(&mut self, entries: Vec<(Slot, Decree<V>)>) -> Vec<Delivery<V>> {
        for (slot, decree) in entries {
            if !self.is_decided(slot) {
                self.votes.remove(&slot);
                self.decided.insert(slot, decree);
            }
        }
        self.drain()
    }

    fn drain(&mut self) -> Vec<Delivery<V>> {
        let mut out = Vec::new();
        while let Some(decree) = self.decided.get(&self.next_deliver) {
            match decree {
                Decree::Value(pid, value) => {
                    if self.delivered_pids.insert(*pid) {
                        out.push(Delivery {
                            slot: self.next_deliver,
                            pid: *pid,
                            value: value.clone(),
                        });
                    }
                }
                Decree::Noop => {}
                Decree::Reconfig(rc) => {
                    self.pending_reconfig = Some((self.next_deliver, rc.clone()));
                    break;
                }
            }
            self.next_deliver = self.next_deliver.next();
        }
        out
    }

    fn ack_reconfig(&mut self, slot: Slot) -> Vec<Delivery<V>> {
        if self.next_deliver == slot {
            self.next_deliver = slot.next();
        }
        self.drain()
    }

    fn stuck_slots(&self, now: u64, timeout_us: u64) -> Vec<Slot> {
        let mut out = Vec::new();
        for (slot, (by_ballot, first_vote_at)) in &self.votes {
            let stale = now.saturating_sub(*first_vote_at) >= timeout_us;
            let impossible = by_ballot.iter().any(|(ballot, votes)| {
                if !ballot.is_fast() {
                    return false;
                }
                let top = count_votes(votes).map(|(_, n)| n).max().unwrap_or(0);
                let unvoted = self.quorums.n().saturating_sub(votes.len());
                top + unvoted < self.quorums.fast()
            });
            if stale || impossible {
                out.push(*slot);
            }
        }
        out
    }

    fn fast_forward(&mut self, slot: Slot) {
        if slot <= self.next_deliver {
            return;
        }
        self.decided = self.decided.split_off(&slot);
        self.votes = self.votes.split_off(&slot);
        self.next_deliver = slot;
        self.truncated_below = self.truncated_below.max(slot);
        if self
            .pending_reconfig
            .as_ref()
            .is_some_and(|(s, _)| *s < slot)
        {
            self.pending_reconfig = None;
        }
    }

    fn truncate(&mut self, upto: Slot) {
        if upto <= self.truncated_below {
            return;
        }
        self.decided = self.decided.split_off(&upto);
        self.votes = self.votes.split_off(&upto);
        self.truncated_below = upto;
    }
}

/// One step. Slots are offsets from the delivery watermark when the step
/// runs.
#[derive(Debug, Clone)]
enum Op {
    Vote {
        acceptor: usize,
        ballot: usize,
        offset: u64,
        decree: u32,
        dt: u64,
    },
    Learned {
        offset: u64,
        len: u64,
        decree: u32,
    },
    AckReconfig,
    Truncate {
        back: u64,
    },
    FastForward {
        ahead: u64,
    },
    Ensemble {
        n: usize,
    },
}

/// Voters: the first ensemble's ids, ids a shrink leaves outside it,
/// and ids past 64.
const ACCEPTORS: [u32; 11] = [0, 1, 2, 3, 4, 5, 6, 7, 64, 65, 70];

/// Fast and classic ballots of rising rounds, so an acceptor can vote
/// again in a later one.
fn ballot(i: usize) -> Ballot {
    let round = i as u64 + 1;
    let node = ReplicaId(i as u32 % 2);
    if i.is_multiple_of(2) {
        Ballot::fast(round, node)
    } else {
        Ballot::classic(round, node)
    }
}

/// Decree `kind` for `slot`: three values (each built as a fresh
/// allocation, so equal batches arrive as separate ones; one proposal
/// id serves two neighbouring slots, which exercises exactly-once
/// delivery), a no-op or a reconfiguration.
fn decree(kind: u32, slot: Slot) -> Decree<Value> {
    match kind {
        0..=2 => {
            let pid = ProposalId {
                node: ReplicaId(kind),
                epoch: 0,
                seq: slot.0 / 2,
            };
            Decree::Value(pid, Batch::new(vec![(pid, kind)]))
        }
        3 => Decree::Noop,
        _ => Decree::Reconfig(Reconfig {
            epoch: 1,
            add: vec![],
            remove: vec![ReplicaId(4)],
        }),
    }
}

fn op() -> impl Strategy<Value = Op> {
    let vote = (
        0usize..ACCEPTORS.len(),
        0usize..4,
        0u64..5,
        0u32..8,
        0u64..400,
    )
        .prop_map(|(acceptor, ballot, offset, decree, dt)| Op::Vote {
            acceptor,
            ballot,
            offset,
            // Mostly two competing values; now and then a third, a no-op
            // or a reconfiguration.
            decree: [0, 0, 0, 1, 1, 2, 3, 4][decree as usize],
            dt,
        });
    prop_oneof![
        20 => vote,
        2 => (0u64..4, 1u64..3, 2u32..5).prop_map(|(offset, len, decree)| Op::Learned { offset, len, decree }),
        1 => (0u8..1).prop_map(|_| Op::AckReconfig),
        1 => (0u64..6).prop_map(|back| Op::Truncate { back }),
        1 => (0u64..3).prop_map(|ahead| Op::FastForward { ahead }),
        1 => (3usize..10).prop_map(|n| Op::Ensemble { n }),
    ]
}

/// What the learner and the oracle delivered in one step.
type Delivered = (Vec<Delivery<Value>>, Vec<Delivery<Value>>);

/// Applies `op` to both.
fn apply(l: &mut Learner<Value>, o: &mut Oracle<Value>, clock: &mut u64, op: Op) -> Delivered {
    let at = |offset: u64| Slot(o.next_deliver.0 + offset);
    let mut got = Vec::new();
    let want = match op {
        Op::Vote {
            acceptor,
            ballot: b,
            offset,
            decree: kind,
            dt,
        } => {
            *clock += dt;
            let (from, slot) = (ReplicaId(ACCEPTORS[acceptor]), at(offset));
            l.on_accepted(from, ballot(b), slot, decree(kind, slot), *clock, &mut got);
            o.on_accepted(from, ballot(b), slot, decree(kind, slot), *clock)
        }
        Op::Learned {
            offset,
            len,
            decree: kind,
        } => {
            let entries: Vec<_> = (0..len)
                .map(|i| {
                    let slot = Slot(at(offset).0 + i);
                    (slot, decree(kind, slot))
                })
                .collect();
            l.on_learned(entries.clone(), &mut got);
            o.on_learned(entries)
        }
        Op::AckReconfig => {
            let fence = l.take_reconfig();
            assert_eq!(fence, o.pending_reconfig.take(), "the same fence");
            match fence {
                Some((slot, _)) => {
                    l.ack_reconfig(slot, &mut got);
                    o.ack_reconfig(slot)
                }
                None => Vec::new(),
            }
        }
        Op::Truncate { back } => {
            let upto = Slot(o.next_deliver.0.saturating_sub(back));
            l.truncate(upto);
            o.truncate(upto);
            Vec::new()
        }
        Op::FastForward { ahead } => {
            let slot = at(ahead);
            l.fast_forward(slot);
            o.fast_forward(slot);
            l.drain(&mut got);
            o.drain()
        }
        Op::Ensemble { n } => {
            l.set_quorums(Quorums::new(n));
            o.quorums = Quorums::new(n);
            Vec::new()
        }
    };
    (got, want)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_vote_table_decides_as_the_nested_maps_did(
        n in 4usize..9,
        ops in proptest::collection::vec(op(), 1..500)
    ) {
        let mut l = Learner::new(Quorums::new(n), Slot::ZERO);
        let mut o = Oracle::new(Quorums::new(n));
        let mut clock = 0;
        for (step, op) in ops.into_iter().enumerate() {
            let (got, want) = apply(&mut l, &mut o, &mut clock, op.clone());
            prop_assert_eq!(got, want, "step {}: {:?}", step, op);
            prop_assert_eq!(l.next_deliver(), o.next_deliver, "step {}", step);
            let from = o.next_deliver.0.saturating_sub(2);
            for slot in (from..from + 10).map(Slot) {
                prop_assert_eq!(l.is_decided(slot), o.is_decided(slot), "step {}, {:?}", step, slot);
            }
            // `u64::MAX` leaves the impossibility trigger alone.
            for timeout_us in [u64::MAX, 0, 300, 1_000] {
                let mut stuck = Vec::new();
                l.stuck_slots(clock, timeout_us, &mut stuck);
                prop_assert_eq!(
                    stuck,
                    o.stuck_slots(clock, timeout_us),
                    "step {}, timeout {}", step, timeout_us
                );
            }
        }
    }
}
