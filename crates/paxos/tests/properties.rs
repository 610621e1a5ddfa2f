//! Property-based protocol tests: randomized schedules of proposals,
//! crashes and recoveries must never violate agreement or exactly-once
//! delivery, and must reach quiescence (all proposals decided) whenever
//! a majority survives.

mod common;

use proptest::prelude::*;

use common::{Ensemble, TICK};
use paxos::{PaxosConfig, Slot};

type Value = u64;

/// One step of a random schedule.
#[derive(Debug, Clone)]
enum Op {
    Propose { node: usize, value: Value },
    Crash { node: usize },
    Recover { node: usize },
    Ticks { count: usize },
}

fn op_strategy(n: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0..n, 0u64..1_000_000).prop_map(|(node, value)| Op::Propose { node, value }),
        1 => (0..n).prop_map(|node| Op::Crash { node }),
        2 => (0..n).prop_map(|node| Op::Recover { node }),
        3 => (1usize..6).prop_map(|count| Op::Ticks { count }),
    ]
}

fn run_schedule(n: usize, fast: bool, ops: Vec<Op>) {
    let config = if fast {
        PaxosConfig::lan(n)
    } else {
        PaxosConfig::lan_classic_only(n)
    };
    let mut h: Ensemble<Value> = Ensemble::new(config);
    let mut proposed = Vec::new();
    // Stabilize: initial election.
    h.run(30, TICK);
    let majority = n / 2 + 1;
    for op in ops {
        match op {
            Op::Propose { node, value } => {
                if let Some(r) = h.replicas[node].as_mut() {
                    let (pid, fx) = r.propose(value);
                    proposed.push(pid);
                    h.apply_effects(node, fx);
                    h.settle();
                }
            }
            Op::Crash { node } => {
                // Keep a majority alive so the schedule always terminates.
                if h.replicas[node].is_some() && h.live() > majority {
                    h.crash(node);
                }
            }
            Op::Recover { node } => {
                if h.replicas[node].is_none() {
                    h.restart(node, Slot::ZERO);
                }
            }
            Op::Ticks { count } => h.run(count, TICK),
        }
    }
    // Quiesce: give retries (exponential backoff caps at 8× the 1 s
    // base), elections and catch-up ample time.
    h.run(1_200, TICK);

    // Safety: slot-aligned agreement across live replicas, and
    // exactly-once per replica.
    h.assert_agreement();
    // Liveness: every proposal issued at a replica that is alive at the
    // end must be decided (majority always survived).
    for i in (0..n).filter(|&i| h.replicas[i].is_some()) {
        let st = h.live_status(i);
        assert_eq!(st.pending_proposals, 0, "replica {i} has stuck proposals");
    }
    // Validity: every delivered value was proposed.
    for d in &h.delivered {
        for (_, pid, _) in d {
            assert!(proposed.contains(pid), "delivered unproposed {pid:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_schedules_preserve_agreement_fast(
        ops in proptest::collection::vec(op_strategy(5), 1..25)
    ) {
        run_schedule(5, true, ops);
    }

    #[test]
    fn random_schedules_preserve_agreement_classic(
        ops in proptest::collection::vec(op_strategy(5), 1..25)
    ) {
        run_schedule(5, false, ops);
    }

    #[test]
    fn random_schedules_preserve_agreement_four_replicas(
        ops in proptest::collection::vec(op_strategy(4), 1..20)
    ) {
        run_schedule(4, true, ops);
    }
}
