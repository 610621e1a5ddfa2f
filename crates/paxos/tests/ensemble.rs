//! Whole-ensemble protocol tests.
//!
//! The shared in-memory ensemble (`common`) drives N `Replica`s with
//! synchronous message delivery and immediate persistence completion.
//! These tests check the two properties the middleware depends on:
//!
//! * **agreement / total order** — delivered sequences at all replicas
//!   are consistent prefixes of one another;
//! * **exactly-once** — no proposal id is delivered twice at a replica.

mod common;

use common::{Ensemble, TICK};
use obs::{TraceEvent, MODE_CLASSIC, MODE_FAST};
use paxos::{Effect, Mode, PaxosConfig, Slot};

type Value = u64;

fn stabilized(config: PaxosConfig) -> Ensemble<Value> {
    let mut e = Ensemble::new(config);
    e.run(30, TICK); // 600 ms: election + Any propagation
    e
}

#[test]
fn classic_ensemble_decides_and_agrees() {
    let mut e = stabilized(PaxosConfig::lan_classic_only(5));
    for i in 0..20 {
        e.propose((i % 5) as usize, 100 + i);
    }
    e.run(10, TICK);
    e.assert_agreement();
    assert_eq!(e.delivered[0].len(), 20, "all proposals decided");
    for node in 0..5 {
        assert_eq!(e.delivered[node].len(), 20);
    }
}

#[test]
fn fast_mode_engages_with_full_ensemble() {
    let mut e = stabilized(PaxosConfig::lan(5));
    let st = e.live_status(1);
    assert_eq!(st.mode, Mode::Fast);
    e.propose(3, 7);
    e.run(5, TICK);
    assert_eq!(e.delivered[3].len(), 1);
    e.assert_agreement();
}

#[test]
fn fast_mode_handles_concurrent_proposers() {
    let mut e = stabilized(PaxosConfig::lan(5));
    // Interleave proposals from every node before settling fully: the
    // harness settles after each, but retries/collisions still exercise
    // the recovery path across ticks.
    for round in 0..10u64 {
        for node in 0..5usize {
            let (pid, fx) = e.replicas[node]
                .as_mut()
                .unwrap()
                .propose(round * 10 + node as u64);
            let _ = pid;
            e.apply_effects(node, fx);
        }
        e.settle();
    }
    e.run(100, TICK); // let collision recovery + retries finish
    e.assert_agreement();
    assert_eq!(
        e.delivered[0].len(),
        50,
        "every proposal eventually decided"
    );
}

#[test]
fn leader_crash_elects_new_leader_and_continues() {
    let mut e = stabilized(PaxosConfig::lan_classic_only(5));
    let leader0 = (0..5)
        .find(|&i| e.live_status(i).leading)
        .expect("a leader");
    assert_eq!(leader0, 0, "lowest id leads first");
    e.propose(2, 1);
    e.crash(0);
    e.run(40, TICK); // fd timeout + re-election
    let leader1 = (1..5)
        .find(|&i| e.live_status(i).leading)
        .expect("new leader");
    assert_eq!(leader1, 1);
    e.propose(2, 2);
    e.run(10, TICK);
    e.assert_agreement();
    let d = &e.delivered[2];
    assert!(
        d.iter().any(|(_, _, v)| *v == 2),
        "post-failover proposal decided"
    );
}

#[test]
fn fast_falls_back_to_classic_below_fast_quorum() {
    let mut e = stabilized(PaxosConfig::lan(5));
    assert_eq!(e.live_status(0).mode, Mode::Fast);
    // Crash 2 of 5: alive = 3 < fast quorum 4, ≥ majority 3.
    e.crash(3);
    e.crash(4);
    e.run(40, TICK);
    assert_eq!(e.live_status(0).mode, Mode::Classic);
    // A bare replica records as the middleware's does: the coordinator
    // traced its election and the switch.
    let trace: Vec<_> = e.replicas[0]
        .as_mut()
        .unwrap()
        .take_trace_events()
        .collect();
    assert!(trace
        .iter()
        .any(|t| matches!(t, TraceEvent::LeaderElected { .. })));
    assert!(trace.contains(&TraceEvent::ModeSwitch {
        from: MODE_FAST,
        to: MODE_CLASSIC
    }));
    e.propose(1, 42);
    e.run(20, TICK);
    e.assert_agreement();
    assert!(e.delivered[1].iter().any(|(_, _, v)| *v == 42));
}

#[test]
fn blocked_below_majority_until_recovery() {
    let mut e = stabilized(PaxosConfig::lan(5));
    for i in 0..3 {
        e.propose(0, i);
    }
    e.run(10, TICK);
    let before = e.max_delivered();
    assert_eq!(before, 3);
    e.crash(2);
    e.crash(3);
    e.crash(4);
    e.run(40, TICK);
    assert_eq!(e.live_status(0).mode, Mode::Blocked);
    e.propose(0, 99);
    e.run(50, TICK);
    assert_eq!(
        e.delivered[0].len(),
        before,
        "no progress while below majority"
    );
    // Recover one: majority again.
    e.restart(2, Slot::ZERO);
    e.run(80, TICK);
    assert!(
        e.delivered[0].iter().any(|(_, _, v)| *v == 99),
        "parked proposal decided after recovery"
    );
    e.assert_agreement();
}

#[test]
fn recovered_replica_catches_up_from_peers() {
    let mut e = stabilized(PaxosConfig::lan(5));
    e.crash(4);
    e.run(40, TICK);
    for i in 0..30 {
        e.propose(i as usize % 4, 1000 + i);
    }
    e.run(10, TICK);
    assert_eq!(e.delivered[0].len(), 30);
    e.restart(4, Slot::ZERO);
    e.run(100, TICK); // heartbeat lag detection + LearnRequest loop
    assert_eq!(
        e.delivered[4].len(),
        30,
        "recovered replica must learn the whole backlog"
    );
    e.assert_agreement();
}

#[test]
fn two_simultaneous_crashes_and_recoveries() {
    // The paper's §5.5 faultload shape at the consensus layer.
    let mut e = stabilized(PaxosConfig::lan(5));
    for i in 0..10 {
        e.propose(i as usize % 5, i);
    }
    e.run(10, TICK);
    e.crash(1);
    e.crash(2);
    e.run(40, TICK);
    for i in 10..20 {
        e.propose(i as usize % 2 * 3, i); // nodes 0 and 3
    }
    e.run(20, TICK);
    e.restart(1, Slot::ZERO);
    e.restart(2, Slot::ZERO);
    e.run(120, TICK);
    for i in 20..25 {
        e.propose(1, i);
    }
    e.run(60, TICK);
    e.assert_agreement();
    assert_eq!(e.delivered[0].len(), 25);
    assert_eq!(e.delivered[1].len(), 25, "recovered replica fully synced");
}

#[test]
fn recovering_with_checkpoint_watermark_skips_prefix() {
    let mut e = stabilized(PaxosConfig::lan(5));
    for i in 0..10 {
        e.propose(0, i);
    }
    e.run(10, TICK);
    let watermark = e.replicas[4].as_ref().unwrap().decided_upto();
    e.crash(4);
    e.run(40, TICK);
    for i in 10..15 {
        e.propose(0, i);
    }
    e.run(10, TICK);
    // Recover from a checkpoint at the watermark: only the suffix is
    // re-learned and re-delivered.
    e.restart(4, watermark);
    e.run(100, TICK);
    let d = &e.delivered[4];
    assert_eq!(d.len(), 5, "only post-checkpoint slots re-delivered");
    assert!(d.iter().all(|(s, _, _)| *s >= watermark));
    e.assert_agreement();
}

#[test]
fn classic_only_config_never_uses_fast_ballots() {
    let mut e = stabilized(PaxosConfig::lan_classic_only(5));
    e.propose(0, 1);
    e.run(10, TICK);
    for i in 0..5 {
        let st = e.live_status(i);
        assert!(
            !st.ballot.is_fast(),
            "classic-only must not use fast ballots"
        );
    }
}

#[test]
fn pending_proposals_drain_to_zero() {
    let mut e = stabilized(PaxosConfig::lan(5));
    for i in 0..25 {
        e.propose(i as usize % 5, i);
    }
    e.run(120, TICK);
    for i in 0..5 {
        assert_eq!(
            e.live_status(i).pending_proposals,
            0,
            "replica {i} still has pending proposals"
        );
    }
}

#[test]
fn a_parked_proposal_is_pending_once() {
    // Below a majority the survivor parks its proposal: it sits in the
    // proposer's retry table and in the routing queue, and is still one
    // proposal.
    let mut e = stabilized(PaxosConfig::lan(3));
    e.crash(1);
    e.crash(2);
    e.run(40, TICK); // past the failure detector's timeout
    assert_eq!(e.live_status(0).mode, Mode::Blocked);
    e.propose(0, 7);
    assert_eq!(e.live_status(0).pending_proposals, 1);
}

#[test]
fn four_replica_ensemble_matches_paper_minimum() {
    // The paper's baseline deployment is 4 replicas (fast quorum 3).
    let mut e = stabilized(PaxosConfig::lan(4));
    assert_eq!(e.live_status(0).mode, Mode::Fast);
    for i in 0..12 {
        e.propose(i as usize % 4, i);
    }
    e.run(60, TICK);
    e.assert_agreement();
    assert_eq!(e.delivered[0].len(), 12);
    // One crash: 3 alive = fast quorum exactly → still Fast.
    e.crash(3);
    e.run(40, TICK);
    assert_eq!(e.live_status(0).mode, Mode::Fast);
    e.propose(0, 99);
    e.run(60, TICK);
    assert!(e.delivered[0].iter().any(|(_, _, v)| *v == 99));
}

#[test]
fn twelve_replica_ensemble_scales() {
    // Largest deployment in the paper's speedup experiments.
    let mut e = stabilized(PaxosConfig::lan(12));
    for i in 0..24 {
        e.propose(i as usize % 12, i);
    }
    e.run(80, TICK);
    e.assert_agreement();
    assert_eq!(e.delivered[0].len(), 24);
}

#[test]
fn survives_heavy_deterministic_message_loss() {
    // Drop every 7th message systematically: retries, re-elections and
    // catch-up must still decide everything exactly once.
    let mut e = stabilized(PaxosConfig::lan(5));
    let mut drop_counter = 0u64;
    for i in 0..30u64 {
        let node = (i % 5) as usize;
        let (_pid, fx) = e.replicas[node].as_mut().unwrap().propose(i);
        // Filter the effects: drop every 7th send.
        let filtered: Vec<_> = fx
            .into_iter()
            .filter(|eff| {
                if matches!(eff, Effect::Send { .. }) {
                    drop_counter += 1;
                    !drop_counter.is_multiple_of(7)
                } else {
                    true
                }
            })
            .collect();
        e.apply_effects(node, filtered);
        e.settle();
        e.step(TICK);
    }
    e.run(400, TICK);
    e.assert_agreement();
    assert_eq!(
        e.delivered[0].len(),
        30,
        "all proposals decided despite loss"
    );
    for i in 0..5 {
        assert_eq!(e.live_status(i).pending_proposals, 0);
    }
}

#[test]
fn reconfig_replaces_member_and_new_node_catches_up() {
    let mut e = stabilized(PaxosConfig::lan_classic_only(5));
    for i in 0..5 {
        e.propose(i as usize % 5, i);
    }
    e.run(5, TICK);
    // The leader swaps r4 for r5 at a fenced slot.
    assert!(e.reconfig(0, &[5], &[4]), "leader accepts the reconfig");
    e.run(5, TICK);
    assert!(
        e.reconfigs[0].iter().any(|(_, ep)| *ep == 1),
        "epoch 1 installed at the leader"
    );
    assert_eq!(e.live_status(0).epoch, 1);
    assert_eq!(e.live_status(0).n, 5);
    // The removed replica also learned the decree and retired.
    assert!(e.reconfigs[4].iter().any(|(_, ep)| *ep == 1));
    // Provision the joiner with the new configuration and let it learn
    // the whole backlog (including across the fence slot).
    e.join(5, 0);
    e.run(120, TICK);
    for i in 10..15 {
        e.propose(i as usize % 4, i); // old survivors propose
    }
    e.run(20, TICK);
    e.assert_agreement();
    assert_eq!(e.delivered[0].len(), 10);
    assert_eq!(e.delivered[5].len(), 10, "joiner fully caught up");
    assert_eq!(
        e.delivered[4].len(),
        5,
        "retired replica sees nothing decided after the fence"
    );
}

#[test]
fn reconfig_remove_shrinks_quorum_rule() {
    let mut e = stabilized(PaxosConfig::lan_classic_only(5));
    e.propose(0, 1);
    assert!(e.reconfig(0, &[], &[4]));
    e.run(5, TICK);
    assert_eq!(e.live_status(0).n, 4, "mode rule tracks the new epoch's N");
    // Majority of 4 is 3: one further crash must not block progress.
    e.crash(3);
    e.run(40, TICK);
    e.propose(1, 42);
    e.run(20, TICK);
    e.assert_agreement();
    assert!(e.delivered[1].iter().any(|(_, _, v)| *v == 42));
}

#[test]
fn fast_mode_reconfig_closes_window_then_switches() {
    let mut e = stabilized(PaxosConfig::lan(5));
    assert_eq!(e.live_status(0).mode, Mode::Fast);
    for i in 0..4 {
        e.propose(i as usize, i);
    }
    e.run(5, TICK);
    // Under a fast ballot the reconfig first re-prepares classically
    // (closing the open fast window) and only then takes its fence slot.
    assert!(e.reconfig(0, &[5], &[4]));
    e.run(10, TICK);
    assert_eq!(e.live_status(0).epoch, 1);
    e.join(5, 0);
    e.run(120, TICK);
    for i in 10..16 {
        e.propose(i as usize % 4, i);
    }
    // Leave time for the class-mismatch election to restore fast mode.
    e.run(100, TICK);
    e.assert_agreement();
    assert_eq!(e.delivered[0].len(), 10);
    assert_eq!(e.delivered[5].len(), 10);
    assert_eq!(
        e.live_status(0).mode,
        Mode::Fast,
        "fast mode restored under the new epoch"
    );
}

#[test]
fn reconfig_refused_by_followers_and_for_empty_result() {
    let mut e = stabilized(PaxosConfig::lan_classic_only(5));
    assert!(!e.reconfig(2, &[5], &[4]), "follower must refuse");
    assert!(
        !e.reconfig(0, &[], &[0, 1, 2, 3, 4]),
        "removing everyone must refuse"
    );
    assert!(e.reconfig(0, &[5], &[4]), "leader accepts a valid one");
}

#[test]
fn gap_left_by_downtime_is_repaired() {
    // Regression (found by the schedule proptest): slots decided while
    // a replica is down leave a delivery gap that ongoing traffic can
    // never fill; small gaps below the catch-up lag threshold must be
    // fetched explicitly or delivery deadlocks behind the hole.
    let mut e = stabilized(PaxosConfig::lan_classic_only(5));
    e.crash(4);
    e.crash(3);
    e.propose(0, 100); // decided while 3 and 4 are down → their gap
    e.restart(3, Slot::ZERO);
    e.propose(3, 101);
    e.restart(4, Slot::ZERO);
    e.run(200, TICK);
    e.assert_agreement();
    assert_eq!(
        e.delivered.iter().map(Vec::len).collect::<Vec<_>>(),
        vec![2, 2, 2, 2, 2],
        "every replica fills the gap and delivers both proposals"
    );
    for i in 0..5 {
        assert_eq!(e.live_status(i).pending_proposals, 0);
    }
}
