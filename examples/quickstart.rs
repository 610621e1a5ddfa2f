//! Quickstart: a replicated counter on Treplica.
//!
//! Builds a 3-replica ensemble of the middleware on the simulated
//! testbed, executes a few deterministic actions, crashes a replica and
//! watches it recover autonomously — the whole Treplica programming
//! model (deterministic `apply`, `snapshot`, `restore`, transparent
//! recovery) in ~150 lines.
//!
//! Run with: `cargo run --example quickstart`

use robuststore_repro::paxos::{Batch, ProposalId, ReplicaId};
use robuststore_repro::simnet::{Engine, Event, NodeId, SimConfig, SimDuration, SimTime};
use robuststore_repro::treplica::{
    Application, Middleware, MwEffect, MwMsg, Snapshot, TreplicaConfig, Wire, WireError,
};

/// The replicated application: a counter with an operation log length.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Counter {
    total: u64,
    ops: u64,
}

impl Application for Counter {
    type Action = u64;
    type Reply = u64;

    fn apply(&mut self, action: &u64) -> u64 {
        self.total += *action;
        self.ops += 1;
        self.total
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot::exact((self.total, self.ops).to_bytes())
    }

    fn restore(data: &[u8]) -> Result<Self, WireError> {
        let (total, ops) = <(u64, u64)>::from_bytes(data)?;
        Ok(Counter { total, ops })
    }
}

const TICK: u64 = 20_000;
const TICK_TOKEN: u64 = u64::MAX;

fn apply_effects(
    engine: &mut Engine<MwMsg<Batch<u64>>>,
    node: usize,
    effects: Vec<MwEffect<Counter>>,
    applied: &mut Vec<(usize, ProposalId, u64)>,
) {
    for e in effects {
        match e {
            MwEffect::Send { to, msg, bytes } => {
                engine.send_sized(NodeId(node), NodeId(to.index()), msg, bytes);
            }
            MwEffect::DiskWrite { op, token, .. } => engine.disk_write(NodeId(node), op, token),
            MwEffect::DiskRead { key, token } => engine.disk_read(NodeId(node), &key, token),
            MwEffect::DiskReadRaw { bytes, token } => {
                engine.disk_read_raw(NodeId(node), bytes, token)
            }
            MwEffect::Applied { pid, reply, .. } => applied.push((node, pid, reply)),
            MwEffect::RecoveryComplete => {
                println!("[{}] node {node} recovered", engine.now());
            }
            // This walkthrough never changes the membership.
            MwEffect::Reconfigured { .. } => {}
        }
    }
}

fn main() {
    let n = 3;
    let config = TreplicaConfig {
        checkpoint_interval: 5,
        ..TreplicaConfig::lan(n)
    };
    let mut engine: Engine<MwMsg<Batch<u64>>> = Engine::new(n, SimConfig::default(), 7);
    let mut nodes: Vec<Option<Middleware<Counter>>> = (0..n)
        .map(|i| {
            engine.set_timer(NodeId(i), SimDuration::from_micros(TICK), TICK_TOKEN);
            Some(Middleware::new(
                ReplicaId(i as u32),
                Counter { total: 0, ops: 0 },
                config.clone(),
                0,
            ))
        })
        .collect();
    let mut applied = Vec::new();

    let pump = |engine: &mut Engine<MwMsg<Batch<u64>>>,
                nodes: &mut Vec<Option<Middleware<Counter>>>,
                applied: &mut Vec<(usize, ProposalId, u64)>,
                until: SimTime| {
        while let Some((now, ev)) = engine.next_event_before(until) {
            match ev {
                Event::Message { from, to, payload } => {
                    if let Some(mw) = nodes[to.index()].as_mut() {
                        let fx =
                            mw.on_message(ReplicaId(from.index() as u32), payload, now.as_micros());
                        apply_effects(engine, to.index(), fx, applied);
                    }
                }
                Event::Timer { node, token } if token == TICK_TOKEN => {
                    engine.set_timer(node, SimDuration::from_micros(TICK), TICK_TOKEN);
                    if let Some(mw) = nodes[node.index()].as_mut() {
                        let fx = mw.on_tick(now.as_micros());
                        apply_effects(engine, node.index(), fx, applied);
                    }
                }
                Event::Timer { .. } => {}
                Event::DiskWriteDone {
                    node,
                    token,
                    buffers,
                } => {
                    if let Some(mw) = nodes[node.index()].as_mut() {
                        // The disk kept a copy of an append's bytes: its
                        // buffers serve the replica's next log record.
                        if let Some((log, entry)) = buffers {
                            mw.recycle_append(log, entry);
                        }
                        let fx = mw.on_disk_write_done(token);
                        apply_effects(engine, node.index(), fx, applied);
                    }
                }
                Event::DiskReadDone { node, token, value } => {
                    if let Some(mw) = nodes[node.index()].as_mut() {
                        let mut fx = Vec::new();
                        mw.on_disk_read_done_into(token, value, &mut fx);
                        apply_effects(engine, node.index(), fx, applied);
                    }
                }
                Event::DiskWriteFailed { .. } => unreachable!("no disk faults injected"),
            }
        }
    };

    // Let the ensemble elect a coordinator and open fast rounds.
    pump(&mut engine, &mut nodes, &mut applied, SimTime::from_secs(1));

    // Execute increments from different replicas.
    for (i, inc) in [(0usize, 10u64), (1, 20), (2, 30), (0, 40)] {
        let (_pid, fx) = nodes[i]
            .as_mut()
            .unwrap()
            .execute(inc, engine.now().as_micros())
            .expect("active");
        apply_effects(&mut engine, i, fx, &mut applied);
        let until = engine.now() + SimDuration::from_millis(200);
        pump(&mut engine, &mut nodes, &mut applied, until);
    }
    println!(
        "after 4 increments: node0 total = {}",
        nodes[0].as_ref().unwrap().state().total
    );

    // Crash replica 2 and keep working (majority survives).
    println!("[{}] crashing node 2", engine.now());
    engine.crash(NodeId(2));
    nodes[2] = None;
    let (_pid, fx) = nodes[0]
        .as_mut()
        .unwrap()
        .execute(100, engine.now().as_micros())
        .expect("active");
    apply_effects(&mut engine, 0, fx, &mut applied);
    pump(&mut engine, &mut nodes, &mut applied, SimTime::from_secs(3));

    // Restart it: Treplica reloads the checkpoint and re-learns the
    // missed suffix; nothing else is required of the application.
    println!("[{}] restarting node 2", engine.now());
    engine.restart(NodeId(2));
    let epoch = engine.node_state(NodeId(2)).incarnation.0;
    let (mw, fx) = Middleware::recover(
        ReplicaId(2),
        engine.store(NodeId(2)),
        Counter { total: 0, ops: 0 },
        config,
        epoch,
        engine.now().as_micros(),
    );
    nodes[2] = Some(mw);
    apply_effects(&mut engine, 2, fx, &mut applied);
    engine.set_timer(NodeId(2), SimDuration::from_micros(TICK), TICK_TOKEN);
    pump(
        &mut engine,
        &mut nodes,
        &mut applied,
        SimTime::from_secs(10),
    );

    let recovered = nodes[2].as_ref().unwrap().state();
    println!(
        "node 2 after recovery: total = {}, ops = {}",
        recovered.total, recovered.ops
    );
    assert_eq!(recovered.total, 200, "all five increments visible");
    assert_eq!(recovered.ops, 5);
    println!("quickstart OK: replicated, crashed, recovered, converged.");
}
