//! Host probes: what one operation of each layer costs in host
//! nanoseconds, measured from outside by fixed-iteration loops around
//! the crates' public functions. Workload-independent, best of five
//! passes (noise on a shared box only adds time).
//!
//! The numbers are the multipliers of the estimated host shares: probe
//! ns × ops counted in a traced rep ÷ the rep's host time.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use paxos::{
    Ballot, Batch, Decree, Effect, Msg, PaxosConfig, ProposalId, Record, Replica, ReplicaId, Slot,
};
use robuststore::{Action, Prepared, ReadOp, RobustStore, TpcwDatabase};
use simnet::queue::EventWheel;
use simnet::{DiskConfig, DiskModel, Engine, NodeId, SimConfig, SimDuration, SimTime, StableOp};
use tpcw::{PopulationParams, Profile, Rbe, RbeConfig, SessionUpdate};
use treplica::{
    Application, EncodeScratch, Middleware, MwEffect, MwMsg, Snapshot, TreplicaConfig, Wire,
    WireError,
};

use crate::spans::Spans;

const PASSES: usize = 5;

/// Best of [`PASSES`] timings of `pass`, in ns per op; `pass` does `ops`
/// operations per call.
fn best_ns_per_op(ops: u64, mut pass: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..PASSES {
        let start = Instant::now();
        pass();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best / ops as f64
}

/// `base` iterations, scaled down in quick mode, never below one.
fn scaled(base: u64, scale: f64) -> u64 {
    ((base as f64 * scale) as u64).max(1)
}

// ---------------------------------------------------------------- simnet

fn engine_msg_event(scale: f64) -> f64 {
    let rounds = scaled(200, scale);
    best_ns_per_op(rounds * 1_000, || {
        for round in 0..rounds {
            let mut e: Engine<u64> = Engine::new(4, SimConfig::default(), round);
            for i in 0..1_000u64 {
                e.send(NodeId((i % 4) as usize), NodeId(((i + 1) % 4) as usize), i);
            }
            while let Some(event) = e.next_event_before(SimTime::from_secs(1)) {
                black_box(event);
            }
        }
    })
}

fn engine_timer_event(scale: f64) -> f64 {
    let rounds = scaled(200, scale);
    best_ns_per_op(rounds * 1_000, || {
        for round in 0..rounds {
            let mut e: Engine<u64> = Engine::new(1, SimConfig::default(), round);
            for i in 0..1_000u64 {
                e.set_timer(NodeId(0), SimDuration::from_micros(i), i);
            }
            while let Some(event) = e.next_event_before(SimTime::from_secs(1)) {
                black_box(event);
            }
        }
    })
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Steady-state pop/push against the event wheel with 100 k entries
/// pending — about what the saturated workload keeps queued.
fn queue_dispatch(scale: f64) -> f64 {
    let mut wheel: EventWheel<u64> = EventWheel::new();
    let mut state = 0xDEAD_BEEFu64;
    let mut at = 0u64;
    let mut seq = 0u64;
    while seq < 100_000 {
        at += lcg(&mut state) % 20;
        wheel.push(at, seq, seq);
        seq += 1;
    }
    let cycles = scaled(400_000, scale);
    best_ns_per_op(cycles, || {
        for _ in 0..cycles {
            let (at, s, _) = wheel.pop_before(u64::MAX).expect("population is constant");
            black_box(s);
            wheel.push(at + 1 + lcg(&mut state) % 1_000_000, seq, seq);
            seq += 1;
        }
    })
}

fn disk_op(scale: f64) -> f64 {
    let ops: Vec<StableOp> = (0..100u64)
        .map(|i| {
            if i % 2 == 0 {
                StableOp::Append {
                    log: "wal".to_string(),
                    entry: vec![0u8; 64 + (i as usize % 192)],
                }
            } else {
                StableOp::Put {
                    key: format!("k{}", i % 16),
                    value: vec![0u8; 256],
                }
            }
        })
        .collect();
    let mut disk = DiskModel::new(DiskConfig::default());
    let rounds = scaled(2_000, scale);
    best_ns_per_op(rounds * 200, || {
        let mut total = 0u64;
        for _ in 0..rounds {
            for (i, op) in ops.iter().enumerate() {
                total += disk.write_latency(black_box(op)).as_micros();
                total += disk
                    .read_latency(black_box(1_000 + i as u64 * 37))
                    .as_micros();
            }
        }
        black_box(total);
    })
}

// ----------------------------------------------------------------- paxos

/// `n` replicas on an in-memory bus with instant delivery and instant
/// persistence: protocol CPU cost only.
struct PaxosBus {
    replicas: Vec<Replica<u64>>,
    inboxes: Vec<VecDeque<(ReplicaId, Msg<u64>)>>,
    delivered: u64,
    now: u64,
}

impl PaxosBus {
    fn new(n: usize, fast: bool) -> PaxosBus {
        let config = if fast {
            PaxosConfig::lan(n)
        } else {
            PaxosConfig::lan_classic_only(n)
        };
        let mut bus = PaxosBus {
            replicas: (0..n)
                .map(|i| Replica::new(ReplicaId(i as u32), config.clone(), 0))
                .collect(),
            inboxes: (0..n).map(|_| VecDeque::new()).collect(),
            delivered: 0,
            now: 0,
        };
        // Elect a leader before anything is timed.
        for _ in 0..30 {
            bus.tick();
        }
        bus
    }

    fn apply(&mut self, node: usize, effects: Vec<Effect<u64>>) {
        let mut queue = VecDeque::from(effects);
        while let Some(effect) = queue.pop_front() {
            match effect {
                Effect::Send { to, msg } => {
                    self.inboxes[to.index()].push_back((ReplicaId(node as u32), msg));
                }
                Effect::Persist { token, .. } => {
                    queue.extend(self.replicas[node].on_persisted(token));
                }
                Effect::Deliver { .. } => self.delivered += 1,
                Effect::Reconfigured { .. } => {}
            }
        }
    }

    fn settle(&mut self) {
        loop {
            let mut moved = false;
            for i in 0..self.replicas.len() {
                while let Some((from, msg)) = self.inboxes[i].pop_front() {
                    moved = true;
                    let effects = self.replicas[i].on_message(from, msg, self.now);
                    self.apply(i, effects);
                }
            }
            if !moved {
                return;
            }
        }
    }

    fn tick(&mut self) {
        self.now += 20_000;
        for i in 0..self.replicas.len() {
            let effects = self.replicas[i].on_tick(self.now);
            self.apply(i, effects);
        }
        self.settle();
    }

    fn commit(&mut self, node: usize, value: u64) {
        let (_, effects) = self.replicas[node].propose(value);
        self.apply(node, effects);
        self.settle();
    }
}

/// Host ns for the whole ensemble to commit one value.
fn paxos_commit(n: usize, fast: bool, scale: f64) -> f64 {
    let mut bus = PaxosBus::new(n, fast);
    let commits = scaled(3_000, scale);
    let mut value = 0u64;
    let ns = best_ns_per_op(commits, || {
        for _ in 0..commits {
            value += 1;
            bus.commit((value % n as u64) as usize, value);
        }
    });
    assert!(
        bus.delivered >= value,
        "paxos probe: {} of {value} commits delivered",
        bus.delivered
    );
    ns
}

fn paxos_replay(scale: f64) -> f64 {
    let len = scaled(20_000, scale);
    let records: Vec<Record<u64>> = (0..len)
        .map(|i| Record::Accepted {
            ballot: Ballot::fast(1, ReplicaId(0)),
            slot: Slot(i),
            decree: Decree::Value(
                ProposalId {
                    node: ReplicaId(0),
                    epoch: 0,
                    seq: i,
                },
                i,
            ),
        })
        .collect();
    best_ns_per_op(len, || {
        let replica: Replica<u64> = Replica::recover(
            ReplicaId(1),
            PaxosConfig::lan(5),
            records.iter(),
            Slot::ZERO,
            1,
            0,
        );
        black_box(replica.decided_upto());
    })
}

// ------------------------------------------------------------------ core

fn cart_action(t: u64) -> Action {
    Action::DoCart {
        cart: Some(tpcw::CartId(t as u32)),
        add: Some((tpcw::ItemId((t % 10_000) as u32), 1)),
        updates: vec![tpcw::CartLine {
            item: tpcw::ItemId(((t + 1) % 10_000) as u32),
            qty: 2,
        }],
        default_item: tpcw::ItemId(0),
        now: t,
    }
}

/// One accepted log record carrying a batch of eight cart updates — the
/// unit the group-commit workload persists and ships.
fn batch8_record() -> Record<Batch<Action>> {
    let items = (0..8u64)
        .map(|seq| {
            let pid = ProposalId {
                node: ReplicaId(2),
                epoch: 1,
                seq,
            };
            (pid, cart_action(seq))
        })
        .collect();
    Record::Accepted {
        ballot: Ballot::fast(7, ReplicaId(2)),
        slot: Slot(123_456),
        decree: Decree::Value(
            ProposalId {
                node: ReplicaId(2),
                epoch: 1,
                seq: 999,
            },
            Batch::new(items),
        ),
    }
}

fn wire_encode_batch8(scale: f64) -> f64 {
    let record = batch8_record();
    let mut scratch = EncodeScratch::new();
    let iters = scaled(100_000, scale);
    best_ns_per_op(iters, || {
        for _ in 0..iters {
            black_box(scratch.encode(black_box(&record)));
        }
    })
}

fn wire_decode_batch8(scale: f64) -> f64 {
    let bytes = batch8_record().to_bytes();
    let iters = scaled(100_000, scale);
    best_ns_per_op(iters, || {
        for _ in 0..iters {
            black_box(Record::<Batch<Action>>::from_bytes(black_box(&bytes)).expect("decodes"));
        }
    })
}

/// The cheapest possible application, so the probe times the middleware.
struct Sum(u64);

impl Application for Sum {
    type Action = u64;
    type Reply = u64;
    fn apply(&mut self, action: &u64) -> u64 {
        self.0 += *action;
        self.0
    }
    fn snapshot(&self) -> Snapshot {
        Snapshot::exact(self.0.to_bytes())
    }
    fn restore(data: &[u8]) -> Result<Sum, WireError> {
        Ok(Sum(u64::from_bytes(data)?))
    }
}

/// `n` middlewares on an in-memory bus: sends land in inboxes, disk
/// writes complete at once.
struct MwBus {
    nodes: Vec<Middleware<Sum>>,
    inboxes: Vec<VecDeque<(ReplicaId, MwMsg<Batch<u64>>)>>,
    applied: u64,
    now: u64,
}

impl MwBus {
    fn new(n: usize, batch: usize) -> MwBus {
        let config = TreplicaConfig {
            batch_max_updates: batch,
            batch_window_us: if batch > 1 { 80_000 } else { 0 },
            ..TreplicaConfig::lan(n)
        };
        let mut bus = MwBus {
            nodes: (0..n)
                .map(|i| Middleware::new(ReplicaId(i as u32), Sum(0), config.clone(), 0))
                .collect(),
            inboxes: (0..n).map(|_| VecDeque::new()).collect(),
            applied: 0,
            now: 0,
        };
        for _ in 0..30 {
            bus.tick();
        }
        bus
    }

    fn apply(&mut self, node: usize, effects: Vec<MwEffect<Sum>>) {
        let mut queue = VecDeque::from(effects);
        while let Some(effect) = queue.pop_front() {
            match effect {
                MwEffect::Send { to, msg, .. } => {
                    self.inboxes[to.index()].push_back((ReplicaId(node as u32), msg));
                }
                MwEffect::DiskWrite { token, .. } => {
                    queue.extend(self.nodes[node].on_disk_write_done(token));
                }
                MwEffect::Applied { .. } => self.applied += 1,
                // Nobody crashes or reconfigures on this bus.
                MwEffect::DiskRead { .. }
                | MwEffect::DiskReadRaw { .. }
                | MwEffect::Reconfigured { .. }
                | MwEffect::RecoveryComplete => {}
            }
        }
    }

    fn settle(&mut self) {
        loop {
            let mut moved = false;
            for i in 0..self.nodes.len() {
                while let Some((from, msg)) = self.inboxes[i].pop_front() {
                    moved = true;
                    let effects = self.nodes[i].on_message(from, msg, self.now);
                    self.apply(i, effects);
                }
            }
            if !moved {
                return;
            }
        }
    }

    fn tick(&mut self) {
        self.now += 20_000;
        for i in 0..self.nodes.len() {
            let effects = self.nodes[i].on_tick(self.now);
            self.apply(i, effects);
        }
        self.settle();
    }

    /// Submits `batch` updates at `node` (a full batch flushes on size)
    /// and runs the ensemble until quiet.
    fn commit(&mut self, node: usize, batch: usize, value: u64) {
        for _ in 0..batch {
            let (_, effects) = self.nodes[node]
                .execute(value, self.now)
                .expect("nobody is recovering");
            self.apply(node, effects);
        }
        self.settle();
    }
}

/// Host ns per committed update for the whole ensemble, through the
/// middleware (batching, codec, log writes, consensus, apply).
fn mw_commit(n: usize, batch: usize, scale: f64) -> f64 {
    let mut bus = MwBus::new(n, batch);
    let rounds = scaled(2_000 / batch as u64, scale);
    let mut round = 0u64;
    let ns = best_ns_per_op(rounds * batch as u64, || {
        for _ in 0..rounds {
            round += 1;
            bus.commit((round % n as u64) as usize, batch, round);
        }
    });
    // Every update is applied once per replica.
    let expected = round * batch as u64 * n as u64;
    assert!(
        bus.applied >= expected,
        "middleware probe: {} of {expected} applies",
        bus.applied
    );
    ns
}

// ------------------------------------------------------- tpcw/robuststore

/// The population the two large workloads run on.
const STORE: PopulationParams = PopulationParams {
    items: 10_000,
    ebs: 50,
    seed: 0x5eed,
};

/// Drives one emulated browser against a local store and sorts what it
/// asks for into the reads and the updates of `profile`'s mix.
fn session_ops(profile: Profile, requests: usize) -> (RobustStore, Vec<ReadOp>, Vec<Action>) {
    let mut state = RobustStore::new(STORE);
    let mut db = TpcwDatabase::new(11);
    let mut rbe = Rbe::new(
        7,
        RbeConfig {
            profile,
            think_mean_us: 1_000_000,
            items: STORE.items,
            customers: STORE.customers(),
        },
        13,
    );
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for t in 0..requests as u64 {
        let request = rbe.next_request();
        // Only an update's page changes the browser's session (its cart,
        // its customer id), so the reads are collected, not performed.
        let session = match db.prepare(&request, t * 1_000) {
            Prepared::Read(op) => {
                reads.push(op);
                SessionUpdate::default()
            }
            Prepared::Write(action) => {
                let reply = state.apply(&action);
                writes.push(action);
                TpcwDatabase::write_result(request.interaction, &reply).session
            }
        };
        rbe.on_response(request.interaction, session);
    }
    (state, reads, writes)
}

/// Mean host ns of one store read, weighted by `profile`'s mix.
fn store_read(profile: Profile, scale: f64) -> f64 {
    let (state, reads, _) = session_ops(profile, scaled(3_000, scale) as usize);
    best_ns_per_op(reads.len() as u64, || {
        for op in &reads {
            black_box(TpcwDatabase::perform_read(state.store(), black_box(op)));
        }
    })
}

/// Mean host ns of applying one update of the ordering mix.
fn store_update(scale: f64) -> f64 {
    let (_, _, writes) = session_ops(Profile::Ordering, scaled(4_000, scale) as usize);
    // Each pass replays the session's updates against a fresh store, so
    // every pass does the same work; opening the store is not timed.
    let mut best = f64::INFINITY;
    for _ in 0..PASSES {
        let mut state = RobustStore::new(STORE);
        let start = Instant::now();
        for action in &writes {
            black_box(state.apply(black_box(action)));
        }
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best / writes.len() as f64
}

fn population_gen_ms_per_eb() -> f64 {
    const EBS: u32 = 5;
    let mut seed = 0;
    let ns = best_ns_per_op(EBS as u64, || {
        seed += 1;
        black_box(tpcw::generate(PopulationParams {
            items: 10_000,
            ebs: EBS,
            seed,
        }));
    });
    ns / 1e6
}

fn rbe_next_request(scale: f64) -> f64 {
    let mut rbe = Rbe::new(
        3,
        RbeConfig {
            profile: Profile::Shopping,
            think_mean_us: 1_000_000,
            items: STORE.items,
            customers: STORE.customers(),
        },
        17,
    );
    let iters = scaled(200_000, scale);
    best_ns_per_op(iters, || {
        for _ in 0..iters {
            black_box(rbe.next_request());
            black_box(rbe.think_time_us());
        }
    })
}

/// A store that has taken an ordering session's updates.
fn grown_store(scale: f64) -> RobustStore {
    session_ops(Profile::Ordering, scaled(4_000, scale) as usize).0
}

fn snapshot_take_ms(scale: f64) -> f64 {
    let state = grown_store(scale);
    best_ns_per_op(1, || {
        black_box(state.snapshot());
    }) / 1e6
}

fn snapshot_restore_ms(scale: f64) -> f64 {
    let snapshot = grown_store(scale).snapshot();
    best_ns_per_op(1, || {
        black_box(RobustStore::restore(black_box(&snapshot.data)).expect("restores"));
    }) / 1e6
}

/// Measures one metric, given the factor by which to shrink its
/// iteration count.
type Probe = fn(f64) -> f64;

const PROBES: &[(&str, Probe)] = &[
    ("simnet.engine.ns_per_msg_event", engine_msg_event),
    ("simnet.engine.ns_per_timer_event", engine_timer_event),
    ("simnet.queue.ns_per_dispatch", queue_dispatch),
    ("simnet.disk.ns_per_op", disk_op),
    ("paxos.commit_ns.fast_n5", |s| paxos_commit(5, true, s)),
    ("paxos.commit_ns.fast_n8", |s| paxos_commit(8, true, s)),
    ("paxos.commit_ns.classic_n5", |s| paxos_commit(5, false, s)),
    ("paxos.replay_ns_per_record", paxos_replay),
    ("core.wire.encode_ns_batch8", wire_encode_batch8),
    ("core.wire.decode_ns_batch8", wire_decode_batch8),
    ("core.mw.commit_ns_per_update.b1_n5", |s| mw_commit(5, 1, s)),
    ("core.mw.commit_ns_per_update.b8_n8", |s| mw_commit(8, 8, s)),
    ("tpcw.store.read_ns.browsing", |s| {
        store_read(Profile::Browsing, s)
    }),
    ("tpcw.store.read_ns.shopping", |s| {
        store_read(Profile::Shopping, s)
    }),
    ("tpcw.store.read_ns.ordering", |s| {
        store_read(Profile::Ordering, s)
    }),
    ("tpcw.store.update_ns", store_update),
    ("tpcw.population.gen_ms_per_eb", |_| {
        population_gen_ms_per_eb()
    }),
    ("tpcw.rbe.next_request_ns", rbe_next_request),
    ("robuststore.snapshot.take_ms", snapshot_take_ms),
    ("robuststore.snapshot.restore_ms", snapshot_restore_ms),
];

/// Runs every probe, one span each. `scale` shrinks the iteration
/// counts (0.1 in quick mode).
pub fn run_all(scale: f64, spans: &mut Spans) -> Vec<(String, f64)> {
    PROBES
        .iter()
        .map(|(name, probe)| (name.to_string(), spans.time(name, |_| probe(scale)).0))
        .collect()
}
