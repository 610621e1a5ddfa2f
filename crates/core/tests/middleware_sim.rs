//! Middleware-on-simnet integration tests: the full Treplica stack —
//! consensus, durable log with real write latencies, checkpoints,
//! crash/restart with checkpoint-load + backlog-replay recovery —
//! driven by the discrete-event engine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;

use paxos::{Batch, Mode, ProposalId, ReplicaId};
use simnet::{Engine, Event, LinkFault, NodeId, SimConfig, SimDuration, SimTime, StableOp};
use treplica::{
    Application, Meta, Middleware, MwEffect, MwMsg, RecoveredDisk, Snapshot, TreplicaConfig, Wire,
    WireError,
};

thread_local! {
    /// Bytes this thread allocated and has not freed, modulo 2^64: the
    /// difference of two readings is what the work between them kept.
    static LIVE_BYTES: Cell<usize> = const { Cell::new(0) };
}

/// Counts live bytes per thread, so the tests of this binary can run in
/// parallel without counting each other's work.
struct LiveBytes;

fn track(grow: usize, shrink: usize) {
    // `try_with`: the allocator still runs while a thread's locals are
    // being torn down; those bytes belong to no test.
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get().wrapping_add(grow).wrapping_sub(shrink)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose `GlobalAlloc` contract the caller already upholds; the counter
// is a const-initialised thread-local `Cell` with no destructor, so
// touching it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size(), 0);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size(), 0);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size, layout.size());
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(0, layout.size());
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

/// Replicated register log: applies (key, value) writes; state is the
/// full history length plus a checksum, enough to detect divergence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Register {
    applied: Vec<u64>,
}

impl Application for Register {
    type Action = u64;
    type Reply = usize;
    fn apply(&mut self, action: &u64) -> usize {
        self.applied.push(*action);
        self.applied.len()
    }
    fn snapshot(&self) -> Snapshot {
        Snapshot::exact(self.applied.to_bytes())
    }
    fn restore(data: &[u8]) -> Result<Self, WireError> {
        Ok(Register {
            applied: Vec::from_bytes(data)?,
        })
    }
}

const TICK_TOKEN: u64 = u64::MAX;
const TICK_US: u64 = 20_000;

/// Where to crash a node inside one of its checkpoints: once `after` of
/// the four writes of checkpoint `generation` (data, metadata, log
/// truncation, deletion of the previous generation) are durable. The
/// harness sees every `MwEffect::DiskWrite`, so it picks the instant by
/// counting completions, not by the clock.
struct CrashPoint {
    node: usize,
    generation: u64,
    after: usize,
    /// Tokens of the checkpoint's writes issued so far.
    tokens: Vec<u64>,
    done: usize,
}

/// The ensemble's configuration in most tests: checkpoints every ten
/// applies.
fn config(n: usize) -> TreplicaConfig {
    TreplicaConfig {
        checkpoint_interval: 10,
        ..TreplicaConfig::lan(n)
    }
}

/// `n` middlewares hosting `A` on the engine. Each node boots with, and
/// restarts from, a clone of the cluster's initial application state.
struct Cluster<A: Application<Action = u64, Reply = usize> + Clone> {
    engine: Engine<MwMsg<Batch<u64>>>,
    nodes: Vec<Option<Middleware<A>>>,
    app: A,
    applied: Vec<Vec<(ProposalId, u64)>>, // not strictly the value; reply len
    recovered: Vec<Vec<u64>>,             // recovery completion times (µs)
    config: TreplicaConfig,
    crash_point: Option<CrashPoint>,
}

impl Cluster<Register> {
    fn new(n: usize, seed: u64) -> Self {
        Cluster::with(Register::default(), config(n), seed)
    }
}

impl<A: Application<Action = u64, Reply = usize> + Clone> Cluster<A> {
    fn with(app: A, config: TreplicaConfig, seed: u64) -> Self {
        let n = config.paxos.n;
        let mut engine = Engine::new(n, SimConfig::default(), seed);
        let mut nodes = Vec::new();
        for i in 0..n {
            let mw = Middleware::new(ReplicaId(i as u32), app.clone(), config.clone(), 0);
            engine.set_timer(NodeId(i), SimDuration::from_micros(TICK_US), TICK_TOKEN);
            nodes.push(Some(mw));
        }
        Cluster {
            engine,
            nodes,
            app,
            applied: vec![Vec::new(); n],
            recovered: vec![Vec::new(); n],
            config,
            crash_point: None,
        }
    }

    /// Notes a write of the crash point's checkpoint: the data write of
    /// its generation opens it, and the next three writes of the node
    /// that are not consensus appends are its metadata, truncation and
    /// deletion. Crashes the node on the spot, before the write can
    /// complete, at crash point 0; returns whether it did.
    fn watch_write(&mut self, node: usize, op: &StableOp, token: u64) -> bool {
        let Some(cp) = self.crash_point.as_mut().filter(|cp| cp.node == node) else {
            return false;
        };
        let opens =
            matches!(op, StableOp::Put { key, .. } if *key == Meta::ckpt_key(cp.generation));
        let follows = !cp.tokens.is_empty() && !matches!(op, StableOp::Append { .. });
        if (opens || follows) && cp.tokens.len() < 4 {
            cp.tokens.push(token);
        }
        self.crash_if_reached(node)
    }

    /// Counts a completed write of the crash point's checkpoint.
    fn watch_write_done(&mut self, node: usize, token: u64) {
        if let Some(cp) = self.crash_point.as_mut().filter(|cp| cp.node == node) {
            if cp.tokens.contains(&token) {
                cp.done += 1;
                self.crash_if_reached(node);
            }
        }
    }

    /// Crashes `node` and disarms the crash point once the checkpoint is
    /// open and as many of its writes as asked for are durable.
    fn crash_if_reached(&mut self, node: usize) -> bool {
        let reached = self
            .crash_point
            .as_ref()
            .is_some_and(|cp| !cp.tokens.is_empty() && cp.done == cp.after);
        if reached {
            self.crash_point = None;
            self.crash(node);
        }
        reached
    }

    fn apply_effects(&mut self, node: usize, effects: Vec<MwEffect<A>>) {
        // Nobody reads the trace here, but the middleware buffers it until
        // drained, as `ServerNode` does after every handler.
        if let Some(mw) = self.nodes[node].as_mut() {
            let _ = mw.take_trace();
        }
        for e in effects {
            match e {
                MwEffect::Send { to, msg, bytes } => {
                    self.engine
                        .send_sized(NodeId(node), NodeId(to.index()), msg, bytes);
                }
                MwEffect::DiskWrite { op, token, nominal } => {
                    if let (Some(nom), simnet::StableOp::Put { key, .. }) = (nominal, &op) {
                        let key = key.clone();
                        self.engine.set_nominal(NodeId(node), &key, nom);
                    }
                    if self.watch_write(node, &op, token) {
                        return; // the dead node's remaining effects go nowhere
                    }
                    self.engine.disk_write(NodeId(node), op, token);
                }
                MwEffect::DiskRead { key, token } => {
                    self.engine.disk_read(NodeId(node), &key, token);
                }
                MwEffect::DiskReadRaw { bytes, token } => {
                    self.engine.disk_read_raw(NodeId(node), bytes, token);
                }
                MwEffect::Applied { pid, reply, .. } => {
                    self.applied[node].push((pid, reply as u64));
                }
                MwEffect::RecoveryComplete => {
                    self.recovered[node].push(self.engine.now().as_micros());
                }
                // This harness never reconfigures its replica set.
                MwEffect::Reconfigured { .. } => {}
            }
        }
    }

    fn run_until(&mut self, t: SimTime) {
        while let Some((now, event)) = self.engine.next_event_before(t) {
            match event {
                Event::Message { from, to, payload } => {
                    if let Some(mw) = self.nodes[to.index()].as_mut() {
                        let fx =
                            mw.on_message(ReplicaId(from.index() as u32), payload, now.as_micros());
                        self.apply_effects(to.index(), fx);
                    }
                }
                Event::Timer { node, token } if token == TICK_TOKEN => {
                    self.engine
                        .set_timer(node, SimDuration::from_micros(TICK_US), TICK_TOKEN);
                    if let Some(mw) = self.nodes[node.index()].as_mut() {
                        let fx = mw.on_tick(now.as_micros());
                        self.apply_effects(node.index(), fx);
                    }
                }
                Event::Timer { .. } => {}
                Event::DiskWriteDone { node, token } => {
                    if let Some(mw) = self.nodes[node.index()].as_mut() {
                        let fx = mw.on_disk_write_done(token);
                        self.apply_effects(node.index(), fx);
                        self.watch_write_done(node.index(), token);
                    }
                }
                Event::DiskReadDone { node, token, value } => {
                    if let Some(mw) = self.nodes[node.index()].as_mut() {
                        let fx = mw.on_disk_read_done(token, value);
                        self.apply_effects(node.index(), fx);
                    }
                }
                Event::DiskWriteFailed { .. } => unreachable!("no disk faults injected"),
            }
        }
    }

    fn execute(&mut self, node: usize, value: u64) -> ProposalId {
        let now = self.engine.now().as_micros();
        let (pid, fx) = self.nodes[node]
            .as_mut()
            .expect("live node")
            .execute(value, now)
            .expect("active node");
        self.apply_effects(node, fx);
        pid
    }

    fn crash(&mut self, node: usize) {
        self.engine.crash(NodeId(node));
        self.nodes[node] = None;
    }

    fn restart(&mut self, node: usize) {
        self.engine.restart(NodeId(node));
        let disk =
            RecoveredDisk::from_store(self.engine.store(NodeId(node))).expect("readable disk");
        let epoch = self.engine.node_state(NodeId(node)).incarnation.0;
        let (mut mw, fx) = Middleware::recover(
            ReplicaId(node as u32),
            disk,
            self.config.clone(),
            epoch,
            self.engine.now().as_micros(),
        );
        mw.install_initial_state(self.app.clone());
        self.nodes[node] = Some(mw);
        self.apply_effects(node, fx);
        self.engine
            .set_timer(NodeId(node), SimDuration::from_micros(TICK_US), TICK_TOKEN);
    }

    fn state(&self, node: usize) -> &A {
        self.nodes[node]
            .as_ref()
            .expect("live")
            .state()
            .expect("has state")
    }

    fn assert_replicas_agree(&self)
    where
        A: PartialEq + Debug,
    {
        let states: Vec<&A> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].is_some())
            .map(|i| self.state(i))
            .collect();
        for w in states.windows(2) {
            assert_eq!(w[0], w[1], "replica state divergence");
        }
    }
}

#[test]
fn five_replicas_converge_under_load() {
    let mut c = Cluster::new(5, 11);
    c.run_until(SimTime::from_secs(1)); // stabilize: election + Any
    let mut issued = Vec::new();
    for i in 0..40 {
        let node = (i % 5) as usize;
        issued.push((node, 1000 + i, c.execute(node, 1000 + i)));
        c.run_until(SimTime::from_secs(1) + SimDuration::from_millis(50 * (i + 1)));
    }
    c.run_until(SimTime::from_secs(5));
    c.assert_replicas_agree();
    assert_eq!(c.state(0).applied.len(), 40);
    // What a blocking `execute()` waits for: the proposing node reports
    // the id it was given as applied, with the post-apply reply.
    for (node, value, pid) in issued {
        let (_, len) = c.applied[node]
            .iter()
            .find(|(applied, _)| *applied == pid)
            .expect("proposer sees its own action applied");
        assert_eq!(c.state(node).applied[*len as usize - 1], value);
    }
    assert_eq!(c.nodes[0].as_ref().unwrap().mode(), Mode::Fast);
}

#[test]
fn checkpoints_are_written_and_log_truncated() {
    let mut c = Cluster::new(5, 12);
    c.run_until(SimTime::from_secs(1));
    for i in 0..35 {
        c.execute(0, i);
        c.run_until(SimTime::from_secs(1) + SimDuration::from_millis(30 * (i + 1)));
    }
    c.run_until(SimTime::from_secs(4));
    let status = c.nodes[0].as_ref().unwrap().status();
    assert!(
        status.checkpoints >= 2,
        "expected ≥2 checkpoints, got {}",
        status.checkpoints
    );
    assert!(status.checkpoint_slot.0 >= 20);
    // Disk state reflects it: meta exists, log truncated.
    let store = c.engine.store(NodeId(0));
    assert!(store.get(treplica::META_KEY).is_some());
    let log = store.log(treplica::LOG_NAME).unwrap();
    assert!(log.first_index() > 0, "log must have been truncated");
}

#[test]
fn crash_and_recover_preserves_state_and_rejoins() {
    let mut c = Cluster::new(5, 13);
    c.run_until(SimTime::from_secs(1));
    for i in 0..30 {
        c.execute((i % 4) as usize, i);
        c.run_until(SimTime::from_secs(1) + SimDuration::from_millis(40 * (i + 1)));
    }
    c.run_until(SimTime::from_secs(3));
    let pre_crash = c.state(4).applied.clone();
    assert_eq!(pre_crash.len(), 30);

    c.crash(4);
    c.run_until(SimTime::from_secs(4));
    // More traffic while node 4 is down (4 alive of 5 = still fast).
    for i in 30..45 {
        c.execute((i % 4) as usize, i);
        c.run_until(SimTime::from_secs(4) + SimDuration::from_millis(40 * (i - 29)));
    }
    c.run_until(SimTime::from_secs(6));

    c.restart(4);
    assert!(
        c.nodes[4].as_mut().unwrap().execute(99, 6_000_000).is_err(),
        "execute is rejected until recovery completes"
    );
    c.run_until(SimTime::from_secs(20));
    assert_eq!(
        c.recovered[4].len(),
        1,
        "recovery must complete exactly once"
    );
    c.assert_replicas_agree();
    assert_eq!(c.state(4).applied.len(), 45, "backlog replayed");
    // ... and accepted again after `MwEffect::RecoveryComplete`.
    c.execute(4, 45);
    c.run_until(SimTime::from_secs(21));
    c.assert_replicas_agree();
    assert_eq!(c.state(0).applied.len(), 46);
}

#[test]
fn recovery_time_scales_with_state_size() {
    // Two clusters, identical except for the modeled state size: the one
    // with the bigger nominal checkpoint must take longer to recover
    // (checkpoint load dominates when the backlog is small) — the
    // mechanism behind the paper's Figure 6.
    fn run(nominal_mb: u64, seed: u64) -> u64 {
        #[derive(Debug, Clone, PartialEq, Eq)]
        struct Sized(Vec<u64>, u64);
        impl Application for Sized {
            type Action = u64;
            type Reply = usize;
            fn apply(&mut self, a: &u64) -> usize {
                self.0.push(*a);
                self.0.len()
            }
            fn snapshot(&self) -> Snapshot {
                Snapshot {
                    data: (self.0.clone(), self.1).to_bytes(),
                    nominal_bytes: self.1,
                }
            }
            fn restore(data: &[u8]) -> Result<Self, WireError> {
                let (v, n) = <(Vec<u64>, u64)>::from_bytes(data)?;
                Ok(Sized(v, n))
            }
        }

        let app = Sized(Vec::new(), nominal_mb * 1_000_000);
        let mut c = Cluster::with(app, config(5), seed);
        c.run_until(SimTime::from_secs(1));
        for i in 0..25u64 {
            c.execute(0, i);
            c.run_until(SimTime::from_secs(1) + SimDuration::from_millis(40 * (i + 1)));
        }
        c.run_until(SimTime::from_secs(3));
        c.crash(4);
        c.run_until(SimTime::from_secs(4));
        c.restart(4);
        let restart_at = c.engine.now().as_micros();
        c.run_until(SimTime::from_secs(200));
        c.recovered[4].first().expect("recovery completes") - restart_at
    }

    let small = run(300, 77);
    let large = run(700, 77);
    // 300 MB at the 8 MB/s restore rate ≈ 37.5 s; 700 MB ≈ 87.5 s.
    assert!(
        large > small + 40_000_000,
        "700MB recovery ({large}µs) should exceed 300MB ({small}µs) by ~50s"
    );
    assert!(
        small > 30_000_000,
        "300MB checkpoint load must cost ≥30s, got {small}µs"
    );
}

#[test]
fn deterministic_given_seed() {
    let run = |seed: u64| {
        let mut c = Cluster::new(5, seed);
        c.run_until(SimTime::from_secs(1));
        for i in 0..10 {
            c.execute((i % 5) as usize, i);
            c.run_until(SimTime::from_secs(1) + SimDuration::from_millis(100 * (i + 1)));
        }
        c.run_until(SimTime::from_secs(4));
        c.state(0).applied.clone()
    };
    assert_eq!(run(5), run(5));
}

#[test]
fn snapshot_transfer_when_backlog_outruns_retention() {
    // Shrink the retention window to force the recovering replica past
    // its peers' retained history: it must fall back to a full state
    // transfer (SnapshotRequest/Reply) and still converge.
    let tight = TreplicaConfig {
        checkpoint_interval: 5,
        retention_slots: 2,
        ..TreplicaConfig::lan(5)
    };
    let mut c = Cluster::with(Register::default(), tight, 21);
    c.run_until(SimTime::from_secs(1));
    c.crash(4);
    c.run_until(SimTime::from_secs(2));
    // 40 writes while node 4 is down: peers checkpoint every 5 and only
    // retain 2 slots behind the checkpoint.
    for i in 0..40 {
        c.execute((i % 4) as usize, i);
        c.run_until(SimTime::from_secs(2) + SimDuration::from_millis(40 * (i + 1)));
    }
    c.run_until(SimTime::from_secs(5));
    c.restart(4);
    c.run_until(SimTime::from_secs(30));
    assert_eq!(c.recovered[4].len(), 1, "recovery completes via snapshot");
    c.assert_replicas_agree();
    assert_eq!(c.state(4).applied.len(), 40, "state transferred in full");
}

#[test]
fn converges_over_a_lossy_network() {
    // 2% message loss on every link: retries, catch-up and collision
    // recovery must still drive every proposal to delivery everywhere.
    let mut c = Cluster::new(5, 31);
    let lossy = LinkFault {
        loss: 0.02,
        ..LinkFault::default()
    };
    for a in 0..5 {
        for b in (a + 1)..5 {
            c.engine
                .network_mut()
                .set_link_fault(NodeId(a), NodeId(b), lossy);
        }
    }
    c.run_until(SimTime::from_secs(1));
    for i in 0..30 {
        c.execute((i % 5) as usize, i);
        c.run_until(SimTime::from_secs(1) + SimDuration::from_millis(100 * (i + 1)));
    }
    // Ample time for retries over the lossy links.
    c.run_until(SimTime::from_secs(30));
    c.assert_replicas_agree();
    assert_eq!(
        c.state(0).applied.len(),
        30,
        "all proposals delivered despite loss"
    );
}

#[test]
fn partition_heals_and_minority_catches_up() {
    let mut c = Cluster::new(5, 33);
    c.run_until(SimTime::from_secs(1));
    for i in 0..10 {
        c.execute(0, i);
        c.run_until(SimTime::from_secs(1) + SimDuration::from_millis(60 * (i + 1)));
    }
    // Partition nodes {3,4} away from the majority.
    c.engine.network_mut().partition(
        &[simnet::NodeId(0), simnet::NodeId(1), simnet::NodeId(2)],
        &[simnet::NodeId(3), simnet::NodeId(4)],
    );
    c.run_until(SimTime::from_secs(3));
    for i in 10..20 {
        c.execute(0, i);
        c.run_until(SimTime::from_secs(3) + SimDuration::from_millis(60 * (i - 9)));
    }
    c.run_until(SimTime::from_secs(6));
    assert_eq!(
        c.state(0).applied.len(),
        20,
        "majority side keeps committing"
    );
    assert!(c.state(4).applied.len() < 20, "minority is behind");
    // Heal: the minority catches up via the learn protocol.
    c.engine.network_mut().heal_all();
    c.run_until(SimTime::from_secs(20));
    c.assert_replicas_agree();
    assert_eq!(
        c.state(4).applied.len(),
        20,
        "minority caught up after heal"
    );
}

#[test]
fn crash_during_recovery_recovers_again() {
    // A replica that crashes *while recovering* (checkpoint reload in
    // flight) must come back cleanly on the next restart.
    let mut c = Cluster::new(5, 41);
    c.run_until(SimTime::from_secs(1));
    for i in 0..25 {
        c.execute((i % 4) as usize, i);
        c.run_until(SimTime::from_secs(1) + SimDuration::from_millis(40 * (i + 1)));
    }
    c.run_until(SimTime::from_secs(3));
    c.crash(4);
    c.run_until(SimTime::from_secs(4));
    c.restart(4);
    // Let the recovery start (log read done, checkpoint still loading)…
    c.run_until(SimTime::from_secs(4) + SimDuration::from_millis(200));
    // …and kill it again mid-recovery.
    c.crash(4);
    c.run_until(SimTime::from_secs(6));
    for i in 25..35 {
        c.execute((i % 4) as usize, i);
        c.run_until(SimTime::from_secs(6) + SimDuration::from_millis(40 * (i - 24)));
    }
    c.restart(4);
    c.run_until(SimTime::from_secs(40));
    assert_eq!(c.recovered[4].len(), 1, "second recovery completes");
    c.assert_replicas_agree();
    assert_eq!(c.state(4).applied.len(), 35);
}

#[test]
fn crash_during_checkpoint_write_keeps_previous_generation() {
    // Kill a replica at every durable step of one periodic checkpoint:
    // before its data write completes, and after the data, the metadata,
    // the log truncation and the deletion of the previous generation.
    // Whichever generation the surviving metadata names must exist, and
    // recovery restores from it and replays or re-learns the rest.
    let mut uncut = None;
    for after in 0..=4 {
        let mut c = Cluster::new(5, 43);
        c.crash_point = Some(CrashPoint {
            node: 3,
            generation: 2,
            after,
            tokens: Vec::new(),
            done: 0,
        });
        c.run_until(SimTime::from_secs(1));
        // checkpoint_interval = 10 (Cluster::new): generation 1 follows
        // the 10th apply and completes; generation 2, the one crashed
        // into, follows the 20th.
        for i in 0..20 {
            c.execute(0, i);
            c.run_until(SimTime::from_secs(1) + SimDuration::from_millis(50 * (i + 1)));
        }
        c.run_until(SimTime::from_secs(3));
        assert!(c.nodes[3].is_none(), "crash point {after} was reached");

        let store = c.engine.store(NodeId(3));
        let meta = Meta::from_bytes(
            store
                .get(treplica::META_KEY)
                .expect("generation 1 completed"),
        )
        .expect("metadata decodes");
        assert!(
            store.get(&Meta::ckpt_key(meta.generation)).is_some(),
            "crash point {after}: the metadata names a checkpoint that is not on disk"
        );
        assert_eq!(
            meta.generation,
            if after >= 2 { 2 } else { 1 },
            "crash point {after}: the metadata moves on once its own write is durable"
        );
        assert_eq!(
            store.get(&Meta::ckpt_key(1)).is_some(),
            after < 4,
            "crash point {after}: generation 1 goes with the last write, not before"
        );
        // Crash point 0 leaves the log as generation 1 cut it.
        let first_kept = store.log(treplica::LOG_NAME).expect("log").first_index();
        let uncut = *uncut.get_or_insert(first_kept);
        assert_eq!(
            first_kept > uncut,
            after >= 3,
            "crash point {after}: the log is cut once the metadata is durable, not before \
             ({uncut} → {first_kept})"
        );

        for i in 20..25 {
            c.execute(0, i);
            c.run_until(SimTime::from_secs(3) + SimDuration::from_millis(50 * (i - 19)));
        }
        c.restart(3);
        c.run_until(SimTime::from_secs(30));
        assert_eq!(c.recovered[3].len(), 1, "crash point {after}: recovery");
        c.assert_replicas_agree();
        assert_eq!(
            c.state(3).applied.len(),
            25,
            "crash point {after}: no update lost"
        );
    }
}

/// A sum and a count: application state that stays the same size
/// however long the run, so what grows is the replica's own.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Tally {
    sum: u64,
    count: u64,
}

impl Application for Tally {
    type Action = u64;
    type Reply = usize;
    fn apply(&mut self, action: &u64) -> usize {
        self.sum = self.sum.wrapping_add(*action);
        self.count += 1;
        self.count as usize
    }
    fn snapshot(&self) -> Snapshot {
        Snapshot::exact((self.sum, self.count).to_bytes())
    }
    fn restore(data: &[u8]) -> Result<Self, WireError> {
        let (sum, count) = <(u64, u64)>::from_bytes(data)?;
        Ok(Tally { sum, count })
    }
}

/// What one replica holds at the end of a run: live heap bytes (what
/// dropping its `Middleware` frees), durable bytes on its disk, and
/// records in its consensus log.
#[derive(Debug)]
struct Held {
    heap: usize,
    disk: u64,
    log: usize,
}

/// Runs five replicas through `updates` updates, one every 2 ms, each
/// run of eight from one replica, with checkpoints every 50 applies and
/// 100 slots retained behind them. The coordinator crashes after update
/// 200 and restarts after update 700, so a view change and a recovery
/// both happen. Returns what each replica holds once the run settles,
/// and then the bytes that dropping the `Engine` (its queue, links and
/// disks) frees.
fn held_after(updates: u64, batch_max_updates: usize) -> (Vec<Held>, usize) {
    let config = TreplicaConfig {
        checkpoint_interval: 50,
        retention_slots: 100,
        batch_max_updates,
        batch_window_us: TICK_US,
        ..TreplicaConfig::lan(5)
    };
    let mut c = Cluster::with(Tally::default(), config, 61);
    let start = SimTime::from_secs(1);
    c.run_until(start);
    let coordinator = (0..5)
        .find(|&i| {
            c.nodes[i]
                .as_ref()
                .is_some_and(|mw| mw.status().paxos.leading)
        })
        .expect("a coordinator after the election");
    for i in 0..updates {
        match i {
            200 => c.crash(coordinator),
            700 => c.restart(coordinator),
            _ => {}
        }
        let preferred = (i / 8 % 5) as usize;
        let node = (0..5)
            .map(|k| (preferred + k) % 5)
            .find(|&n| c.nodes[n].as_ref().is_some_and(|mw| !mw.is_recovering()))
            .expect("a live replica");
        c.execute(node, i);
        c.run_until(start + SimDuration::from_millis(2 * (i + 1)));
    }
    c.run_until(start + SimDuration::from_millis(2 * updates + 3_000));
    assert_eq!(
        c.recovered[coordinator].len(),
        1,
        "the coordinator recovered"
    );
    c.assert_replicas_agree();
    assert_eq!(c.state(0).count, updates, "every update applied");
    let replicas = (0..5)
        .map(|i| {
            let store = c.engine.store(NodeId(i));
            let disk = store.bytes();
            let log = store.log(treplica::LOG_NAME).map_or(0, |l| l.len());
            let mw = c.nodes[i].take().expect("live replica");
            let before = LIVE_BYTES.with(Cell::get);
            drop(mw);
            let heap = before.wrapping_sub(LIVE_BYTES.with(Cell::get));
            Held { heap, disk, log }
        })
        .collect();
    let before = LIVE_BYTES.with(Cell::get);
    drop(c.engine);
    (replicas, before.wrapping_sub(LIVE_BYTES.with(Cell::get)))
}

/// Updates in the shorter of the two runs.
const SHORT_RUN: u64 = 4_000;
/// How much more one replica may hold after twice the updates. Each
/// budget is at least twice the largest growth of a correct replica
/// (under 2 kB of heap, 813 disk bytes and 3 log records from 4 000 to
/// 8 000 updates) and at most half of a known leak's smallest growth: a
/// `Vec<u64>` on `paxos::Replica` pushed per message adds 31 kB
/// (batches of eight) to 261 kB (unbatched), a dedup set with an entry
/// per update 23 kB to 196 kB, and a disk log never truncated 500
/// records and 135 kB. The `Engine` grows by its disks' growth (2.2 kB
/// in batches of eight); an event queue that kept each of 2 048 calendar
/// buckets at its peak capacity grew it by 455 kB to 724 kB.
const HEAP_BUDGET: usize = 8_000;
const DISK_BUDGET: u64 = 4_000;
const LOG_BUDGET: usize = 20;
const ENGINE_BUDGET: usize = 8_000;

/// Replica state that grows with the run fails here. The run is done
/// at two lengths, unbatched and in batches of eight, and no replica may
/// hold more at the longer length than a fixed budget above what it
/// held at the shorter, in memory or on disk; nor may the `Engine`.
#[test]
fn replica_state_is_bounded_at_two_run_lengths() {
    for batch in [1, 8] {
        let (short, engine_short) = held_after(SHORT_RUN, batch);
        let (long, engine_long) = held_after(2 * SHORT_RUN, batch);
        assert!(
            engine_long <= engine_short + ENGINE_BUDGET,
            "engine grew: batch {batch}: {engine_short} B at {SHORT_RUN} updates, {engine_long} B at twice that"
        );
        for (i, (a, b)) in short.iter().zip(&long).enumerate() {
            let what = format!(
                "batch {batch}, replica {i}: {a:?} at {SHORT_RUN} updates, {b:?} at twice that"
            );
            assert!(b.heap <= a.heap + HEAP_BUDGET, "heap grew: {what}");
            assert!(b.disk <= a.disk + DISK_BUDGET, "disk grew: {what}");
            assert!(b.log <= a.log + LOG_BUDGET, "log grew: {what}");
        }
    }
}
