//! The discrete-event engine.
//!
//! [`Engine`] owns the event queue, the network and disk models, node
//! lifecycle state, and the run's seeded random number generator. It does
//! *not* own the protocol actors: a driver (see the `cluster` crate) pops
//! events with [`Engine::next_event_before`] and dispatches them to its
//! own actor structures, passing the engine back in so handlers can send
//! messages, set timers, and issue disk operations.
//!
//! Determinism: all randomness flows through one `StdRng` seeded at
//! construction, and ties in the event queue are broken by a monotonically
//! increasing sequence number, so a run is a pure function of
//! `(seed, configuration, driver logic)`.

use obs::{node_u32, TraceConfig, TraceEvent, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::disk::{DiskConfig, DiskModel, StableOp, StableStore};
use crate::net::{DropReason, NetConfig, Network, Transmission};
use crate::node::{NodeId, NodeState, NodeStatus};
use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// An observable event delivered to the driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<M> {
    /// A network message has arrived at `to`.
    Message {
        /// Sender.
        from: NodeId,
        /// Receiver (up at delivery time).
        to: NodeId,
        /// Payload.
        payload: M,
    },
    /// A timer set by the current incarnation of `node` has fired.
    Timer {
        /// Owner of the timer.
        node: NodeId,
        /// Caller-chosen token identifying the timer.
        token: u64,
    },
    /// A durable write issued by the current incarnation has completed;
    /// its mutation is now visible in the node's [`StableStore`].
    DiskWriteDone {
        /// Owner of the disk.
        node: NodeId,
        /// Caller-chosen token identifying the write.
        token: u64,
        /// For a log append, the op's log name and entry buffer, as the
        /// writer filled them: the log keeps a copy of the bytes, so the
        /// writer may refill these for its next record.
        buffers: Option<(String, Vec<u8>)>,
    },
    /// A bulk disk read has completed.
    DiskReadDone {
        /// Owner of the disk.
        node: NodeId,
        /// Caller-chosen token identifying the read.
        token: u64,
        /// The bytes read (`None` if the key did not exist).
        value: Option<Vec<u8>>,
    },
    /// A durable write issued by the current incarnation has *failed*
    /// (injected media error): nothing reached the platter. Mirrors a
    /// failed `fsync`, after which the write's durability is unknowable;
    /// the only sound driver reaction is to fail-stop the process.
    DiskWriteFailed {
        /// Owner of the disk.
        node: NodeId,
        /// Caller-chosen token identifying the write.
        token: u64,
    },
}

/// Injected disk fault behaviour for one node, set via
/// [`Engine::set_disk_fault`]. Draws come from the engine's seeded RNG,
/// so faulty runs stay deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskFault {
    /// Probability in `[0, 1]` that a durable write fails instead of
    /// completing ([`Event::DiskWriteFailed`] is delivered and nothing
    /// is persisted). A faulty disk also tears its earliest in-flight
    /// log append on a crash: a strict prefix of the entry reaches the
    /// platter instead of the write being wholly lost, and recovery must
    /// detect and discard the tail.
    pub write_fail_probability: f64,
}

#[derive(Debug)]
enum Pending<M> {
    Message {
        from: NodeId,
        to: NodeId,
        payload: M,
        /// Wire size the sender paid for, kept so a delivery-time drop
        /// (destination down) can be traced with the same detail as a
        /// transmit-time drop.
        bytes: u64,
        /// Transmission id stamped at send time; pairs the delivery (or
        /// drop) trace record with its `MsgSent`. Duplicate copies of
        /// one send share the id.
        xid: u64,
    },
    /// Work the running incarnation of `node` scheduled for itself. Only
    /// an up node schedules any, and [`Engine::crash`] purges it, so it
    /// always belongs to the incarnation that is up when it is due.
    Local {
        node: NodeId,
        token: u64,
        work: Work,
    },
}

/// What a node-local `Pending` entry completes as.
#[derive(Debug)]
enum Work {
    Timer,
    /// A durable write, applied to the store at completion.
    Write(StableOp),
    /// A durable write that fails: nothing reaches the platter.
    WriteFailed,
    /// A bulk read of one key.
    Read(String),
    /// A bulk read of bytes with no key: the latency without the data.
    RawRead,
}

/// Everything the engine keeps for one node slot.
#[derive(Debug)]
struct Node {
    state: NodeState,
    disk: DiskModel,
    /// Survives crashes.
    store: StableStore,
    fault: Option<DiskFault>,
}

/// Configuration of a simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    /// Network model parameters.
    pub net: NetConfig,
    /// Disk model parameters (same for every node, like the paper's
    /// homogeneous cluster).
    pub disk: DiskConfig,
}

/// The discrete-event simulation engine.
///
/// ```
/// use simnet::{Engine, Event, SimConfig, SimDuration, SimTime, NodeId};
///
/// let mut engine: Engine<&'static str> = Engine::new(2, SimConfig::default(), 7);
/// engine.send(NodeId(0), NodeId(1), "ping");
/// let (t, ev) = engine.next_event_before(SimTime::from_secs(1)).expect("delivery");
/// assert!(t > SimTime::ZERO);
/// assert!(matches!(ev, Event::Message { payload: "ping", .. }));
/// ```
#[derive(Debug)]
pub struct Engine<M> {
    now: SimTime,
    seq: u64,
    queue: EventQueue<Pending<M>>,
    nodes: Vec<Node>,
    net: Network,
    dispatched: u64,
    /// Next transmission id. Advances on every send attempt, traced or
    /// not, so a run's xids are identical with tracing on or off.
    next_xid: u64,
    rng: StdRng,
    default_msg_bytes: u64,
    tracer: Tracer,
}

impl<M: std::fmt::Debug> Engine<M> {
    /// Creates an engine with `nodes` node slots, all initially up, and a
    /// deterministic RNG seeded with `seed`.
    pub fn new(nodes: usize, config: SimConfig, seed: u64) -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            queue: EventQueue::new(),
            nodes: (0..nodes)
                .map(|_| Node {
                    state: NodeState::default(),
                    disk: DiskModel::new(config.disk.clone()),
                    store: StableStore::new(),
                    fault: None,
                })
                .collect(),
            net: Network::new(config.net),
            dispatched: 0,
            next_xid: 0,
            rng: StdRng::seed_from_u64(seed),
            default_msg_bytes: 512,
            tracer: Tracer::new(TraceConfig::default()),
        }
    }

    /// Switches the full trace on when `config` enables it, before the
    /// run starts; the flight ring, which every engine keeps from
    /// [`Engine::new`], runs either way.
    ///
    /// The engine owns the tracer so records are appended in its
    /// deterministic dispatch order: the trace of a `(seed, config)`
    /// pair is bit-identical across runs.
    pub fn enable_tracing(&mut self, config: TraceConfig) {
        if config.enabled {
            self.tracer = Tracer::new(config);
        }
    }

    /// The run's trace sink.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable access to the trace sink (end-of-run extraction).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Records `event` against `node`, stamped with the current
    /// simulated time.
    #[inline]
    pub fn trace(&mut self, node: NodeId, event: TraceEvent) {
        self.tracer
            .emit(self.now.as_micros(), node_u32(node.index()), event);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The run's random number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// The network model (for partitions and statistics).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Read access to the network model.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Whether `node` is currently up.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.nodes
            .get(node.index())
            .is_some_and(|n| n.state.status == NodeStatus::Up)
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "node ids are the dense slots `Engine::new` made, and a run's topology is fixed"
    )]
    fn node(&self, node: NodeId) -> &Node {
        &self.nodes[node.index()]
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "node ids are the dense slots `Engine::new` made, and a run's topology is fixed"
    )]
    fn node_mut(&mut self, node: NodeId) -> &mut Node {
        &mut self.nodes[node.index()]
    }

    /// Lifecycle record of `node`.
    pub fn node_state(&self, node: NodeId) -> &NodeState {
        &self.node(node).state
    }

    /// Synchronous view of a node's durable storage.
    ///
    /// Reading this does not model latency; use [`Engine::disk_read`] when
    /// the read cost matters (e.g. checkpoint loading during recovery).
    pub fn store(&self, node: NodeId) -> &StableStore {
        &self.node(node).store
    }

    /// The node's disk statistics.
    pub fn disk(&self, node: NodeId) -> &DiskModel {
        &self.node(node).disk
    }

    fn push(&mut self, at: SimTime, pending: Pending<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at.as_micros(), seq, pending);
    }

    /// Sends `payload` from `from` to `to` with the default size hint.
    ///
    /// Silently does nothing if `from` is down (a dead process sends no
    /// messages). The message may be dropped by the network model, or
    /// duplicated when a [`crate::LinkFault`] is installed on the link.
    /// Returns the transmission id stamped on the send's trace records.
    pub fn send(&mut self, from: NodeId, to: NodeId, payload: M) -> u64
    where
        M: Clone,
    {
        self.send_sized(from, to, payload, self.default_msg_bytes)
    }

    /// Sends with an explicit wire size in bytes (drives serialization
    /// latency; large state-transfer messages should use this).
    ///
    /// Returns the transmission id: every call burns a fresh id (even
    /// for a down sender, so ids are trace-independent), and the id
    /// joins the `MsgSent` record with the matching `MsgRecv`,
    /// `MsgDropped` or `MsgDuplicated` records of the same transmission.
    pub fn send_sized(&mut self, from: NodeId, to: NodeId, payload: M, bytes: u64) -> u64
    where
        M: Clone,
    {
        let xid = self.next_xid;
        self.next_xid += 1;
        if !self.is_up(from) {
            return xid;
        }
        self.trace(
            from,
            TraceEvent::MsgSent {
                xid,
                to: node_u32(to.index()),
                bytes,
            },
        );
        match self.net.transmit(&mut self.rng, from, to, bytes) {
            Transmission::Deliver(delay) => {
                let at = self.now + delay;
                self.push(
                    at,
                    Pending::Message {
                        from,
                        to,
                        payload,
                        bytes,
                        xid,
                    },
                );
            }
            Transmission::DeliverDup(first, second) => {
                let at_first = self.now + first;
                let at_second = self.now + second;
                self.push(
                    at_first,
                    Pending::Message {
                        from,
                        to,
                        payload: payload.clone(),
                        bytes,
                        xid,
                    },
                );
                self.push(
                    at_second,
                    Pending::Message {
                        from,
                        to,
                        payload,
                        bytes,
                        xid,
                    },
                );
                self.trace(
                    from,
                    TraceEvent::MsgDuplicated {
                        xid,
                        to: node_u32(to.index()),
                    },
                );
            }
            Transmission::Dropped(reason) => {
                self.trace(
                    from,
                    TraceEvent::MsgDropped {
                        xid,
                        to: node_u32(to.index()),
                        bytes,
                        reason: reason.tag(),
                    },
                );
            }
        }
        xid
    }

    /// Sets a timer for the *current incarnation* of `node`; it fires as
    /// [`Event::Timer`] after `after`, unless the node crashes first. A
    /// down node sets none.
    pub fn set_timer(&mut self, node: NodeId, after: SimDuration, token: u64) {
        if self.is_up(node) {
            self.push_local(after, node, token, Work::Timer);
        }
    }

    /// Queues `work` of `node`, due after `after`.
    fn push_local(&mut self, after: SimDuration, node: NodeId, token: u64, work: Work) {
        let at = self.now + after;
        self.push(at, Pending::Local { node, token, work });
    }

    /// Queues disk work for the running incarnation of `node`: `issue`
    /// charges the operation to the node's disk and returns its latency
    /// and what it completes as. A down process issues nothing.
    fn issue_disk(
        &mut self,
        node: NodeId,
        token: u64,
        issue: impl FnOnce(&mut Node, &mut StdRng) -> (SimDuration, Work),
    ) {
        let Some(n) = self
            .nodes
            .get_mut(node.index())
            .filter(|n| n.state.status == NodeStatus::Up)
        else {
            return;
        };
        let (latency, work) = issue(n, &mut self.rng);
        self.push_local(latency, node, token, work);
    }

    /// Issues a durable write for the current incarnation of `node`.
    ///
    /// The mutation becomes visible in the node's [`StableStore`] at the
    /// completion time, when [`Event::DiskWriteDone`] is delivered. If the
    /// node crashes before completion the write is lost entirely.
    pub fn disk_write(&mut self, node: NodeId, op: StableOp, token: u64) {
        self.issue_disk(node, token, |n, rng| {
            let latency = n.disk.write_latency(&op);
            let fails = n.fault.is_some_and(|f| {
                f.write_fail_probability > 0.0 && rng.gen::<f64>() < f.write_fail_probability
            });
            // A failed write drops the op: it persists nothing.
            let work = if fails {
                Work::WriteFailed
            } else {
                Work::Write(op)
            };
            (latency, work)
        });
    }

    /// Installs (`Some`) or clears (`None`) an injected disk fault
    /// profile on `node`. Takes effect for writes issued afterwards.
    pub fn set_disk_fault(&mut self, node: NodeId, fault: Option<DiskFault>) {
        self.node_mut(node).fault = fault;
    }

    /// Issues a bulk read of `key` from the node's key/value area; the
    /// latency is proportional to the key's modeled size (its nominal
    /// override when set). Completes as [`Event::DiskReadDone`].
    pub fn disk_read(&mut self, node: NodeId, key: &str, token: u64) {
        self.issue_disk(node, token, |n, _| {
            let latency = n.disk.read_latency(n.store.nominal_size(key));
            (latency, Work::Read(key.to_string()))
        });
    }

    /// Issues a raw bulk read of `bytes` from the node's disk with no key
    /// (e.g. replaying a whole log file); completes as
    /// [`Event::DiskReadDone`] with `value: None`.
    pub fn disk_read_raw(&mut self, node: NodeId, bytes: u64, token: u64) {
        self.issue_disk(node, token, |n, _| {
            (n.disk.read_latency(bytes), Work::RawRead)
        });
    }

    /// Durably sets the modeled size of `key` on the node's disk
    /// (latency-free; pair with the write that created the key).
    pub fn set_nominal(&mut self, node: NodeId, key: &str, bytes: u64) {
        self.node_mut(node).store.set_nominal(key, bytes);
    }

    /// Crashes `node`: its volatile state is gone (the driver must drop
    /// its actor), in-flight timers and disk operations are purged from
    /// the event queue, and in-flight messages addressed to it will be
    /// dropped on arrival while it remains down (counted and traced as
    /// `dest_down` drops). Stable storage survives.
    ///
    /// # Panics
    ///
    /// Panics if the node is already down — faultloads are expressed
    /// against live replicas.
    pub fn crash(&mut self, node: NodeId) {
        let Node { state, fault, .. } = self.node_mut(node);
        assert_eq!(state.status, NodeStatus::Up, "crash of a down node {node}");
        state.status = NodeStatus::Down;
        state.crashes += 1;
        let torn = fault.is_some();
        self.trace(node, TraceEvent::Crash);
        if torn {
            self.tear_in_flight_append(node);
        }
        // Purge the dead incarnation's queued work eagerly instead of
        // discarding it lazily at pop time: [`Engine::queued_events`]
        // then reports the live count exactly. In-flight *messages* to
        // the node stay queued — they are genuinely in the network and
        // may still be delivered if the node restarts before they
        // arrive (or dropped as `dest_down` if it does not).
        self.queue
            .retain(|pending| !matches!(pending, Pending::Local { node: n, .. } if *n == node));
    }

    /// Torn-tail injection: the in-flight log append closest to
    /// completion at crash time leaves a strict prefix of its entry on
    /// the platter (a power cut mid-sector). Later in-flight appends are
    /// wholly lost, as usual.
    ///
    /// An entry shorter than 2 bytes has no non-empty strict prefix, so
    /// nothing reaches the platter: the append is wholly lost, exactly
    /// like an untorn crash. The armed fault still *fired*, though, so
    /// the tear is traced with `bytes_kept: 0` — otherwise a 1-byte
    /// append would make the crash invisible in the trace.
    fn tear_in_flight_append(&mut self, node: NodeId) {
        let first = self
            .queue
            .iter()
            .filter_map(|(at, seq, pending)| match pending {
                Pending::Local {
                    node: n,
                    work: Work::Write(StableOp::Append { log, entry }),
                    ..
                } if *n == node => Some(((at, seq), log, entry)),
                _ => None,
            })
            .min_by_key(|(due, ..)| *due);
        let Some((_, log, entry)) = first else {
            return;
        };
        let keep = match entry.len() {
            0 | 1 => 0,
            len => self.rng.gen_range(1..len),
        };
        if keep > 0 {
            let prefix = StableOp::Append {
                log: log.clone(),
                entry: entry.iter().take(keep).copied().collect(),
            };
            self.node_mut(node).store.apply(prefix);
        }
        self.trace(
            node,
            TraceEvent::TornWrite {
                bytes_kept: keep as u64,
            },
        );
    }

    /// Restarts `node` with a fresh incarnation. The driver must construct
    /// a fresh actor that recovers from the node's [`StableStore`].
    ///
    /// # Panics
    ///
    /// Panics if the node is already up.
    pub fn restart(&mut self, node: NodeId) {
        let state = &mut self.node_mut(node).state;
        assert_eq!(
            state.status,
            NodeStatus::Down,
            "restart of an up node {node}"
        );
        state.status = NodeStatus::Up;
        state.incarnation = state.incarnation.next();
        let incarnation = state.incarnation.0;
        self.trace(node, TraceEvent::Restart { incarnation });
    }

    /// Pops the next observable event at or before `limit`.
    ///
    /// Advances the clock to the event's time and returns it. Messages
    /// whose destination is down at delivery time are dropped here —
    /// counted against the network's drop statistics and traced with
    /// reason `dest_down` — and the loop continues to the next entry.
    /// Node-local work always completes: only an up node schedules any,
    /// and a crash purges it. Returns `None` — with the clock advanced to
    /// `limit` — when no event remains before the limit.
    pub fn next_event_before(&mut self, limit: SimTime) -> Option<(SimTime, Event<M>)> {
        loop {
            let Some((at, _seq, pending)) = self.queue.pop_before(limit.as_micros()) else {
                self.now = limit.max(self.now);
                return None;
            };
            self.now = SimTime::from_micros(at);
            match pending {
                Pending::Message {
                    from,
                    to,
                    payload,
                    bytes,
                    xid,
                } => {
                    if self.is_up(to) {
                        self.dispatched += 1;
                        self.trace(
                            to,
                            TraceEvent::MsgRecv {
                                xid,
                                from: node_u32(from.index()),
                                bytes,
                            },
                        );
                        return Some((self.now, Event::Message { from, to, payload }));
                    }
                    // The message reached a dead process: account for it
                    // like any other loss so crash-window drop series
                    // and counters stay truthful.
                    self.net.note_dropped();
                    self.trace(
                        from,
                        TraceEvent::MsgDropped {
                            xid,
                            to: node_u32(to.index()),
                            bytes,
                            reason: DropReason::DestDown.tag(),
                        },
                    );
                }
                Pending::Local { node, token, work } => {
                    self.dispatched += 1;
                    let event = self.complete(node, token, work);
                    return Some((self.now, event));
                }
            }
        }
    }

    /// Completes `work` that the running incarnation of `node` scheduled.
    fn complete(&mut self, node: NodeId, token: u64, work: Work) -> Event<M> {
        match work {
            Work::Timer => Event::Timer { node, token },
            Work::Write(op) => {
                let buffers = self.node_mut(node).store.apply(op);
                Event::DiskWriteDone {
                    node,
                    token,
                    buffers,
                }
            }
            Work::WriteFailed => {
                self.trace(node, TraceEvent::DiskWriteFailed);
                Event::DiskWriteFailed { node, token }
            }
            Work::Read(key) => {
                let value = self.node(node).store.get(&key).map(<[u8]>::to_vec);
                Event::DiskReadDone { node, token, value }
            }
            Work::RawRead => Event::DiskReadDone {
                node,
                token,
                value: None,
            },
        }
    }

    /// Number of *live* events still queued. [`Engine::crash`] purges
    /// the dead incarnation's timers and disk operations eagerly, so
    /// this is exact: in-flight messages (deliverable if their
    /// destination is, or comes back, up) plus live timers and disk
    /// completions. Gauges sampled from this no longer inflate after
    /// crashes.
    pub fn queued_events(&self) -> usize {
        self.queue.len()
    }

    /// Number of observable events dispatched to the driver so far (the
    /// denominator of the engine's events-per-second throughput point).
    pub fn events_dispatched(&self) -> u64 {
        self.dispatched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type E = Engine<u32>;

    fn engine(nodes: usize) -> E {
        Engine::new(nodes, SimConfig::default(), 99)
    }

    /// The traced events `keep` selects, in trace order.
    fn traced(e: &mut Engine<u8>, keep: fn(&TraceEvent) -> bool) -> Vec<TraceEvent> {
        let records = e.tracer_mut().take_records();
        records.into_iter().map(|r| r.event).filter(keep).collect()
    }

    fn drain(e: &mut E, limit: SimTime) -> Vec<(SimTime, Event<u32>)> {
        let mut out = Vec::new();
        while let Some(ev) = e.next_event_before(limit) {
            out.push(ev);
        }
        out
    }

    #[test]
    fn message_delivery_advances_clock() {
        let mut e = engine(2);
        e.send(NodeId(0), NodeId(1), 7);
        let (t, ev) = e.next_event_before(SimTime::from_secs(1)).unwrap();
        assert!(t > SimTime::ZERO);
        assert_eq!(
            ev,
            Event::Message {
                from: NodeId(0),
                to: NodeId(1),
                payload: 7
            }
        );
        assert_eq!(e.now(), t);
    }

    #[test]
    fn no_event_before_limit_advances_to_limit() {
        let mut e = engine(1);
        assert!(e.next_event_before(SimTime::from_secs(5)).is_none());
        assert_eq!(e.now(), SimTime::from_secs(5));
    }

    #[test]
    fn events_pop_in_time_order_with_fifo_ties() {
        let mut e = engine(2);
        e.set_timer(NodeId(0), SimDuration::from_millis(10), 1);
        e.set_timer(NodeId(0), SimDuration::from_millis(5), 2);
        e.set_timer(NodeId(0), SimDuration::from_millis(5), 3);
        let evs = drain(&mut e, SimTime::from_secs(1));
        let tokens: Vec<u64> = evs
            .iter()
            .map(|(_, ev)| match ev {
                Event::Timer { token, .. } => *token,
                _ => panic!("expected timer"),
            })
            .collect();
        assert_eq!(tokens, vec![2, 3, 1]);
    }

    #[test]
    fn crashed_node_receives_nothing() {
        let mut e = engine(2);
        e.send(NodeId(0), NodeId(1), 1);
        e.crash(NodeId(1));
        assert!(drain(&mut e, SimTime::from_secs(1)).is_empty());
    }

    #[test]
    fn crashed_node_sends_nothing() {
        let mut e = engine(2);
        e.crash(NodeId(0));
        e.send(NodeId(0), NodeId(1), 1);
        assert!(drain(&mut e, SimTime::from_secs(1)).is_empty());
    }

    #[test]
    fn message_sent_before_crash_arrives_after_restart() {
        let mut e = engine(2);
        e.send(NodeId(0), NodeId(1), 9);
        e.crash(NodeId(1));
        e.restart(NodeId(1));
        let evs = drain(&mut e, SimTime::from_secs(1));
        assert_eq!(evs.len(), 1, "restarted node should receive the message");
    }

    #[test]
    fn stale_timer_discarded_after_restart() {
        let mut e = engine(1);
        e.set_timer(NodeId(0), SimDuration::from_millis(1), 42);
        e.crash(NodeId(0));
        e.restart(NodeId(0));
        assert!(drain(&mut e, SimTime::from_secs(1)).is_empty());
        // A fresh timer set by the new incarnation does fire.
        e.set_timer(NodeId(0), SimDuration::from_millis(1), 43);
        let evs = drain(&mut e, SimTime::from_secs(2));
        assert_eq!(evs.len(), 1);
    }

    #[test]
    fn down_node_sets_no_timer() {
        let mut e = engine(1);
        e.crash(NodeId(0));
        e.set_timer(NodeId(0), SimDuration::from_millis(1), 42);
        assert_eq!(e.queued_events(), 0, "nothing queued for a down node");
        e.restart(NodeId(0));
        assert!(drain(&mut e, SimTime::from_secs(1)).is_empty());
    }

    #[test]
    fn disk_write_durable_only_at_completion() {
        let mut e = engine(1);
        e.disk_write(
            NodeId(0),
            StableOp::Put {
                key: "k".into(),
                value: b"v".to_vec(),
            },
            5,
        );
        assert_eq!(e.store(NodeId(0)).get("k"), None, "not durable yet");
        let (_, ev) = e.next_event_before(SimTime::from_secs(1)).unwrap();
        assert_eq!(
            ev,
            Event::DiskWriteDone {
                node: NodeId(0),
                token: 5,
                buffers: None,
            }
        );
        assert_eq!(e.store(NodeId(0)).get("k"), Some(&b"v"[..]));
    }

    #[test]
    fn completed_append_hands_its_buffers_back() {
        let mut e = engine(1);
        let entry = b"record".to_vec();
        let at = entry.as_ptr();
        let log = String::from("wal");
        e.disk_write(NodeId(0), StableOp::Append { log, entry }, 6);
        let (_, ev) = e.next_event_before(SimTime::from_secs(1)).unwrap();
        let Event::DiskWriteDone {
            buffers: Some((log, entry)),
            ..
        } = ev
        else {
            panic!("an append completes with its buffers: {ev:?}");
        };
        assert_eq!((log.as_str(), entry.as_slice()), ("wal", &b"record"[..]));
        assert_eq!(entry.as_ptr(), at, "the same block, not a copy");
        let stored = e.store(NodeId(0)).log("wal").unwrap().get(0);
        assert_eq!(stored, Some(&b"record"[..]), "the log keeps its own copy");
    }

    #[test]
    fn in_flight_write_lost_on_crash() {
        let mut e = engine(1);
        e.disk_write(
            NodeId(0),
            StableOp::Put {
                key: "k".into(),
                value: b"v".to_vec(),
            },
            5,
        );
        e.crash(NodeId(0));
        e.restart(NodeId(0));
        assert!(drain(&mut e, SimTime::from_secs(1)).is_empty());
        assert_eq!(e.store(NodeId(0)).get("k"), None, "write must be lost");
    }

    #[test]
    fn stable_store_survives_crash() {
        let mut e = engine(1);
        e.disk_write(
            NodeId(0),
            StableOp::Put {
                key: "k".into(),
                value: b"v".to_vec(),
            },
            1,
        );
        drain(&mut e, SimTime::from_secs(1));
        e.crash(NodeId(0));
        e.restart(NodeId(0));
        assert_eq!(e.store(NodeId(0)).get("k"), Some(&b"v"[..]));
    }

    #[test]
    fn disk_read_latency_proportional_to_size() {
        let mut e = engine(1);
        e.disk_write(
            NodeId(0),
            StableOp::Put {
                key: "big".into(),
                value: vec![0u8; 60_000_000],
            },
            1,
        );
        drain(&mut e, SimTime::from_secs(10));
        let start = e.now();
        e.disk_read(NodeId(0), "big", 2);
        let (t, ev) = e.next_event_before(SimTime::from_secs(100)).unwrap();
        match ev {
            Event::DiskReadDone { value, .. } => {
                assert_eq!(value.unwrap().len(), 60_000_000);
            }
            other => panic!("unexpected {other:?}"),
        }
        // 60 MB at 60 MB/s ~ 1s.
        let elapsed = t.saturating_since(start);
        assert!(
            elapsed >= SimDuration::from_millis(900),
            "elapsed {elapsed}"
        );
    }

    #[test]
    fn disk_read_missing_key_returns_none() {
        let mut e = engine(1);
        e.disk_read(NodeId(0), "absent", 3);
        let (_, ev) = e.next_event_before(SimTime::from_secs(1)).unwrap();
        assert_eq!(
            ev,
            Event::DiskReadDone {
                node: NodeId(0),
                token: 3,
                value: None
            }
        );
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed: u64| {
            let mut e: E = Engine::new(3, SimConfig::default(), seed);
            for (i, msg) in (0..50).zip(0u32..) {
                e.send(NodeId(i % 3), NodeId((i + 1) % 3), msg);
            }
            drain(&mut e, SimTime::from_secs(1))
                .into_iter()
                .map(|(t, _)| t.as_micros())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should jitter differently");
    }

    #[test]
    #[should_panic(expected = "crash of a down node")]
    fn double_crash_panics() {
        let mut e = engine(1);
        e.crash(NodeId(0));
        e.crash(NodeId(0));
    }

    #[test]
    #[should_panic(expected = "restart of an up node")]
    fn restart_of_up_node_panics() {
        let mut e = engine(1);
        e.restart(NodeId(0));
    }

    #[test]
    fn crash_counter_increments() {
        let mut e = engine(1);
        e.crash(NodeId(0));
        e.restart(NodeId(0));
        e.crash(NodeId(0));
        assert_eq!(e.node_state(NodeId(0)).crashes, 2);
    }

    #[test]
    fn raw_read_pays_latency_without_data() {
        let mut e: Engine<u8> = Engine::new(1, SimConfig::default(), 1);
        e.disk_read_raw(NodeId(0), 16_000_000, 9);
        let (t, ev) = e.next_event_before(SimTime::from_secs(10)).unwrap();
        assert_eq!(
            ev,
            Event::DiskReadDone {
                node: NodeId(0),
                token: 9,
                value: None
            }
        );
        // 16 MB at the 8 MB/s restore rate ≈ 2 s.
        assert!(t >= SimTime::from_millis(1_900), "t={t}");
    }

    #[test]
    fn nominal_size_drives_keyed_read_latency() {
        let mut e: Engine<u8> = Engine::new(1, SimConfig::default(), 1);
        e.disk_write(
            NodeId(0),
            StableOp::Put {
                key: "ckpt".into(),
                value: vec![1, 2, 3],
            },
            1,
        );
        while e.next_event_before(SimTime::from_secs(1)).is_some() {}
        e.set_nominal(NodeId(0), "ckpt", 8_000_000);
        let start = e.now();
        e.disk_read(NodeId(0), "ckpt", 2);
        let (t, ev) = e.next_event_before(SimTime::from_secs(10)).unwrap();
        match ev {
            Event::DiskReadDone { value, .. } => {
                assert_eq!(value.unwrap(), vec![1, 2, 3], "real bytes returned");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Latency reflects the 8 MB nominal size (~1 s), not 3 bytes.
        assert!(t.saturating_since(start) >= SimDuration::from_millis(900));
    }

    #[test]
    fn delete_op_removes_key_and_nominal() {
        let mut e: Engine<u8> = Engine::new(1, SimConfig::default(), 1);
        e.disk_write(
            NodeId(0),
            StableOp::Put {
                key: "old".into(),
                value: vec![7],
            },
            1,
        );
        while e.next_event_before(SimTime::from_secs(1)).is_some() {}
        e.set_nominal(NodeId(0), "old", 999);
        e.disk_write(NodeId(0), StableOp::Delete { key: "old".into() }, 2);
        while e.next_event_before(SimTime::from_secs(2)).is_some() {}
        assert_eq!(e.store(NodeId(0)).get("old"), None);
        assert_eq!(e.store(NodeId(0)).nominal_size("old"), 0);
    }

    #[test]
    fn duplicated_message_arrives_twice() {
        let mut e: Engine<u8> = Engine::new(2, SimConfig::default(), 3);
        e.network_mut().set_link_fault(
            NodeId(0),
            NodeId(1),
            crate::LinkFault {
                duplicate: 1.0,
                ..crate::LinkFault::default()
            },
        );
        e.send(NodeId(0), NodeId(1), 7);
        let mut seen = 0;
        while let Some((_, ev)) = e.next_event_before(SimTime::from_secs(1)) {
            assert!(matches!(ev, Event::Message { payload: 7, .. }));
            seen += 1;
        }
        assert_eq!(seen, 2, "one copy plus one duplicate");
    }

    #[test]
    fn failing_write_persists_nothing_and_reports_failure() {
        let mut e: Engine<u8> = Engine::new(1, SimConfig::default(), 4);
        e.enable_tracing(TraceConfig::on());
        e.set_disk_fault(
            NodeId(0),
            Some(DiskFault {
                write_fail_probability: 1.0,
            }),
        );
        e.disk_write(
            NodeId(0),
            StableOp::Put {
                key: "k".into(),
                value: b"v".to_vec(),
            },
            8,
        );
        let (_, ev) = e.next_event_before(SimTime::from_secs(1)).unwrap();
        assert_eq!(
            ev,
            Event::DiskWriteFailed {
                node: NodeId(0),
                token: 8
            }
        );
        assert_eq!(
            e.store(NodeId(0)).get("k"),
            None,
            "failed write persists nothing"
        );
        let failed = traced(&mut e, |ev| matches!(ev, TraceEvent::DiskWriteFailed));
        assert_eq!(failed, [TraceEvent::DiskWriteFailed]);
    }

    #[test]
    fn torn_tail_leaves_strict_prefix_of_in_flight_append() {
        let mut e: Engine<u8> = Engine::new(1, SimConfig::default(), 5);
        e.enable_tracing(TraceConfig::on());
        e.set_disk_fault(
            NodeId(0),
            Some(DiskFault {
                write_fail_probability: 0.0,
            }),
        );
        let entry: Vec<u8> = (0..64).collect();
        e.disk_write(
            NodeId(0),
            StableOp::Append {
                log: "wal".into(),
                entry: entry.clone(),
            },
            1,
        );
        e.crash(NodeId(0));
        e.restart(NodeId(0));
        assert!(e.next_event_before(SimTime::from_secs(1)).is_none());
        let log = e.store(NodeId(0)).log("wal").expect("torn prefix appended");
        let entries: Vec<_> = log.iter().collect();
        assert_eq!(entries.len(), 1);
        let torn = entries[0].1;
        assert!(
            !torn.is_empty() && torn.len() < entry.len(),
            "strict prefix"
        );
        assert_eq!(torn, &entry[..torn.len()]);
        let bytes_kept = torn.len() as u64;
        let tears = traced(&mut e, |ev| matches!(ev, TraceEvent::TornWrite { .. }));
        assert_eq!(tears, [TraceEvent::TornWrite { bytes_kept }]);
    }

    #[test]
    fn torn_tail_without_fault_loses_write_entirely() {
        let mut e: Engine<u8> = Engine::new(1, SimConfig::default(), 5);
        e.disk_write(
            NodeId(0),
            StableOp::Append {
                log: "wal".into(),
                entry: vec![1, 2, 3, 4],
            },
            1,
        );
        e.crash(NodeId(0));
        e.restart(NodeId(0));
        assert!(
            e.store(NodeId(0)).log("wal").is_none(),
            "no torn fault: lost wholly"
        );
    }

    #[test]
    fn crashed_node_ignores_reads_and_raw_reads() {
        let mut e: Engine<u8> = Engine::new(1, SimConfig::default(), 1);
        e.crash(NodeId(0));
        e.disk_read(NodeId(0), "x", 1);
        e.disk_read_raw(NodeId(0), 1_000, 2);
        assert!(e.next_event_before(SimTime::from_secs(5)).is_none());
    }

    // Regression: messages popped for a down destination used to vanish
    // without touching the drop counter or the trace, undercounting
    // losses exactly inside the crash windows the paper measures.
    #[test]
    fn dest_down_drop_counted_and_traced() {
        let mut e = engine(2);
        e.enable_tracing(TraceConfig::on());
        e.send(NodeId(0), NodeId(1), 7);
        e.crash(NodeId(1));
        assert!(drain(&mut e, SimTime::from_secs(1)).is_empty());
        assert_eq!(e.network().messages_dropped(), 1);
        let records = e.tracer_mut().take_records();
        let drop = records
            .iter()
            .find(|r| matches!(r.event, TraceEvent::MsgDropped { .. }))
            .expect("delivery-time drop must be traced");
        assert_eq!(drop.node, 0, "traced against the sender");
        let TraceEvent::MsgDropped { to, reason, .. } = drop.event else {
            panic!("found as a drop above");
        };
        assert_eq!(to, 1);
        assert_eq!(reason, "dest_down");
    }

    // Regression: queued_events used to report the raw heap length,
    // counting dead-incarnation timers and disk ops long after a crash
    // and inflating the once-per-second queue-depth gauges.
    #[test]
    fn queued_events_excludes_dead_incarnation_entries() {
        let mut e = engine(2);
        e.set_timer(NodeId(0), SimDuration::from_millis(1), 1);
        e.set_timer(NodeId(0), SimDuration::from_millis(2), 2);
        e.disk_write(
            NodeId(0),
            StableOp::Put {
                key: "k".into(),
                value: b"v".to_vec(),
            },
            3,
        );
        e.send(NodeId(1), NodeId(0), 4);
        assert_eq!(e.queued_events(), 4);
        e.crash(NodeId(0));
        // The dead incarnation's timers and write are gone; the
        // in-flight message stays (deliverable after a restart).
        assert_eq!(e.queued_events(), 1);
        e.restart(NodeId(0));
        drain(&mut e, SimTime::from_secs(1));
        assert_eq!(e.queued_events(), 0);
    }

    // Regression: a torn-tail crash over a 1-byte append used to skip
    // the injection silently — no counter bump, no trace — because a
    // 1-byte entry has no strict non-empty prefix.
    #[test]
    fn torn_tail_one_byte_append_counted_and_traced() {
        let mut e: Engine<u8> = Engine::new(1, SimConfig::default(), 5);
        e.enable_tracing(TraceConfig::on());
        e.set_disk_fault(
            NodeId(0),
            Some(DiskFault {
                write_fail_probability: 0.0,
            }),
        );
        e.disk_write(
            NodeId(0),
            StableOp::Append {
                log: "wal".into(),
                entry: vec![0xAB],
            },
            1,
        );
        e.crash(NodeId(0));
        e.restart(NodeId(0));
        assert!(e.next_event_before(SimTime::from_secs(1)).is_none());
        assert!(
            e.store(NodeId(0)).log("wal").is_none(),
            "1-byte entry has no strict prefix: nothing lands"
        );
        let tears = traced(&mut e, |ev| matches!(ev, TraceEvent::TornWrite { .. }));
        assert_eq!(
            tears,
            [TraceEvent::TornWrite { bytes_kept: 0 }],
            "still a tear"
        );
    }

    // Crash-heavy stress: after repeated crash/restart churn and a full
    // drain, the live queue length must return exactly to zero — no
    // purged or delivered entry may linger in the queue.
    #[test]
    fn crash_churn_drains_queue_to_zero() {
        let mut e = engine(3);
        for round in 0u8..20 {
            for n in 0..3u8 {
                let node = NodeId(n.into());
                let at = SimDuration::from_millis((1 + n).into());
                e.set_timer(node, at, round.into());
                e.send(node, NodeId(((n + 1) % 3).into()), round.into());
                e.disk_write(
                    node,
                    StableOp::Put {
                        key: format!("k{n}"),
                        value: vec![round],
                    },
                    round.into(),
                );
            }
            let victim = NodeId((round % 3).into());
            e.crash(victim);
            let horizon = e.now() + SimDuration::from_millis(2);
            drain(&mut e, horizon);
            e.restart(victim);
        }
        let end = e.now() + SimDuration::from_secs(10);
        drain(&mut e, end);
        assert_eq!(e.queued_events(), 0, "no entry may survive the drain");
        assert!(e.events_dispatched() > 0);
    }
}
