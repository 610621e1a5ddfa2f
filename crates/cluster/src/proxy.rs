//! The reverse proxy (HAProxy stand-in).
//!
//! The paper's failover mechanism (§5.1, Figure 2): the proxy actively
//! probes every server with an HTTP check, removes a server from its
//! list after four unsuccessful tries and re-admits it once probes
//! succeed again; requests are balanced with a hash over a stable
//! client identifier; and a server dying mid-request surfaces as a
//! connection error at the client.

use paxos::SeqRing;
use simnet::{Engine, NodeId, SimDuration};

use crate::msg::{split_req_id, ClusterMsg, REQ_SEQ_BITS};

/// Timer token: probe round + timeout sweep.
pub const TOKEN_PROBE: u64 = 0;
/// Timer-token flag marking a connect-retry for request `token &
/// !TOKEN_RETRY_FLAG`.
pub const TOKEN_RETRY_FLAG: u64 = 1 << 63;

// Proxy tuning, HAProxy-like: `inter 2s fall 4 rise 2`.

/// Probe round period.
pub const PROBE_INTERVAL_US: u64 = 2_000_000;
/// Consecutive failed probes before removal (paper: 4).
pub const FALL: u32 = 4;
/// Consecutive successful probes before re-admission.
pub const RISE: u32 = 2;
/// Per-request timeout before the client sees an error.
pub const REQUEST_TIMEOUT_US: u64 = 30_000_000;
/// Redispatch attempts on refused connections (HAProxy `option
/// redispatch` + `retries`): a request hitting a dead or
/// still-booting server is silently retried on another one, so only
/// genuinely interrupted requests surface as client errors.
pub const REDISPATCH_RETRIES: u32 = 3;
/// Delay between connect retries (HAProxy 1.3 waits ~1 s and retries
/// the *same* server before redispatching — this stall is what
/// carves the throughput valley right after a crash, paper §5.4).
pub const RETRY_DELAY_US: u64 = 1_000_000;

#[derive(Debug)]
struct ServerHealth {
    node: NodeId,
    healthy: bool,
    fails: u32,
    rises: u32,
    awaiting: Option<u64>,
}

#[derive(Debug)]
struct InFlight {
    client: NodeId,
    server: usize,
    sent_at: u64,
    request: tpcw::WebRequest,
    excluded: Vec<usize>,
    attempts: u32,
}

/// The requests in flight: one ring per client node, indexed by the
/// node's index, each keyed by the request's number at its node.
#[derive(Debug, Default)]
struct Flights {
    by_client: Vec<SeqRing<InFlight>>,
}

impl Flights {
    /// Stores `flight` under `req_id`; false, and `flight` dropped, if
    /// its client's ring does not admit it.
    fn insert(&mut self, req_id: u64, flight: InFlight) -> bool {
        let (client, seq) = split_req_id(req_id);
        let Ok(client) = usize::try_from(client) else {
            return false;
        };
        if self.by_client.len() <= client {
            self.by_client.resize_with(client + 1, SeqRing::new);
        }
        self.by_client[client].insert(seq, flight).is_ok()
    }

    fn remove(&mut self, req_id: u64) -> Option<InFlight> {
        let (client, seq) = split_req_id(req_id);
        let ring = self.by_client.get_mut(usize::try_from(client).ok()?)?;
        ring.remove(seq)
    }

    /// The ids of the flights `pick` selects, in req-id order: by client
    /// node, then by number — hash-order sweeps would break
    /// bit-identical seeded replays.
    fn ids_where(&self, pick: impl Fn(&InFlight) -> bool) -> Vec<u64> {
        let per_client = self.by_client.iter().enumerate();
        per_client
            .flat_map(|(client, ring)| {
                let client = (client as u64) << REQ_SEQ_BITS;
                ring.iter()
                    .filter(|(_, f)| pick(f))
                    .map(move |(seq, _)| client | seq)
            })
            .collect()
    }
}

/// The proxy node.
#[derive(Debug)]
pub struct ProxyNode {
    node: NodeId,
    servers: Vec<ServerHealth>,
    seq: u64,
    in_flight: Flights,
    errors_emitted: u64,
}

impl ProxyNode {
    /// Creates the proxy balancing across `servers` and arms its probe
    /// timer.
    pub fn new(node: NodeId, servers: Vec<NodeId>, engine: &mut Engine<ClusterMsg>) -> ProxyNode {
        engine.set_timer(
            node,
            SimDuration::from_micros(PROBE_INTERVAL_US),
            TOKEN_PROBE,
        );
        ProxyNode {
            node,
            servers: servers
                .into_iter()
                .map(|node| ServerHealth {
                    node,
                    healthy: true,
                    fails: 0,
                    rises: 0,
                    awaiting: None,
                })
                .collect(),
            seq: 0,
            in_flight: Flights::default(),
            errors_emitted: 0,
        }
    }

    /// Registers a freshly provisioned backend (a node joining via
    /// reconfiguration). It starts out of rotation and is admitted once
    /// `rise` consecutive probes succeed — the same admission path a
    /// recovered server takes. Backends must be added in node-id order:
    /// a server's probe slot is indexed by its id.
    pub fn add_server(&mut self, node: NodeId) {
        debug_assert_eq!(
            self.servers.len(),
            node.index(),
            "backends must be registered in node-id order"
        );
        self.servers.push(ServerHealth {
            node,
            healthy: false,
            fails: 0,
            rises: 0,
            awaiting: None,
        });
    }

    /// Takes a backend out of rotation immediately (a node the
    /// configuration removed): its in-flight requests are failed over
    /// like a detected crash, and probes keep it out for good because a
    /// retired replica answers `ready: false`.
    pub fn mark_down(&mut self, engine: &mut Engine<ClusterMsg>, server: usize) {
        if let Some(s) = self.servers.get_mut(server) {
            if s.healthy {
                s.healthy = false;
                s.rises = 0;
                self.kill_in_flight(engine, server);
            }
        }
    }

    /// Servers currently in rotation.
    pub fn healthy_count(&self) -> usize {
        self.servers.iter().filter(|s| s.healthy).count()
    }

    /// Whether `server` is in rotation.
    pub fn is_healthy(&self, server: usize) -> bool {
        self.servers[server].healthy
    }

    /// Connection errors the proxy has surfaced to clients.
    pub fn errors_emitted(&self) -> u64 {
        self.errors_emitted
    }

    fn fail_probe(&mut self, engine: &mut Engine<ClusterMsg>, server: usize) {
        let s = &mut self.servers[server];
        s.rises = 0;
        s.fails += 1;
        if s.healthy && s.fails >= FALL {
            s.healthy = false;
            self.kill_in_flight(engine, server);
        }
    }

    fn kill_in_flight(&mut self, engine: &mut Engine<ClusterMsg>, server: usize) {
        let dead = self.in_flight.ids_where(|f| f.server == server);
        for req_id in dead {
            let f = self.in_flight.remove(req_id).expect("listed");
            self.refuse(engine, req_id, f.client);
        }
    }

    /// Picks a server for `client_id` among healthy servers, excluding
    /// servers this request already gave up on.
    fn pick_server(&self, client_id: u64, excluded: &[usize]) -> Option<usize> {
        // Counted, then indexed by the same filter: no list is built.
        let usable = || {
            (0..self.servers.len()).filter(|i| self.servers[*i].healthy && !excluded.contains(i))
        };
        let count = usable().count();
        if count == 0 {
            return None;
        }
        // FNV-1a over the stable client id (the paper's hash balancing
        // on unique client identifiers).
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in client_id.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        usable().nth(usize::try_from(h % count as u64).unwrap_or(usize::MAX))
    }

    /// Attempts to deliver a request to its chosen server, emulating
    /// HAProxy 1.3 connect handling: a dead process refuses instantly
    /// (RST); the proxy waits `retry_delay` and retries the *same*
    /// server up to `retries` times, then redispatches to another.
    fn connect(&mut self, engine: &mut Engine<ClusterMsg>, req_id: u64, mut flight: InFlight) {
        let target = self.servers[flight.server].node;
        let up = engine.is_up(target);
        if !up {
            // Connection refused: park and retry the same server after
            // the retry delay, until the retries run out.
            flight.attempts += 1;
            if flight.attempts > REDISPATCH_RETRIES {
                self.redispatch(engine, req_id, flight);
                return;
            }
        }
        let (request, client) = (up.then(|| flight.request.clone()), flight.client);
        if !self.in_flight.insert(req_id, flight) {
            self.refuse(engine, req_id, client);
            return;
        }
        match request {
            Some(request) => {
                engine.send_sized(
                    self.node,
                    target,
                    ClusterMsg::Request { req_id, request },
                    600,
                );
            }
            None => engine.set_timer(
                self.node,
                SimDuration::from_micros(RETRY_DELAY_US),
                TOKEN_RETRY_FLAG | req_id,
            ),
        }
    }

    /// Gives up on the flight's server: connects to another one the
    /// request has not been excluded from, or refuses it when none is
    /// left. `excluded` only ever gains the current server, which was
    /// picked outside it, so each server is excluded at most once.
    fn redispatch(&mut self, engine: &mut Engine<ClusterMsg>, req_id: u64, mut flight: InFlight) {
        flight.excluded.push(flight.server);
        flight.attempts = 0;
        match self.pick_server(flight.request.client_id, &flight.excluded) {
            Some(server) => {
                flight.server = server;
                self.connect(engine, req_id, flight);
            }
            None => self.refuse(engine, req_id, flight.client),
        }
    }

    /// Answers `req_id` with a connection error.
    fn refuse(&mut self, engine: &mut Engine<ClusterMsg>, req_id: u64, client: NodeId) {
        self.errors_emitted += 1;
        engine.send(self.node, client, ClusterMsg::ConnError { req_id });
    }

    /// Handles a timer: settle last round's probes, launch a new round,
    /// sweep request timeouts.
    pub fn on_timer(&mut self, engine: &mut Engine<ClusterMsg>, token: u64) {
        if token & TOKEN_RETRY_FLAG != 0 {
            let req_id = token & !TOKEN_RETRY_FLAG;
            if let Some(flight) = self.in_flight.remove(req_id) {
                self.connect(engine, req_id, flight);
            }
            return;
        }
        if token != TOKEN_PROBE {
            return;
        }
        // The proxy outlives every fault, so it carries the cumulative
        // network counters into the trace; the timeline differences
        // consecutive samples into per-window traffic.
        let messages = engine.network().messages_sent();
        let bytes = engine.network().bytes_carried();
        engine.trace(self.node, obs::TraceEvent::NetSample { messages, bytes });
        // Settle: unanswered probes count as failures.
        for i in 0..self.servers.len() {
            if self.servers[i].awaiting.take().is_some() {
                self.fail_probe(engine, i);
            }
        }
        // Launch a new round.
        for i in 0..self.servers.len() {
            self.seq += 1;
            self.servers[i].awaiting = Some(self.seq);
            let target = self.servers[i].node;
            engine.send(self.node, target, ClusterMsg::Probe { seq: self.seq });
        }
        // Request timeouts.
        let now = engine.now().as_micros();
        let stale = self
            .in_flight
            .ids_where(|f| now.saturating_sub(f.sent_at) > REQUEST_TIMEOUT_US);
        for req_id in stale {
            let f = self.in_flight.remove(req_id).expect("listed");
            self.refuse(engine, req_id, f.client);
        }
        engine.set_timer(
            self.node,
            SimDuration::from_micros(PROBE_INTERVAL_US),
            TOKEN_PROBE,
        );
    }

    /// Handles a message arriving at the proxy.
    pub fn on_message(&mut self, engine: &mut Engine<ClusterMsg>, from: NodeId, msg: ClusterMsg) {
        match msg {
            ClusterMsg::Request { req_id, request } => {
                match self.pick_server(request.client_id, &[]) {
                    Some(server) => {
                        let flight = InFlight {
                            client: from,
                            server,
                            sent_at: engine.now().as_micros(),
                            request,
                            excluded: Vec::new(),
                            attempts: 0,
                        };
                        self.connect(engine, req_id, flight);
                    }
                    None => self.refuse(engine, req_id, from),
                }
            }
            ClusterMsg::Response {
                req_id,
                interaction,
                ok,
                session,
                bytes,
            } => {
                if let Some(f) = self.in_flight.remove(req_id) {
                    engine.send_sized(
                        self.node,
                        f.client,
                        ClusterMsg::Response {
                            req_id,
                            interaction,
                            ok,
                            session,
                            bytes,
                        },
                        bytes,
                    );
                }
            }
            ClusterMsg::ConnError { req_id } => {
                // The server refused the HTTP request (still booting /
                // recovering): redispatch to another server.
                if let Some(flight) = self.in_flight.remove(req_id) {
                    self.redispatch(engine, req_id, flight);
                }
            }
            ClusterMsg::ProbeReply { seq, server, ready } => {
                let s = &mut self.servers[server];
                if s.awaiting == Some(seq) {
                    s.awaiting = None;
                    if ready {
                        s.fails = 0;
                        s.rises += 1;
                        if !s.healthy && s.rises >= RISE {
                            s.healthy = true;
                        }
                    } else {
                        self.fail_probe(engine, server);
                    }
                }
            }
            _ => {}
        }
    }
}
