//! A client node hosting remote browser emulators.
//!
//! The paper's setup (§5.1) dedicates five nodes to RBEs; each node
//! runs an equal share and logs its performance samples. Here one
//! [`ClientNode`] drives its browsers through think-time timers and
//! records completions/errors into the experiment's [`Recorder`].

use paxos::SeqRing;
use simnet::{Engine, NodeId, SimDuration};
use tpcw::{Interaction, Rbe, RbeConfig, Recorder};

use crate::msg::{split_req_id, ClusterMsg, REQ_SEQ_BITS};

/// Timer token for the stale-request sweep (RBE tokens are their
/// indices, which stay far below this).
const TOKEN_SWEEP: u64 = u64::MAX;

/// Client-side request timeout (backstop behind the proxy's own).
const CLIENT_TIMEOUT_US: u64 = 60_000_000;

#[derive(Debug)]
struct Slot {
    rbe: Rbe,
    waiting: Option<(u64, u64, Interaction)>,
}

/// One client machine running a set of RBEs.
#[derive(Debug)]
pub struct ClientNode {
    node: NodeId,
    proxy: NodeId,
    slots: Vec<Slot>,
    /// The browser waiting on each request, keyed by its number here
    /// (`next_seq` when issued). Ordered so the timeout sweep visits
    /// requests in req-id order — hash-order sweeps break bit-identical
    /// seeded replays.
    outstanding: SeqRing<usize>,
    next_seq: u64,
    /// The second the open trace sample covers (tracing only).
    sample_sec: u64,
    /// Interactions completed ok in `sample_sec`.
    sample_ok: u64,
    /// Interactions failed in `sample_sec`.
    sample_err: u64,
}

impl ClientNode {
    /// Creates a client node with `count` browsers and staggers their
    /// first requests across the ramp-up.
    #[expect(
        clippy::too_many_arguments,
        reason = "each argument is one input of the browsers' set-up, and the constructor has one caller"
    )]
    pub fn new(
        node: NodeId,
        proxy: NodeId,
        count: usize,
        first_client_id: u64,
        config: RbeConfig,
        seed: u64,
        ramp_up_us: u64,
        engine: &mut Engine<ClusterMsg>,
    ) -> ClientNode {
        let mut slots = Vec::with_capacity(count);
        for k in 0..count {
            let client_id = first_client_id + k as u64;
            let mut rbe = Rbe::new(client_id, config.clone(), seed);
            // Stagger the first arrival uniformly over the ramp-up plus
            // one think time.
            let stagger = (rbe.think_time_us().wrapping_mul(client_id + 1))
                % ramp_up_us.max(config.think_mean_us);
            engine.set_timer(node, SimDuration::from_micros(stagger), k as u64);
            slots.push(Slot { rbe, waiting: None });
        }
        engine.set_timer(node, SimDuration::from_micros(5_000_000), TOKEN_SWEEP);
        ClientNode {
            node,
            proxy,
            slots,
            outstanding: SeqRing::new(),
            next_seq: 0,
            sample_sec: 0,
            sample_ok: 0,
            sample_err: 0,
        }
    }

    /// Folds one completion into the per-second trace sample, emitting
    /// the previous second's aggregate when `now` crosses into a new
    /// one. Aggregating per second keeps traced runs from carrying one
    /// record per interaction.
    fn trace_completion(&mut self, engine: &mut Engine<ClusterMsg>, now: u64, ok: bool) {
        let sec = now / 1_000_000;
        if sec != self.sample_sec {
            self.emit_sample(engine);
            self.sample_sec = sec;
        }
        if ok {
            self.sample_ok += 1;
        } else {
            self.sample_err += 1;
        }
    }

    /// Emits and resets the open sample, if it holds anything.
    fn emit_sample(&mut self, engine: &mut Engine<ClusterMsg>) {
        if self.sample_ok > 0 || self.sample_err > 0 {
            engine.trace(
                self.node,
                obs::TraceEvent::ClientSample {
                    sec: self.sample_sec,
                    ok: self.sample_ok,
                    err: self.sample_err,
                },
            );
            self.sample_ok = 0;
            self.sample_err = 0;
        }
    }

    /// Flushes the trailing partial-second sample at end of run (the
    /// experiment driver calls this before extracting the trace).
    pub fn flush_trace(&mut self, engine: &mut Engine<ClusterMsg>) {
        self.emit_sample(engine);
    }

    fn issue(&mut self, engine: &mut Engine<ClusterMsg>, idx: usize) {
        let now = engine.now().as_micros();
        let slot = &mut self.slots[idx];
        if slot.waiting.is_some() {
            return; // already in flight (stale timer)
        }
        let request = slot.rbe.next_request();
        self.next_seq += 1;
        let req_id = (self.node.index() as u64) << REQ_SEQ_BITS | self.next_seq;
        if self.outstanding.insert(self.next_seq, idx).is_err() {
            // The sweep keeps the window far below `RING_SPAN`; should
            // it not, the browser drops this request and thinks again.
            self.think_again(engine, idx);
            return;
        }
        self.slots[idx].waiting = Some((req_id, now, request.interaction));
        engine.send_sized(
            self.node,
            self.proxy,
            ClusterMsg::Request { req_id, request },
            500,
        );
    }

    fn think_again(&mut self, engine: &mut Engine<ClusterMsg>, idx: usize) {
        let think = self.slots[idx].rbe.think_time_us();
        engine.set_timer(self.node, SimDuration::from_micros(think), idx as u64);
    }

    /// Handles a timer: an RBE finished thinking, or the sweep fired.
    pub fn on_timer(&mut self, engine: &mut Engine<ClusterMsg>, token: u64, rec: &mut Recorder) {
        if token == TOKEN_SWEEP {
            let now = engine.now().as_micros();
            let stale: Vec<u64> = self
                .outstanding
                .iter()
                .filter(|(_, idx)| {
                    self.slots[**idx]
                        .waiting
                        .map(|(_, sent, _)| now.saturating_sub(sent) > CLIENT_TIMEOUT_US)
                        .unwrap_or(false)
                })
                .map(|(seq, _)| seq)
                .collect();
            for seq in stale {
                if let Some(idx) = self.outstanding.remove(seq) {
                    self.slots[idx].waiting = None;
                    rec.record_error(now);
                    self.trace_completion(engine, now, false);
                    self.think_again(engine, idx);
                }
            }
            engine.set_timer(self.node, SimDuration::from_micros(5_000_000), TOKEN_SWEEP);
            return;
        }
        let idx = usize::try_from(token).unwrap_or(usize::MAX);
        if idx < self.slots.len() {
            self.issue(engine, idx);
        }
    }

    /// Handles a response or error from the proxy.
    pub fn on_message(
        &mut self,
        engine: &mut Engine<ClusterMsg>,
        msg: ClusterMsg,
        rec: &mut Recorder,
    ) {
        let now = engine.now().as_micros();
        match msg {
            ClusterMsg::Response {
                req_id,
                interaction,
                ok,
                session,
                ..
            } => {
                if let Some(idx) = self.take(req_id) {
                    if let Some((_, sent_at, sent_interaction)) = self.slots[idx].waiting.take() {
                        if ok {
                            rec.record_ok(now, now - sent_at, sent_interaction);
                        } else {
                            rec.record_served_error(now);
                        }
                        self.trace_completion(engine, now, ok);
                    }
                    self.slots[idx].rbe.on_response(interaction, session);
                    self.think_again(engine, idx);
                }
            }
            ClusterMsg::ConnError { req_id } => {
                if let Some(idx) = self.take(req_id) {
                    self.slots[idx].waiting = None;
                    rec.record_error(now);
                    self.trace_completion(engine, now, false);
                    self.think_again(engine, idx);
                }
            }
            _ => {}
        }
    }

    /// The browser that waits on `req_id`, no longer outstanding.
    fn take(&mut self, req_id: u64) -> Option<usize> {
        let (node, seq) = split_req_id(req_id);
        if node != self.node.index() as u64 {
            return None;
        }
        self.outstanding.remove(seq)
    }

    /// Number of requests currently awaiting responses.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }
}
