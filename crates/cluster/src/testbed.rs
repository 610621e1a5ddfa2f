//! The paper's testbed (Figure 2) as one value.
//!
//! Server replicas, the reverse proxy and the client machines on one
//! simulated engine, with the recorder, the invariant auditor and the
//! injection log that watch them. The testbed routes each engine event
//! to the node it is for and applies the operator's [`Action`]s; it has
//! one way to crash a server and one way to write a fault into the
//! ledger and the trace.

use faultload::{
    InjectionLog, INJECT_CLUSTER, INJECT_CRASH, INJECT_DISK_FAULT, INJECT_NET_FAULT,
    INJECT_PARTITION, INJECT_RECONFIG,
};
use obs::{node_u32, TraceEvent};
use paxos::ReplicaId;
use simnet::{Engine, Event, NodeId, SimConfig};
use tpcw::{PopulationParams, RbeConfig, Recorder};
use treplica::TreplicaConfig;

use crate::audit::InvariantAuditor;
use crate::client::ClientNode;
use crate::experiment::ExperimentConfig;
use crate::msg::ClusterMsg;
use crate::plan::{Action, Plan};
use crate::proxy::ProxyNode;
use crate::server::ServerNode;

/// How often the operator polls for a submitted membership change
/// taking effect (µs).
pub(crate) const RECONFIG_POLL_US: u64 = 200_000;
/// How long the operator waits before submitting a membership change
/// again when no leader took it (µs).
pub(crate) const RECONFIG_RETRY_US: u64 = 500_000;

fn replica_ids(nodes: &[usize]) -> Vec<ReplicaId> {
    nodes.iter().map(|&i| ReplicaId(node_u32(i))).collect()
}

/// A fault probability in parts per million, as the trace records it.
/// Rounded, since `0.29 * 100.0` is 28.999…; a probability in `[0, 1]`
/// fits a `u64` many times over.
#[allow(clippy::cast_possible_truncation)]
fn ppm(p: f64) -> u64 {
    (p * 1e6).round() as u64
}

pub(crate) struct Testbed {
    pub engine: Engine<ClusterMsg>,
    /// Indexed by node id. `None` is a crashed server, or a spare no
    /// reconfiguration has provisioned yet (no process, empty disk).
    pub servers: Vec<Option<ServerNode>>,
    pub proxy: ProxyNode,
    pub clients: Vec<ClientNode>,
    pub recorder: Recorder,
    pub auditor: InvariantAuditor,
    /// Ground truth for alert scoring: every fault stamped as applied.
    pub injections: InjectionLog,
    /// The initial ensemble: link faults and partitions span these.
    replicas: usize,
    // What every server incarnation boots with.
    params: PopulationParams,
    treplica: TreplicaConfig,
}

impl Testbed {
    /// Boots the initial replicas, the proxy and the client machines.
    /// Node ids: servers, then one unprovisioned slot per spare the
    /// faultload will add, the proxy, the clients — with no spares the
    /// layout is the fixed-membership one.
    pub fn build(config: &ExperimentConfig) -> Testbed {
        let params = PopulationParams {
            items: config.population_items,
            ebs: config.ebs,
            seed: 0x7bc0_57a7e,
        };
        let replicas = config.replicas;
        let server_nodes = replicas + config.faultload.spares_needed();
        let proxy_node = NodeId(server_nodes);
        let first_client = server_nodes + 1;

        let mut engine: Engine<ClusterMsg> = Engine::new(
            first_client + config.client_nodes,
            SimConfig::default(),
            config.seed,
        );
        engine.enable_tracing(config.trace);

        let mut treplica = TreplicaConfig {
            checkpoint_interval: config.checkpoint_interval,
            batch_max_updates: config.batch_max_updates,
            batch_window_us: config.batch_window_us,
            ..TreplicaConfig::lan(replicas)
        };
        if config.classic_only {
            treplica.paxos.fast_enabled = false;
        }

        let mut auditor = InvariantAuditor::new(replicas);
        let servers = (0..server_nodes)
            .map(|i| {
                (i < replicas).then(|| {
                    ServerNode::new(i, params, treplica.clone(), &mut engine, &mut auditor)
                })
            })
            .collect();
        let proxy = ProxyNode::new(proxy_node, (0..replicas).map(NodeId).collect(), &mut engine);

        let rbe_config = RbeConfig {
            profile: config.profile,
            think_mean_us: config.think_us,
            items: params.items,
            customers: params.customers(),
        };
        let mut clients: Vec<ClientNode> = Vec::new();
        let per_node = config.rbes / config.client_nodes.max(1);
        let mut assigned = 0;
        for c in 0..config.client_nodes {
            let count = if c + 1 == config.client_nodes {
                config.rbes - assigned
            } else {
                per_node
            };
            clients.push(ClientNode::new(
                NodeId(first_client + c),
                proxy_node,
                count,
                assigned as u64,
                rbe_config.clone(),
                config.seed ^ 0xc11e,
                config.schedule.ramp_up_us,
                &mut engine,
            ));
            assigned += count;
        }

        Testbed {
            engine,
            servers,
            proxy,
            clients,
            recorder: Recorder::new(config.schedule.total_us()),
            auditor,
            injections: InjectionLog::default(),
            replicas,
            params,
            treplica,
        }
    }

    pub fn now_us(&self) -> u64 {
        self.engine.now().as_micros()
    }

    /// Hands `event` to the node it is for. A server that is down
    /// receives nothing; disk completions exist only at servers.
    pub fn dispatch(&mut self, event: Event<ClusterMsg>) {
        let node = match &event {
            Event::Message { to: node, .. }
            | Event::Timer { node, .. }
            | Event::DiskWriteDone { node, .. }
            | Event::DiskReadDone { node, .. }
            | Event::DiskWriteFailed { node, .. } => node.index(),
        };
        let (engine, auditor) = (&mut self.engine, &mut self.auditor);
        if let Some(slot) = self.servers.get_mut(node) {
            let Some(server) = slot.as_mut() else { return };
            match event {
                Event::Message { from, payload, .. } => {
                    server.on_message(engine, from, payload, auditor)
                }
                Event::Timer { token, .. } => server.on_timer(engine, token, auditor),
                Event::DiskWriteDone { token, .. } => {
                    server.on_disk_write_done(engine, token, auditor)
                }
                Event::DiskReadDone { token, value, .. } => {
                    server.on_disk_read_done(engine, token, value, auditor)
                }
                // Intercepted by the run loop before dispatch.
                Event::DiskWriteFailed { .. } => {}
            }
        } else if node == self.servers.len() {
            match event {
                Event::Message { from, payload, .. } => {
                    self.proxy.on_message(engine, from, payload)
                }
                Event::Timer { token, .. } => self.proxy.on_timer(engine, token),
                _ => {}
            }
        } else {
            let (client, recorder) = (
                &mut self.clients[node - self.servers.len() - 1],
                &mut self.recorder,
            );
            match event {
                Event::Message { payload, .. } => client.on_message(engine, payload, recorder),
                Event::Timer { token, .. } => client.on_timer(engine, token, recorder),
                _ => {}
            }
        }
    }

    /// A failed fsync is fail-stop: the replica cannot tell which of its
    /// write-ahead obligations reached the platter, so it crashes and
    /// the watchdog re-instantiates it (its recovery path re-reads
    /// whatever actually survived). The disk fault *bites* here — the
    /// induced crash is the operator-visible incident.
    pub fn disk_write_failed(&mut self, plan: &mut Plan, node: NodeId, token: u64) {
        let server = node.index();
        self.auditor.on_disk_write_failed(server, token);
        if let Some(now_us) = self.crash(plan, server) {
            plan.unplanned_crash(server, now_us);
        }
    }

    /// Applies one step of the operator's plan.
    pub fn perform(&mut self, action: Action, plan: &mut Plan) {
        match action {
            Action::Crash { span } => {
                if let Some(now_us) = self.crash(plan, plan.spans[span].server) {
                    plan.spans[span].crash_at = now_us;
                }
            }
            Action::Restart { span } => {
                let server = plan.spans[span].server;
                if self.servers[server].is_none() {
                    self.engine.restart(NodeId(server));
                    plan.spans[span].restart_at = self.now_us();
                    self.servers[server] = Some(ServerNode::recover(
                        server,
                        self.params,
                        self.treplica.clone(),
                        &mut self.engine,
                        &mut self.auditor,
                    ));
                }
            }
            Action::NetFault { fault: Some(f) } => {
                let event = TraceEvent::NetFaultSet {
                    loss_ppm: ppm(f.loss),
                    dup_ppm: ppm(f.duplicate),
                };
                self.inject(INJECT_CLUSTER, INJECT_NET_FAULT, Some(event));
                for a in 0..self.replicas {
                    for b in (a + 1)..self.replicas {
                        let net = self.engine.network_mut();
                        net.set_link_fault(NodeId(a), NodeId(b), f);
                    }
                }
            }
            Action::NetFault { fault: None } => {
                let event = TraceEvent::NetFaultCleared;
                self.lift(INJECT_CLUSTER, event);
                self.engine.network_mut().clear_link_faults();
            }
            Action::DiskFault { server, fault } => {
                match &fault {
                    Some(f) => {
                        let event = TraceEvent::DiskFaultSet {
                            fail_ppm: ppm(f.write_fail_probability),
                            torn: f.torn_tail_on_crash,
                        };
                        self.inject(node_u32(server), INJECT_DISK_FAULT, Some(event));
                    }
                    None => {
                        let event = TraceEvent::DiskFaultCleared;
                        self.lift(node_u32(server), event);
                    }
                }
                self.engine.set_disk_fault(NodeId(server), fault);
            }
            Action::Cut { minority } => {
                let event = TraceEvent::PartitionCut {
                    peers: minority.len() as u64,
                };
                self.inject(INJECT_CLUSTER, INJECT_PARTITION, Some(event));
                let majority: Vec<NodeId> = (0..self.replicas)
                    .filter(|i| !minority.contains(i))
                    .map(NodeId)
                    .collect();
                let isolated: Vec<NodeId> = minority.iter().map(|i| NodeId(*i)).collect();
                self.engine.network_mut().partition(&majority, &isolated);
            }
            Action::Heal => {
                let event = TraceEvent::PartitionHealed;
                self.lift(INJECT_CLUSTER, event);
                self.engine.network_mut().heal_all();
            }
            Action::Reconfig { incident } => {
                self.inject(INJECT_CLUSTER, INJECT_RECONFIG, None);
                self.submit_reconfig(plan, incident);
            }
            Action::RetryReconfig { incident } => self.submit_reconfig(plan, incident),
            Action::AwaitEpoch { incident } => self.await_epoch(plan, incident),
        }
    }

    /// The one way a server goes down, planned or fail-stop: the dying
    /// incarnation's recovery time goes on the span whose restart
    /// started it, and the crash into the injection log at its true
    /// time. Returns that time, or `None` if the server was not up.
    fn crash(&mut self, plan: &mut Plan, server: usize) -> Option<u64> {
        let dying = self.servers[server].take()?;
        self.auditor.on_crash(server);
        self.engine.crash(NodeId(server));
        if let Some(span) = plan.incarnation_span(server) {
            span.recovered_at = dying.recovery_completed_at();
        }
        self.inject(node_u32(server), INJECT_CRASH, None);
        Some(self.now_us())
    }

    /// Writes a fault into the injection log and its event, if the
    /// driver owns one (the engine traces crashes, the middleware
    /// reconfigurations), into the trace — against the afflicted server,
    /// or the proxy/admin node for a cluster-wide fault.
    fn inject(&mut self, node: u32, kind: &'static str, event: Option<TraceEvent>) {
        self.injections.record(self.now_us(), node, kind);
        self.trace_fault(node, event);
    }

    /// Traces the lift of a fault on `node`; the injection log records
    /// only when faults hit.
    fn lift(&mut self, node: u32, event: TraceEvent) {
        self.trace_fault(node, Some(event));
    }

    fn trace_fault(&mut self, node: u32, event: Option<TraceEvent>) {
        let Some(event) = event else { return };
        let node = match node {
            INJECT_CLUSTER => self.servers.len(),
            server => server as usize,
        };
        self.engine.trace(NodeId(node), event);
    }

    /// Submits membership change `incident` at the first live replica
    /// that takes it, then polls for it — or tries again later if no
    /// leader did.
    fn submit_reconfig(&mut self, plan: &mut Plan, incident: usize) {
        let now_us = self.now_us();
        let change = &mut plan.incidents[incident];
        let (add, remove) = (replica_ids(&change.add), replica_ids(&change.remove));
        let mut next = (RECONFIG_RETRY_US, Action::RetryReconfig { incident });
        for server in self.servers.iter_mut().flatten() {
            if server.is_retired() {
                continue;
            }
            let target = server.membership().epoch() + 1;
            let (add, remove) = (add.clone(), remove.clone());
            if server.execute_reconfig(&mut self.engine, add, remove, &mut self.auditor) {
                change.accepted_at_us = Some(now_us);
                change.target_epoch = target;
                next = (RECONFIG_POLL_US, Action::AwaitEpoch { incident });
                break;
            }
        }
        plan.schedule(now_us + next.0, next.1);
    }

    /// Once some replica runs under membership change `incident`'s
    /// epoch: provisions the joiners under the new configuration (it
    /// contains them) and routes around the removed nodes right away.
    /// Until then, polls.
    fn await_epoch(&mut self, plan: &mut Plan, incident: usize) {
        let now_us = self.now_us();
        let change = &mut plan.incidents[incident];
        let membership = self.servers.iter().flatten().find_map(|s| {
            (!s.is_retired() && s.membership().epoch() >= change.target_epoch)
                .then(|| s.membership().clone())
        });
        let Some(membership) = membership else {
            plan.schedule(now_us + RECONFIG_POLL_US, Action::AwaitEpoch { incident });
            return;
        };
        change.completed_at_us = Some(now_us);
        for &idx in &change.add {
            if self.servers[idx].is_none() {
                self.servers[idx] = Some(ServerNode::join(
                    idx,
                    self.params,
                    self.treplica.clone(),
                    membership.clone(),
                    &mut self.engine,
                    &mut self.auditor,
                ));
                self.proxy.add_server(NodeId(idx));
            }
        }
        for &idx in &change.remove {
            self.proxy.mark_down(&mut self.engine, idx);
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn fault_probabilities_trace_in_whole_ppm() {
        let traced = [0.002, 0.29, 0.58, 1.0].map(super::ppm);
        assert_eq!(traced, [2_000, 290_000, 580_000, 1_000_000]);
    }
}
