//! Whole-experiment orchestration.
//!
//! Builds the paper's experimental setup (Figure 2) on the simulated
//! testbed — server replicas, one reverse proxy, client nodes running
//! RBEs — runs the TPC-W schedule (ramp-up / measurement interval /
//! ramp-down), injects the faultload at its prescribed times with the
//! watchdog re-instantiating crashed servers, and returns the per-second
//! WIPS histogram plus the dependability report.

use faultload::{
    DependabilityReport, Faultload, InjectionLog, LinkFaultSpec, RecoveryKind, RecoverySpan,
    INJECT_CLUSTER, INJECT_CRASH, INJECT_DISK_FAULT, INJECT_NET_FAULT, INJECT_PARTITION,
    INJECT_RECONFIG,
};
use obs::monitor::{Monitor, MonitorConfig, NodeHealth, Scrape};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use simnet::{
    DiskFault, Engine, Event, LinkFault, NodeId, SimConfig, SimDuration, SimTime, TickSchedule,
};
use tpcw::{PopulationParams, Profile, RbeConfig, Recorder, Schedule};
use treplica::TreplicaConfig;

use crate::audit::{AuditReport, InvariantAuditor};
use crate::client::ClientNode;
use crate::msg::ClusterMsg;
use crate::proxy::{ProxyConfig, ProxyNode};
use crate::server::ServerNode;
use crate::service::ServiceModel;

/// Full description of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Number of server replicas (paper: 4–12).
    pub replicas: usize,
    /// Workload profile.
    pub profile: Profile,
    /// Population scale in emulated browsers (30/50/70 → ≈300/500/700
    /// MB states).
    pub ebs: u32,
    /// Item population (paper: 10 000; tests use less).
    pub population_items: u32,
    /// Number of RBEs generating load.
    pub rbes: usize,
    /// Mean think time (paper: reduced to 1 s).
    pub think_us: u64,
    /// Client machines hosting the RBEs (paper: 5).
    pub client_nodes: usize,
    /// Measurement schedule.
    pub schedule: Schedule,
    /// Injected faults.
    pub faultload: Faultload,
    /// Watchdog detection + process boot delay before a crashed server
    /// is re-instantiated.
    pub watchdog_delay_us: u64,
    /// Run seed (drives all randomness).
    pub seed: u64,
    /// CPU service model.
    pub service: ServiceModel,
    /// Disable Fast Paxos (classic-only baseline).
    pub classic_only: bool,
    /// Actions between checkpoints.
    pub checkpoint_interval: u64,
    /// Group commit: max updates coalesced into one consensus decree
    /// (1 = batching off).
    pub batch_max_updates: usize,
    /// Group commit: max µs the first buffered update waits for company
    /// (0 = flush immediately).
    pub batch_window_us: u64,
    /// Structured tracing. Full record capture defaults off; the bounded
    /// flight ring ([`simnet::TraceConfig::flight_records`]) stays on by
    /// default so audit-violation panics always dump recent context.
    pub trace: simnet::TraceConfig,
    /// Online SLO monitoring. Defaults off with the tracer's
    /// zero-overhead guarantee: a disabled monitor schedules no scrape
    /// ticks, so the engine's event stream is byte-identical to an
    /// unmonitored run.
    pub monitor: MonitorConfig,
}

impl ExperimentConfig {
    /// A paper-like configuration: `replicas` servers, shopping profile,
    /// 30 EB population, 1000 RBEs with 1 s think time, full schedule,
    /// no faults.
    pub fn paper(replicas: usize) -> ExperimentConfig {
        ExperimentConfig {
            replicas,
            profile: Profile::Shopping,
            ebs: 30,
            population_items: 10_000,
            rbes: 1_000,
            think_us: 1_000_000,
            client_nodes: 5,
            schedule: Schedule::paper(),
            faultload: Faultload::none(),
            watchdog_delay_us: 3_000_000,
            seed: 42,
            service: ServiceModel::default(),
            classic_only: false,
            checkpoint_interval: 20_000,
            batch_max_updates: 1,
            batch_window_us: 0,
            trace: simnet::TraceConfig::default(),
            monitor: MonitorConfig::default(),
        }
    }

    /// A scaled-down configuration for tests: small population, short
    /// schedule.
    pub fn quick(replicas: usize, profile: Profile) -> ExperimentConfig {
        ExperimentConfig {
            replicas,
            profile,
            ebs: 1,
            population_items: 1_000,
            rbes: 200,
            think_us: 1_000_000,
            client_nodes: 2,
            schedule: Schedule::quick(60),
            faultload: Faultload::none(),
            watchdog_delay_us: 3_000_000,
            seed: 42,
            service: ServiceModel::default(),
            classic_only: false,
            checkpoint_interval: 500,
            batch_max_updates: 1,
            batch_window_us: 0,
            trace: simnet::TraceConfig::default(),
            monitor: MonitorConfig::default(),
        }
    }
}

/// One administrative membership change as executed during a run.
#[derive(Debug, Clone)]
pub struct ReconfigIncident {
    /// When the operator submitted the change (µs).
    pub submitted_at_us: u64,
    /// When a leader accepted the proposal (µs); `None` if no leader
    /// ever took it.
    pub accepted_at_us: Option<u64>,
    /// When the new configuration first took effect at a replica (µs,
    /// observed at the driver's 200 ms polling granularity); `None` if
    /// the run ended first.
    pub completed_at_us: Option<u64>,
    /// The configuration epoch the change creates.
    pub target_epoch: u64,
    /// Concrete node ids joining the ensemble.
    pub add: Vec<usize>,
    /// Concrete node ids leaving the ensemble.
    pub remove: Vec<usize>,
}

/// The observables of one run.
#[derive(Debug)]
pub struct RunReport {
    /// Per-second completions/errors and WIRT samples.
    pub recorder: Recorder,
    /// Observed crash/recovery spans.
    pub spans: Vec<RecoverySpan>,
    /// Administrative membership changes executed during the run.
    pub reconfigs: Vec<ReconfigIncident>,
    /// The paper's dependability measures.
    pub dependability: DependabilityReport,
    /// AWIPS over the whole measurement interval.
    pub awips: f64,
    /// Mean WIRT (ms) over the measurement interval.
    pub mean_wirt_ms: f64,
    /// Schedule used (for downstream window math).
    pub schedule: Schedule,
    /// Middleware status per surviving server at run end.
    pub server_status: Vec<Option<treplica::MwStatus>>,
    /// Total network messages carried during the run.
    pub net_messages: u64,
    /// Total payload bytes carried.
    pub net_bytes: u64,
    /// Total durable disk writes across the server replicas.
    pub disk_writes: u64,
    /// Consensus-log appends across the server replicas (the group
    /// commit's target: one per decree per acceptor, not per update).
    pub disk_appends: u64,
    /// The invariant auditor's verdict (always empty of violations — the
    /// run asserts so before returning).
    pub audit: AuditReport,
    /// Structured trace of the run (empty unless
    /// [`ExperimentConfig::trace`] enabled it), in the engine's
    /// deterministic dispatch order.
    pub trace: Vec<simnet::TraceRecord>,
    /// Per-node metric registries accumulated by the tracer (index =
    /// node id; empty when tracing is off).
    pub metrics: Vec<obs::NodeMetrics>,
    /// Observable events the engine dispatched during the run — the
    /// denominator for events-per-second throughput reporting.
    pub engine_events: u64,
    /// Ground truth: every fault the driver actually applied, stamped
    /// with its true application time (always recorded; the log is
    /// empty on fault-free runs).
    pub injections: InjectionLog,
    /// The online monitor's alert-lifecycle log (empty unless
    /// [`ExperimentConfig::monitor`] enabled it).
    pub alerts: obs::AlertLog,
}

impl RunReport {
    /// The run's injection log as the alert scorer's ground truth: one
    /// entry per operator-visible incident (disk-fault arming excluded —
    /// see [`InjectionLog::incidents`]).
    pub fn ground_truth(&self) -> Vec<obs::GroundTruth> {
        self.injections
            .incidents()
            .map(|i| obs::GroundTruth {
                at_us: i.at_us,
                node: i.node,
                kind: i.kind,
            })
            .collect()
    }
}

#[derive(Debug, Clone)]
enum Admin {
    Crash {
        server: usize,
        span: usize,
    },
    Restart {
        server: usize,
        span: usize,
    },
    Cut {
        minority: Vec<usize>,
    },
    Heal,
    /// Degrade (`Some`) or restore (`None`) every server-to-server link.
    NetFault {
        fault: Option<LinkFault>,
    },
    /// Arm (`Some`) or disarm (`None`) one server's disk fault model.
    DiskFault {
        server: usize,
        fault: Option<DiskFault>,
    },
    /// Submit membership change `incident` at some live replica
    /// (retried at the next poll if no leader accepts it).
    Reconfig {
        incident: usize,
    },
    /// Poll for membership change `incident` taking effect, then
    /// provision its joiners and take its removed nodes out of rotation.
    AwaitEpoch {
        incident: usize,
    },
}

fn link_fault(spec: &LinkFaultSpec) -> LinkFault {
    LinkFault {
        loss: spec.loss,
        duplicate: spec.duplicate,
        reorder: spec.reorder,
        reorder_delay: SimDuration::from_micros(spec.reorder_delay_us),
    }
}

/// Runs one experiment to completion (simulated time).
pub fn run_experiment(config: &ExperimentConfig) -> RunReport {
    let params = PopulationParams {
        items: config.population_items,
        ebs: config.ebs,
        seed: 0x7bc0_57a7e,
    };
    let replicas = config.replicas;
    // Spare node ids follow the initial replicas; they stay unprovisioned
    // (no process, empty disk) until a reconfiguration adds them. With no
    // reconfig events the layout is identical to the pre-reconfig one.
    let spares = config.faultload.spares_needed();
    let server_nodes = replicas + spares;
    let proxy_node = NodeId(server_nodes);
    let first_client = server_nodes + 1;
    let total_nodes = server_nodes + 1 + config.client_nodes;

    let mut engine: Engine<ClusterMsg> =
        Engine::new(total_nodes, SimConfig::default(), config.seed);
    engine.enable_tracing(config.trace);
    // Admin actions (fault injections) have no server of their own; their
    // trace events are stamped against the proxy/admin node.
    let admin_node = proxy_node;
    let mut recorder = Recorder::new(config.schedule.total_us());

    let mut treplica_config = TreplicaConfig {
        checkpoint_interval: config.checkpoint_interval,
        batch_max_updates: config.batch_max_updates,
        batch_window_us: config.batch_window_us,
        trace: config.trace,
        ..TreplicaConfig::lan(replicas)
    };
    if config.classic_only {
        treplica_config.paxos.fast_enabled = false;
    }

    let mut auditor = InvariantAuditor::new(replicas);
    let mut servers: Vec<Option<ServerNode>> = (0..server_nodes)
        .map(|i| {
            if i >= replicas {
                return None; // spare: provisioned by a reconfiguration
            }
            Some(ServerNode::new(
                i,
                params,
                treplica_config.clone(),
                config.service.clone(),
                &mut engine,
                &mut auditor,
            ))
        })
        .collect();

    let mut proxy = ProxyNode::new(
        proxy_node,
        (0..replicas).map(NodeId).collect(),
        ProxyConfig::default(),
        &mut engine,
    );

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

    // Faultload: pick distinct victims pseudo-randomly (paper §5.5:
    // "replicas to be crashed were chosen at random").
    let mut victim_rng = rand::rngs::StdRng::seed_from_u64(config.seed ^ 0xfau64);
    let mut victims: Vec<usize> = (0..replicas).collect();
    victims.shuffle(&mut victim_rng);

    let mut spans: Vec<RecoverySpan> = Vec::new();
    let mut admin: Vec<(u64, Admin)> = Vec::new();
    for event in &config.faultload.events {
        let server = victims[event.victim % victims.len()];
        let span = spans.len();
        spans.push(RecoverySpan {
            server,
            crash_at: event.at_us,
            restart_at: 0,
            recovered_at: None,
            manual: matches!(event.recovery, RecoveryKind::Manual { .. }),
        });
        admin.push((event.at_us, Admin::Crash { server, span }));
        let restart_at = match event.recovery {
            RecoveryKind::Autonomous => Some(event.at_us + config.watchdog_delay_us),
            RecoveryKind::Manual { at_us } => Some(at_us),
            // Permanent hardware loss: only a reconfiguration replacing
            // the machine restores the ensemble's spare capacity.
            RecoveryKind::Never => None,
        };
        if let Some(restart_at) = restart_at {
            admin.push((restart_at, Admin::Restart { server, span }));
        }
    }
    // Membership changes: assign each event its concrete joiner ids (the
    // next free spare slots, in order) and resolve removals through the
    // victim permutation.
    let mut incidents: Vec<ReconfigIncident> = Vec::new();
    let mut next_spare = replicas;
    for rc in &config.faultload.reconfigs {
        let add: Vec<usize> = (0..rc.add_spares)
            .map(|_| {
                let id = next_spare;
                next_spare += 1;
                id
            })
            .collect();
        let remove: Vec<usize> = rc
            .remove
            .iter()
            .map(|v| victims[*v % victims.len()])
            .collect();
        let incident = incidents.len();
        incidents.push(ReconfigIncident {
            submitted_at_us: rc.at_us,
            accepted_at_us: None,
            completed_at_us: None,
            target_epoch: 0,
            add,
            remove,
        });
        admin.push((rc.at_us, Admin::Reconfig { incident }));
    }
    for nf in &config.faultload.net_faults {
        admin.push((
            nf.at_us,
            Admin::NetFault {
                fault: Some(link_fault(&nf.fault)),
            },
        ));
        admin.push((nf.until_us, Admin::NetFault { fault: None }));
    }
    for df in &config.faultload.disk_faults {
        let server = victims[df.victim % victims.len()];
        let fault = DiskFault {
            write_fail_probability: df.write_fail,
            torn_tail_on_crash: df.torn_tail,
        };
        admin.push((
            df.at_us,
            Admin::DiskFault {
                server,
                fault: Some(fault),
            },
        ));
        admin.push((
            df.until_us,
            Admin::DiskFault {
                server,
                fault: None,
            },
        ));
    }
    for partition in &config.faultload.partitions {
        let minority: Vec<usize> = partition
            .minority
            .iter()
            .map(|v| victims[*v % victims.len()])
            .collect();
        admin.push((partition.at_us, Admin::Cut { minority }));
        admin.push((partition.heal_at_us, Admin::Heal));
    }
    admin.sort_by_key(|(t, _)| *t);
    let mut admin_idx = 0usize;
    /// Schedules `action` for `at`, behind every entry not yet run (from
    /// `pending`) that is due at or before `at`.
    fn schedule(admin: &mut Vec<(u64, Admin)>, pending: usize, at: u64, action: Admin) {
        let pos = admin[pending..].partition_point(|(t, _)| *t <= at) + pending;
        admin.insert(pos, (at, action));
    }

    // Ground truth for alert scoring: every fault stamped as applied.
    let mut injections = InjectionLog::default();
    let mut reconfig_recorded = vec![false; incidents.len()];

    // Online monitoring. When disabled nothing is constructed and no
    // tick ever bounds the dispatch loop — literally zero overhead.
    // When enabled, the engine is paused at exact scrape instants while
    // the monitor *reads* cluster state, which leaves the event stream
    // untouched; ticks cover only the measurement interval so ramp-up
    // and ramp-down never feed the rule windows.
    let mut monitor = config
        .monitor
        .enabled
        .then(|| Monitor::new(&config.monitor));
    let mut scrape_ticks = config.monitor.enabled.then(|| {
        TickSchedule::new(
            SimTime::from_micros(config.schedule.measure_start_us()),
            SimDuration::from_micros(config.monitor.scrape_interval_us.max(1)),
            SimTime::from_micros(config.schedule.measure_end_us()),
        )
    });

    let end = SimTime::from_micros(config.schedule.total_us());
    loop {
        let mut limit = match admin.get(admin_idx) {
            Some((t, _)) => end.min(SimTime::from_micros(*t)),
            None => end,
        };
        if let Some(due) = scrape_ticks.as_ref().and_then(TickSchedule::next_due) {
            limit = limit.min(due);
        }
        match engine.next_event_before(limit) {
            Some((_, Event::DiskWriteFailed { node, token })) => {
                // A failed fsync is fail-stop: the replica cannot tell
                // which of its write-ahead obligations reached the platter,
                // so it crashes and the watchdog re-instantiates it (its
                // recovery path re-reads whatever actually survived).
                let server = node.index();
                if server < server_nodes && servers[server].is_some() {
                    auditor.on_disk_write_failed(server, token);
                    auditor.on_crash(server);
                    engine.crash(node);
                    servers[server] = None;
                    let now_us = engine.now().as_micros();
                    // Ground truth: the disk fault *bites* here — the
                    // induced fail-stop crash is the operator-visible
                    // incident, stamped at its true time.
                    injections.record(now_us, server as u32, INJECT_CRASH);
                    let span = spans.len();
                    spans.push(RecoverySpan {
                        server,
                        crash_at: now_us,
                        restart_at: 0,
                        recovered_at: None,
                        manual: false,
                    });
                    let restart_at = now_us + config.watchdog_delay_us;
                    let restart = Admin::Restart { server, span };
                    schedule(&mut admin, admin_idx, restart_at, restart);
                }
            }
            Some((_, event)) => {
                dispatch(
                    event,
                    &mut engine,
                    &mut servers,
                    &mut proxy,
                    &mut clients,
                    &mut recorder,
                    server_nodes,
                    first_client,
                    &mut auditor,
                );
            }
            None => {
                // Clock is at `limit`: scrape, apply due admin actions,
                // or finish. The scrape runs first so that when a tick
                // and a fault injection coincide, the monitor samples
                // the pre-fault state — deterministic either way, but
                // this order keeps detection latency honest.
                if let Some(due) = scrape_ticks.as_ref().and_then(TickSchedule::next_due) {
                    if engine.now() >= due {
                        if let Some(ticks) = scrape_ticks.as_mut() {
                            ticks.advance();
                        }
                        if let Some(mon) = monitor.as_mut() {
                            let sample = scrape_sample(&servers, &proxy, &recorder);
                            let now_us = engine.now().as_micros();
                            for tr in mon.on_scrape(now_us, &sample) {
                                let event = match tr.phase {
                                    obs::AlertPhase::Pending => obs::TraceEvent::AlertPending {
                                        rule: tr.rule,
                                        subject: tr.subject,
                                    },
                                    obs::AlertPhase::Firing => obs::TraceEvent::AlertFiring {
                                        rule: tr.rule,
                                        subject: tr.subject,
                                        pending_us: tr.elapsed_us,
                                    },
                                    obs::AlertPhase::Resolved => obs::TraceEvent::AlertResolved {
                                        rule: tr.rule,
                                        subject: tr.subject,
                                        firing_us: tr.elapsed_us,
                                    },
                                };
                                engine.trace(admin_node, event);
                            }
                        }
                        continue;
                    }
                }
                if let Some((t, action)) = admin.get(admin_idx).cloned() {
                    if engine.now() >= SimTime::from_micros(t) {
                        admin_idx += 1;
                        match action {
                            Admin::Crash { server, span } => {
                                if servers[server].is_some() {
                                    auditor.on_crash(server);
                                    engine.crash(NodeId(server));
                                    servers[server] = None;
                                    spans[span].crash_at = engine.now().as_micros();
                                    injections.record(
                                        spans[span].crash_at,
                                        server as u32,
                                        INJECT_CRASH,
                                    );
                                }
                            }
                            Admin::Restart { server, span } => {
                                if servers[server].is_none() {
                                    engine.restart(NodeId(server));
                                    spans[span].restart_at = engine.now().as_micros();
                                    injections.clear_open(
                                        server as u32,
                                        INJECT_CRASH,
                                        spans[span].restart_at,
                                    );
                                    servers[server] = Some(ServerNode::recover(
                                        server,
                                        params,
                                        treplica_config.clone(),
                                        config.service.clone(),
                                        &mut engine,
                                        &mut auditor,
                                    ));
                                }
                            }
                            Admin::NetFault { fault } => match fault {
                                Some(f) => {
                                    injections.record(
                                        engine.now().as_micros(),
                                        INJECT_CLUSTER,
                                        INJECT_NET_FAULT,
                                    );
                                    engine.trace(
                                        admin_node,
                                        obs::TraceEvent::NetFaultSet {
                                            loss_pct: (f.loss * 100.0) as u64,
                                            dup_pct: (f.duplicate * 100.0) as u64,
                                        },
                                    );
                                    for a in 0..replicas {
                                        for b in (a + 1)..replicas {
                                            engine.network_mut().set_link_fault(
                                                NodeId(a),
                                                NodeId(b),
                                                f,
                                            );
                                        }
                                    }
                                }
                                None => {
                                    injections.clear_open(
                                        INJECT_CLUSTER,
                                        INJECT_NET_FAULT,
                                        engine.now().as_micros(),
                                    );
                                    engine.trace(admin_node, obs::TraceEvent::NetFaultCleared);
                                    engine.network_mut().clear_link_faults();
                                }
                            },
                            Admin::DiskFault { server, fault } => {
                                match &fault {
                                    Some(f) => {
                                        injections.record(
                                            engine.now().as_micros(),
                                            server as u32,
                                            INJECT_DISK_FAULT,
                                        );
                                        engine.trace(
                                            NodeId(server),
                                            obs::TraceEvent::DiskFaultSet {
                                                fail_pct: (f.write_fail_probability * 100.0) as u64,
                                                torn: f.torn_tail_on_crash,
                                            },
                                        );
                                    }
                                    None => {
                                        injections.clear_open(
                                            server as u32,
                                            INJECT_DISK_FAULT,
                                            engine.now().as_micros(),
                                        );
                                        engine.trace(
                                            NodeId(server),
                                            obs::TraceEvent::DiskFaultCleared,
                                        );
                                    }
                                }
                                engine.set_disk_fault(NodeId(server), fault);
                            }
                            Admin::Cut { minority } => {
                                injections.record(
                                    engine.now().as_micros(),
                                    INJECT_CLUSTER,
                                    INJECT_PARTITION,
                                );
                                engine.trace(
                                    admin_node,
                                    obs::TraceEvent::PartitionCut {
                                        peers: minority.len() as u64,
                                    },
                                );
                                let majority: Vec<NodeId> = (0..replicas)
                                    .filter(|i| !minority.contains(i))
                                    .map(NodeId)
                                    .collect();
                                let isolated: Vec<NodeId> =
                                    minority.iter().map(|i| NodeId(*i)).collect();
                                engine.network_mut().partition(&majority, &isolated);
                            }
                            Admin::Heal => {
                                injections.clear_open(
                                    INJECT_CLUSTER,
                                    INJECT_PARTITION,
                                    engine.now().as_micros(),
                                );
                                engine.trace(admin_node, obs::TraceEvent::PartitionHealed);
                                engine.network_mut().heal_all();
                            }
                            Admin::Reconfig { incident } => {
                                // Recorded once per incident at the first
                                // submission attempt, not per retry.
                                if !reconfig_recorded[incident] {
                                    reconfig_recorded[incident] = true;
                                    injections.record(
                                        engine.now().as_micros(),
                                        INJECT_CLUSTER,
                                        INJECT_RECONFIG,
                                    );
                                }
                                let add: Vec<paxos::ReplicaId> = incidents[incident]
                                    .add
                                    .iter()
                                    .map(|i| paxos::ReplicaId(*i as u32))
                                    .collect();
                                let remove: Vec<paxos::ReplicaId> = incidents[incident]
                                    .remove
                                    .iter()
                                    .map(|i| paxos::ReplicaId(*i as u32))
                                    .collect();
                                let mut accepted = false;
                                for server in servers.iter_mut().take(server_nodes) {
                                    let Some(server) = server.as_mut() else {
                                        continue;
                                    };
                                    if server.is_retired() {
                                        continue;
                                    }
                                    let target = server.membership().epoch() + 1;
                                    if server.execute_reconfig(
                                        &mut engine,
                                        add.clone(),
                                        remove.clone(),
                                        &mut auditor,
                                    ) {
                                        incidents[incident].accepted_at_us =
                                            Some(engine.now().as_micros());
                                        incidents[incident].target_epoch = target;
                                        accepted = true;
                                        break;
                                    }
                                }
                                // Poll for completion, or retry the
                                // submission until some leader takes it.
                                let (delay, next) = if accepted {
                                    (200_000, Admin::AwaitEpoch { incident })
                                } else {
                                    (500_000, Admin::Reconfig { incident })
                                };
                                let at = engine.now().as_micros() + delay;
                                schedule(&mut admin, admin_idx, at, next);
                            }
                            Admin::AwaitEpoch { incident } => {
                                let target = incidents[incident].target_epoch;
                                let membership = servers.iter().flatten().find_map(|s| {
                                    (!s.is_retired() && s.membership().epoch() >= target)
                                        .then(|| s.membership().clone())
                                });
                                match membership {
                                    Some(membership) => {
                                        incidents[incident].completed_at_us =
                                            Some(engine.now().as_micros());
                                        injections.clear_open(
                                            INJECT_CLUSTER,
                                            INJECT_RECONFIG,
                                            engine.now().as_micros(),
                                        );
                                        // Provision the joiners under the
                                        // new configuration (it contains
                                        // them) and route around the
                                        // removed nodes right away.
                                        for idx in incidents[incident].add.clone() {
                                            if servers[idx].is_none() {
                                                servers[idx] = Some(ServerNode::join(
                                                    idx,
                                                    params,
                                                    treplica_config.clone(),
                                                    membership.clone(),
                                                    config.service.clone(),
                                                    &mut engine,
                                                    &mut auditor,
                                                ));
                                                proxy.add_server(NodeId(idx));
                                            }
                                        }
                                        for idx in incidents[incident].remove.clone() {
                                            proxy.mark_down(&mut engine, idx);
                                        }
                                    }
                                    None => {
                                        let at = engine.now().as_micros() + 200_000;
                                        let again = Admin::AwaitEpoch { incident };
                                        schedule(&mut admin, admin_idx, at, again);
                                    }
                                }
                            }
                        }
                        continue;
                    }
                }
                if engine.now() >= end {
                    break;
                }
            }
        }
    }

    // Collect recovery completion times.
    for span in &mut spans {
        if let Some(server) = servers[span.server].as_ref() {
            span.recovered_at = server.recovery_completed_at();
        }
    }

    // Flush the clients' trailing partial-second trace samples.
    for client in clients.iter_mut() {
        client.flush_trace(&mut engine);
    }

    let dependability = DependabilityReport::build(
        recorder.wips_series(),
        config.schedule.measure_start_us(),
        config.schedule.measure_end_us(),
        spans.clone(),
        recorder.total_errors(),
        recorder.total_ok() + recorder.total_errors(),
        config.faultload.fault_count(),
        config.faultload.manual_recoveries(),
    );
    let awips = recorder.awips(
        config.schedule.measure_start_us(),
        config.schedule.measure_end_us(),
    );
    let mean_wirt_ms = recorder.mean_wirt(
        config.schedule.measure_start_us(),
        config.schedule.measure_end_us(),
    ) / 1_000.0;
    let server_status = servers
        .iter()
        .map(|s| s.as_ref().map(ServerNode::mw_status))
        .collect();
    let net_messages = engine.network().messages_sent();
    let net_bytes = engine.network().bytes_carried();
    let disk_writes = (0..server_nodes)
        .map(|i| engine.disk(NodeId(i)).writes())
        .sum();
    let disk_appends = (0..server_nodes)
        .map(|i| engine.disk(NodeId(i)).log_appends())
        .sum();
    let trace = engine.tracer_mut().take_records();
    let metrics = engine.tracer().metrics().to_vec();
    let audit = auditor.report();
    if !audit.violations.is_empty() {
        // Dump the flight recorder: a bounded ring of the most recent
        // trace records that runs even when full tracing is off, so a
        // violation always comes with its causal context.
        let context = engine.tracer().flight_jsonl();
        let flight = engine.tracer().flight_records().len();
        panic!(
            "consensus invariants violated (seed {}): {} violation(s), first: {}\n\
             flight recorder ({} records):\n{}",
            config.seed,
            audit.total_violations,
            audit.violations.first().map(String::as_str).unwrap_or(""),
            flight,
            if context.is_empty() {
                "(flight recorder empty — re-run with tracing for context)"
            } else {
                &context
            }
        );
    }

    RunReport {
        recorder,
        spans,
        reconfigs: incidents,
        dependability,
        awips,
        mean_wirt_ms,
        schedule: config.schedule,
        server_status,
        net_messages,
        net_bytes,
        disk_writes,
        disk_appends,
        audit,
        trace,
        metrics,
        engine_events: engine.events_dispatched(),
        injections,
        alerts: monitor.map(Monitor::into_log).unwrap_or_default(),
    }
}

/// Assembles the monitor's out-of-band view of the cluster: cumulative
/// client counters, per-slot process/readiness state, and the proxy's
/// rotation size. Pure reads — scraping cannot perturb the run.
fn scrape_sample(servers: &[Option<ServerNode>], proxy: &ProxyNode, recorder: &Recorder) -> Scrape {
    Scrape {
        ok_total: recorder.total_ok(),
        err_total: recorder.total_errors(),
        nodes: servers
            .iter()
            .map(|slot| match slot.as_ref() {
                // Crashed, or a spare that was never provisioned.
                None => NodeHealth::default(),
                Some(server) => NodeHealth {
                    present: true,
                    ready: server.is_ready(),
                    retired: server.is_retired(),
                },
            })
            .collect(),
        healthy_backends: proxy.healthy_count() as u64,
    }
}

#[allow(clippy::too_many_arguments)]
fn dispatch(
    event: Event<ClusterMsg>,
    engine: &mut Engine<ClusterMsg>,
    servers: &mut [Option<ServerNode>],
    proxy: &mut ProxyNode,
    clients: &mut [ClientNode],
    recorder: &mut Recorder,
    server_nodes: usize,
    first_client: usize,
    auditor: &mut InvariantAuditor,
) {
    match event {
        Event::Message { from, to, payload } => {
            let t = to.index();
            if t < server_nodes {
                if let Some(server) = servers[t].as_mut() {
                    server.on_message(engine, from, payload, auditor);
                }
            } else if t == server_nodes {
                proxy.on_message(engine, from, payload);
            } else {
                clients[t - first_client].on_message(engine, payload, recorder);
            }
        }
        Event::Timer { node, token } => {
            let t = node.index();
            if t < server_nodes {
                if let Some(server) = servers[t].as_mut() {
                    server.on_timer(engine, token, auditor);
                }
            } else if t == server_nodes {
                proxy.on_timer(engine, token);
            } else {
                clients[t - first_client].on_timer(engine, token, recorder);
            }
        }
        Event::DiskWriteDone { node, token } => {
            let t = node.index();
            if t < server_nodes {
                if let Some(server) = servers[t].as_mut() {
                    server.on_disk_write_done(engine, token, auditor);
                }
            }
        }
        Event::DiskReadDone { node, token, value } => {
            let t = node.index();
            if t < server_nodes {
                if let Some(server) = servers[t].as_mut() {
                    server.on_disk_read_done(engine, token, value, auditor);
                }
            }
        }
        // Intercepted by the run loop before dispatch.
        Event::DiskWriteFailed { .. } => {}
    }
}
