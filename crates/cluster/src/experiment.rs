//! Whole-experiment orchestration.
//!
//! Builds the paper's experimental setup (Figure 2) on the simulated
//! testbed — server replicas, one reverse proxy, client nodes running
//! RBEs — runs the TPC-W schedule (ramp-up / measurement interval /
//! ramp-down), injects the faultload at its prescribed times with the
//! watchdog re-instantiating crashed servers, and returns the per-second
//! WIPS histogram plus the dependability report.

use faultload::{performability, DependabilityReport, Faultload, RecoverySpan};
use obs::monitor::{Monitor, MonitorConfig};
use obs::InjectionLog;
use simnet::{Event, NodeId, SimTime};
use tpcw::{Profile, Recorder, Schedule};

use crate::audit::AuditReport;
use crate::plan::Plan;
use crate::server::ServerNode;
use crate::testbed::Testbed;

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
    /// Structured tracing. Full record capture defaults off; the flight
    /// ring of the [`obs::FLIGHT_RECORDS`] newest records is always on, so
    /// audit-violation panics always dump recent context.
    pub trace: simnet::TraceConfig,
    /// Online SLO monitoring. Defaults off (`None`), and off costs
    /// nothing: the plan then holds no scrape, so the engine's event
    /// stream is byte-identical to an unmonitored run.
    pub monitor: Option<MonitorConfig>,
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
            classic_only: false,
            checkpoint_interval: 20_000,
            batch_max_updates: 1,
            batch_window_us: 0,
            trace: simnet::TraceConfig::default(),
            monitor: None,
        }
    }

    /// A scaled-down configuration for tests: small population, short
    /// schedule.
    pub fn quick(replicas: usize, profile: Profile) -> ExperimentConfig {
        ExperimentConfig {
            profile,
            ebs: 1,
            population_items: 1_000,
            rbes: 200,
            client_nodes: 2,
            schedule: Schedule::quick(60),
            checkpoint_interval: 500,
            ..ExperimentConfig::paper(replicas)
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
    /// observed at the operator's polling granularity,
    /// `RECONFIG_POLL_US`); `None` if the run ended first.
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

/// Runs one experiment to completion (simulated time).
pub fn run_experiment(config: &ExperimentConfig) -> RunReport {
    let mut plan = Plan::new(config);
    let mut bed = Testbed::build(config);
    let end = SimTime::from_micros(config.schedule.total_us());
    loop {
        let limit = plan
            .next_due()
            .map_or(end, |due| SimTime::from_micros(due).min(end));
        match bed.engine.next_event_before(limit) {
            Some((_, Event::DiskWriteFailed { node, token })) => {
                bed.disk_write_failed(&mut plan, node, token)
            }
            Some((_, event)) => bed.dispatch(event),
            // Clock is at `limit`: apply a due action, or finish.
            None => {
                let now = bed.engine.now();
                match plan.pop_due(now.as_micros()) {
                    Some(action) => bed.perform(action, &mut plan),
                    None if now >= end => break,
                    None => {}
                }
            }
        }
    }
    report(config, plan, bed)
}

/// Reads the run's measures off the testbed and the filled-in plan.
fn report(config: &ExperimentConfig, mut plan: Plan, mut bed: Testbed) -> RunReport {
    // Incarnations alive at the end: their recovery belongs to the span
    // whose restart started them (the crash path stamped the others).
    for (idx, server) in bed.servers.iter().enumerate() {
        if let (Some(server), Some(span)) = (server, plan.incarnation_span(idx)) {
            span.recovered_at = server.recovery_completed_at();
        }
    }
    // Flush the clients' trailing partial-second trace samples.
    for client in bed.clients.iter_mut() {
        client.flush_trace(&mut bed.engine);
    }

    let measure_start = config.schedule.measure_start_us();
    let measure_end = config.schedule.measure_end_us();
    let dependability = DependabilityReport::build(
        bed.recorder.wips_series(),
        measure_start,
        measure_end,
        &plan.spans,
        bed.recorder.total_errors(),
        bed.recorder.total_ok() + bed.recorder.total_errors(),
        config.faultload.fault_count(),
        config.faultload.manual_recoveries(),
    );
    let disks = || (0..bed.servers.len()).map(|i| bed.engine.disk(NodeId(i)));
    let (disk_writes, disk_appends) = (
        disks().map(|d| d.writes()).sum(),
        disks().map(|d| d.log_appends()).sum(),
    );
    let audit = bed.auditor.report();
    if !audit.violations.is_empty() {
        // Dump the flight recorder: a bounded ring of the most recent
        // trace records that runs even when full tracing is off, so a
        // violation always comes with its causal context.
        let context = bed.engine.tracer().flight_jsonl();
        panic!(
            "consensus invariants violated (seed {}): {} violation(s), first: {}\n\
             flight recorder ({} records):\n{context}",
            config.seed,
            audit.total_violations,
            audit.violations.first().map(String::as_str).unwrap_or(""),
            context.lines().count(),
        );
    }

    RunReport {
        awips: performability(bed.recorder.wips_series(), measure_start, measure_end).awips,
        mean_wirt_ms: bed.recorder.mean_wirt(measure_start, measure_end) / 1_000.0,
        recorder: bed.recorder,
        spans: plan.spans,
        reconfigs: plan.incidents,
        dependability,
        schedule: config.schedule,
        server_status: bed
            .servers
            .iter()
            .map(|s| s.as_ref().map(ServerNode::mw_status))
            .collect(),
        net_messages: bed.engine.network().messages_sent(),
        net_bytes: bed.engine.network().bytes_carried(),
        disk_writes,
        disk_appends,
        audit,
        trace: bed.engine.tracer_mut().take_records(),
        engine_events: bed.engine.events_dispatched(),
        injections: bed.injections,
        alerts: bed.monitor.map(Monitor::into_log).unwrap_or_default(),
    }
}
