//! Online SLO monitoring: an in-sim telemetry pipeline.
//!
//! Everything else in `obs` is a post-hoc reducer over a finished
//! trace. This module is the opposite: a [`Monitor`] lives *inside* the
//! run and is fed a [`Scrape`] of the cluster's observable surface
//! (client success/error counters, per-node liveness, the proxy's
//! health view) on a fixed sim-time tick. Each tick it updates rolling
//! windows, evaluates a small declarative rule set — threshold rules
//! plus multi-window burn-rate rules over the availability SLO — and
//! drives each rule's alert lifecycle (pending → firing → resolved),
//! appending every transition to an append-only [`AlertLog`].
//!
//! Because the scrape tick is driven deterministically (the experiment
//! loop pauses the engine at exact simulated instants and only *reads*
//! cluster state), the alert log of a `(seed, config)` pair is
//! byte-identical across runs, and a disabled monitor is exactly
//! zero-overhead: no ticks are scheduled at all.
//!
//! All rule arithmetic is integer fixed-point (parts-per-million rates,
//! thousandths for burn factors): no floats are computed on, so the
//! evaluation path is deterministic by construction
//! (`clippy::float_arithmetic` is on for this module); it is also
//! written panic-free (`obs` denies clippy's panic lints crate-wide).
//!
//! The second half of the module is the *scorer*: it joins fired
//! alerts against the faultload's ground-truth injection log (the
//! driver records the actual microsecond each fault was applied) to
//! measure what an operator would experience — detection latency per
//! incident, missed incidents, false positives on fault-free runs, and
//! time-to-resolve.

#![warn(clippy::float_arithmetic)]

use std::collections::VecDeque;

use crate::metrics::Hist;

/// One million, the fixed-point base for rates (parts per million).
const PPM: u64 = 1_000_000;

/// The SLO error budget the burn-rate rules measure against, in parts
/// per million of interactions: 1 000 ppm is the 99.9 % availability
/// SLO.
const SLO_ERROR_BUDGET_PPM: u64 = 1_000;

/// An alert firing within this long after an injection detects it.
const DETECT_HORIZON_US: u64 = 30_000_000;

/// A firing within this long after *any* injection is attributed to
/// its aftermath rather than counted as a false positive.
const CLEAR_GRACE_US: u64 = 120_000_000;

/// Subject of a cluster-scoped alert (a rule watching an aggregate
/// signal) and node of a cluster-scoped [`crate::Injection`].
pub const SUBJECT_CLUSTER: u32 = u32::MAX;

/// Rule names (the `&'static str` vocabulary carried by alert events).
pub const RULE_REPLICA_DOWN: &str = "replica_down";
/// Short-window error-ratio threshold rule.
pub const RULE_ERROR_RATE: &str = "error_rate";
/// Fast multi-window SLO burn-rate rule (pages quickly).
pub const RULE_FAST_BURN: &str = "slo_fast_burn";
/// Slow multi-window SLO burn-rate rule (catches smoulder).
pub const RULE_SLOW_BURN: &str = "slo_slow_burn";
/// Throughput-collapse rule against a self-learned baseline.
pub const RULE_WIPS_DROP: &str = "wips_drop";

/// The boolean predicate a rule evaluates each tick.
///
/// Rates are integers: error ratios in parts per million, burn factors
/// in thousandths (`14_400` = the classic 14.4× fast-burn factor),
/// fractions in percent. Windows are counted in scrape ticks, so the
/// same rule set sweeps cleanly across scrape intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RuleExpr {
    /// A replica that has been ready at least once is now unscrapeable
    /// or not ready (crashed, or restarted and still recovering).
    /// Evaluated per node; retired replicas leave the watch set.
    ReplicaDown,
    /// The error ratio over the last `window_ticks` exceeds
    /// `threshold_ppm`, given at least `min_samples` completions.
    ErrorRate {
        window_ticks: u32,
        min_samples: u64,
        threshold_ppm: u64,
    },
    /// Multi-window burn rate over the SLO error budget: the error
    /// ratio must exceed `factor_x1000/1000 × budget` over *both* the
    /// short and the long window (the SRE-book construction: the long
    /// window keeps one bad tick from paging, the short window lets the
    /// alert resolve promptly once the error rate recovers).
    BurnRate {
        short_ticks: u32,
        long_ticks: u32,
        factor_x1000: u64,
    },
    /// Successful throughput over the last `window_ticks` fell below
    /// `min_fraction_pct` percent of the baseline, where the baseline
    /// is the largest `baseline_ticks`-window throughput seen so far
    /// (self-learned, so ramp-up never trips it).
    WipsDrop {
        window_ticks: u32,
        baseline_ticks: u32,
        min_fraction_pct: u64,
    },
}

/// One alerting rule: a named predicate plus the lifecycle debounce
/// (how many consecutive breach ticks before firing — 1 = fire on the
/// first breach, no pending phase — and how many clean ticks before
/// resolving).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rule {
    name: &'static str,
    pending_ticks: u32,
    clear_ticks: u32,
    expr: RuleExpr,
}

/// The rule set: per-replica liveness, an error-ratio threshold, fast
/// and slow SLO burn rates, and throughput collapse.
const RULES: [Rule; 5] = [
    Rule {
        name: RULE_REPLICA_DOWN,
        pending_ticks: 2,
        clear_ticks: 3,
        expr: RuleExpr::ReplicaDown,
    },
    Rule {
        name: RULE_ERROR_RATE,
        pending_ticks: 2,
        clear_ticks: 3,
        expr: RuleExpr::ErrorRate {
            window_ticks: 5,
            min_samples: 10,
            threshold_ppm: 100_000, // 10 % of completions failing
        },
    },
    Rule {
        name: RULE_FAST_BURN,
        pending_ticks: 1,
        clear_ticks: 3,
        expr: RuleExpr::BurnRate {
            short_ticks: 5,
            long_ticks: 30,
            factor_x1000: 14_400, // 14.4× budget burn
        },
    },
    Rule {
        name: RULE_SLOW_BURN,
        pending_ticks: 3,
        clear_ticks: 5,
        expr: RuleExpr::BurnRate {
            short_ticks: 30,
            long_ticks: 120,
            factor_x1000: 3_000, // 3× budget burn
        },
    },
    Rule {
        name: RULE_WIPS_DROP,
        pending_ticks: 2,
        clear_ticks: 3,
        expr: RuleExpr::WipsDrop {
            window_ticks: 5,
            baseline_ticks: 30,
            min_fraction_pct: 50,
        },
    },
];

impl Rule {
    /// This rule under `config`'s sensitivity: `pending_ticks`, when
    /// set, replaces the rule's own, and every threshold is multiplied
    /// by `threshold_scale_pct`/100 (100 leaves the table as it is).
    fn tuned(mut self, config: &MonitorConfig) -> Rule {
        let scale = config.threshold_scale_pct;
        if let Some(pending_ticks) = config.pending_ticks {
            self.pending_ticks = pending_ticks.max(1);
        }
        match &mut self.expr {
            RuleExpr::ReplicaDown => {}
            RuleExpr::ErrorRate { threshold_ppm, .. } => {
                *threshold_ppm = (*threshold_ppm * scale / 100).max(1);
            }
            RuleExpr::BurnRate { factor_x1000, .. } => {
                *factor_x1000 = (*factor_x1000 * scale / 100).max(1);
            }
            RuleExpr::WipsDrop {
                min_fraction_pct, ..
            } => {
                // Scale the allowed *drop margin*, not the fraction:
                // halving the margin (scale 50) moves 50 % → 75 %,
                // never to a noise-level threshold near 100 %.
                let margin = (100 - (*min_fraction_pct).min(100)) * scale / 100;
                *min_fraction_pct = 100u64.saturating_sub(margin).clamp(1, 95);
            }
        }
        self
    }
}

/// The monitor's settings, as an experiment config carries them when
/// the run is monitored (an unmonitored run carries none, and the
/// driver then schedules no scrape at all, so the engine's event stream
/// is untouched byte for byte).
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorConfig {
    /// Scrape period in simulated µs (default 1 s).
    pub scrape_interval_us: u64,
    /// Consecutive breach ticks every rule fires after; `None` (the
    /// default) keeps each rule's own 1–3.
    pub pending_ticks: Option<u32>,
    /// Every rule threshold is scaled by this percentage (default 100;
    /// 50 = twice as sensitive, 200 = half).
    pub threshold_scale_pct: u64,
}

impl Default for MonitorConfig {
    fn default() -> MonitorConfig {
        MonitorConfig {
            scrape_interval_us: 1_000_000,
            pending_ticks: None,
            threshold_scale_pct: 100,
        }
    }
}

impl MonitorConfig {
    /// Rescales rule sensitivity: every rule fires after
    /// `pending_ticks` and every threshold is scaled by
    /// `threshold_scale_pct`. This is the knob `exp_monitor` sweeps.
    pub fn with_sensitivity(self, pending_ticks: u32, threshold_scale_pct: u64) -> Self {
        MonitorConfig {
            pending_ticks: Some(pending_ticks),
            threshold_scale_pct,
            ..self
        }
    }
}

/// One node's health as seen by the scrape (out-of-band management
/// view: the driver reads the process table directly, so a network
/// partition does not hide a node from the monitor — only a crash or
/// an in-progress recovery does).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeHealth {
    /// The process exists (not crashed / not an unprovisioned spare).
    pub present: bool,
    /// The replica answers its readiness probe (recovered, serving).
    pub ready: bool,
    /// A membership change removed the replica; it leaves the watch
    /// set instead of alerting forever.
    pub retired: bool,
}

/// One scrape of the cluster's observable surface, taken at a tick.
/// Counters are cumulative (Prometheus-style); the monitor differences
/// them itself, so a scrape is cheap to assemble and stateless.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    /// Cumulative successful client interactions.
    pub ok_total: u64,
    /// Cumulative failed client interactions.
    pub err_total: u64,
    /// Per-server-slot health, indexed by node id.
    pub nodes: Vec<NodeHealth>,
}

/// Alert lifecycle phase of one transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertPhase {
    /// The rule breached but has not debounced yet.
    Pending,
    /// The alert is live (an operator would be paged).
    Firing,
    /// A firing alert's condition stayed clean long enough.
    Resolved,
}

impl AlertPhase {
    /// Canonical lowercase tag (used in the log's canonical rendering).
    pub fn tag(&self) -> &'static str {
        match self {
            AlertPhase::Pending => "pending",
            AlertPhase::Firing => "firing",
            AlertPhase::Resolved => "resolved",
        }
    }
}

/// One alert lifecycle transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlertTransition {
    /// Scrape-tick time of the transition, µs.
    pub t_us: u64,
    /// The rule that transitioned.
    pub rule: &'static str,
    /// Node the alert is about, or [`SUBJECT_CLUSTER`].
    pub subject: u32,
    /// The phase entered.
    pub phase: AlertPhase,
    /// Phase dwell time: 0 for pending, time spent pending for firing,
    /// time spent firing for resolved.
    pub elapsed_us: u64,
}

/// The monitor's append-only output: every lifecycle transition, in
/// tick order. Deterministic runs produce byte-identical logs (see
/// [`AlertLog::to_lines`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AlertLog {
    /// The transitions, in emission order.
    pub entries: Vec<AlertTransition>,
}

impl AlertLog {
    /// Count of firing transitions (alerts that actually paged).
    pub fn firings(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.phase == AlertPhase::Firing)
            .count()
    }

    /// Canonical one-line-per-transition rendering; same-seed runs
    /// produce byte-identical output.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!(
                "{{\"t\":{},\"rule\":\"{}\",\"subject\":{},\"phase\":\"{}\",\"elapsed_us\":{}}}\n",
                e.t_us,
                e.rule,
                e.subject,
                e.phase.tag(),
                e.elapsed_us
            ));
        }
        out
    }
}

/// Per-(rule, subject) lifecycle state machine.
#[derive(Debug, Clone, Copy, Default)]
struct AlertState {
    phase: Phase,
    /// Consecutive breach ticks (pending debounce).
    breach_streak: u32,
    /// Consecutive clean ticks while firing (resolve debounce).
    clean_streak: u32,
    /// When the current pending phase began, µs.
    pending_since: u64,
    /// When the current firing phase began, µs.
    firing_since: u64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Phase {
    #[default]
    Idle,
    Pending,
    Firing,
}

/// Per-rule runtime: the lifecycle states (one per subject; cluster
/// rules use a single slot) plus the rule's learned baseline.
#[derive(Debug, Clone)]
struct RuleRt {
    states: Vec<AlertState>,
    /// For [`RuleExpr::WipsDrop`]: the largest baseline-window ok-count
    /// observed so far (fixed window length, so sums compare directly).
    baseline_ok: u64,
}

/// The in-sim monitor. Feed it one [`Scrape`] per tick via
/// [`Monitor::on_scrape`]; collect the [`AlertLog`] at run end.
#[derive(Debug)]
pub struct Monitor {
    /// [`RULES`] under the config's sensitivity.
    rules: [Rule; 5],
    rt: [RuleRt; 5],
    /// Rolling per-tick (ok, err) deltas, newest last.
    window: VecDeque<(u64, u64)>,
    /// Longest window any rule needs.
    window_cap: usize,
    /// Previous cumulative counters (None before the first scrape; the
    /// first scrape only seeds the difference base).
    prev_totals: Option<(u64, u64)>,
    /// Nodes that have answered ready at least once (spares that never
    /// joined are not watched).
    ever_ready: Vec<bool>,
    log: AlertLog,
}

impl Monitor {
    /// A monitor evaluating the rule set under `config`'s sensitivity
    /// over `nodes` server slots, the length of every [`Scrape::nodes`]
    /// it will be fed. Its state is sized here, once.
    pub fn new(config: &MonitorConfig, nodes: usize) -> Monitor {
        let window_cap = RULES
            .iter()
            .map(|r| match r.expr {
                RuleExpr::ReplicaDown => 0,
                RuleExpr::ErrorRate { window_ticks, .. } => window_ticks,
                RuleExpr::BurnRate {
                    short_ticks,
                    long_ticks,
                    ..
                } => short_ticks.max(long_ticks),
                RuleExpr::WipsDrop {
                    window_ticks,
                    baseline_ticks,
                    ..
                } => window_ticks.max(baseline_ticks),
            })
            .max()
            .unwrap_or(0) as usize;
        Monitor {
            rules: RULES.map(|rule| rule.tuned(config)),
            // One lifecycle cell per node for `replica_down`, one for
            // each cluster-scoped rule.
            rt: RULES.map(|rule| RuleRt {
                states: match rule.expr {
                    RuleExpr::ReplicaDown => vec![AlertState::default(); nodes],
                    _ => vec![AlertState::default()],
                },
                baseline_ok: 0,
            }),
            window: VecDeque::with_capacity(window_cap),
            window_cap: window_cap.max(1),
            prev_totals: None,
            ever_ready: vec![false; nodes],
            log: AlertLog::default(),
        }
    }

    /// Processes one scrape tick: updates the rolling windows,
    /// evaluates every rule, advances lifecycles, and returns the
    /// transitions emitted this tick (a suffix of the log).
    pub fn on_scrape(&mut self, t_us: u64, scrape: &Scrape) -> &[AlertTransition] {
        let emitted_from = self.log.entries.len();

        // Difference the cumulative interaction counters. The first
        // scrape only seeds the base, so pre-window traffic (ramp-up)
        // never lands in tick 0.
        if let Some((prev_ok, prev_err)) = self.prev_totals {
            let d_ok = scrape.ok_total.saturating_sub(prev_ok);
            let d_err = scrape.err_total.saturating_sub(prev_err);
            if self.window.len() == self.window_cap {
                self.window.pop_front();
            }
            self.window.push_back((d_ok, d_err));
        }
        self.prev_totals = Some((scrape.ok_total, scrape.err_total));

        // Maintain the liveness watch set.
        for (latch, health) in self.ever_ready.iter_mut().zip(&scrape.nodes) {
            if health.retired {
                *latch = false; // deliberately decommissioned: stop watching
            } else if health.present && health.ready {
                *latch = true;
            }
        }

        for (rule_idx, rule) in self.rules.iter().enumerate() {
            let Some(rt) = self.rt.get_mut(rule_idx) else {
                continue;
            };
            match rule.expr {
                RuleExpr::ReplicaDown => {
                    for (node, health) in scrape.nodes.iter().enumerate() {
                        let watched = self.ever_ready.get(node).copied().unwrap_or(false);
                        let breach = watched && !(health.present && health.ready);
                        if let Some(state) = rt.states.get_mut(node) {
                            step(state, breach, t_us, rule, node as u32, &mut self.log);
                        }
                    }
                }
                RuleExpr::ErrorRate {
                    window_ticks,
                    min_samples,
                    threshold_ppm,
                } => {
                    let (ok, err) = window_sums(&self.window, window_ticks);
                    let total = ok + err;
                    let breach = total >= min_samples.max(1)
                        && err.saturating_mul(PPM) > threshold_ppm.saturating_mul(total);
                    step_single(rt, breach, t_us, rule, &mut self.log);
                }
                RuleExpr::BurnRate {
                    short_ticks,
                    long_ticks,
                    factor_x1000,
                } => {
                    // burn = error_ratio / budget; breach when burn
                    // exceeds factor over both windows. Integer form:
                    // err × 1e6 × 1000 > factor_x1000 × budget × total.
                    let over = |ticks: u32| {
                        let (ok, err) = window_sums(&self.window, ticks);
                        let total = ok + err;
                        total > 0
                            && err.saturating_mul(PPM).saturating_mul(1_000)
                                > factor_x1000
                                    .saturating_mul(SLO_ERROR_BUDGET_PPM)
                                    .saturating_mul(total)
                    };
                    let breach = over(short_ticks) && over(long_ticks);
                    step_single(rt, breach, t_us, rule, &mut self.log);
                }
                RuleExpr::WipsDrop {
                    window_ticks,
                    baseline_ticks,
                    min_fraction_pct,
                } => {
                    // Learn the baseline: the best baseline-window
                    // ok-count seen so far. Only full windows count, so
                    // the monitor never compares against a stub.
                    if self.window.len() >= baseline_ticks as usize {
                        let (ok, _) = window_sums(&self.window, baseline_ticks);
                        rt.baseline_ok = rt.baseline_ok.max(ok);
                    }
                    let mut breach = false;
                    if rt.baseline_ok > 0 && self.window.len() >= baseline_ticks as usize {
                        let (short_ok, _) = window_sums(&self.window, window_ticks);
                        // Compare rates: short/window < pct% × base/baseline.
                        breach = short_ok
                            .saturating_mul(baseline_ticks as u64)
                            .saturating_mul(100)
                            < min_fraction_pct
                                .saturating_mul(rt.baseline_ok)
                                .saturating_mul(window_ticks as u64);
                    }
                    step_single(rt, breach, t_us, rule, &mut self.log);
                }
            }
        }
        self.log.entries.get(emitted_from..).unwrap_or(&[])
    }

    /// The transitions emitted so far.
    pub fn log(&self) -> &AlertLog {
        &self.log
    }

    /// Consumes the monitor, yielding its alert log (end of run).
    pub fn into_log(self) -> AlertLog {
        self.log
    }
}

/// Sums the newest `ticks` window entries: `(ok, err)`.
fn window_sums(window: &VecDeque<(u64, u64)>, ticks: u32) -> (u64, u64) {
    let skip = window.len().saturating_sub(ticks as usize);
    let mut ok = 0u64;
    let mut err = 0u64;
    for (o, e) in window.iter().skip(skip) {
        ok = ok.saturating_add(*o);
        err = err.saturating_add(*e);
    }
    (ok, err)
}

/// Advances a cluster-scoped rule's single lifecycle slot.
fn step_single(rt: &mut RuleRt, breach: bool, t_us: u64, rule: &Rule, log: &mut AlertLog) {
    if let Some(state) = rt.states.first_mut() {
        step(state, breach, t_us, rule, SUBJECT_CLUSTER, log);
    }
}

/// The lifecycle state machine: Idle → Pending → Firing → Idle.
fn step(
    state: &mut AlertState,
    breach: bool,
    t_us: u64,
    rule: &Rule,
    subject: u32,
    log: &mut AlertLog,
) {
    let mut emit = |phase, elapsed_us| {
        log.entries.push(AlertTransition {
            t_us,
            rule: rule.name,
            subject,
            phase,
            elapsed_us,
        });
    };
    match state.phase {
        Phase::Idle | Phase::Pending if breach => {
            if state.phase == Phase::Idle {
                state.phase = Phase::Pending;
                state.breach_streak = 0;
                state.pending_since = t_us;
            }
            state.breach_streak = state.breach_streak.saturating_add(1);
            if state.breach_streak >= rule.pending_ticks {
                state.phase = Phase::Firing;
                state.firing_since = t_us;
                state.clean_streak = 0;
                emit(AlertPhase::Firing, t_us.saturating_sub(state.pending_since));
            } else if state.breach_streak == 1 {
                // Entered on this tick and not yet debounced.
                emit(AlertPhase::Pending, 0);
            }
        }
        Phase::Idle => {}
        Phase::Pending => {
            // The breach cleared before debounce: drop back to idle
            // silently (the pending event already marks the blip).
            state.phase = Phase::Idle;
            state.breach_streak = 0;
        }
        Phase::Firing => {
            if breach {
                state.clean_streak = 0;
            } else {
                state.clean_streak = state.clean_streak.saturating_add(1);
                if state.clean_streak >= rule.clear_ticks.max(1) {
                    state.phase = Phase::Idle;
                    state.breach_streak = 0;
                    emit(
                        AlertPhase::Resolved,
                        t_us.saturating_sub(state.firing_since),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Alert-quality scoring against ground truth.

/// One incident's alert-quality verdict.
#[derive(Debug, Clone)]
pub struct IncidentScore {
    /// Ground-truth injection time, µs.
    pub at_us: u64,
    /// Victim node (or [`SUBJECT_CLUSTER`]).
    pub node: u32,
    /// Injection kind.
    pub kind: &'static str,
    /// The rule whose firing detected the incident, if any did.
    pub rule: Option<&'static str>,
    /// Injection → first matching alert firing, µs.
    pub detection_latency_us: Option<u64>,
    /// Injection → that alert's resolve transition, µs.
    pub resolve_latency_us: Option<u64>,
}

/// Alert quality over one run: per-incident verdicts plus run-wide
/// false-positive accounting.
#[derive(Debug, Clone, Default)]
pub struct AlertScore {
    /// Per-injection verdicts, in injection order.
    pub incidents: Vec<IncidentScore>,
    /// Total firing transitions in the log.
    pub firings: u64,
    /// Firings with no injection anywhere in the preceding grace
    /// window (on a fault-free run: every firing).
    pub false_positives: u64,
    /// Distribution of the measured detection latencies.
    pub detection_latency: Hist,
}

impl AlertScore {
    /// Incidents an alert fired for.
    pub fn detected(&self) -> usize {
        self.incidents
            .iter()
            .filter(|i| i.detection_latency_us.is_some())
            .count()
    }

    /// Incidents no alert fired for inside the horizon.
    pub fn missed(&self) -> usize {
        self.incidents.len() - self.detected()
    }
}

/// Joins fired alerts against the ground-truth injection log's
/// [`crate::InjectionLog::incidents`].
///
/// Each firing detects at most one injection; injections claim firings
/// in time order, preferring a firing whose subject matches the victim
/// node before settling for any unclaimed firing in the horizon.
#[expect(
    clippy::indexing_slicing,
    reason = "`slot` enumerates `firings`, as `claimed` does, and `log_idx` enumerates `log.entries`"
)]
pub fn score_alerts(log: &AlertLog, truth: &crate::InjectionLog) -> AlertScore {
    let firings: Vec<(usize, &AlertTransition)> = log
        .entries
        .iter()
        .enumerate()
        .filter(|(_, e)| e.phase == AlertPhase::Firing)
        .collect();
    let mut claimed = vec![false; firings.len()];
    let mut score = AlertScore {
        firings: firings.len() as u64,
        ..AlertScore::default()
    };

    let mut injections: Vec<&crate::Injection> = truth.incidents().collect();
    injections.sort_by_key(|i| i.at_us);
    for inj in &injections {
        let in_horizon =
            |e: &AlertTransition| e.t_us >= inj.at_us && e.t_us - inj.at_us <= DETECT_HORIZON_US;
        // Pass 1: a firing about the victim itself. Pass 2: any firing.
        let mut chosen: Option<usize> = None;
        for (slot, (_, e)) in firings.iter().enumerate() {
            if !claimed[slot] && in_horizon(e) && e.subject == inj.node {
                chosen = Some(slot);
                break;
            }
        }
        if chosen.is_none() {
            for (slot, (_, e)) in firings.iter().enumerate() {
                if !claimed[slot] && in_horizon(e) {
                    chosen = Some(slot);
                    break;
                }
            }
        }
        let mut incident = IncidentScore {
            at_us: inj.at_us,
            node: inj.node,
            kind: inj.kind,
            rule: None,
            detection_latency_us: None,
            resolve_latency_us: None,
        };
        if let Some(slot) = chosen {
            claimed[slot] = true;
            let (log_idx, fire) = firings[slot];
            incident.rule = Some(fire.rule);
            let latency = fire.t_us - inj.at_us;
            incident.detection_latency_us = Some(latency);
            score.detection_latency.observe(latency);
            incident.resolve_latency_us = log.entries[log_idx..]
                .iter()
                .find(|e| {
                    e.phase == AlertPhase::Resolved
                        && e.rule == fire.rule
                        && e.subject == fire.subject
                })
                .map(|e| e.t_us - inj.at_us);
        }
        score.incidents.push(incident);
    }

    // False positives: firings with no injection in the grace window
    // before them (claimed firings always have one by construction).
    for (_, fire) in &firings {
        let excused = injections
            .iter()
            .any(|inj| fire.t_us >= inj.at_us && fire.t_us - inj.at_us <= CLEAR_GRACE_US);
        if !excused {
            score.false_positives += 1;
        }
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes_up(n: usize) -> Vec<NodeHealth> {
        vec![
            NodeHealth {
                present: true,
                ready: true,
                retired: false
            };
            n
        ]
    }

    fn scrape(ok: u64, err: u64, nodes: Vec<NodeHealth>) -> Scrape {
        Scrape {
            ok_total: ok,
            err_total: err,
            nodes,
        }
    }

    /// Drives a monitor through `ticks` scrapes of steady traffic.
    fn steady(mon: &mut Monitor, from_tick: u64, ticks: u64, per_tick_ok: u64, nodes: usize) {
        for i in 0..ticks {
            let t = from_tick + i;
            mon.on_scrape(
                t * 1_000_000,
                &scrape((t + 1) * per_tick_ok, 0, nodes_up(nodes)),
            );
        }
    }

    #[test]
    fn replica_down_fires_after_debounce_and_resolves() {
        let cfg = MonitorConfig::default();
        let mut mon = Monitor::new(&cfg, 3);
        // Three healthy ticks latch the nodes into the watch set.
        steady(&mut mon, 0, 3, 10, 3);
        // Node 1 crashes: pending on the first bad tick, firing on the
        // second (pending_ticks = 2).
        let mut down = nodes_up(3);
        down[1] = NodeHealth::default();
        let out = mon.on_scrape(3_000_000, &scrape(40, 0, down.clone()));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].phase, AlertPhase::Pending);
        assert_eq!(out[0].subject, 1);
        let out = mon.on_scrape(4_000_000, &scrape(50, 0, down));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].phase, AlertPhase::Firing);
        assert_eq!(out[0].rule, RULE_REPLICA_DOWN);
        assert_eq!(out[0].elapsed_us, 1_000_000);
        // Recovery: three clean ticks resolve it.
        steady(&mut mon, 5, 2, 10, 3);
        let out = mon.on_scrape(7_000_000, &scrape(80, 0, nodes_up(3)));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].phase, AlertPhase::Resolved);
        assert_eq!(out[0].elapsed_us, 3_000_000);
    }

    #[test]
    fn spares_and_retired_nodes_never_alert() {
        let cfg = MonitorConfig::default();
        let mut mon = Monitor::new(&cfg, 3);
        // Node 2 is an unprovisioned spare (never ready): no alert.
        let mut nodes = nodes_up(3);
        nodes[2] = NodeHealth::default();
        for t in 0..6u64 {
            let out = mon.on_scrape(t * 1_000_000, &scrape((t + 1) * 10, 0, nodes.clone()));
            assert!(out.is_empty(), "tick {t}: {out:?}");
        }
        // Node 0 retires: watched until now, but retirement clears the
        // latch instead of alerting.
        nodes[0] = NodeHealth {
            present: true,
            ready: false,
            retired: true,
        };
        for t in 6..12u64 {
            let out = mon.on_scrape(t * 1_000_000, &scrape((t + 1) * 10, 0, nodes.clone()));
            assert!(out.is_empty(), "tick {t}: {out:?}");
        }
    }

    #[test]
    fn pending_blip_clears_silently() {
        let cfg = MonitorConfig::default();
        let mut mon = Monitor::new(&cfg, 2);
        steady(&mut mon, 0, 3, 10, 2);
        let mut down = nodes_up(2);
        down[0] = NodeHealth::default();
        let out = mon.on_scrape(3_000_000, &scrape(40, 0, down));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].phase, AlertPhase::Pending);
        // Healthy again before the debounce: no firing, no resolve.
        let out = mon.on_scrape(4_000_000, &scrape(50, 0, nodes_up(2)));
        assert!(out.is_empty());
        assert_eq!(mon.log().firings(), 0);
    }

    /// Whether any transition of `rule` in `out` is a firing.
    fn fired(out: &[AlertTransition], rule: &str) -> bool {
        out.iter()
            .any(|e| e.rule == rule && e.phase == AlertPhase::Firing)
    }

    #[test]
    fn burn_rate_needs_both_windows() {
        // Fast burn: 5- and 30-tick windows, 14.4 × the 1 000 ppm budget
        // = 1.44 % of completions failing, fires on the first breach.
        let mut mon = Monitor::new(&MonitorConfig::default(), 1);
        // Thirty-one clean ticks of 100 fill the long window.
        steady(&mut mon, 0, 31, 100, 1);
        // One bad tick: 20 errors are ≈ 3.8 % of the short window's
        // ≈ 520 completions but ≈ 0.66 % of the long window's ≈ 3 020.
        let out = mon.on_scrape(31_000_000, &scrape(3_200, 20, nodes_up(1)));
        assert!(!out.iter().any(|e| e.rule == RULE_FAST_BURN), "{out:?}");
        // Sustained heavy errors: both windows light up.
        let mut burned = false;
        for t in 32..40u64 {
            let out = mon.on_scrape(
                t * 1_000_000,
                &scrape((t + 1) * 100, 20 + (t - 31) * 50, nodes_up(1)),
            );
            burned |= fired(out, RULE_FAST_BURN);
        }
        assert!(burned, "sustained burn must fire: {:?}", mon.log());
    }

    #[test]
    fn wips_drop_learns_baseline_and_fires_on_collapse() {
        // 5-tick window against the best 30-tick baseline, 50 %.
        let mut mon = Monitor::new(&MonitorConfig::default(), 1);
        // Ramp from 0, then hold: the baseline is learned only from full
        // windows and never exceeds the current rate, so nothing fires.
        let mut total = 0u64;
        for t in 0..40u64 {
            total += [0, 2, 5, 8].get(t as usize).copied().unwrap_or(10);
            let out = mon.on_scrape(t * 1_000_000, &scrape(total, 0, nodes_up(1)));
            assert!(out.is_empty(), "ramp tick {t}: {out:?}");
        }
        // Collapse to zero: fires once the short window is half empty
        // and the two-tick debounce has passed.
        let mut collapsed = false;
        for t in 40..48u64 {
            let out = mon.on_scrape(t * 1_000_000, &scrape(total, 0, nodes_up(1)));
            collapsed |= fired(out, RULE_WIPS_DROP);
        }
        assert!(collapsed, "collapse must fire: {:?}", mon.log());
    }

    #[test]
    fn fault_free_traffic_stays_silent() {
        let cfg = MonitorConfig::default();
        let mut mon = Monitor::new(&cfg, 5);
        // 200 ticks of steady traffic with sporadic sub-budget errors.
        let mut err = 0u64;
        for t in 0..200u64 {
            if t % 97 == 0 {
                err += 1; // well under the 99.9 % budget at 50 ok/tick
            }
            let out = mon.on_scrape(t * 1_000_000, &scrape((t + 1) * 50, err, nodes_up(5)));
            assert!(out.is_empty(), "tick {t}: {out:?}");
        }
        assert!(mon.log().entries.is_empty());
    }

    #[test]
    fn alert_log_lines_are_canonical() {
        let log = AlertLog {
            entries: vec![
                AlertTransition {
                    t_us: 5_000_000,
                    rule: RULE_REPLICA_DOWN,
                    subject: 2,
                    phase: AlertPhase::Firing,
                    elapsed_us: 1_000_000,
                },
                AlertTransition {
                    t_us: 9_000_000,
                    rule: RULE_REPLICA_DOWN,
                    subject: 2,
                    phase: AlertPhase::Resolved,
                    elapsed_us: 4_000_000,
                },
            ],
        };
        assert_eq!(
            log.to_lines(),
            "{\"t\":5000000,\"rule\":\"replica_down\",\"subject\":2,\"phase\":\"firing\",\"elapsed_us\":1000000}\n\
             {\"t\":9000000,\"rule\":\"replica_down\",\"subject\":2,\"phase\":\"resolved\",\"elapsed_us\":4000000}\n"
        );
        assert_eq!(log.firings(), 1);
    }

    #[test]
    fn scorer_joins_detection_and_resolve() {
        let log = AlertLog {
            entries: vec![
                AlertTransition {
                    t_us: 47_000_000,
                    rule: RULE_REPLICA_DOWN,
                    subject: 3,
                    phase: AlertPhase::Firing,
                    elapsed_us: 1_000_000,
                },
                AlertTransition {
                    t_us: 49_000_000,
                    rule: RULE_WIPS_DROP,
                    subject: SUBJECT_CLUSTER,
                    phase: AlertPhase::Firing,
                    elapsed_us: 0,
                },
                AlertTransition {
                    t_us: 70_000_000,
                    rule: RULE_REPLICA_DOWN,
                    subject: 3,
                    phase: AlertPhase::Resolved,
                    elapsed_us: 23_000_000,
                },
            ],
        };
        let mut truth = crate::InjectionLog::default();
        truth.record(45_000_000, 3, "crash");
        let score = score_alerts(&log, &truth);
        assert_eq!(score.detected(), 1);
        assert_eq!(score.missed(), 0);
        let inc = &score.incidents[0];
        // Subject preference: the replica_down firing about node 3
        // wins over the earlier-indexed cluster-wide wips_drop.
        assert_eq!(inc.rule, Some(RULE_REPLICA_DOWN));
        assert_eq!(inc.detection_latency_us, Some(2_000_000));
        assert_eq!(inc.resolve_latency_us, Some(25_000_000));
        // The unclaimed wips_drop firing sits in the incident's grace
        // window: aftermath, not a false positive.
        assert_eq!(score.false_positives, 0);
        assert_eq!(score.firings, 2);
    }

    #[test]
    fn scorer_counts_false_positives_and_misses() {
        let log = AlertLog {
            entries: vec![AlertTransition {
                t_us: 10_000_000,
                rule: RULE_ERROR_RATE,
                subject: SUBJECT_CLUSTER,
                phase: AlertPhase::Firing,
                elapsed_us: 0,
            }],
        };
        // Fault-free run: the lone firing is a false positive.
        let score = score_alerts(&log, &crate::InjectionLog::default());
        assert_eq!(score.false_positives, 1);
        assert!(score.incidents.is_empty());
        // An injection long after the firing: missed, and the firing
        // (before the injection) stays a false positive.
        let mut truth = crate::InjectionLog::default();
        truth.record(200_000_000, 0, "crash");
        let score = score_alerts(&log, &truth);
        assert_eq!(score.missed(), 1);
        assert_eq!(score.false_positives, 1);
    }

    #[test]
    fn sensitivity_rescaling_moves_thresholds() {
        let rule = |cfg: &MonitorConfig, name: &str| {
            Monitor::new(cfg, 0)
                .rules
                .into_iter()
                .find(|r| r.name == name)
                .expect("rule")
        };
        // Scale 100 without a debounce override is the table itself.
        assert_eq!(Monitor::new(&MonitorConfig::default(), 0).rules, RULES);
        let eager = MonitorConfig::default().with_sensitivity(1, 50);
        assert!(Monitor::new(&eager, 0)
            .rules
            .iter()
            .all(|r| r.pending_ticks == 1));
        let patient = MonitorConfig::default().with_sensitivity(3, 200);
        let burn = |cfg| match rule(cfg, RULE_FAST_BURN).expr {
            RuleExpr::BurnRate { factor_x1000, .. } => factor_x1000,
            other => panic!("{other:?}"),
        };
        assert_eq!((burn(&eager), burn(&patient)), (7_200, 28_800));
        // wips_drop scales the opposite way (more sensitive = higher
        // fraction) via the allowed drop margin: 50 % margin halves to
        // 25 % when eager, doubles to 100 % (clamped to an effective
        // floor) when patient.
        let fraction = |cfg| match rule(cfg, RULE_WIPS_DROP).expr {
            RuleExpr::WipsDrop {
                min_fraction_pct, ..
            } => min_fraction_pct,
            other => panic!("{other:?}"),
        };
        assert_eq!(fraction(&eager), 75);
        assert_eq!(fraction(&patient), 1); // clamped floor: effectively off
    }
}
