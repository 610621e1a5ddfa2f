//! The per-layer ledger of one workload: one traced rep between two
//! untraced ones, reduced with the existing `obs` reducers, plus the
//! host probes. Layers are the crates.
//!
//! Counts come from the traced rep and are exact functions of (code,
//! seed); the traced rep must match the untraced one on its fingerprint,
//! so watching changed nothing. Nothing inside the program is touched:
//! every number here is read off `RunReport`, its trace, or a timer
//! around a public function.

use std::collections::BTreeMap;

use cluster::{run_experiment, RunReport};
use obs::{
    BlameCategory, CausalProfile, SpanProfile, TraceEvent, TraceRecord, MODE_CLASSIC, PHASES,
};
use tpcw::Profile;

use crate::endtoend::{check_report, committed_updates, Fingerprint, Outcome};
use crate::spans::Spans;
use crate::stats::{dip_pct, percentile, spread_pct};
use crate::traffic::{classify, Traffic};
use crate::workloads::{rep_seed, Workload};

/// `Msg::kind()` values, in the protocol's own order.
const MSG_KINDS: [&str; 10] = [
    "prepare",
    "promise",
    "accept",
    "any",
    "fast_propose",
    "propose",
    "accepted",
    "alive",
    "learn_request",
    "learn_reply",
];

/// Records of the trace that `classify` and the `obs` reducers do not
/// already reduce, counted in one pass.
#[derive(Debug, Default, PartialEq)]
struct Counts {
    log_appends: u64,
    log_append_bytes: u64,
    batches: u64,
    batched_updates: u64,
    batch_triggers: BTreeMap<&'static str, u64>,
    checkpoints: u64,
    checkpoint_bytes: u64,
    elections: u64,
    mode_switches: u64,
    switches_to_classic: u64,
    noop_decides: u64,
    queue_samples: u64,
    queue_depth_sum: u64,
    queue_depth_max: u64,
    updates_delivered: u64,
    commit_latencies_us: Vec<u64>,
}

fn count(records: &[TraceRecord]) -> Counts {
    let mut c = Counts::default();
    for r in records {
        match r.event {
            TraceEvent::LogAppend { bytes } => {
                c.log_appends += 1;
                c.log_append_bytes += bytes;
            }
            TraceEvent::BatchFlushed {
                updates, trigger, ..
            } => {
                c.batches += 1;
                c.batched_updates += updates;
                *c.batch_triggers.entry(trigger).or_default() += 1;
            }
            TraceEvent::CheckpointWrite { bytes, .. } => {
                c.checkpoints += 1;
                c.checkpoint_bytes += bytes;
            }
            TraceEvent::LeaderElected { .. } => c.elections += 1,
            TraceEvent::ModeSwitch { to, .. } => {
                c.mode_switches += 1;
                if to == MODE_CLASSIC {
                    c.switches_to_classic += 1;
                }
            }
            TraceEvent::Decided { noop: true, .. } => c.noop_decides += 1,
            TraceEvent::QueueSample { depth } => {
                c.queue_samples += 1;
                c.queue_depth_sum += depth;
                c.queue_depth_max = c.queue_depth_max.max(depth);
            }
            TraceEvent::UpdateDelivered { latency_us, .. } => {
                c.updates_delivered += 1;
                // 0 marks another replica's update, whose submit time
                // this replica never saw.
                if latency_us > 0 {
                    c.commit_latencies_us.push(latency_us);
                }
            }
            _ => {}
        }
    }
    c
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn mean_of(values: impl Iterator<Item = u64>) -> f64 {
    let (mut sum, mut n) = (0u64, 0u64);
    for v in values {
        sum += v;
        n += 1;
    }
    ratio(sum as f64, n as f64)
}

/// One timed `run_experiment` inside a span.
fn timed_rep(
    name: &str,
    config: &cluster::ExperimentConfig,
    spans: &mut Spans,
) -> (RunReport, f64) {
    spans.enter(name);
    let out = spans.time("cluster.run_experiment", |_| run_experiment(config));
    spans.exit();
    out
}

/// Host ns per trace record of running `reduce` over the whole trace.
fn timed_reducer<T>(
    name: &str,
    records: &[TraceRecord],
    spans: &mut Spans,
    reduce: impl FnOnce(&[TraceRecord]) -> T,
) -> (T, f64) {
    let (out, secs) = spans.time(name, |_| reduce(records));
    (out, ratio(secs * 1e9, records.len() as f64))
}

/// Records encoded for the JSONL timing: enough to average over every
/// event kind the run emits without holding the whole text in memory.
const JSONL_SAMPLE: usize = 200_000;

pub fn run(workload: &Workload, seed: u64, quick: bool, spans: &mut Spans) -> Outcome {
    let mut failures = Vec::new();
    let untraced = workload.config(rep_seed(seed, 0));
    let mut traced = untraced.clone();
    traced.trace = simnet::TraceConfig::on();

    spans.time("warm_up", |_| run_experiment(&workload.setup_config()));
    let (plain, mut plain_s) = timed_rep("rep:0", &untraced, spans);
    let print = Fingerprint::of(&plain);
    for f in check_report(workload, &plain) {
        failures.push(format!("untraced rep: {f}"));
    }
    drop(plain);

    let (report, traced_s) = timed_rep("traced_rep", &traced, spans);
    for f in check_report(workload, &report) {
        failures.push(format!("traced rep: {f}"));
    }
    if Fingerprint::of(&report) != print {
        failures.push(format!(
            "tracing changed the run: {:?} traced, {print:?} untraced",
            Fingerprint::of(&report)
        ));
    }

    let mut untraced_s = vec![plain_s];
    if !quick {
        let (again, again_s) = timed_rep("rep:1", &untraced, spans);
        if Fingerprint::of(&again) != print {
            failures.push("the untraced rep did not repeat itself".to_string());
        }
        untraced_s.push(again_s);
        plain_s = plain_s.min(again_s);
    }

    // ---- reducers, each in its own span
    let records = &report.trace[..];
    let (traffic, _) = timed_reducer("classify_traffic", records, spans, |r| {
        classify(r, workload.replicas)
    });
    let (causal, causal_ns) =
        timed_reducer("obs.CausalProfile.from_records", records, spans, |r| {
            CausalProfile::from_records(r)
        });
    let (profile, spans_ns) = timed_reducer("obs.SpanProfile.from_records", records, spans, |r| {
        SpanProfile::from_records(r)
    });
    let (recoveries, _) = timed_reducer("obs.recovery_breakdowns", records, spans, |r| {
        obs::recovery_breakdowns(r)
    });
    let (fd, _) = timed_reducer("obs.fd_quality", records, spans, obs::fd_quality);
    let sample = &records[..records.len().min(JSONL_SAMPLE)];
    let (encoded, jsonl_ns) = timed_reducer("obs.jsonl.encode_all", sample, spans, |r| {
        obs::jsonl::encode_all(r)
    });
    if encoded.lines().count() < sample.len() {
        failures.push("JSONL export lost records".to_string());
    }
    drop(encoded);
    let (mut counts, _) = timed_reducer("count_records", records, spans, count);

    // ---- checks that need the trace
    if let Some(bad) = causal.paths.iter().find(|p| !p.telescopes()) {
        failures.push(format!(
            "causal path of node {} seq {} does not telescope",
            bad.node, bad.seq
        ));
    }
    if traffic.unmatched_tags != 0 {
        failures.push(format!(
            "{} message tags without a send",
            traffic.unmatched_tags
        ));
    }
    if workload.crashes >= 2 && counts.switches_to_classic == 0 {
        failures.push("two replicas were down together but nobody left fast mode".to_string());
    }
    if recoveries.iter().filter(|b| b.complete).count() != workload.crashes {
        failures.push("a traced crash incident did not complete its recovery".to_string());
    }

    // ---- the ledger
    let updates = committed_updates(&report) as f64;
    let rec = &report.recorder;
    let interactions = (rec.total_ok() + rec.total_errors()) as f64;
    let sim_s = report.schedule.total_us() as f64 / 1e6;
    let events = report.engine_events as f64;
    let per_update = |v: u64| ratio(v as f64, updates);
    let mut m: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| m.push((name.to_string(), value));

    put("simnet.events_per_update", ratio(events, updates));
    put(
        "simnet.net.msgs_per_update",
        per_update(report.net_messages),
    );
    put("simnet.net.bytes_per_update", per_update(report.net_bytes));
    put(
        "simnet.net.replica_msgs_per_update",
        per_update(traffic.replica.msgs),
    );
    put(
        "simnet.net.replica_bytes_per_update",
        per_update(traffic.replica.bytes),
    );
    put(
        "simnet.net.web_bytes_per_interaction",
        ratio(traffic.web.bytes as f64, interactions),
    );
    put("simnet.net.dropped_msgs", traffic.dropped as f64);
    put(
        "simnet.disk.appends_per_update",
        per_update(report.disk_appends),
    );
    put(
        "simnet.disk.append_bytes_per_update",
        per_update(counts.log_append_bytes),
    );
    put(
        "simnet.disk.writes_per_update",
        per_update(report.disk_writes),
    );

    let kind = |traffic: &Traffic, k: &str| traffic.by_kind.get(k).copied().unwrap_or_default();
    for k in MSG_KINDS {
        put(
            &format!("paxos.msgs_per_update.{k}"),
            per_update(kind(&traffic, k).msgs),
        );
    }
    for k in ["accept", "accepted", "fast_propose", "learn_reply"] {
        put(
            &format!("paxos.bytes_per_update.{k}"),
            per_update(kind(&traffic, k).bytes),
        );
    }
    put(
        "paxos.alive_msgs_per_sim_s",
        ratio(kind(&traffic, "alive").msgs as f64, sim_s),
    );
    put("paxos.elections", counts.elections as f64);
    put("paxos.mode_switches", counts.mode_switches as f64);
    put("paxos.noop_decides", counts.noop_decides as f64);
    put(
        "paxos.quorum_decide_mean_us",
        causal.quorum_decide_mean_us(),
    );
    put("paxos.fd.detect_us", fd.detection_latency.mean());
    put("paxos.fd.false_suspicions", fd.false_suspicions as f64);

    let p50 = percentile(&mut counts.commit_latencies_us, 50.0);
    let p99 = percentile(&mut counts.commit_latencies_us, 99.0);
    put("core.commit_p50_us", p50.map_or(0.0, |p| p.value as f64));
    put("core.commit_p99_us", p99.map_or(0.0, |p| p.value as f64));
    put("core.commit_samples", p99.map_or(0.0, |p| p.samples as f64));
    // A tail with fewer than ten samples beyond it is one outlier's value.
    let commit_p99_beyond = p99.map_or(0.0, |p| p.beyond as f64);
    put(
        "core.updates_per_batch",
        ratio(counts.batched_updates as f64, counts.batches as f64),
    );
    for trigger in ["size", "window", "single"] {
        let n = counts.batch_triggers.get(trigger).copied().unwrap_or(0);
        put(
            &format!("core.batch_trigger_share.{trigger}"),
            ratio(n as f64, counts.batches as f64),
        );
    }
    for phase in PHASES {
        put(
            &format!("core.phase_mean_us.{phase}"),
            profile.phase(phase).map_or(0.0, |h| h.mean()),
        );
    }
    put("core.checkpoints", counts.checkpoints as f64);
    put("core.checkpoint_bytes", counts.checkpoint_bytes as f64);
    put(
        "core.recovery.checkpoint_load_us",
        mean_of(recoveries.iter().filter_map(|b| b.checkpoint_load_us)),
    );
    put(
        "core.recovery.log_replay_us",
        mean_of(recoveries.iter().filter_map(|b| b.log_replay_us)),
    );
    put(
        "core.recovery.backlog_replay_us",
        mean_of(recoveries.iter().filter_map(|b| b.backlog_replay_us)),
    );

    let dep = &report.dependability;
    let s = &report.schedule;
    let (b0, b1) = (
        (s.measure_start_us() / 1_000_000) as usize,
        (s.measure_end_us() / 1_000_000) as usize,
    );
    put(
        "faultload.recovery_s",
        report
            .spans
            .iter()
            .filter_map(|span| span.recovery_secs())
            .fold(0.0, f64::max),
    );
    put(
        "faultload.recovery_awips",
        ratio(
            dep.recovery.iter().map(|w| w.awips).sum(),
            dep.recovery.len() as f64,
        ),
    );
    put(
        "faultload.dip_pct",
        if workload.crashes == 0 {
            0.0
        } else {
            dip_pct(rec.wips_series(), b0, b1, dep.failure_free.awips)
        },
    );

    put(
        "cluster.server.queue_depth_mean",
        ratio(counts.queue_depth_sum as f64, counts.queue_samples as f64),
    );
    put(
        "cluster.server.queue_depth_max",
        counts.queue_depth_max as f64,
    );
    put(
        "cluster.audit.checks_per_event",
        ratio(report.audit.checks as f64, events),
    );

    let blame = causal.blame_by_category();
    let blame_total: u64 = blame.iter().sum();
    for category in BlameCategory::ALL {
        put(
            &format!("obs.blame_share.{}", category.name()),
            ratio(blame[category.index()] as f64, blame_total as f64),
        );
    }
    put(
        "obs.trace_records_per_event",
        ratio(records.len() as f64, events),
    );
    put(
        "obs.tracer_overhead_pct",
        100.0 * (traced_s - plain_s) / plain_s,
    );
    put("obs.causal_ns_per_record", causal_ns);
    put("obs.spans_ns_per_record", spans_ns);
    put("obs.jsonl_encode_ns_per_record", jsonl_ns);

    // ---- probes and the shares they explain
    let (probes, _) = spans.time("probes", |s| {
        crate::probes::run_all(if quick { 0.1 } else { 1.0 }, s)
    });
    let probe = |name: &str| {
        probes
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    };
    for (name, value) in &probes {
        put(name, *value);
    }
    let host_ns = plain_s * 1e9;
    let read_ns = probe(match untraced.profile {
        Profile::Browsing => "tpcw.store.read_ns.browsing",
        Profile::Shopping => "tpcw.store.read_ns.shopping",
        Profile::Ordering => "tpcw.store.read_ns.ordering",
    });
    // Every interaction that is not a committed update is a read served
    // from one replica's store; every update is applied at every replica.
    let store_ns = (interactions - updates).max(0.0) * read_ns
        + counts.updates_delivered as f64 * probe("tpcw.store.update_ns");
    // One ensemble-wide commit per decree.
    let commit_ns = probe(if workload.replicas > 5 {
        "paxos.commit_ns.fast_n8"
    } else {
        "paxos.commit_ns.fast_n5"
    });
    let paxos_ns = counts.batches as f64 * commit_ns;
    // Every log append and every decree-carrying message encodes the
    // batch once (and its receiver decodes it); the probe's eight-update
    // record is scaled to the workload's batch size.
    let per_batch = ratio(counts.batched_updates as f64, counts.batches as f64) / 8.0;
    let carriers: u64 = [
        "accept",
        "accepted",
        "fast_propose",
        "propose",
        "learn_reply",
    ]
    .iter()
    .map(|k| kind(&traffic, k).msgs)
    .sum();
    let codec_ns = per_batch
        * ((counts.log_appends + carriers) as f64 * probe("core.wire.encode_ns_batch8")
            + carriers as f64 * probe("core.wire.decode_ns_batch8"));
    let disk_ops = report.disk_writes as f64;
    let msgs = report.net_messages as f64;
    let engine_ns = msgs * probe("simnet.engine.ns_per_msg_event")
        + (events - msgs - disk_ops).max(0.0) * probe("simnet.engine.ns_per_timer_event")
        + disk_ops * probe("simnet.disk.ns_per_op");
    let shares = [
        ("host_share.tpcw_store", store_ns / host_ns),
        ("host_share.paxos", paxos_ns / host_ns),
        ("host_share.core_codec", codec_ns / host_ns),
        ("host_share.simnet_engine", engine_ns / host_ns),
    ];
    let attributed: f64 = shares.iter().map(|(_, v)| v).sum();
    for (name, value) in shares {
        put(name, value);
    }
    // The tracer's share is of the traced rep; the others and the rest
    // are of the untraced one.
    put("host_share.obs_tracer", (traced_s - plain_s) / traced_s);
    put("host_share.unattributed", 1.0 - attributed);
    put("host_rep_spread_pct", spread_pct(&untraced_s));

    let notes = vec![
        ("trace_records".to_string(), records.len() as f64),
        ("causal_paths".to_string(), causal.paths.len() as f64),
        ("untraced_host_s".to_string(), plain_s),
        ("traced_host_s".to_string(), traced_s),
        ("core.commit_p99_beyond".to_string(), commit_p99_beyond),
        ("interactions".to_string(), interactions),
        ("interactions_failed".to_string(), rec.total_errors() as f64),
    ];
    Outcome {
        metrics: m,
        notes,
        reps: untraced_s.len() as u64 + 1,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(node: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            t_us: 0,
            node,
            event,
        }
    }

    #[test]
    fn one_pass_counts_what_the_reducers_leave() {
        let delivered = |latency_us| TraceEvent::UpdateDelivered {
            slot: 1,
            index: 0,
            submitter: 0,
            seq: 0,
            latency_us,
        };
        let flushed = |updates, trigger| TraceEvent::BatchFlushed {
            updates,
            trigger,
            first_seq: 0,
        };
        let records = vec![
            rec(0, TraceEvent::LogAppend { bytes: 100 }),
            rec(1, TraceEvent::LogAppend { bytes: 50 }),
            rec(0, flushed(8, "size")),
            rec(0, flushed(3, "window")),
            rec(0, delivered(900)),
            rec(1, delivered(0)), // another replica's update: no latency
            rec(
                2,
                TraceEvent::ModeSwitch {
                    from: "fast",
                    to: "classic",
                },
            ),
            rec(
                2,
                TraceEvent::ModeSwitch {
                    from: "classic",
                    to: "fast",
                },
            ),
            rec(
                0,
                TraceEvent::Decided {
                    slot: 4,
                    noop: true,
                },
            ),
            rec(
                0,
                TraceEvent::Decided {
                    slot: 5,
                    noop: false,
                },
            ),
            rec(0, TraceEvent::QueueSample { depth: 4 }),
            rec(1, TraceEvent::QueueSample { depth: 10 }),
        ];
        let c = count(&records);
        assert_eq!((c.log_appends, c.log_append_bytes), (2, 150));
        assert_eq!((c.batches, c.batched_updates), (2, 11));
        assert_eq!(c.batch_triggers["size"], 1);
        assert_eq!((c.updates_delivered, c.commit_latencies_us.len()), (2, 1));
        assert_eq!((c.mode_switches, c.switches_to_classic), (2, 1));
        assert_eq!(c.noop_decides, 1);
        assert_eq!((c.queue_depth_sum, c.queue_depth_max), (14, 10));
    }

    #[test]
    fn ratios_of_nothing_are_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(mean_of([].into_iter()), 0.0);
        assert_eq!(mean_of([2, 4].into_iter()), 3.0);
    }
}
