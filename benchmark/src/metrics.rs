//! The declared metrics, and the check that what `BENCHMARK.json`
//! declares is exactly what the harness emits.

use crate::json::Json;
use crate::workloads::WORKLOADS;

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated time, or a count (events, messages, allocations) of
    /// the deterministic simulation: an exact function of (code, seed)
    /// that must repeat bit for bit.
    Exact,
    /// Host wall clock or memory: noisy, compared within a bound.
    Host,
}

#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
}

const fn exact(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        clock: Clock::Exact,
    }
}

const fn host(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        clock: Clock::Host,
    }
}

pub const END_TO_END: &[Decl] = &[
    exact("sim_awips", "1/s"),
    exact("sim_wirt_p50_ms", "ms"),
    exact("sim_wirt_p999_ms", "ms"),
    exact("sim_cart_wirt_p90_ms", "ms"),
    exact("sim_updates_per_s", "1/s"),
    exact("sim_worst_second_pct", "%"),
    exact("sim_accuracy_pct", "%"),
    host("host_s_per_sim_s", "s/s"),
    host("host_events_per_s", "1/s"),
    exact("host_allocs_per_sim_s", "1/s"),
    host("host_peak_rss_mb", "MB"),
    host("setup_s", "s"),
];

pub const PER_LAYER: &[Decl] = &[
    // simnet: counts per committed update, from the traced rep.
    exact("simnet.events_per_update", "count"),
    exact("simnet.net.msgs_per_update", "count"),
    exact("simnet.net.bytes_per_update", "B"),
    exact("simnet.net.replica_msgs_per_update", "count"),
    exact("simnet.net.replica_bytes_per_update", "B"),
    exact("simnet.net.web_bytes_per_interaction", "B"),
    exact("simnet.net.dropped_msgs", "count"),
    exact("simnet.disk.appends_per_update", "count"),
    exact("simnet.disk.append_bytes_per_update", "B"),
    exact("simnet.disk.writes_per_update", "count"),
    // paxos: replica↔replica messages by `Msg::kind()`.
    exact("paxos.msgs_per_update.prepare", "count"),
    exact("paxos.msgs_per_update.promise", "count"),
    exact("paxos.msgs_per_update.accept", "count"),
    exact("paxos.msgs_per_update.any", "count"),
    exact("paxos.msgs_per_update.fast_propose", "count"),
    exact("paxos.msgs_per_update.propose", "count"),
    exact("paxos.msgs_per_update.accepted", "count"),
    exact("paxos.msgs_per_update.alive", "count"),
    exact("paxos.msgs_per_update.learn_request", "count"),
    exact("paxos.msgs_per_update.learn_reply", "count"),
    exact("paxos.bytes_per_update.accept", "B"),
    exact("paxos.bytes_per_update.accepted", "B"),
    exact("paxos.bytes_per_update.fast_propose", "B"),
    exact("paxos.bytes_per_update.learn_reply", "B"),
    exact("paxos.alive_msgs_per_sim_s", "1/s"),
    exact("paxos.elections", "count"),
    exact("paxos.mode_switches", "count"),
    exact("paxos.noop_decides", "count"),
    exact("paxos.quorum_decide_mean_us", "us"),
    exact("paxos.fd.detect_us", "us"),
    exact("paxos.fd.false_suspicions", "count"),
    // core (treplica): batching, commit latency, checkpoints, recovery.
    exact("core.commit_p50_us", "us"),
    exact("core.commit_p99_us", "us"),
    exact("core.commit_samples", "count"),
    exact("core.updates_per_batch", "count"),
    exact("core.batch_trigger_share.size", "share"),
    exact("core.batch_trigger_share.window", "share"),
    exact("core.batch_trigger_share.single", "share"),
    exact("core.phase_mean_us.batch_wait", "us"),
    exact("core.phase_mean_us.persist_accept", "us"),
    exact("core.phase_mean_us.quorum_decide", "us"),
    exact("core.phase_mean_us.apply", "us"),
    exact("core.phase_mean_us.reply", "us"),
    exact("core.checkpoints", "count"),
    exact("core.checkpoint_bytes", "B"),
    exact("core.recovery.checkpoint_load_us", "us"),
    exact("core.recovery.log_replay_us", "us"),
    exact("core.recovery.backlog_replay_us", "us"),
    // faultload: the paper's recovery measures (0 on fault-free runs).
    exact("faultload.recovery_s", "s"),
    exact("faultload.recovery_awips", "1/s"),
    exact("faultload.dip_pct", "%"),
    // cluster: server work queue and the always-on auditor.
    exact("cluster.server.queue_depth_mean", "count"),
    exact("cluster.server.queue_depth_max", "count"),
    exact("cluster.audit.checks_per_event", "count"),
    // obs: where commit latency goes, and what watching costs.
    exact("obs.blame_share.queueing", "share"),
    exact("obs.blame_share.cpu_service", "share"),
    exact("obs.blame_share.net_transit", "share"),
    exact("obs.blame_share.retransmit_stall", "share"),
    exact("obs.blame_share.disk_fsync", "share"),
    exact("obs.trace_records_per_event", "count"),
    host("obs.tracer_overhead_pct", "%"),
    host("obs.causal_ns_per_record", "ns"),
    host("obs.spans_ns_per_record", "ns"),
    host("obs.jsonl_encode_ns_per_record", "ns"),
    // Host probes: fixed-iteration loops around public functions.
    host("simnet.engine.ns_per_msg_event", "ns"),
    host("simnet.engine.ns_per_timer_event", "ns"),
    host("simnet.queue.ns_per_dispatch", "ns"),
    host("simnet.disk.ns_per_op", "ns"),
    host("paxos.commit_ns.fast_n5", "ns"),
    host("paxos.commit_ns.fast_n8", "ns"),
    host("paxos.commit_ns.classic_n5", "ns"),
    host("paxos.replay_ns_per_record", "ns"),
    host("core.wire.encode_ns_batch8", "ns"),
    host("core.wire.decode_ns_batch8", "ns"),
    host("core.mw.commit_ns_per_update.b1_n5", "ns"),
    host("core.mw.commit_ns_per_update.b8_n8", "ns"),
    host("tpcw.store.read_ns.browsing", "ns"),
    host("tpcw.store.read_ns.shopping", "ns"),
    host("tpcw.store.read_ns.ordering", "ns"),
    host("tpcw.store.update_ns", "ns"),
    host("tpcw.population.gen_ms_per_eb", "ms"),
    host("tpcw.rbe.next_request_ns", "ns"),
    host("robuststore.snapshot.take_ms", "ms"),
    host("robuststore.snapshot.restore_ms", "ms"),
    // Estimated shares of the untraced rep's host time.
    host("host_share.tpcw_store", "share"),
    host("host_share.paxos", "share"),
    host("host_share.core_codec", "share"),
    host("host_share.simnet_engine", "share"),
    host("host_share.obs_tracer", "share"),
    host("host_share.unattributed", "share"),
    host("host_rep_spread_pct", "%"),
];

pub fn clock_of(name: &str) -> Option<Clock> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map(|d| d.clock)
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn declared(section: &Json) -> Result<Vec<(String, String)>, String> {
    section
        .as_arr()
        .ok_or("not a list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("no name")?;
            let unit = m.get("unit").and_then(Json::as_str).ok_or("no unit")?;
            Ok((name.to_string(), unit.to_string()))
        })
        .collect()
}

fn same(section: &str, file: &[(String, String)], code: &[Decl]) -> Result<(), String> {
    for (name, unit) in file {
        if !valid_name(name) {
            return Err(format!("{section}: bad metric name {name:?}"));
        }
        match code.iter().find(|d| d.name == name) {
            None => return Err(format!("{section}: {name} is declared but never emitted")),
            Some(d) if d.unit != unit => {
                return Err(format!(
                    "{section}: {name} is declared in {unit} but emitted in {}",
                    d.unit
                ))
            }
            Some(_) => {}
        }
    }
    for d in code {
        if !file.iter().any(|(name, _)| name == d.name) {
            return Err(format!("{section}: {} is emitted but not declared", d.name));
        }
    }
    if file.len() != code.len() {
        return Err(format!("{section}: a name is declared twice"));
    }
    Ok(())
}

/// The start-up check: `BENCHMARK.json` and the harness name the same
/// workloads and the same metrics with the same units, every name is
/// well formed, and the lists stay within the contract's sizes.
pub fn check_schema(benchmark_json: &Json) -> Result<(), String> {
    let workloads: Vec<&str> = benchmark_json
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if workloads != ours {
        return Err(format!(
            "BENCHMARK.json workloads {workloads:?}, harness runs {ours:?}"
        ));
    }
    if let Some(bad) = workloads.iter().find(|w| !valid_name(w)) {
        return Err(format!("bad workload name {bad:?}"));
    }
    let end_to_end = declared(
        benchmark_json
            .get("end_to_end")
            .ok_or("BENCHMARK.json: no end_to_end")?,
    )?;
    let per_layer = declared(
        benchmark_json
            .get("per_layer")
            .ok_or("BENCHMARK.json: no per_layer")?,
    )?;
    if end_to_end.is_empty() || end_to_end.len() > 16 {
        return Err(format!("{} end-to-end metrics", end_to_end.len()));
    }
    if per_layer.is_empty() || per_layer.len() > 128 {
        return Err(format!("{} per-layer metrics", per_layer.len()));
    }
    same("end_to_end", &end_to_end, END_TO_END)?;
    same("per_layer", &per_layer, PER_LAYER)?;
    if let Some(d) = END_TO_END
        .iter()
        .find(|d| PER_LAYER.iter().any(|p| p.name == d.name))
    {
        return Err(format!("{} is used twice", d.name));
    }
    Ok(())
}

/// Orders `values` as declared and renders them with their units;
/// refuses a missing, undeclared or non-finite value.
pub fn emit(decls: &[Decl], values: &[(String, f64)]) -> Result<Json, String> {
    if let Some((name, _)) = values
        .iter()
        .find(|(name, _)| !decls.iter().any(|d| d.name == name))
    {
        return Err(format!("{name} is emitted but not declared"));
    }
    let mut fields = Vec::new();
    for d in decls {
        let mut found = values.iter().filter(|(name, _)| name == d.name);
        let value = match (found.next(), found.next()) {
            (Some((_, v)), None) => *v,
            (None, _) => return Err(format!("{} was not measured", d.name)),
            (Some(_), Some(_)) => return Err(format!("{} was measured twice", d.name)),
        };
        if !value.is_finite() {
            return Err(format!("{} is {value}", d.name));
        }
        fields.push((
            d.name.to_string(),
            Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::Str(d.unit.to_string())),
            ]),
        ));
    }
    Ok(Json::Obj(fields))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    #[test]
    fn committed_benchmark_json_matches_the_harness() {
        check_schema(&benchmark_json()).unwrap();
    }

    #[test]
    fn schema_check_catches_drift() {
        let text = benchmark_json().render();
        let renamed = text.replacen("\"name\": \"sim_awips\"", "\"name\": \"sim_awipz\"", 1);
        assert!(check_schema(&parse(&renamed).unwrap())
            .unwrap_err()
            .contains("sim_awipz"));
        let reunited = text.replacen("\"unit\": \"ms\"", "\"unit\": \"s\"", 1);
        assert!(check_schema(&parse(&reunited).unwrap())
            .unwrap_err()
            .contains("emitted in ms"));
        let renamed = text.replacen("\"name\": \"browse_steady\"", "\"name\": \"browse\"", 1);
        assert!(check_schema(&parse(&renamed).unwrap()).is_err());
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let all: Vec<&Decl> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(d.unit.len() <= 16);
            assert!(all[..i].iter().all(|e| e.name != d.name), "{}", d.name);
        }
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_name(""));
    }

    #[test]
    fn emit_refuses_missing_undeclared_and_non_finite_values() {
        let decls = &END_TO_END[..2];
        let v = |pairs: &[(&str, f64)]| -> Vec<(String, f64)> {
            pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
        };
        let ok = emit(
            decls,
            &v(&[("sim_wirt_p50_ms", 7.0), ("sim_awips", 981.75)]),
        )
        .unwrap();
        assert_eq!(
            ok.render(),
            r#"{"sim_awips": {"value": 981.75, "unit": "1/s"}, "sim_wirt_p50_ms": {"value": 7, "unit": "ms"}}"#
        );
        assert!(emit(decls, &v(&[("sim_awips", 1.0)])).is_err());
        assert!(emit(
            decls,
            &v(&[("sim_awips", 1.0), ("sim_wirt_p50_ms", f64::NAN)])
        )
        .is_err());
        assert!(emit(
            decls,
            &v(&[("sim_awips", 1.0), ("sim_wirt_p50_ms", 1.0), ("x", 1.0)])
        )
        .is_err());
    }
}
