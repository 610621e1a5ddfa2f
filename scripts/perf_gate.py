#!/usr/bin/env python3
"""CI perf-regression gate for the consensus hot path.

Usage: perf_gate.py BASELINE.json CURRENT.json [CURRENT2.json ...]

The baseline is the committed union of the gate points (``exp_batching
--gate --json`` and ``exp_reconfig --gate --json``, merged by
``scripts/merge_gate_json.py``); the current side may be one merged
file or the per-experiment files listed separately — their run arrays
are merged, and a label appearing twice is an error. The gate fails
(exit 1) when any labelled point's committed-updates/sec drops more than
REGRESSION_TOLERANCE below the committed baseline, when the batch-8 over
batch-1 speedup collapses below MIN_SPEEDUP, when a point that carries
an availability decomposition ramps back to 95% of baseline WIPS more
than RAMP_TOLERANCE slower than the committed baseline, when a
membership change stops completing or completes more than
RECONFIG_SLACK_US later than the committed baseline (or its own
post-change WIPS ramp regresses past RAMP_TOLERANCE), or when the
always-on consensus auditor reported any violation. The simulator is deterministic,
so on unchanged code the current run reproduces the baseline bit-for-bit;
a tripped gate always points at a real behavioural change.

Points that carry host-timing fields (``events_per_sec``,
``wall_clock_s``, emitted by ``push_timed``) additionally gate raw
engine throughput — but unlike everything above those numbers are
machine-dependent, so the tolerances are deliberately loose
(EVENTS_TOLERANCE / WALL_TOLERANCE): they catch an order-of-magnitude
hot-path regression (say, the event queue degenerating to a linear
scan), not CI-runner noise. Baselines predating those fields skip the
check. After an intentional recalibration, regenerate the baseline
with::

    cargo run --release -p bench --bin exp_batching -- --gate --json /tmp/batching.json
    cargo run --release -p bench --bin exp_reconfig -- --gate --json /tmp/reconfig.json
    cargo run --release -p bench --bin exp_reconfig -- --scenarios crash --quiet --trace /tmp/causal.jsonl
    cargo run --release -p bench --bin exp_trace -- blame /tmp/causal.jsonl --gate --quiet --json /tmp/causal.json
    cargo run --release -p bench --bin exp_monitor -- --gate --json /tmp/monitor.json
    scripts/merge_gate_json.py BENCH_baseline.json /tmp/batching.json /tmp/reconfig.json /tmp/causal.json /tmp/monitor.json

Points produced by ``exp_trace blame --json`` carry no throughput numbers;
instead their ``causal_quorum_decide_mean_us`` (mean flush→decide
latency over every reconstructed critical path) gates the distributed
consensus round-trip, with ``causal_paths`` and ``blame_disk_fsync_us``
asserting the causal DAG keeps reconstructing and the synchronous log
write stays visible on the critical path.

Points produced by ``exp_monitor --gate --json`` pin the online SLO
monitor: every ground-truth incident the baseline detected must stay
detected (``monitor_missed_incidents`` must stay 0), monitored labels
must stay free of false positives (``monitor_false_positives`` must
stay 0 — the fault-free label exists for exactly this), and the mean
``alert_detection_latency_us`` may not drift more than
MONITOR_TOLERANCE over the committed baseline.

Stdlib only; no third-party imports.
"""

import json
import sys

# A current point may be up to 15% below baseline before the gate trips.
REGRESSION_TOLERANCE = 0.15
# Group commit must keep paying for itself: batch=8 throughput must stay
# at least this multiple of batch=1 on the ordering mix.
MIN_SPEEDUP = 1.8
# Post-crash ramp back to 95% of baseline WIPS may be up to 15% slower
# than the committed baseline before the gate trips (higher is worse).
RAMP_TOLERANCE = 0.15
# A membership change may complete this much later than the committed
# baseline (absolute, µs) before the gate trips. Absolute, not
# relative: completion is quantised by the driver's epoch poll, so a
# healthy baseline is a few hundred ms and a ratio would be noise.
RECONFIG_SLACK_US = 2_000_000
# Mean quorum-decide (flush→decide) latency from the causal profile may
# rise this much over baseline before the gate trips. Simulated time,
# deterministic — the slack absorbs intentional wire-format drift, not
# host noise.
CAUSAL_TOLERANCE = 0.15
# Mean alert detection latency from the online monitor may rise this
# much over baseline before the gate trips. Simulated time and
# quantised by the scrape interval, so a real drift here means the
# scrape/debounce pipeline changed behaviour, not that CI was slow.
MONITOR_TOLERANCE = 0.15
# Host-timing tolerances: engine events/sec may fall to half the
# baseline, wall clock may stretch to 3x, before the gate trips. Loose
# on purpose — CI runners vary; these exist to catch the hot path
# falling off a cliff, not a noisy neighbour.
EVENTS_TOLERANCE = 0.5
WALL_TOLERANCE = 3.0


def load_runs(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        sys.exit(f"perf gate: cannot read {path}: {e.strerror or e}")
    except json.JSONDecodeError as e:
        sys.exit(f"perf gate: {path} is not valid JSON: {e}")
    if not isinstance(doc, dict) or not isinstance(doc.get("runs"), list):
        sys.exit(f"perf gate: {path} lacks a top-level \"runs\" array")
    try:
        runs = {run["label"]: run for run in doc["runs"]}
    except (KeyError, TypeError):
        sys.exit(f"perf gate: {path} has a run without a \"label\"")
    if not runs:
        sys.exit(f"perf gate: {path} contains no runs")
    return runs


def field(run, key, path):
    """A run's numeric field, or a clean exit naming what's missing."""
    value = run.get(key)
    if not isinstance(value, (int, float)):
        label = run.get("label", "?")
        sys.exit(f"perf gate: {path}: run {label!r} lacks numeric {key!r}")
    return value


def merge_runs(paths):
    """Loads and merges several gate reports into one label→run map."""
    merged = {}
    for path in paths:
        for label, run in load_runs(path).items():
            if label in merged:
                sys.exit(f"perf gate: run label {label!r} appears twice "
                         f"across {', '.join(paths)}")
            merged[label] = run
    return merged


def main(argv):
    if len(argv) < 3:
        sys.exit("usage: perf_gate.py BASELINE.json CURRENT.json [CURRENT2.json ...]")
    baseline = load_runs(argv[1])
    current = merge_runs(argv[2:])
    current_name = ", ".join(argv[2:])

    failures = []
    print(f"{'point':<24} {'baseline':>10} {'current':>10} {'ratio':>7}")
    for label, base in sorted(baseline.items()):
        cur = current.get(label)
        if cur is None:
            failures.append(f"{label}: missing from current run")
            continue
        # Throughput: skipped for points that never carried it (the
        # causal-profile points gate latency, not updates/sec).
        base_ups = base.get("updates_per_sec")
        if isinstance(base_ups, (int, float)):
            cur_ups = field(cur, "updates_per_sec", current_name)
            ratio = cur_ups / base_ups if base_ups else float("inf")
            print(f"{label:<24} {base_ups:>10.1f} {cur_ups:>10.1f} {ratio:>6.2f}x")
            if cur_ups < base_ups * (1.0 - REGRESSION_TOLERANCE):
                failures.append(
                    f"{label}: {cur_ups:.1f} upd/s is more than "
                    f"{REGRESSION_TOLERANCE:.0%} below baseline {base_ups:.1f}"
                )
        if cur.get("audit_violations", 0) != 0:
            failures.append(f"{label}: {cur['audit_violations']} audit violations")

        # Causal blame: a baseline that profiled the distributed quorum
        # round-trip pins it. The causal DAG must keep reconstructing
        # paths, the synchronous log write must stay on the critical
        # path, and the mean flush→decide latency must hold.
        base_qd = base.get("causal_quorum_decide_mean_us")
        if isinstance(base_qd, (int, float)) and base_qd > 0:
            cur_qd = cur.get("causal_quorum_decide_mean_us")
            if not isinstance(cur_qd, (int, float)) or cur_qd <= 0:
                failures.append(
                    f"{label}: baseline has causal_quorum_decide_mean_us "
                    f"but current run reports {cur_qd!r}"
                )
                continue
            print(
                f"{label + ' qdecide(ms)':<24} {base_qd / 1e3:>10.2f} "
                f"{cur_qd / 1e3:>10.2f} {cur_qd / base_qd:>6.2f}x"
            )
            if cur_qd > base_qd * (1.0 + CAUSAL_TOLERANCE):
                failures.append(
                    f"{label}: mean quorum decide {cur_qd / 1e3:.2f}ms is "
                    f"more than {CAUSAL_TOLERANCE:.0%} over baseline "
                    f"{base_qd / 1e3:.2f}ms"
                )
            if cur.get("causal_paths", 0) <= 0:
                failures.append(f"{label}: no causal paths reconstructed")
            if cur.get("blame_disk_fsync_us", 0) <= 0:
                failures.append(
                    f"{label}: zero disk-fsync blame — the synchronous "
                    f"log write left the critical path"
                )

        # Host timing: only when the committed baseline carries the
        # fields (older baselines predate them), and loosely — these
        # are host-dependent, unlike every other gated number.
        base_eps = base.get("events_per_sec")
        if isinstance(base_eps, (int, float)) and base_eps > 0:
            cur_eps = field(cur, "events_per_sec", current_name)
            eps_ratio = cur_eps / base_eps
            print(
                f"{label + ' events/s':<24} {base_eps:>10.0f} "
                f"{cur_eps:>10.0f} {eps_ratio:>6.2f}x"
            )
            if cur_eps < base_eps * (1.0 - EVENTS_TOLERANCE):
                failures.append(
                    f"{label}: engine throughput {cur_eps:.0f} events/s is "
                    f"more than {EVENTS_TOLERANCE:.0%} below baseline "
                    f"{base_eps:.0f}"
                )
        base_wall = base.get("wall_clock_s")
        if isinstance(base_wall, (int, float)) and base_wall > 0:
            cur_wall = field(cur, "wall_clock_s", current_name)
            if cur_wall > base_wall * WALL_TOLERANCE:
                failures.append(
                    f"{label}: wall clock {cur_wall:.1f}s is more than "
                    f"{WALL_TOLERANCE:.1f}x baseline {base_wall:.1f}s"
                )

        # Availability: a baseline that measured a post-crash ramp pins
        # the recovery path too. null (never ramped back) never gates.
        base_ramp = base.get("ramp_to_95pct_us")
        if isinstance(base_ramp, (int, float)) and base_ramp > 0:
            cur_ramp = cur.get("ramp_to_95pct_us")
            if not isinstance(cur_ramp, (int, float)):
                failures.append(
                    f"{label}: baseline has ramp_to_95pct_us but current "
                    f"run reports {cur_ramp!r}"
                )
                continue
            ramp_ratio = cur_ramp / base_ramp
            print(
                f"{label + ' ramp95(s)':<24} {base_ramp / 1e6:>10.1f} "
                f"{cur_ramp / 1e6:>10.1f} {ramp_ratio:>6.2f}x"
            )
            if cur_ramp > base_ramp * (1.0 + RAMP_TOLERANCE):
                failures.append(
                    f"{label}: ramp to 95% of baseline WIPS took "
                    f"{cur_ramp / 1e6:.1f}s, more than {RAMP_TOLERANCE:.0%} "
                    f"over baseline {base_ramp / 1e6:.1f}s"
                )

        # Reconfiguration: a baseline whose membership change completed
        # pins the epoch-switch path — it must keep completing, must
        # not complete more than RECONFIG_SLACK_US later, and its
        # post-change WIPS ramp (measured from the operator's
        # submission) must not regress past RAMP_TOLERANCE.
        if base.get("reconfig_completed") == 1:
            if cur.get("reconfig_completed") != 1:
                failures.append(
                    f"{label}: baseline's membership change completed but "
                    f"the current run's did not"
                )
                continue
            base_done = field(base, "reconfig_complete_us", argv[1])
            cur_done = field(cur, "reconfig_complete_us", current_name)
            print(
                f"{label + ' reconfig(s)':<24} {base_done / 1e6:>10.1f} "
                f"{cur_done / 1e6:>10.1f}"
            )
            if cur_done > base_done + RECONFIG_SLACK_US:
                failures.append(
                    f"{label}: membership change took {cur_done / 1e6:.1f}s, "
                    f"more than {RECONFIG_SLACK_US / 1e6:.0f}s over baseline "
                    f"{base_done / 1e6:.1f}s"
                )
        # Online monitor: a baseline produced by a monitored faultload
        # pins the alerting pipeline. Detection must stay complete,
        # silence must stay silent, and latency must hold.
        base_mi = base.get("monitor_incidents")
        if isinstance(base_mi, (int, float)):
            cur_missed = field(cur, "monitor_missed_incidents", current_name)
            if cur_missed != 0:
                failures.append(
                    f"{label}: monitor missed {cur_missed:.0f} of "
                    f"{field(cur, 'monitor_incidents', current_name):.0f} "
                    f"ground-truth incidents"
                )
            cur_fp = field(cur, "monitor_false_positives", current_name)
            if cur_fp != 0:
                failures.append(
                    f"{label}: monitor fired {cur_fp:.0f} false positive(s)"
                )
            base_dl = base.get("alert_detection_latency_us")
            if isinstance(base_dl, (int, float)) and base_dl > 0:
                cur_dl = field(cur, "alert_detection_latency_us", current_name)
                print(
                    f"{label + ' detect(s)':<24} {base_dl / 1e6:>10.1f} "
                    f"{cur_dl / 1e6:>10.1f} {cur_dl / base_dl:>6.2f}x"
                )
                if cur_dl > base_dl * (1.0 + MONITOR_TOLERANCE):
                    failures.append(
                        f"{label}: mean alert detection took "
                        f"{cur_dl / 1e6:.1f}s, more than "
                        f"{MONITOR_TOLERANCE:.0%} over baseline "
                        f"{base_dl / 1e6:.1f}s"
                    )

        base_rramp = base.get("reconfig_ramp_to_95pct_us")
        if isinstance(base_rramp, (int, float)) and base_rramp > 0:
            cur_rramp = cur.get("reconfig_ramp_to_95pct_us")
            if not isinstance(cur_rramp, (int, float)) or cur_rramp <= 0:
                failures.append(
                    f"{label}: baseline has reconfig_ramp_to_95pct_us but "
                    f"current run reports {cur_rramp!r}"
                )
                continue
            print(
                f"{label + ' rc-ramp95(s)':<24} {base_rramp / 1e6:>10.1f} "
                f"{cur_rramp / 1e6:>10.1f} {cur_rramp / base_rramp:>6.2f}x"
            )
            if cur_rramp > base_rramp * (1.0 + RAMP_TOLERANCE):
                failures.append(
                    f"{label}: post-reconfig ramp to 95% of baseline WIPS "
                    f"took {cur_rramp / 1e6:.1f}s, more than "
                    f"{RAMP_TOLERANCE:.0%} over baseline {base_rramp / 1e6:.1f}s"
                )

    by_batch = {run.get("batch"): run for run in current.values()}
    if 1 in by_batch and 8 in by_batch:
        ups1 = field(by_batch[1], "updates_per_sec", current_name)
        ups8 = field(by_batch[8], "updates_per_sec", current_name)
        speedup = ups8 / ups1 if ups1 else float("inf")
        print(f"{'batch-8 speedup':<24} {'':>10} {'':>10} {speedup:>6.2f}x")
        if speedup < MIN_SPEEDUP:
            failures.append(
                f"batch-8 speedup {speedup:.2f}x "
                f"({ups8:.1f} vs {ups1:.1f} upd/s) fell below {MIN_SPEEDUP}x"
            )
    else:
        failures.append("current run lacks batch=1 and batch=8 points")

    if failures:
        print("\nPERF GATE FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
