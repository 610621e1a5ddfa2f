//! Stress tests for the MPMC sweep runner. `loom` is not available in
//! the offline build environment, so instead of model-checking the
//! channel hand-off these tests drive the real stdlib threads hard:
//! many repetitions, oversubscribed task counts, and jittered task
//! durations that force out-of-order completion — the conditions under
//! which a bug in the index-reassembly plumbing would actually show.

#![expect(
    clippy::disallowed_methods,
    reason = "real threads, sleeps and the core count are what these tests exercise"
)]

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use bench::run_parallel;

/// Deterministic per-item jitter so completion order is scrambled
/// without OS randomness.
fn jitter_us(x: u64) -> u64 {
    (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) % 180
}

#[test]
fn results_stay_in_input_order_across_many_contended_rounds() {
    // Repetition is the substitute for loom's schedule exploration:
    // every round re-creates the channels and the scoped threads, so
    // start-up/shutdown races get as many chances to fire as steady
    // state. Task counts deliberately straddle the worker count
    // (fewer, equal, a few more, many more).
    for round in 0u64..40 {
        let n = [1, 2, 3, 7, 8, 64, 257][round as usize % 7];
        let points: Vec<u64> = (0..n).map(|i| i + round * 1_000).collect();
        let expect: Vec<u64> = points.iter().map(|x| x * 3 + 1).collect();
        let out = run_parallel(points, |x| {
            std::thread::sleep(std::time::Duration::from_micros(jitter_us(x)));
            x * 3 + 1
        });
        assert_eq!(out, expect, "round {round}, n={n}");
    }
}

#[test]
fn every_task_runs_exactly_once() {
    // The queue must neither drop nor duplicate work when workers race
    // on the shared receiver. Count invocations and collect the set of
    // observed inputs.
    let calls = AtomicUsize::new(0);
    let seen = Mutex::new(BTreeSet::new());
    let n = 1_024u64;
    let out = run_parallel((0..n).collect(), |x| {
        calls.fetch_add(1, Ordering::Relaxed);
        seen.lock().expect("no poisoned lock").insert(x);
        x
    });
    assert_eq!(calls.load(Ordering::Relaxed), n as usize);
    assert_eq!(seen.lock().expect("no poisoned lock").len(), n as usize);
    assert_eq!(out, (0..n).collect::<Vec<_>>());
}

#[test]
fn work_actually_spreads_across_threads() {
    // Guard against a regression to fully sequential execution hiding
    // behind the order guarantee: with enough slow tasks, more than one
    // OS thread must participate. Skip on single-core machines, where
    // the sequential fallback is the documented behavior.
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if workers <= 1 {
        return;
    }
    let tids = Mutex::new(BTreeSet::new());
    let _ = run_parallel((0..64u64).collect(), |x| {
        tids.lock()
            .expect("no poisoned lock")
            .insert(format!("{:?}", std::thread::current().id()));
        std::thread::sleep(std::time::Duration::from_micros(200));
        x
    });
    let distinct = tids.lock().expect("no poisoned lock").len();
    assert!(
        distinct > 1,
        "expected multiple worker threads, saw {distinct}"
    );
}

#[test]
fn output_is_deterministic_regardless_of_schedule() {
    // The sweep contract the experiments rely on: the result vector is
    // a pure function of the inputs, never of thread interleaving.
    let run = |tag: u64| {
        run_parallel((0..128u64).collect::<Vec<_>>(), move |x| {
            std::thread::sleep(std::time::Duration::from_micros(jitter_us(x ^ tag)));
            x.wrapping_mul(6_364_136_223_846_793_005).rotate_left(17)
        })
    };
    let a = run(1);
    let b = run(2);
    assert_eq!(a, b, "same inputs must give byte-identical results");
}

#[test]
fn large_payloads_survive_the_channel_round_trip() {
    // Results travel through the unbounded result channel as owned
    // values; make each one big enough that a use-after-move or slot
    // mix-up would be visible in content, not just order.
    let out = run_parallel((0..32u64).collect(), |x| vec![x; 4_096]);
    for (i, v) in out.iter().enumerate() {
        assert_eq!(v.len(), 4_096);
        assert!(
            v.iter().all(|&e| e == i as u64),
            "slot {i} holds wrong payload"
        );
    }
}
