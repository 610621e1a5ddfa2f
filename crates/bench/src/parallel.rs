//! Parallel sweep runner: farms independent experiment points onto
//! worker threads.
//!
//! Every sweep in this crate is embarrassingly parallel — each point is
//! a self-contained deterministic simulation owning its engine, RNG,
//! and state — so the only coordination needed is handing out work and
//! collecting results. [`run_parallel`] does exactly that with the
//! standard library: the tasks sit in one `Mutex<vec::IntoIter>` the
//! workers pull from, a scoped thread runs per core, and each hands its
//! `(index, result)` pairs back through `join`.
//!
//! Determinism is preserved: each point's *result* is a pure function of
//! its config/seed regardless of which thread runs it, and results are
//! reassembled by index, so the output `Vec` is identical to what the
//! sequential loop produced. Only wall-clock time changes.

use std::sync::Mutex;

/// Runs `run` over every item of `points` on up to
/// `available_parallelism` worker threads, returning the results in
/// input order.
///
/// Falls back to a plain sequential loop when there is a single item or
/// a single core, so callers need no special casing.
#[expect(
    clippy::disallowed_methods,
    reason = "host-side: threads only change which core runs each whole simulation"
)]
pub fn run_parallel<I, O, F>(points: Vec<I>, run: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(points.len());
    if workers <= 1 {
        return points.into_iter().map(run).collect();
    }

    let n = points.len();
    let tasks = Mutex::new(points.into_iter().enumerate());
    let mut slots: Vec<Option<O>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let worker = || {
            let mut done = Vec::new();
            loop {
                // A statement of its own: the guard is dropped before
                // `run`, so the lock is held only to take the next task
                // and a panicking task cannot poison it.
                let next = tasks
                    .lock()
                    .expect("never poisoned: no task runs under it")
                    .next();
                let Some((idx, item)) = next else { break done };
                done.push((idx, run(item)));
            }
        };
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        for handle in handles {
            // A worker's panic (an audit violation, say) is raised again
            // as itself.
            let done = handle
                .join()
                .unwrap_or_else(|e| std::panic::resume_unwind(e));
            for (idx, out) in done {
                slots[idx] = Some(out);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let points: Vec<u64> = (0..64).collect();
        let out = run_parallel(points, |x| x * x);
        assert_eq!(out, (0..64).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn single_item_runs_inline() {
        assert_eq!(run_parallel(vec![21u64], |x| x * 2), vec![42]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u8> = run_parallel(Vec::<u8>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the sleeps are the point: they make workers finish out of order"
    )]
    fn uneven_work_still_fills_every_slot() {
        // Items that sleep different amounts finish out of order; the
        // index plumbing must still reassemble input order.
        let out = run_parallel((0..16u64).collect(), |x| {
            std::thread::sleep(std::time::Duration::from_millis((16 - x) % 4));
            x + 100
        });
        assert_eq!(out, (100..116).collect::<Vec<_>>());
    }
}
