//! Group commit: which updates travel in one consensus decree. The
//! batcher decides and returns; proposing a closed batch is the
//! middleware's job.

use paxos::{Batch, ProposalId};

use crate::TreplicaConfig;

/// A closed batch, in submission order, and what closed it (the trace's
/// trigger tag): the batch was full (`size`), its first update waited the
/// window out (`window`), or batching is off (`single`).
pub(crate) type Flush<A> = (&'static str, Batch<A>);

#[derive(Debug)]
pub(crate) struct Batcher<A> {
    /// Id of the next locally submitted update: this node, this process
    /// incarnation (ids stay unique across restarts), the next sequence.
    next: ProposalId,
    /// The open batch. It keeps its capacity when the batch closes, so
    /// it grows once per incarnation, not once per batch.
    pending: Vec<(ProposalId, A)>,
    /// When the open batch must close even if not full.
    deadline: Option<u64>,
}

impl<A> Batcher<A> {
    pub(crate) fn new(first: ProposalId) -> Self {
        Batcher {
            next: first,
            pending: Vec::new(),
            deadline: None,
        }
    }

    /// Hands an update its id, before the update joins a batch.
    pub(crate) fn next_pid(&mut self) -> ProposalId {
        let pid = self.next;
        self.next.seq = self.next.seq.saturating_add(1);
        pid
    }

    /// Adds an update to the open batch and closes it if that filled it
    /// (or if batching is off). Only the first update of a batch arms the
    /// window.
    pub(crate) fn push(
        &mut self,
        update: (ProposalId, A),
        now: u64,
        config: &TreplicaConfig,
    ) -> Option<Flush<A>> {
        self.pending.push(update);
        if config.batch_window_us == 0 || config.batch_max_updates <= 1 {
            Some(self.close("single"))
        } else if self.pending.len() >= config.batch_max_updates {
            Some(self.close("size"))
        } else {
            self.deadline
                .get_or_insert(now.saturating_add(config.batch_window_us));
            None
        }
    }

    /// Closes the open batch if its window has run out by `now`; a timer
    /// that fires early, or after the batch already left, closes nothing.
    pub(crate) fn expire(&mut self, now: u64) -> Option<Flush<A>> {
        self.deadline
            .is_some_and(|d| d <= now)
            .then(|| self.close("window"))
    }

    /// Moves the open batch into its shared items, allocated once at
    /// their exact size. Never called with no update pending: `push`
    /// pushes first, and a deadline is armed only by a push.
    fn close(&mut self, trigger: &'static str) -> Flush<A> {
        debug_assert!(!self.pending.is_empty(), "a batch carries an update");
        self.deadline = None;
        let items = self.pending.drain(..).collect();
        (trigger, Batch { items })
    }

    pub(crate) fn deadline(&self) -> Option<u64> {
        self.deadline
    }

    pub(crate) fn len(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{active_single_with, batching_config, drain, drain_counting};
    use paxos::ReplicaId;

    /// A batcher with its policy, the way `Middleware` holds the two.
    struct Policed(Batcher<u64>, TreplicaConfig);

    fn batcher(max_updates: usize, window_us: u64) -> Policed {
        let first = ProposalId {
            node: ReplicaId(3),
            epoch: 7,
            seq: 0,
        };
        Policed(Batcher::new(first), batching_config(max_updates, window_us))
    }

    /// Submits `action` at `now` the way `execute` does.
    fn submit(b: &mut Policed, action: u64, now: u64) -> Option<Flush<u64>> {
        let pid = b.0.next_pid();
        b.0.push((pid, action), now, &b.1)
    }

    fn seqs((_, batch): &Flush<u64>) -> Vec<(u64, u64)> {
        batch.items.iter().map(|(pid, a)| (pid.seq, *a)).collect()
    }

    #[test]
    fn pids_count_up_under_the_incarnation() {
        let Policed(mut b, _) = batcher(4, 1_000);
        let first = b.next_pid();
        assert_eq!((first.node, first.epoch, first.seq), (ReplicaId(3), 7, 0));
        let second = b.next_pid();
        assert_eq!(
            (second.node, second.epoch, second.seq),
            (ReplicaId(3), 7, 1)
        );
    }

    #[test]
    fn full_batch_flushes_on_size() {
        let mut b = batcher(3, 1_000);
        assert_eq!(submit(&mut b, 10, 5), None);
        assert_eq!(submit(&mut b, 11, 6), None);
        assert_eq!(b.0.len(), 2);
        let flush = submit(&mut b, 12, 7).expect("third update fills the batch");
        assert_eq!(flush.0, "size");
        assert_eq!(seqs(&flush), vec![(0, 10), (1, 11), (2, 12)]);
        assert_eq!(
            (b.0.len(), b.0.deadline()),
            (0, None),
            "a flush clears both"
        );
    }

    #[test]
    fn window_is_armed_by_the_first_update_and_flushes_on_expiry() {
        let mut b = batcher(8, 1_000);
        assert_eq!(b.0.deadline(), None);
        assert_eq!(submit(&mut b, 10, 100), None);
        assert_eq!(b.0.deadline(), Some(1_100));
        assert_eq!(submit(&mut b, 11, 900), None);
        assert_eq!(
            b.0.deadline(),
            Some(1_100),
            "company does not extend the wait"
        );

        assert_eq!(b.0.expire(1_099), None, "an early timer is a no-op");
        assert_eq!(b.0.len(), 2);
        let flush = b.0.expire(1_100).expect("window ran out");
        assert_eq!(flush.0, "window");
        assert_eq!(seqs(&flush), vec![(0, 10), (1, 11)]);
        assert_eq!((b.0.len(), b.0.deadline()), (0, None));
        assert_eq!(b.0.expire(5_000), None, "a timer for a batch that left");

        // The next batch gets a window of its own.
        assert_eq!(submit(&mut b, 12, 2_000), None);
        assert_eq!(b.0.deadline(), Some(3_000));
    }

    #[test]
    fn batching_off_flushes_every_update_on_single() {
        for mut b in [batcher(1, 1_000), batcher(0, 1_000), batcher(8, 0)] {
            for (seq, action) in [(0, 10), (1, 11)] {
                let flush = submit(&mut b, action, 50).expect("no waiting");
                assert_eq!(flush.0, "single");
                assert_eq!(seqs(&flush), vec![(seq, action)]);
                assert_eq!((b.0.len(), b.0.deadline()), (0, None));
            }
        }
    }

    #[test]
    fn full_batch_commits_with_one_log_append() {
        let (mut mw, mut store) = active_single_with(batching_config(3, 1_000_000));
        let (_p1, fx1) = mw.execute(1, 0).expect("active");
        assert!(fx1.is_empty(), "first update only opens the batch");
        assert_eq!(mw.status().pending_batch, 1);
        let (_p2, fx2) = mw.execute(2, 0).expect("active");
        assert!(fx2.is_empty());
        assert_eq!(mw.status().pending_batch, 2);
        // The third update fills the batch: one decree, one log append,
        // all three applied in submission order.
        let (_p3, fx3) = mw.execute(3, 0).expect("active");
        let (applied, appends) = drain_counting(&mut mw, fx3, &mut store);
        assert_eq!(applied, vec![1, 3, 6], "intra-batch submission order");
        assert_eq!(appends, 1, "group commit: one append for three updates");
        assert_eq!(mw.status().pending_batch, 0);
        assert_eq!(mw.batch_deadline(), None, "flush disarms the window");
    }

    #[test]
    fn batch_window_timer_flushes_partial_batch() {
        let (mut mw, mut store) = active_single_with(batching_config(8, 5_000));
        let (_pid, fx) = mw.execute(7, 0).expect("active");
        assert!(fx.is_empty(), "update waits for company");
        let deadline = mw.batch_deadline().expect("window armed");
        let early = mw.on_batch_timer(deadline - 1);
        assert!(early.is_empty(), "stale timer fire is a no-op");
        assert_eq!(mw.status().pending_batch, 1);
        let fx = mw.on_batch_timer(deadline);
        let applied = drain(&mut mw, fx, &mut store);
        assert_eq!(applied, vec![7], "window expiry proposes the partial batch");
        assert_eq!(mw.batch_deadline(), None);
    }
}
