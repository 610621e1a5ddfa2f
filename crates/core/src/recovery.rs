//! Restart: what the disk holds, and the join of the two transfers that
//! bring a replica back (paper §2, the shapes of Fig. 6).
//!
//! A restarted node re-reads its log and loads its newest checkpoint *in
//! parallel*, then re-learns the backlog it missed from the live
//! replicas. [`Recovery`] is that join: it says which transfer is still
//! out, and completes exactly once.

use paxos::{Batch, Record};
use simnet::StableStore;

use crate::checkpoint::{LogMirror, Meta, LOG_NAME, META_KEY};
use crate::wire::Wire;

/// The newest checkpoint's metadata on a restarted node's disk, if one
/// completed. Metadata that does not decode counts as absent, as the
/// auditor reads it: the node then starts from its initial state and
/// replays the whole log. No run reaches that case, since the auditor
/// flags a metadata record that does not decode when it is written.
pub(crate) fn read_meta(store: &StableStore) -> Option<Meta> {
    store
        .get(META_KEY)
        .and_then(|bytes| Meta::from_bytes(bytes).ok())
}

/// Decodes the records of a restarted node's log, straight from the
/// store, and mirrors the log's shape into `mirror` as they go by: the
/// mirror is whole once the records are. A crash mid-append can leave a
/// torn (truncated) record: its decode fails, but it still occupies a
/// stable log index, so it is mirrored as a slot-less placeholder —
/// dropping it would misalign every later entry's index and make
/// checkpoint truncation cut the wrong records. Records appended by
/// later incarnations after a torn tail keep replaying.
pub(crate) fn replay<'a, A: Wire>(
    store: &'a StableStore,
    mirror: &'a mut LogMirror,
) -> impl Iterator<Item = Record<Batch<A>>> + 'a {
    let log = store.log(LOG_NAME);
    *mirror = LogMirror::starting_at(log.map_or(0, |log| log.first_index()));
    log.into_iter()
        .flat_map(|log| log.iter())
        .filter_map(move |(_, entry)| {
            let record = Record::from_bytes(entry).ok();
            mirror.push(record.as_ref().and_then(Record::slot), entry.len() as u64);
            record
        })
}

/// The restart join: three flags that only ever turn true. A node that
/// never crashed has all of them set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Recovery {
    /// Until the log is re-read the node is a booting process whose
    /// sockets are not up yet: it hears nothing and its consensus core
    /// does not tick.
    pub(crate) log_replayed: bool,
    /// Until the checkpoint is loaded (or a peer's snapshot stood in for
    /// it) deliveries queue up as backlog.
    pub(crate) checkpoint_loaded: bool,
    complete: bool,
}

impl Recovery {
    pub(crate) const ACTIVE: Recovery = Recovery {
        log_replayed: true,
        checkpoint_loaded: true,
        complete: true,
    };

    /// The state right after a restart. A disk without a checkpoint has
    /// nothing to load: the node keeps its initial state and the backlog
    /// replays everything on top.
    pub(crate) fn restarted(has_checkpoint: bool) -> Self {
        Recovery {
            log_replayed: false,
            checkpoint_loaded: !has_checkpoint,
            complete: false,
        }
    }

    #[inline]
    pub(crate) fn is_recovering(self) -> bool {
        !self.complete
    }

    /// Completes the recovery, once: when both transfers are in and the
    /// consensus core has re-learned the backlog. Returns whether this
    /// call completed it.
    #[inline]
    pub(crate) fn try_complete(&mut self, backlog_learned: bool) -> bool {
        let done =
            self.is_recovering() && self.log_replayed && self.checkpoint_loaded && backlog_learned;
        self.complete |= done;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{
        active_single, active_single_with, batching_config, config, execute_all, recover_from,
        tear_last_record, Counter,
    };
    use crate::Middleware;
    use paxos::{Ballot, Decree, ProposalId, ReplicaId, Slot};
    use simnet::StableOp;

    #[test]
    fn join_completes_once_when_both_transfers_and_the_backlog_are_in() {
        let restarted = Recovery::restarted(true);
        assert!(restarted.is_recovering());
        assert!(!restarted.log_replayed && !restarted.checkpoint_loaded);
        // The two transfers finish in either order; neither suffices.
        for log_first in [true, false] {
            let mut r = restarted;
            assert!(!r.try_complete(true), "both transfers still out");
            r.log_replayed = log_first;
            r.checkpoint_loaded = !log_first;
            assert!(!r.try_complete(true), "one transfer still out");
            r.log_replayed = true;
            r.checkpoint_loaded = true;
            assert!(!r.try_complete(false), "backlog not re-learned yet");
            assert!(r.is_recovering());
            assert!(r.try_complete(true));
            assert_eq!(r, Recovery::ACTIVE);
            assert!(!r.try_complete(true), "recovery completes once");
        }
    }

    #[test]
    fn a_disk_without_a_checkpoint_has_nothing_to_load() {
        let mut r = Recovery::restarted(false);
        assert!(!r.log_replayed && r.checkpoint_loaded);
        r.log_replayed = true;
        assert!(r.try_complete(true));

        // A node that never crashed waits for nothing and completes nothing.
        let mut active = Recovery::ACTIVE;
        assert!(!active.is_recovering() && active.log_replayed && active.checkpoint_loaded);
        assert!(!active.try_complete(true));
    }

    #[test]
    fn replay_keeps_a_torn_entry_as_a_slotless_placeholder() {
        let pid = |seq: u64| ProposalId {
            node: ReplicaId(0),
            epoch: 0,
            seq,
        };
        let accepted = |slot: u64| Record::Accepted {
            ballot: Ballot::BOTTOM,
            slot: Slot(slot),
            decree: Decree::Value(pid(slot), Batch::single(pid(slot), slot)),
        };
        let records: Vec<Record<Batch<u64>>> =
            vec![Record::Promised(Ballot::BOTTOM), accepted(4), accepted(5)];
        let mut log_entries: Vec<Vec<u8>> = records.iter().map(Wire::to_bytes).collect();
        let torn = log_entries[1][..log_entries[1].len() - 1].to_vec();
        log_entries.insert(2, torn);
        // The log's first 30 entries were cut by an earlier checkpoint.
        let mut store = StableStore::new();
        let append = |entry: Vec<u8>| StableOp::Append {
            log: LOG_NAME.to_string(),
            entry,
        };
        for _ in 0..30 {
            store.apply(append(Vec::new()));
        }
        store.apply(StableOp::TruncateLog {
            log: LOG_NAME.to_string(),
            keep_from: 30,
        });
        for entry in log_entries {
            store.apply(append(entry));
        }
        let log = store.log(LOG_NAME).expect("log");
        assert_eq!((log.first_index(), log.len()), (30, 4));
        let mut mirror = LogMirror::default();
        let replayed: Vec<_> = replay::<u64>(&store, &mut mirror).collect();
        assert_eq!(replayed, records, "records past the torn entry replay");
        assert_eq!((mirror.len(), mirror.bytes()), (4, log.bytes()));
    }

    #[test]
    fn execute_rejected_while_recovering() {
        let (mut mw, mut store) = active_single();
        execute_all(&mut mw, &mut store, 42..=42);
        let initial = Counter { total: 0 };
        let (mut recovering, _fx) =
            Middleware::recover(ReplicaId(0), &store, initial, config(), 1, 0);
        assert!(recovering.is_recovering());
        assert!(
            recovering.execute(1, 0).is_err(),
            "recovering replica rejects execute"
        );
    }

    #[test]
    fn recovery_restores_from_checkpoint_and_log() {
        let (mut mw, mut store) = active_single();
        execute_all(&mut mw, &mut store, 1..=5);
        drop(mw);
        assert!(read_meta(&store).is_some());
        let (mw2, _) = recover_from(&mut store, config(), 1);
        assert!(!mw2.is_recovering(), "single-replica recovery completes");
        assert_eq!(mw2.state().total, 15, "sum of 1..=5 restored");
    }

    #[test]
    fn recovery_tolerates_torn_final_record() {
        let (mut mw, mut store) = active_single();
        execute_all(&mut mw, &mut store, 1..=5);
        drop(mw);
        tear_last_record(&mut store);
        let (mw2, _) = recover_from(&mut store, config(), 1);
        assert!(!mw2.is_recovering(), "torn tail must not wedge recovery");
        assert_eq!(mw2.state().total, 15, "no durable decision lost");
    }

    #[test]
    fn recovery_replays_records_appended_beyond_a_torn_entry() {
        let (mut mw, mut store) = active_single();
        execute_all(&mut mw, &mut store, 1..=3);
        drop(mw);
        tear_last_record(&mut store);

        // First restart survives the torn entry and keeps serving; its new
        // appends land *after* the torn entry in the stable log.
        let (mut mw2, _) = recover_from(&mut store, config(), 1);
        assert!(!mw2.is_recovering());
        execute_all(&mut mw2, &mut store, 4..=5);
        drop(mw2);

        // A second restart must replay the records beyond the torn entry;
        // stopping at the first undecodable record would lose them.
        let (mw3, _) = recover_from(&mut store, config(), 2);
        assert!(!mw3.is_recovering());
        assert_eq!(mw3.state().total, 15, "post-torn appends replayed");
    }

    #[test]
    fn recovered_mirror_keeps_stable_log_alignment() {
        let (mut mw, mut store) = active_single();
        execute_all(&mut mw, &mut store, 1..=5);
        drop(mw);
        let truncated_first = store.log(LOG_NAME).expect("log").first_index();
        assert!(truncated_first > 0, "checkpointing truncated the log");

        let (mut mw2, _) = recover_from(&mut store, config(), 1);
        assert!(!mw2.is_recovering());
        // Keep executing so post-recovery checkpoints truncate again; a
        // mirror rebuilt at index 0 would compute keep_from cuts that lag
        // the stable log and never free the old records.
        execute_all(&mut mw2, &mut store, 6..=9);
        let first_after = store.log(LOG_NAME).expect("log").first_index();
        assert!(
            first_after > truncated_first,
            "post-recovery truncation must advance: {first_after} vs {truncated_first}"
        );
    }

    #[test]
    fn metadata_that_does_not_decode_counts_as_absent_and_the_log_replays() {
        // Checkpoints only at boot: the log holds every update.
        let config = batching_config(1, 0);
        let (mut mw, mut store) = active_single_with(config.clone());
        execute_all(&mut mw, &mut store, 1..=5);
        drop(mw);
        let meta = store.get(META_KEY).expect("the boot checkpoint").to_vec();
        store.apply(StableOp::Put {
            key: META_KEY.to_string(),
            value: meta[..meta.len() - 1].to_vec(),
        });
        assert!(read_meta(&store).is_none(), "a torn metadata record");
        let (mw2, replayed) = recover_from(&mut store, config, 1);
        assert!(!mw2.is_recovering(), "nothing to load, the log replays");
        assert_eq!(replayed, vec![1, 3, 6, 10, 15], "over the initial state");
        assert_eq!(mw2.state().total, 15);
    }

    #[test]
    fn recovery_replays_batched_updates_in_order() {
        let config = batching_config(5, 1_000_000);
        let (mut mw, mut store) = active_single_with(config.clone());
        let applied = execute_all(&mut mw, &mut store, 1..=5);
        assert_eq!(applied, vec![1, 3, 6, 10, 15], "one batch of five");
        drop(mw);
        let (mw2, replayed) = recover_from(&mut store, config, 1);
        assert!(!mw2.is_recovering(), "single-replica recovery completes");
        // Replaying the batched record re-applies every update in its
        // original intra-batch position (the queue would panic on any
        // (slot, index) regression).
        assert_eq!(replayed, vec![1, 3, 6, 10, 15]);
        assert_eq!(mw2.state().total, 15);
    }
}
