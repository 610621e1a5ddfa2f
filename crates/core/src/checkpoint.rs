//! Checkpoints: the metadata record, the in-memory mirror of the durable
//! log's shape, and the order in which one checkpoint reaches the disk.
//!
//! A checkpoint is four writes, and a crash between any two must leave
//! a disk that recovers: the data under a fresh key, then — once the
//! data is durable — the [`Meta`] record naming it, then — once *that*
//! is durable — the log truncation and the deletion of the generation
//! the new one replaced. [`Checkpointer`] walks that order and returns
//! each write; issuing it and reporting its completion back is the
//! middleware's job.

use paxos::{Ballot, ReplicaId, Slot};
use simnet::StableOp;

use crate::impl_wire_struct;
use crate::wire::EncodeScratch;

/// Key of the checkpoint metadata record.
pub const META_KEY: &str = "treplica.meta";
/// Name of the durable consensus log.
pub const LOG_NAME: &str = "paxos.log";

/// Checkpoint metadata, durably written after its checkpoint data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Meta {
    /// Slots below this are covered by the checkpoint.
    pub checkpoint_slot: Slot,
    /// Checkpoint generation (its key is `treplica.ckpt.<generation>`).
    pub generation: u64,
    /// Promise floor: the acceptor must never promise below this (covers
    /// `Promised` records dropped by log truncation).
    pub promised: Ballot,
    /// Configuration epoch in force when the checkpoint was taken.
    pub epoch: u64,
    /// Member set of that epoch (restart resumes under it; newer epochs
    /// are re-learned from the log or from peers).
    pub members: Vec<ReplicaId>,
}

impl Meta {
    /// The key the checkpoint data of `generation` lives under.
    pub fn ckpt_key(generation: u64) -> String {
        format!("treplica.ckpt.{generation}")
    }
}

impl_wire_struct!(Meta {
    checkpoint_slot,
    generation,
    promised,
    epoch,
    members
});

/// Mirror of the durable log's shape (entry slots and sizes) kept in
/// memory for truncation decisions and recovery-read sizing.
#[derive(Debug, Default)]
pub(crate) struct LogMirror {
    first_index: u64,
    entries: Vec<(Option<Slot>, u64)>,
    /// Sum of the entries' sizes, kept by `push` and `truncate_front`.
    bytes: u64,
}

impl LogMirror {
    /// The mirror of an empty log whose next entry gets `first_index`.
    pub(crate) fn starting_at(first_index: u64) -> Self {
        LogMirror {
            first_index,
            ..LogMirror::default()
        }
    }

    /// Mirrors one appended entry; `slot` is `None` for a promise and for
    /// a torn entry that only holds its index.
    #[inline]
    pub(crate) fn push(&mut self, slot: Option<Slot>, bytes: u64) {
        self.entries.push((slot, bytes));
        self.bytes = self.bytes.saturating_add(bytes);
    }

    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Stable index of the first entry with an `Accepted` slot ≥ `cut`;
    /// entries before it are covered by the checkpoint.
    fn keep_from(&self, cut: Slot) -> u64 {
        let kept = self
            .entries
            .iter()
            .position(|(slot, _)| slot.is_some_and(|s| s >= cut));
        self.first_index
            .saturating_add(kept.unwrap_or(self.entries.len()) as u64)
    }

    fn truncate_front(&mut self, keep_from: u64) {
        let Some(ahead) = keep_from.checked_sub(self.first_index) else {
            return;
        };
        let drop = usize::try_from(ahead)
            .unwrap_or(usize::MAX)
            .min(self.entries.len());
        let dropped: u64 = self.entries.drain(..drop).map(|(_, b)| b).sum();
        self.bytes = self.bytes.saturating_sub(dropped);
        self.first_index = keep_from;
    }
}

/// Where the one checkpoint in flight stands. A checkpoint in flight
/// *is* its staged metadata: there is no flag to disagree with it.
#[derive(Debug, Default)]
enum Stage {
    #[default]
    Idle,
    /// The data write is out; the metadata waits for it.
    Data(Meta),
    /// The metadata write is out; truncation waits for it.
    Meta(Meta),
}

/// The checkpoint policy (every `interval` applied actions, one at a
/// time) and the write order of the checkpoint in flight.
#[derive(Debug, Default)]
pub(crate) struct Checkpointer {
    stage: Stage,
    applied_since: u64,
    /// Slot covered by the newest *completed* checkpoint.
    slot: Slot,
    /// Generation of the newest checkpoint *started*.
    generation: u64,
    completed: u64,
}

impl Checkpointer {
    /// Picks up after the checkpoint a restart found on disk.
    pub(crate) fn resume(slot: Slot, generation: u64) -> Self {
        Checkpointer {
            slot,
            generation,
            ..Checkpointer::default()
        }
    }

    pub(crate) fn slot(&self) -> Slot {
        self.slot
    }

    pub(crate) fn completed(&self) -> u64 {
        self.completed
    }

    #[inline]
    pub(crate) fn note_applied(&mut self) {
        self.applied_since = self.applied_since.saturating_add(1);
    }

    /// Whether the policy wants a checkpoint now: the interval has
    /// passed and none is in flight.
    #[inline]
    pub(crate) fn due(&self, interval: u64) -> bool {
        matches!(self.stage, Stage::Idle) && self.applied_since >= interval
    }

    /// Starts the next generation: stages the metadata `cover` makes for
    /// it and returns it with the data write, the only write that may
    /// leave now.
    pub(crate) fn begin(
        &mut self,
        cover: impl FnOnce(u64) -> Meta,
        data: Vec<u8>,
    ) -> (u64, StableOp) {
        debug_assert!(
            matches!(self.stage, Stage::Idle),
            "one checkpoint at a time"
        );
        self.applied_since = 0;
        self.generation = self.generation.saturating_add(1);
        self.stage = Stage::Data(cover(self.generation));
        let key = Meta::ckpt_key(self.generation);
        (self.generation, StableOp::Put { key, value: data })
    }

    /// The data is durable: returns the metadata write pointing at it.
    /// `None` if no data write was out — a token-bookkeeping bug, which
    /// here and in `meta_durable` skips the completion instead of killing
    /// the replica outside the fault model (debug builds assert).
    pub(crate) fn data_durable(&mut self, scratch: &mut EncodeScratch) -> Option<StableOp> {
        let Stage::Data(meta) = std::mem::take(&mut self.stage) else {
            debug_assert!(false, "data completion without a data write out");
            return None;
        };
        let value = scratch.encode(&meta);
        self.stage = Stage::Meta(meta);
        let key = META_KEY.to_string();
        Some(StableOp::Put { key, value })
    }

    /// The metadata is durable, so the checkpoint is complete: cuts the
    /// mirror below it and returns it with the log truncation and the
    /// deletion of the generation it replaced.
    pub(crate) fn meta_durable(&mut self, log: &mut LogMirror) -> Option<(Meta, [StableOp; 2])> {
        let Stage::Meta(meta) = std::mem::take(&mut self.stage) else {
            debug_assert!(false, "meta completion without a meta write out");
            return None;
        };
        self.slot = meta.checkpoint_slot;
        self.completed = self.completed.saturating_add(1);
        let keep_from = log.keep_from(meta.checkpoint_slot);
        log.truncate_front(keep_from);
        let log = LOG_NAME.to_string();
        // `begin` increments before it writes, so the first checkpoint of
        // a disk is generation 1 and this names `treplica.ckpt.0`, which
        // was never written: one delete of a missing key, a disk write
        // all the same (DESIGN §10).
        let key = Meta::ckpt_key(meta.generation.saturating_sub(1));
        let ops = [
            StableOp::TruncateLog { log, keep_from },
            StableOp::Delete { key },
        ];
        Some((meta, ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::replay;
    use crate::testkit::{active_single, config, execute_all, tear_last_record, Counter};
    use crate::{Middleware, Wire};
    use proptest::prelude::*;

    fn sum(m: &LogMirror) -> u64 {
        m.entries.iter().map(|(_, b)| *b).sum()
    }

    /// A mirror starting at index 10 whose entries weigh one byte each.
    fn mirror(slots: &[Option<u64>]) -> LogMirror {
        let mut m = LogMirror::starting_at(10);
        for slot in slots {
            m.push(slot.map(Slot), 1);
        }
        m
    }

    #[test]
    fn keep_from_looks_past_slotless_placeholders() {
        // A promise, a torn entry and an old accept in front of the cut.
        let m = mirror(&[None, Some(3), None, None, Some(7), None, Some(9)]);
        assert_eq!(
            m.keep_from(Slot(0)),
            11,
            "leading promise is always covered"
        );
        assert_eq!(m.keep_from(Slot(3)), 11);
        assert_eq!(
            m.keep_from(Slot(4)),
            14,
            "placeholders go with what precedes"
        );
        assert_eq!(m.keep_from(Slot(9)), 16);
        assert_eq!(
            m.keep_from(Slot(10)),
            17,
            "nothing to keep: one past the end"
        );
        assert_eq!(mirror(&[None, None]).keep_from(Slot(0)), 12);
        assert_eq!(mirror(&[]).keep_from(Slot(5)), 10);
    }

    #[test]
    fn mirror_bytes_track_the_entries() {
        let mut m = LogMirror::starting_at(10);
        for (i, bytes) in [7u64, 0, 300, 41, 5].into_iter().enumerate() {
            m.push((i % 2 == 0).then_some(Slot(i as u64)), bytes);
        }
        assert_eq!((m.bytes(), sum(&m)), (353, 353));
        m.truncate_front(9); // below the log: nothing leaves
        m.truncate_front(10); // its first index: nothing leaves either
        assert_eq!((m.len(), m.bytes(), m.first_index), (5, 353, 10));
        m.truncate_front(12); // inside the log
        assert_eq!((m.len(), m.bytes(), sum(&m)), (3, 346, 346));
        m.truncate_front(11); // behind the new first index
        assert_eq!((m.len(), m.bytes(), m.first_index), (3, 346, 12));
        m.push(None, 9);
        m.truncate_front(99); // past its end
        assert_eq!((m.len(), m.bytes(), m.first_index), (0, 0, 99));

        // A recovered mirror counts the torn entry it keeps as a
        // placeholder, like the stable log does.
        let (mut mw, mut store) = active_single();
        execute_all(&mut mw, &mut store, 1..=5);
        drop(mw);
        tear_last_record(&mut store);
        let log = store.log(LOG_NAME).expect("log");
        let log_bytes = log.bytes();
        let mut recovered = LogMirror::default();
        replay::<u64>(&store, &mut recovered).for_each(drop);
        assert!(recovered.len() >= 2);
        assert_eq!(recovered.first_index, log.first_index());
        assert_eq!((recovered.bytes(), sum(&recovered)), (log_bytes, log_bytes));
        let initial = Counter { total: 0 };
        let (mw2, _fx) = Middleware::recover(ReplicaId(0), &store, initial, config(), 1, 0);
        assert_eq!(mw2.status().log_bytes, log_bytes);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 128 }))]

        /// Whatever is pushed and cut, in whatever order, the running
        /// total is the sum of what is left and the indices stay stable.
        #[test]
        fn mirror_total_equals_the_sum_of_its_entries(
            ops in proptest::collection::vec((0u8..2, 0u64..40, 0u64..2_000), 0..60),
        ) {
            let mut m = LogMirror::starting_at(5);
            let mut end = 5;
            for (push, n, bytes) in ops {
                if push == 1 {
                    m.push((n % 3 != 0).then_some(Slot(n)), bytes);
                    end += 1;
                } else {
                    m.truncate_front(n);
                    end = end.max(n);
                }
                prop_assert_eq!(m.bytes(), sum(&m));
                prop_assert_eq!(m.first_index + m.len() as u64, end);
            }
        }
    }

    fn members() -> Vec<ReplicaId> {
        vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)]
    }

    fn staged(slot: u64, generation: u64) -> Meta {
        Meta {
            checkpoint_slot: Slot(slot),
            generation,
            promised: Ballot::BOTTOM,
            epoch: 0,
            members: members(),
        }
    }

    fn begin(c: &mut Checkpointer, slot: u64) -> (u64, StableOp) {
        c.begin(|generation| staged(slot, generation), vec![0xAB])
    }

    #[test]
    fn writes_leave_in_order_data_meta_then_truncate_and_delete() {
        let mut scratch = EncodeScratch::new();
        let mut log = mirror(&[None, Some(3), Some(4), Some(5)]);
        let mut c = Checkpointer::resume(Slot(2), 6);

        let data = StableOp::Put {
            key: Meta::ckpt_key(7),
            value: vec![0xAB],
        };
        assert_eq!(
            begin(&mut c, 5),
            (7, data),
            "the generation after the disk's"
        );
        assert_eq!((c.slot(), c.completed()), (Slot(2), 0), "not complete yet");

        let staged = staged(5, 7);
        assert_eq!(
            c.data_durable(&mut scratch),
            Some(StableOp::Put {
                key: META_KEY.to_string(),
                value: staged.to_bytes()
            }),
            "the metadata names the data that just became durable"
        );
        assert_eq!((c.slot(), c.completed(), log.len()), (Slot(2), 0, 4));

        let (meta, [truncate, delete]) = c.meta_durable(&mut log).expect("a meta write was out");
        assert_eq!(meta, staged);
        assert_eq!(
            truncate,
            StableOp::TruncateLog {
                log: LOG_NAME.to_string(),
                keep_from: 13
            }
        );
        assert_eq!(
            delete,
            StableOp::Delete {
                key: Meta::ckpt_key(6)
            },
            "the generation replaced, never the one just written"
        );
        assert_eq!((c.slot(), c.completed()), (Slot(5), 1));
        assert_eq!(
            (log.len(), log.first_index),
            (1, 13),
            "mirror cut with the log"
        );
    }

    #[test]
    fn nothing_starts_while_a_checkpoint_is_in_flight() {
        let mut scratch = EncodeScratch::new();
        let mut log = LogMirror::default();
        let mut c = Checkpointer::resume(Slot::ZERO, 0);
        assert!(!c.due(2));
        c.note_applied();
        assert!(!c.due(2));
        c.note_applied();
        assert!(c.due(2), "interval reached, nothing in flight");

        begin(&mut c, 2);
        for _ in 0..5 {
            c.note_applied();
        }
        assert!(!c.due(2), "data write out");
        c.data_durable(&mut scratch).expect("meta write");
        assert!(!c.due(2), "meta write out");
        c.meta_durable(&mut log).expect("complete");
        assert!(
            c.due(2),
            "what was applied meanwhile counts toward the next"
        );
    }

    #[test]
    fn bootstrap_writes_generation_one_checkpoint() {
        let (mw, store) = active_single();
        assert!(
            store.get(&Meta::ckpt_key(1)).is_some(),
            "bootstrap checkpoint durable"
        );
        let meta = Meta::from_bytes(store.get(META_KEY).expect("meta")).expect("decodes");
        assert_eq!(meta.generation, 1);
        assert_eq!(meta.checkpoint_slot, Slot::ZERO);
        assert_eq!(mw.status().checkpoints, 1);
        assert_eq!(store.nominal_size(&Meta::ckpt_key(1)), 1_000_000);
    }

    #[test]
    fn execute_applies_and_checkpoints_on_interval() {
        let (mut mw, mut store) = active_single();
        let applied = execute_all(&mut mw, &mut store, 1..=5);
        assert_eq!(
            applied,
            vec![1, 3, 6, 10, 15],
            "replies are post-apply totals"
        );
        // interval = 2 → checkpoints after actions 2 and 4 (plus boot).
        let st = mw.status();
        assert!(
            st.checkpoints >= 3,
            "periodic checkpoints: {}",
            st.checkpoints
        );
        // Obsolete checkpoint generations are deleted.
        let latest = Meta::from_bytes(store.get(META_KEY).unwrap())
            .unwrap()
            .generation;
        assert!(store.get(&Meta::ckpt_key(latest)).is_some());
        assert!(
            store
                .get(&Meta::ckpt_key(latest.saturating_sub(2)))
                .is_none(),
            "older generations must be deleted"
        );
        // The durable log was truncated behind the checkpoint.
        let log = store.log(LOG_NAME).expect("log exists");
        assert!(log.first_index() > 0, "log must have been truncated");
    }

    #[test]
    fn meta_requires_valid_bytes() {
        assert!(Meta::from_bytes(&[1, 2, 3]).is_err());
        let m = Meta {
            checkpoint_slot: Slot(9),
            generation: 3,
            promised: Ballot::BOTTOM,
            epoch: 2,
            members: vec![ReplicaId(0), ReplicaId(3), ReplicaId(7)],
        };
        assert_eq!(Meta::from_bytes(&m.to_bytes()).unwrap(), m);
        assert_eq!(Meta::ckpt_key(3), "treplica.ckpt.3");
    }
}
