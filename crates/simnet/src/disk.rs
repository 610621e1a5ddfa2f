//! Per-node stable storage with a latency model.
//!
//! The paper's nodes have a single 7200 rpm disk and Treplica is
//! "configured to write only to the local disk": acceptor promises and
//! accepted values are forced to stable storage before they take effect,
//! and checkpoints are written to / loaded from disk during recovery.
//!
//! Two pieces live here:
//!
//! * [`DiskModel`] — translates an operation into a completion latency.
//!   Sequential log appends are cheap (the head stays on the log track and
//!   the drive's write cache absorbs them, as on the paper's testbed);
//!   bulk reads/writes pay seek + transfer time.
//! * [`StableStore`] — the durable contents of one node's disk: a
//!   key/value area (checkpoints, metadata) and named append-only logs
//!   (the consensus log). It survives crashes; only the *process* state is
//!   volatile.
//!
//! Durability semantics: an operation becomes durable at its *completion*
//! time. If the process crashes while an operation is in flight, the
//! operation is lost — the engine discards the completion event and never
//! applies the mutation. This is the conservative reading of an
//! `fsync`-gated write.

use std::collections::{BTreeMap, VecDeque};

use crate::time::SimDuration;

/// Latency model of one disk.
#[derive(Debug, Clone)]
pub struct DiskConfig {
    /// Average seek + rotational latency for a random access.
    pub seek: SimDuration,
    /// Sustained write bandwidth, bytes per second.
    pub write_bandwidth_bytes_per_sec: u64,
    /// Effective bulk-read (restore) bandwidth, bytes per second. This
    /// is deliberately below the raw disk rate: reloading a checkpoint
    /// includes deserialization and object-graph reconstruction, and the
    /// paper's measured recovery times (Figure 6: ≈40–140 s for
    /// 300–700 MB states) imply an effective ≈8 MB/s restore path.
    pub read_bandwidth_bytes_per_sec: u64,
    /// Base latency of a flushed sequential log append (write-cache hit).
    pub append_base: SimDuration,
}

impl Default for DiskConfig {
    fn default() -> Self {
        // A 7200 rpm SATA disk of the 2008 era: ~8 ms random access,
        // ~60 MB/s sustained writes, ~1 ms for a flushed sequential
        // append; reads at the restore-path effective rate.
        DiskConfig {
            seek: SimDuration::from_millis(8),
            write_bandwidth_bytes_per_sec: 60_000_000,
            read_bandwidth_bytes_per_sec: 8_000_000,
            append_base: SimDuration::from_millis(1),
        }
    }
}

/// A durable mutation applied to a [`StableStore`] when its disk
/// operation completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StableOp {
    /// Durably set `key` to `value`.
    Put {
        /// Key in the node's key/value area.
        key: String,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// Durably append `entry` to the named log.
    Append {
        /// Log name.
        log: String,
        /// Entry bytes.
        entry: Vec<u8>,
    },
    /// Durably drop all entries of `log` with index `< keep_from`.
    ///
    /// Indexes are *stable*: entry `i` keeps index `i` after truncation
    /// (the log remembers how many entries were dropped).
    TruncateLog {
        /// Log name.
        log: String,
        /// First index to keep.
        keep_from: u64,
    },
    /// Durably remove `key` from the key/value area (e.g. an obsolete
    /// checkpoint generation).
    Delete {
        /// Key to remove.
        key: String,
    },
}

impl StableOp {
    /// Payload size used by the latency model.
    pub fn size_bytes(&self) -> u64 {
        match self {
            StableOp::Put { value, .. } => value.len() as u64,
            StableOp::Append { entry, .. } => entry.len() as u64,
            StableOp::TruncateLog { .. } | StableOp::Delete { .. } => 0,
        }
    }
}

/// The latency model of a node's disk.
#[derive(Debug, Clone, Default)]
pub struct DiskModel {
    config: DiskConfig,
    reads: u64,
    writes: u64,
    log_appends: u64,
    bytes_written: u64,
    bytes_appended: u64,
    bytes_read: u64,
}

impl DiskModel {
    /// Creates a disk with the given latency parameters.
    pub fn new(config: DiskConfig) -> Self {
        DiskModel {
            config,
            ..DiskModel::default()
        }
    }

    fn write_transfer(&self, bytes: u64) -> SimDuration {
        SimDuration::from_micros(
            bytes.saturating_mul(1_000_000) / self.config.write_bandwidth_bytes_per_sec.max(1),
        )
    }

    fn read_transfer(&self, bytes: u64) -> SimDuration {
        SimDuration::from_micros(
            bytes.saturating_mul(1_000_000) / self.config.read_bandwidth_bytes_per_sec.max(1),
        )
    }

    /// Latency until `op` is durable.
    pub fn write_latency(&mut self, op: &StableOp) -> SimDuration {
        self.writes += 1;
        self.bytes_written += op.size_bytes();
        match op {
            StableOp::Append { entry, .. } => {
                self.log_appends += 1;
                self.bytes_appended += entry.len() as u64;
                self.config.append_base + self.write_transfer(entry.len() as u64)
            }
            StableOp::Put { value, .. } => {
                self.config.seek + self.write_transfer(value.len() as u64)
            }
            StableOp::TruncateLog { .. } | StableOp::Delete { .. } => self.config.append_base,
        }
    }

    /// Latency to read `bytes` from the disk (one seek plus transfer at
    /// the restore-path rate).
    pub fn read_latency(&mut self, bytes: u64) -> SimDuration {
        self.reads += 1;
        self.bytes_read += bytes;
        self.config.seek + self.read_transfer(bytes)
    }

    /// Number of write operations issued.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Number of sequential log appends among the writes (the group
    /// commit's unit of interest: one per consensus decree per acceptor).
    pub fn log_appends(&self) -> u64 {
        self.log_appends
    }

    /// Number of read operations issued.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Total bytes written.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Bytes written through sequential log appends alone — the
    /// numerator of the group-commit coalescing ratio (appended bytes
    /// per consensus decree).
    pub fn bytes_appended(&self) -> u64 {
        self.bytes_appended
    }

    /// Total bytes read.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }
}

/// Bytes of one chunk of a [`StableLog`]. An entry never straddles two
/// chunks: one that does not fit in what is left of the last chunk
/// starts a new one, of its own size if it is larger than this.
const CHUNK_BYTES: usize = 64 * 1024;

/// Where a retained entry lies: `len` bytes from `start` in chunk
/// number `chunk`.
#[derive(Debug, Clone, Copy)]
struct Span {
    chunk: u64,
    start: usize,
    len: usize,
}

/// A log with stable indexes across truncation.
///
/// Entry bytes are copied into fixed-size chunks, so an append stores
/// no heap block of its own and leaves the appended buffer to its
/// writer; truncation drops the chunks no retained entry lies in.
#[derive(Debug, Clone, Default)]
pub struct StableLog {
    first_index: u64,
    /// One span per retained entry, oldest first.
    spans: VecDeque<Span>,
    /// Chunk number `first_chunk + i` is `chunks[i]`.
    chunks: VecDeque<Vec<u8>>,
    first_chunk: u64,
    /// Sum of the retained entries' lengths.
    bytes: u64,
}

impl StableLog {
    /// Index of the first retained entry.
    pub fn first_index(&self) -> u64 {
        self.first_index
    }

    /// Index one past the last entry ever appended.
    pub fn next_index(&self) -> u64 {
        self.first_index + self.spans.len() as u64
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The entry at stable index `index`, if retained.
    pub fn get(&self, index: u64) -> Option<&[u8]> {
        let offset = usize::try_from(index.checked_sub(self.first_index)?).ok()?;
        self.spans.get(offset).and_then(|span| self.bytes_of(*span))
    }

    /// Iterates over `(index, entry)` pairs of retained entries.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> {
        (self.first_index..)
            .zip(&self.spans)
            .map(|(index, span)| (index, self.bytes_of(*span).unwrap_or_default()))
    }

    fn bytes_of(&self, span: Span) -> Option<&[u8]> {
        let chunk = usize::try_from(span.chunk.checked_sub(self.first_chunk)?).ok()?;
        self.chunks
            .get(chunk)?
            .get(span.start..span.start + span.len)
    }

    /// Copies `entry` in at the next index.
    fn append(&mut self, entry: &[u8]) {
        let fits = self
            .chunks
            .back()
            .is_some_and(|c| c.capacity() - c.len() >= entry.len());
        if !fits {
            self.chunks
                .push_back(Vec::with_capacity(entry.len().max(CHUNK_BYTES)));
        }
        let chunk = self.first_chunk + self.chunks.len() as u64 - 1;
        if let Some(last) = self.chunks.back_mut() {
            let start = last.len();
            last.extend_from_slice(entry);
            self.spans.push_back(Span {
                chunk,
                start,
                len: entry.len(),
            });
            self.bytes += entry.len() as u64;
        }
    }

    fn truncate_front(&mut self, keep_from: u64) {
        if keep_from <= self.first_index {
            return;
        }
        let drop = usize::try_from(keep_from - self.first_index)
            .unwrap_or(usize::MAX)
            .min(self.spans.len());
        for span in self.spans.drain(..drop) {
            self.bytes -= span.len as u64;
        }
        self.first_index += drop as u64;
        let live_from = self.spans.front().map_or(u64::MAX, |s| s.chunk);
        while self.first_chunk < live_from && self.chunks.pop_front().is_some() {
            self.first_chunk += 1;
        }
    }

    /// Total retained bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// The durable contents of one node's disk.
#[derive(Debug, Clone, Default)]
pub struct StableStore {
    kv: BTreeMap<String, Vec<u8>>,
    logs: BTreeMap<String, StableLog>,
    /// Modeled ("nominal") sizes for keys whose in-simulation byte count
    /// understates the size being modeled (e.g. a checkpoint standing in
    /// for a 700 MB application state).
    nominal: BTreeMap<String, u64>,
}

impl StableStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        StableStore::default()
    }

    /// Applies a durable mutation (called by the engine at completion
    /// time). An append copies its entry into the log and hands back the
    /// op's log name and entry buffer, as they were, for the writer's
    /// next record; every other op hands back nothing.
    pub fn apply(&mut self, op: StableOp) -> Option<(String, Vec<u8>)> {
        match op {
            StableOp::Put { key, value } => {
                self.kv.insert(key, value);
            }
            StableOp::Append { log, entry } => {
                match self.logs.get_mut(&log) {
                    Some(l) => l.append(&entry),
                    None => self.logs.entry(log.clone()).or_default().append(&entry),
                }
                return Some((log, entry));
            }
            StableOp::TruncateLog { log, keep_from } => {
                self.logs.entry(log).or_default().truncate_front(keep_from);
            }
            StableOp::Delete { key } => {
                self.kv.remove(&key);
                self.nominal.remove(&key);
            }
        }
        None
    }

    /// Reads a key from the key/value area.
    pub fn get(&self, key: &str) -> Option<&[u8]> {
        self.kv.get(key).map(Vec::as_slice)
    }

    /// Sets the modeled size of `key` (used by read-latency computation
    /// in place of the stored length).
    pub fn set_nominal(&mut self, key: &str, bytes: u64) {
        self.nominal.insert(key.to_string(), bytes);
    }

    /// The modeled size of `key`: its nominal override if set, else the
    /// stored length, else 0.
    pub fn nominal_size(&self, key: &str) -> u64 {
        self.nominal
            .get(key)
            .copied()
            .unwrap_or_else(|| self.kv.get(key).map(|v| v.len() as u64).unwrap_or(0))
    }

    /// The named log, if any entry was ever appended or truncated.
    pub fn log(&self, name: &str) -> Option<&StableLog> {
        self.logs.get(name)
    }

    /// Total durable bytes on this disk (key/value area plus logs).
    pub fn bytes(&self) -> u64 {
        let kv: u64 = self.kv.values().map(|v| v.len() as u64).sum();
        let logs: u64 = self.logs.values().map(StableLog::bytes).sum();
        kv + logs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_latency_is_cheaper_than_put() {
        let mut disk = DiskModel::new(DiskConfig::default());
        let append = disk.write_latency(&StableOp::Append {
            log: "l".into(),
            entry: vec![0; 1024],
        });
        let put = disk.write_latency(&StableOp::Put {
            key: "k".into(),
            value: vec![0; 1024],
        });
        assert!(append < put, "append {append} should be < put {put}");
    }

    #[test]
    fn read_latency_scales_with_bytes() {
        let mut disk = DiskModel::new(DiskConfig::default());
        let small = disk.read_latency(1_000);
        let big = disk.read_latency(80_000_000);
        assert!(big > small);
        // 80 MB at the 8 MB/s restore rate = 10 s plus one seek.
        assert_eq!(big.as_micros(), 10_000_000 + 8_000);
    }

    #[test]
    fn store_put_get_roundtrip() {
        let mut s = StableStore::new();
        s.apply(StableOp::Put {
            key: "ckpt".into(),
            value: b"abc".to_vec(),
        });
        assert_eq!(s.get("ckpt"), Some(&b"abc"[..]));
        assert_eq!(s.get("missing"), None);
    }

    #[test]
    fn log_indexes_stable_across_truncation() {
        let mut s = StableStore::new();
        for i in 0..5u8 {
            s.apply(StableOp::Append {
                log: "paxos".into(),
                entry: vec![i],
            });
        }
        s.apply(StableOp::TruncateLog {
            log: "paxos".into(),
            keep_from: 3,
        });
        let log = s.log("paxos").unwrap();
        assert_eq!(log.first_index(), 3);
        assert_eq!(log.next_index(), 5);
        assert_eq!(log.get(2), None);
        assert_eq!(log.get(3), Some(&[3u8][..]));
        assert_eq!(log.get(4), Some(&[4u8][..]));
        let collected: Vec<u64> = log.iter().map(|(i, _)| i).collect();
        assert_eq!(collected, vec![3, 4]);
    }

    #[test]
    fn truncate_past_end_drops_everything_but_keeps_counter() {
        let mut s = StableStore::new();
        s.apply(StableOp::Append {
            log: "l".into(),
            entry: vec![1],
        });
        s.apply(StableOp::TruncateLog {
            log: "l".into(),
            keep_from: 10,
        });
        let log = s.log("l").unwrap();
        assert!(log.is_empty());
        assert_eq!(log.first_index(), 1);
        // Appending resumes at the next free index.
        s.apply(StableOp::Append {
            log: "l".into(),
            entry: vec![2],
        });
        assert_eq!(s.log("l").unwrap().get(1), Some(&[2u8][..]));
    }

    #[test]
    fn truncate_noop_when_behind_first_index() {
        let mut s = StableStore::new();
        for i in 0..3u8 {
            s.apply(StableOp::Append {
                log: "l".into(),
                entry: vec![i],
            });
        }
        s.apply(StableOp::TruncateLog {
            log: "l".into(),
            keep_from: 2,
        });
        s.apply(StableOp::TruncateLog {
            log: "l".into(),
            keep_from: 1,
        });
        assert_eq!(s.log("l").unwrap().first_index(), 2);
    }

    #[test]
    fn store_accounts_bytes() {
        let mut s = StableStore::new();
        s.apply(StableOp::Put {
            key: "k".into(),
            value: vec![0; 10],
        });
        s.apply(StableOp::Append {
            log: "l".into(),
            entry: vec![0; 5],
        });
        assert_eq!(s.bytes(), 15);
    }

    #[test]
    fn disk_counters() {
        let mut disk = DiskModel::new(DiskConfig::default());
        disk.write_latency(&StableOp::Append {
            log: "l".into(),
            entry: vec![0; 100],
        });
        disk.read_latency(50);
        assert_eq!(disk.writes(), 1);
        assert_eq!(disk.log_appends(), 1);
        assert_eq!(disk.reads(), 1);
        assert_eq!(disk.bytes_written(), 100);
        assert_eq!(disk.bytes_appended(), 100);
        assert_eq!(disk.bytes_read(), 50);
    }
}
