//! `StableLog` against a plain oracle: a `Vec<Vec<u8>>` of the retained
//! entries and the index of the first. The log copies entry bytes into
//! 64 KiB chunks, so the lengths are drawn to fill chunks exactly, to
//! cross their ends and to exceed a whole chunk, and truncation lands
//! behind the log, inside it, at its end and past it.

use proptest::prelude::*;
use simnet::{StableOp, StableStore};

const LOG: &str = "paxos.log";

#[derive(Debug, Clone)]
enum Op {
    /// Appends an entry of this length, its bytes counted up from the
    /// second field.
    Append(usize, u8),
    /// Truncates to keep from the first retained index plus this much
    /// (back from it if negative).
    Truncate(i64),
}

fn op() -> impl Strategy<Value = Op> {
    let len = prop_oneof![
        4 => 0..64usize,
        2 => 16_000..16_400usize,
        2 => 32_700..32_800usize,
        1 => 65_530..65_540usize,
        1 => 65_600..140_000usize,
    ];
    prop_oneof![
        6 => (len, any::<u8>()).prop_map(|(len, fill)| Op::Append(len, fill)),
        1 => (-2..12i64).prop_map(Op::Truncate),
    ]
}

fn entry(len: usize, fill: u8) -> Vec<u8> {
    (0..len).map(|i| fill.wrapping_add(i as u8)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chunked_log_answers_as_a_vector_of_entries(
        ops in proptest::collection::vec(op(), 1..40),
    ) {
        let mut store = StableStore::new();
        let mut oracle: Vec<Vec<u8>> = Vec::new();
        let mut first = 0u64;
        for op in &ops {
            match *op {
                Op::Append(len, fill) => {
                    let bytes = entry(len, fill);
                    oracle.push(bytes.clone());
                    let back = store.apply(StableOp::Append {
                        log: LOG.to_string(),
                        entry: bytes.clone(),
                    });
                    prop_assert_eq!(back, Some((LOG.to_string(), bytes)), "buffers back as written");
                }
                Op::Truncate(by) => {
                    let keep_from = first.saturating_add_signed(by);
                    let back = store.apply(StableOp::TruncateLog {
                        log: LOG.to_string(),
                        keep_from,
                    });
                    prop_assert_eq!(back, None);
                    let next = first + oracle.len() as u64;
                    let drop = keep_from.clamp(first, next) - first;
                    oracle.drain(..drop as usize);
                    first += drop;
                }
            }
            let log = store.log(LOG).expect("the log exists once written");
            prop_assert_eq!(log.first_index(), first);
            prop_assert_eq!(log.next_index(), first + oracle.len() as u64);
            prop_assert_eq!(log.len(), oracle.len());
            prop_assert_eq!(log.is_empty(), oracle.is_empty());
            let bytes: u64 = oracle.iter().map(|e| e.len() as u64).sum();
            prop_assert_eq!(log.bytes(), bytes);
            prop_assert_eq!(store.bytes(), bytes);
            for index in first.saturating_sub(2)..first + oracle.len() as u64 + 2 {
                let want = index
                    .checked_sub(first)
                    .and_then(|i| oracle.get(i as usize))
                    .map(Vec::as_slice);
                prop_assert_eq!(log.get(index), want, "entry {}", index);
            }
            let got: Vec<(u64, &[u8])> = log.iter().collect();
            let want: Vec<(u64, &[u8])> = (first..).zip(oracle.iter().map(Vec::as_slice)).collect();
            prop_assert_eq!(got, want);
        }
    }
}
