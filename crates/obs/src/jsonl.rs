//! Canonical JSONL rendering and parsing of traces.
//!
//! One line per record, fields in a fixed order (`t`, `n`, `e`, then
//! the variant's fields in declaration order), no whitespace: the
//! rendering of a record vector is a *canonical form*, so two runs
//! whose traces are equal produce byte-identical files. A trace file
//! may also contain run-header lines (`{"run":"label","v":4}`)
//! separating the runs of a multi-configuration experiment; `v` is the
//! trace schema version ([`SCHEMA_VERSION`]) and is tolerated missing
//! (v1 files carried none).
//!
//! The parser accepts exactly the flat single-object lines the encoder
//! produces (stdlib only — the workspace vendors no JSON crate).
//! [`decode`] is strict; [`decode_runs`] skips records whose event kind
//! it does not know (a newer producer), so older analyzers keep working
//! on newer traces — [`decode_runs_counting`] exposes the skip count
//! for a warning.

/// Trace schema version written into run headers. v2 added the causal
/// vocabulary (msg_sent/msg_recv/msg_tag, xids on drops/dups) and the
/// failure-detector events; v3 added the online-monitor alert
/// lifecycle (alert_pending/alert_firing/alert_resolved); v4 records
/// fault probabilities in parts per million (net_fault_set's
/// loss_ppm/dup_ppm, disk_fault_set's fail_ppm; v3 truncated them to
/// whole percents).
pub const SCHEMA_VERSION: u64 = 4;

use std::fmt::Write as _;

use crate::event::{TraceEvent, TraceRecord};

/// A parsed trace line.
#[derive(Debug, Clone, PartialEq)]
pub enum Line {
    /// A run-header line: everything until the next header belongs to
    /// the named run.
    Run(String),
    /// An event record.
    Record(TraceRecord),
}

/// Renders a run-header line for `label`.
pub fn encode_run_header(label: &str) -> String {
    format!("{{\"run\":{},\"v\":{SCHEMA_VERSION}}}", quote(label))
}

/// Renders one record as a canonical JSONL line (no trailing newline).
pub fn encode(rec: &TraceRecord) -> String {
    let mut out = String::new();
    encode_into(rec, &mut out);
    out
}

fn encode_into(rec: &TraceRecord, out: &mut String) {
    out.push_str("{\"t\":");
    rec.t_us.put(out);
    out.push_str(",\"n\":");
    rec.node.put(out);
    out.push_str(",\"e\":");
    rec.event.kind().put(out);
    rec.event.encode_fields(out);
    out.push('}');
}

/// Renders a whole trace (records only) with one record per line and a
/// trailing newline, the canonical file form.
pub fn encode_all(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        encode_into(rec, &mut out);
        out.push('\n');
    }
    out
}

/// Why a line failed to decode: a structurally sound record whose
/// event kind this build does not know (newer producer — safe to skip)
/// vs anything else (corrupt line — never skipped silently).
enum DecodeErr {
    UnknownKind(String),
    Other(String),
}

fn decode_line(line: &str) -> Result<Option<Line>, DecodeErr> {
    let line = line.trim();
    if line.is_empty() {
        return Ok(None);
    }
    let fields = parse_flat_object(line).map_err(DecodeErr::Other)?;
    if let Some(Val::Str(label)) = get(&fields, "run") {
        return Ok(Some(Line::Run(label.clone())));
    }
    let t_us = u64::get(&fields, "t").map_err(DecodeErr::Other)?;
    let node = u32::get(&fields, "n").map_err(DecodeErr::Other)?;
    let kind = match get(&fields, "e") {
        Some(Val::Str(s)) => s.clone(),
        _ => return Err(DecodeErr::Other("missing event kind `e`".into())),
    };
    let event = match TraceEvent::decode_fields(&kind, &fields).map_err(DecodeErr::Other)? {
        Some(ev) => ev,
        None => return Err(DecodeErr::UnknownKind(kind)),
    };
    Ok(Some(Line::Record(TraceRecord { t_us, node, event })))
}

/// Parses one line; `None` for blank lines, `Err` for malformed ones
/// (including unknown event kinds — this entry point is strict).
pub fn decode(line: &str) -> Result<Option<Line>, String> {
    decode_line(line).map_err(|e| match e {
        DecodeErr::UnknownKind(k) => format!("unknown event kind {k:?}"),
        DecodeErr::Other(s) => s,
    })
}

/// One run's worth of decoded trace: `(run label, records)`.
pub type Run = (String, Vec<TraceRecord>);

/// Parses a whole file into `(run label, records)` groups. Records
/// before any header land in a group labelled `""`. Records with an
/// unknown event kind (from a newer producer) are skipped; use
/// [`decode_runs_counting`] to learn how many.
pub fn decode_runs(text: &str) -> Result<Vec<Run>, String> {
    decode_runs_counting(text).map(|(runs, _)| runs)
}

/// Like [`decode_runs`], also returning the number of records skipped
/// because their event kind was unknown — callers surface it as a
/// warning.
pub fn decode_runs_counting(text: &str) -> Result<(Vec<Run>, u64), String> {
    let mut runs: Vec<Run> = Vec::new();
    let mut skipped = 0u64;
    for (i, raw) in text.lines().enumerate() {
        match decode_line(raw) {
            Err(DecodeErr::UnknownKind(_)) => skipped += 1,
            Err(DecodeErr::Other(e)) => return Err(format!("line {}: {e}", i + 1)),
            Ok(None) => {}
            Ok(Some(Line::Run(label))) => runs.push((label, Vec::new())),
            Ok(Some(Line::Record(rec))) => {
                if runs.is_empty() {
                    runs.push((String::new(), Vec::new()));
                }
                if let Some(run) = runs.last_mut() {
                    run.1.push(rec);
                }
            }
        }
    }
    Ok((runs, skipped))
}

/// Tag strings appear in events as `&'static str`; the decoder interns
/// the known vocabulary back to statics. This list is the one place
/// that knows the tag vocabulary.
const TAGS: &[&str] = &[
    "fast",
    "classic",
    "blocked",
    "size",
    "window",
    "single",
    "partition",
    "loss",
    "dest_down",
    // Protocol message kinds carried by msg_tag records.
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
    "reconfig",
    // Monitor rule names carried by alert_* records.
    "replica_down",
    "error_rate",
    "slo_fast_burn",
    "slo_slow_burn",
    "wips_drop",
];

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Val {
    Num(u64),
    Bool(bool),
    Str(String),
}

/// One parsed line: its `(key, value)` pairs in file order.
pub(crate) type Fields = [(String, Val)];

fn get<'a>(fields: &'a Fields, key: &str) -> Option<&'a Val> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// The JSONL codec of one event-field type. The event table
/// ([`crate::event`]) names a type per field; these four impls are all
/// the per-type encode/decode code there is.
pub(crate) trait Field: Sized {
    /// Appends the value's JSON rendering.
    fn put(&self, out: &mut String);
    /// Reads the value stored under `key`.
    fn get(f: &Fields, key: &str) -> Result<Self, String>;
    /// Some value of the type, derived from `v` (for generated tests).
    #[cfg(test)]
    fn from_int(v: u64) -> Self;
}

/// Appends `,"key":value`.
pub(crate) fn put_field<T: Field>(out: &mut String, key: &str, value: &T) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    value.put(out);
}

impl Field for u64 {
    fn put(&self, out: &mut String) {
        // Writing to a String cannot fail.
        let _ = write!(out, "{self}");
    }
    fn get(f: &Fields, key: &str) -> Result<u64, String> {
        match get(f, key) {
            Some(Val::Num(n)) => Ok(*n),
            _ => Err(format!("missing numeric field {key:?}")),
        }
    }
    #[cfg(test)]
    fn from_int(v: u64) -> u64 {
        v
    }
}

impl Field for u32 {
    fn put(&self, out: &mut String) {
        u64::from(*self).put(out);
    }
    fn get(f: &Fields, key: &str) -> Result<u32, String> {
        u32::try_from(u64::get(f, key)?).map_err(|_| format!("field {key:?} exceeds 32 bits"))
    }
    #[cfg(test)]
    fn from_int(v: u64) -> u32 {
        v as u32
    }
}

impl Field for bool {
    fn put(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn get(f: &Fields, key: &str) -> Result<bool, String> {
        match get(f, key) {
            Some(Val::Bool(b)) => Ok(*b),
            _ => Err(format!("missing boolean field {key:?}")),
        }
    }
    #[cfg(test)]
    fn from_int(v: u64) -> bool {
        v & 1 == 1
    }
}

impl Field for &'static str {
    fn put(&self, out: &mut String) {
        // Tags are plain identifiers: no escaping needed.
        out.push('"');
        out.push_str(self);
        out.push('"');
    }
    fn get(f: &Fields, key: &str) -> Result<&'static str, String> {
        match get(f, key) {
            Some(Val::Str(s)) => TAGS
                .iter()
                .find(|t| *t == s)
                .copied()
                .ok_or_else(|| format!("unknown tag {s:?} for field {key:?}")),
            _ => Err(format!("missing string field {key:?}")),
        }
    }
    #[cfg(test)]
    fn from_int(v: u64) -> &'static str {
        TAGS[(v % TAGS.len() as u64) as usize]
    }
}

/// Parses exactly one flat JSON object of string/number/boolean values.
fn parse_flat_object(line: &str) -> Result<Vec<(String, Val)>, String> {
    let mut chars = line.chars().peekable();
    let mut fields = Vec::new();
    if chars.next() != Some('{') {
        return Err("expected '{'".into());
    }
    loop {
        match chars.peek() {
            Some('}') => {
                chars.next();
                break;
            }
            Some('"') => {}
            other => return Err(format!("expected key, found {other:?}")),
        }
        let key = parse_string(&mut chars)?;
        if chars.next() != Some(':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        let val = match chars.peek() {
            Some('"') => Val::Str(parse_string(&mut chars)?),
            Some('t') | Some('f') => {
                let word: String = chars
                    .clone()
                    .take_while(|c| c.is_ascii_alphabetic())
                    .collect();
                for _ in 0..word.len() {
                    chars.next();
                }
                match word.as_str() {
                    "true" => Val::Bool(true),
                    "false" => Val::Bool(false),
                    other => return Err(format!("bad literal {other:?}")),
                }
            }
            Some(c) if c.is_ascii_digit() => {
                let mut n = 0u64;
                while let Some(c) = chars.peek() {
                    match c.to_digit(10) {
                        Some(d) => {
                            n = n
                                .checked_mul(10)
                                .and_then(|n| n.checked_add(d as u64))
                                .ok_or("number overflow")?;
                            chars.next();
                        }
                        None => break,
                    }
                }
                Val::Num(n)
            }
            other => return Err(format!("bad value start {other:?}")),
        };
        fields.push((key, val));
        match chars.next() {
            Some(',') => {}
            Some('}') => break,
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
    if chars.next().is_some() {
        return Err("trailing characters after object".into());
    }
    Ok(fields)
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected '\"'".into());
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                other => return Err(format!("bad escape {other:?}")),
            },
            Some(c) => out.push(c),
            None => return Err("unterminated string".into()),
        }
    }
}

/// `s` as a JSON string literal: quotes, backslashes, newlines and tabs
/// escaped, the rest as is.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: TraceRecord) {
        let line = encode(&rec);
        match decode(&line).expect("parse").expect("line") {
            Line::Record(back) => assert_eq!(back, rec, "line {line}"),
            other => panic!("expected record, got {other:?}"),
        }
    }

    /// One record per table row, fields drawn from `next`.
    fn sample_records(next: &mut dyn FnMut() -> u64) -> Vec<TraceRecord> {
        let t_us = next();
        let node = next() as u32;
        TraceEvent::samples(next)
            .into_iter()
            .map(|event| TraceRecord { t_us, node, event })
            .collect()
    }

    #[test]
    fn every_variant_roundtrips_at_both_extremes() {
        // All-zero fields, then all-max: `u64::MAX` is the `TAG_NONE`
        // slot/round of a slot-less msg_tag, `u32::MAX` the cluster-scope
        // alert subject.
        for fill in [0, u64::MAX] {
            let records = sample_records(&mut || fill);
            assert_eq!(records.len(), 47, "one sample per event kind");
            for rec in records {
                roundtrip(rec);
            }
        }
        let max = sample_records(&mut || u64::MAX);
        let line = |kind: &str| {
            let rec = max.iter().find(|r| r.event.kind() == kind).expect(kind);
            encode(rec)
        };
        assert!(line("msg_tag").contains(&format!("\"slot\":{}", crate::TAG_NONE)));
        // The one renamed key: `n` is taken by the envelope's node id.
        assert!(line("epoch_change").contains(",\"replicas\":4294967295,"));
    }

    proptest::proptest! {
        #[test]
        fn decode_inverts_encode(ints in proptest::collection::vec(0..=u64::MAX, 1..64)) {
            let mut i = 0;
            let mut next = || {
                i += 1;
                ints[i % ints.len()]
            };
            for rec in sample_records(&mut next) {
                roundtrip(rec);
            }
        }

        #[test]
        fn decode_never_panics(bytes in proptest::collection::vec(proptest::any::<u8>(), 0..256)) {
            let text = String::from_utf8_lossy(&bytes);
            let _ = decode(&text);
            let _ = decode_runs_counting(&text);
        }

        /// Damaged but line-shaped input: a valid line with one byte
        /// replaced reaches the field decoders, not just the tokenizer.
        #[test]
        fn decode_of_damaged_lines_never_panics(at in 0usize..200, with in proptest::any::<u8>(), pick in 0usize..47) {
            let rec = sample_records(&mut || u64::MAX).swap_remove(pick);
            let mut bytes = encode(&rec).into_bytes();
            let at = at % bytes.len();
            bytes[at] = with;
            let _ = decode(&String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn run_headers_group_records() {
        let mut text = String::new();
        text.push_str(&encode_run_header("5r Browsing"));
        text.push('\n');
        text.push_str(&encode(&TraceRecord {
            t_us: 1,
            node: 0,
            event: TraceEvent::Crash,
        }));
        text.push('\n');
        text.push_str(&encode_run_header("8r Ordering"));
        text.push('\n');
        let runs = decode_runs(&text).expect("parse");
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].0, "5r Browsing");
        assert_eq!(runs[0].1.len(), 1);
        assert_eq!(runs[1].1.len(), 0);
    }

    #[test]
    fn header_label_with_quotes_roundtrips() {
        let line = encode_run_header("a \"b\" c");
        match decode(&line).expect("parse").expect("line") {
            Line::Run(label) => assert_eq!(label, "a \"b\" c"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        for bad in [
            "{",
            "{]",
            "{\"t\":1}",
            "nonsense",
            "{\"t\":1,\"n\":0,\"e\":\"nope\"}",
        ] {
            assert!(decode(bad).is_err(), "should reject {bad:?}");
        }
        assert_eq!(decode("   ").expect("blank ok"), None);
    }

    #[test]
    fn run_header_carries_schema_version() {
        let line = encode_run_header("x");
        assert_eq!(line, "{\"run\":\"x\",\"v\":4}");
        // Old v1 headers (no "v") still parse.
        match decode("{\"run\":\"old\"}").expect("parse").expect("line") {
            Line::Run(label) => assert_eq!(label, "old"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn decode_runs_skips_unknown_kinds_with_count() {
        let mut text = String::new();
        text.push_str(&encode_run_header("r"));
        text.push('\n');
        // A future event kind this build does not know.
        text.push_str("{\"t\":1,\"n\":0,\"e\":\"warp_drive\",\"factor\":9}\n");
        text.push_str(&encode(&TraceRecord {
            t_us: 2,
            node: 0,
            event: TraceEvent::Crash,
        }));
        text.push('\n');
        let (runs, skipped) = decode_runs_counting(&text).expect("lenient parse");
        assert_eq!(skipped, 1);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].1.len(), 1, "known record survives the skip");
        // The strict single-line entry point still rejects it.
        assert!(decode("{\"t\":1,\"n\":0,\"e\":\"warp_drive\"}").is_err());
        // Corrupt lines are errors even for the lenient parser.
        assert!(decode_runs_counting("{\"t\":1}").is_err());
    }

    #[test]
    fn encoding_is_deterministic() {
        let rec = TraceRecord {
            t_us: 5,
            node: 1,
            event: TraceEvent::Decided {
                slot: 3,
                noop: false,
            },
        };
        assert_eq!(encode(&rec), encode(&rec));
        assert_eq!(
            encode(&rec),
            "{\"t\":5,\"n\":1,\"e\":\"decided\",\"slot\":3,\"noop\":false}"
        );
    }
}
