//! simlint — workspace determinism-and-safety static analysis.
//!
//! The paper's crash/failover/recovery measurements are reproducible
//! only because every replica run is deterministic; PR 1 chased
//! hash-order nondeterminism by hand and PR 3's byte-identical-trace
//! guarantee turns any future nondeterminism into a silent regression.
//! simlint keeps the one invariant clippy cannot express:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `state-growth` | root-held collections have a shrink site somewhere |
//!
//! The rest of the determinism and safety policy is clippy's, which
//! resolves paths and types where a token rule guesses: hash-ordered
//! containers and wall-clock, thread and environment calls
//! (`clippy.toml`), narrowing casts (`cast_possible_truncation`), float
//! arithmetic in the replicated state machines (`float_arithmetic`),
//! unchecked ordinal arithmetic (`arithmetic_side_effects`), raw
//! printing from library crates (`print_stdout`, `print_stderr`,
//! `dbg_macro`) and panics in the crates a replica runs (`unwrap_used`,
//! `expect_used`, `panic`, `unreachable`, `todo`, `unimplemented` and
//! `indexing_slicing`).
//!
//! `state-growth` runs over a workspace index of functions and structs
//! ([`items`] → [`graph`]) from the `roots` declared in `simlint.toml`
//! ([`reach`]); its diagnostics carry the chain of fields from a root's
//! `self` type to the collection that only grows.
//!
//! Run with `cargo run -p simlint` (human diagnostics) or
//! `cargo run -p simlint -- --json -` (machine-readable report, schema
//! v3). Waivers are `[[waiver]]` tables in `simlint.toml` ([`config`]);
//! stale waivers and stale root patterns are errors, so the allowlist
//! can only shrink.
//!
//! The analyzer is dependency-free by design: the build environment is
//! offline (external crates are vendored shims), so instead of `syn` it
//! uses a self-contained lexer (see [`lexer`]) that understands
//! comments, strings, lifetimes, and `#[cfg(test)]` regions — enough
//! for heuristic item extraction and field-use scans.

#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod config;
pub mod diag;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod reach;
pub mod rules;
pub mod workspace;

use std::fmt::Write as _;

use diag::json_escape;
use workspace::Report;

/// JSON schema version of the `--json` report. v2 added `chain` arrays
/// on diagnostics; v3 drops the `graph` block v2 carried.
pub const JSON_VERSION: u32 = 3;

/// Serializes a [`Report`] as the stable `--json` document.
pub fn report_to_json(report: &Report) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"version\": {JSON_VERSION},");
    let _ = writeln!(s, "  \"tool\": \"simlint\",");
    let _ = writeln!(
        s,
        "  \"rules\": [{}],",
        rules::RULES
            .iter()
            .map(|r| format!("\"{}\"", r.name))
            .collect::<Vec<_>>()
            .join(", ")
    );
    s.push_str("  \"diagnostics\": [\n");
    for (i, d) in report.errors.iter().enumerate() {
        let comma = if i + 1 < report.errors.len() { "," } else { "" };
        let _ = writeln!(s, "    {}{comma}", diag::to_json(d));
    }
    s.push_str("  ],\n  \"waived\": [\n");
    for (i, (d, reason)) in report.waived.iter().enumerate() {
        let comma = if i + 1 < report.waived.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"reason\":\"{}\"}}{comma}",
            json_escape(d.rule),
            json_escape(&d.path),
            d.line,
            json_escape(reason),
        );
    }
    s.push_str("  ],\n  \"stale_waivers\": [\n");
    for (i, w) in report.stale.iter().enumerate() {
        let comma = if i + 1 < report.stale.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"declared_at\":\"{}\",\"rule\":\"{}\",\"message\":\"{}\"}}{comma}",
            json_escape(&w.declared_at),
            json_escape(&w.rule),
            json_escape(&w.message),
        );
    }
    s.push_str("  ],\n");
    let _ = writeln!(
        s,
        "  \"summary\": {{\"errors\": {}, \"waived\": {}, \"stale_waivers\": {}, \"files_scanned\": {}}}",
        report.errors.len(),
        report.waived.len(),
        report.stale.len(),
        report.files_scanned
    );
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use diag::Diagnostic;

    #[test]
    fn json_report_shape() {
        let mut r = Report {
            files_scanned: 3,
            ..Report::default()
        };
        r.errors.push(Diagnostic {
            rule: "state-growth",
            path: "crates/paxos/src/x.rs".into(),
            line: 5,
            col: 2,
            message: "m".into(),
            snippet: "s".into(),
            help: "h",
            chain: vec!["a (f.rs:1)".into(), "b (g.rs:2)".into()],
        });
        let j = report_to_json(&r);
        assert!(j.contains("\"version\": 3"));
        assert!(j.contains("\"errors\": 1"));
        assert!(j.contains("\"files_scanned\": 3"));
        assert!(j.contains("\"rule\":\"state-growth\""));
        assert!(j.contains("\"chain\":[\"a (f.rs:1)\",\"b (g.rs:2)\"]"));
        assert!(!j.contains("\"graph\""));
    }
}
