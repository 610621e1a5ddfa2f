//! Diagnostics: rustc-style rendering and machine-readable JSON.

use std::fmt::Write as _;

/// One finding from a rule, anchored to a source span.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule slug, e.g. `hash-order`.
    pub rule: &'static str,
    /// Repo-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human message (what + where-specific context).
    pub message: String,
    /// The full source line, for the caret snippet.
    pub snippet: String,
    /// Per-rule fix guidance.
    pub help: &'static str,
    /// For `state-growth`: the chain from a declared root down to the
    /// held struct (`label (path:line)` per hop, root first). Empty for
    /// file-scoped rules.
    pub chain: Vec<String>,
}

/// Renders one diagnostic in rustc style.
pub fn render(d: &Diagnostic) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "error[simlint::{}]: {}", d.rule, d.message);
    let _ = writeln!(s, "  --> {}:{}:{}", d.path, d.line, d.col);
    let gutter = d.line.to_string().len();
    let _ = writeln!(s, "{:g$} |", "", g = gutter);
    let _ = writeln!(s, "{} | {}", d.line, d.snippet.trim_end());
    let caret_pad = d.snippet[..usize::min(d.col.saturating_sub(1) as usize, d.snippet.len())]
        .chars()
        .map(|c| if c == '\t' { '\t' } else { ' ' })
        .collect::<String>();
    let _ = writeln!(s, "{:g$} | {}^", "", caret_pad, g = gutter);
    if !d.chain.is_empty() {
        let _ = writeln!(
            s,
            "{:g$} = note: held via {}",
            "",
            d.chain.join(" → "),
            g = gutter
        );
    }
    let _ = writeln!(s, "{:g$} = help: {}", "", d.help, g = gutter);
    s
}

/// Escapes a string for JSON output.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serializes one diagnostic as a JSON object, with the `chain`
/// provenance array (empty for file-scoped rules).
pub fn to_json(d: &Diagnostic) -> String {
    let chain = d
        .chain
        .iter()
        .map(|c| format!("\"{}\"", json_escape(c)))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\",\"snippet\":\"{}\",\"help\":\"{}\",\"chain\":[{}]}}",
        json_escape(d.rule),
        json_escape(&d.path),
        d.line,
        d.col,
        json_escape(&d.message),
        json_escape(d.snippet.trim_end()),
        json_escape(d.help),
        chain,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic {
            rule: "hash-order",
            path: "crates/x/src/lib.rs".into(),
            line: 7,
            col: 5,
            message: "std::collections::HashMap in sim-visible crate `x`".into(),
            snippet: "    HashMap::new()".into(),
            help: "use BTreeMap",
            chain: Vec::new(),
        }
    }

    #[test]
    fn render_has_span_and_help() {
        let r = render(&sample());
        assert!(r.contains("error[simlint::hash-order]"));
        assert!(r.contains("--> crates/x/src/lib.rs:7:5"));
        assert!(r.contains("help: use BTreeMap"));
        assert!(!r.contains("held via"));
    }

    #[test]
    fn render_and_json_carry_chain() {
        let mut d = sample();
        d.chain = vec![
            "root Replica::on_message (crates/paxos/src/replica.rs:470)".into(),
            "Replica.log: Log (crates/paxos/src/replica.rs:40)".into(),
        ];
        let r = render(&d);
        assert!(r.contains(
            "note: held via root Replica::on_message (crates/paxos/src/replica.rs:470) \
             → Replica.log: Log (crates/paxos/src/replica.rs:40)"
        ));
        let j = to_json(&d);
        assert!(j.contains("\"chain\":[\"root Replica::on_message"));
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn json_object_is_parseable_shape() {
        let j = to_json(&sample());
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"rule\":\"hash-order\""));
        assert!(j.contains("\"line\":7"));
    }
}
