//! Configuration: `simlint.toml`'s root declarations and waivers.
//!
//! The top-level `roots` list, given once, declares the workspace entry
//! points whose `self` types are held state for `state-growth` (see
//! [`crate::reach`] for pattern syntax):
//!
//! ```toml
//! roots = ["Engine::*", "Replica::on_message", "decode_*"]
//! ```
//!
//! A waiver is a `[[waiver]]` table with a written justification; it
//! covers a whole file, or one line when it names one:
//!
//! ```toml
//! [[waiver]]
//! rule = "state-growth"
//! path = "crates/simnet/src/disk.rs"    # whole file …
//! line = 295                            # … or one line (optional)
//! reason = "StableStore.logs is keyed by the replica's fixed log names"
//! ```
//!
//! Waivers that no longer match any diagnostic are *stale* and are
//! themselves reported as errors, so the allowlist can only shrink as
//! code is fixed — it cannot silently rot. Root patterns that match no
//! workspace function are reported the same way.

/// One `[[waiver]]` entry from `simlint.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    pub rule: String,
    pub path: String,
    /// When `Some`, the waiver covers only this line; otherwise the file.
    pub line: Option<u32>,
    pub reason: String,
    /// Line in `simlint.toml` where this entry starts (for stale reports).
    pub decl_line: u32,
}

/// Parse failure for `simlint.toml`.
#[derive(Debug)]
pub struct ConfigError {
    pub line: u32,
    pub message: String,
}

/// Full parsed `simlint.toml`.
#[derive(Debug, Default)]
pub struct Config {
    pub waivers: Vec<Waiver>,
    /// `roots = […]`: entry points of simulated execution, whose self
    /// types are held state for `state-growth`.
    pub roots: Vec<String>,
}

/// Parses the minimal TOML subset used by `simlint.toml`: a top-level
/// `roots` string array (multi-line arrays supported) and `[[waiver]]`
/// tables with `key = "string"` / `key = integer` pairs; `#` comments
/// anywhere.
pub fn parse_config(src: &str) -> Result<Config, ConfigError> {
    let mut cfg = Config::default();
    let mut current: Option<Waiver> = None;
    // Multi-line accumulation of the `roots` array: (text, line).
    let mut pending: Option<(String, u32)> = None;
    // Where `roots` was first given: a second list would replace it.
    let mut roots_at: Option<u32> = None;

    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((text, decl)) = pending.as_mut() {
            let chunk = strip_comment(line);
            text.push_str(&chunk);
            if chunk.contains(']') {
                cfg.roots = root_list(text, *decl)?;
                pending = None;
            }
            continue;
        }
        if line == "[[waiver]]" {
            if let Some(w) = current.take() {
                finish(w, &mut cfg.waivers)?;
            }
            current = Some(Waiver {
                rule: String::new(),
                path: String::new(),
                line: None,
                reason: String::new(),
                decl_line: lineno,
            });
            continue;
        }
        if line.starts_with('[') {
            return Err(ConfigError {
                line: lineno,
                message: format!(
                    "unknown table {line}; only [[waiver]] is supported, and `roots = [ … ]` \
                     stands above the first one"
                ),
            });
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(ConfigError {
                line: lineno,
                message: format!("expected `key = value`, got {line:?}"),
            });
        };
        let key = key.trim();
        // Strip trailing same-line comments outside strings.
        let value = strip_comment(value.trim());
        match current.as_mut() {
            None if key == "roots" => {
                if let Some(first) = roots_at.replace(lineno) {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!(
                            "`roots` is given twice, on lines {first} and {lineno}; list \
                             every root in one array"
                        ),
                    });
                }
                if value.contains(']') {
                    cfg.roots = root_list(&value, lineno)?;
                } else {
                    pending = Some((value, lineno));
                }
            }
            None => {
                return Err(ConfigError {
                    line: lineno,
                    message: format!(
                        "unknown key {key:?} outside a [[waiver]] table (expected `roots`)"
                    ),
                });
            }
            Some(w) => match key {
                "rule" => w.rule = unquote(&value, lineno)?,
                "path" => w.path = unquote(&value, lineno)?,
                "reason" => w.reason = unquote(&value, lineno)?,
                "line" => {
                    w.line = Some(value.parse().map_err(|_| ConfigError {
                        line: lineno,
                        message: format!("line must be an integer, got {value:?}"),
                    })?)
                }
                other => {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unknown waiver key {other:?}"),
                    })
                }
            },
        }
    }
    if let Some((_, decl)) = pending {
        return Err(ConfigError {
            line: decl,
            message: "unterminated `roots` array".into(),
        });
    }
    if let Some(w) = current.take() {
        finish(w, &mut cfg.waivers)?;
    }
    Ok(cfg)
}

/// Splits an accumulated `[ "a", "b" ]` array body into unquoted
/// strings.
fn root_list(text: &str, lineno: u32) -> Result<Vec<String>, ConfigError> {
    let inner = text
        .trim()
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| ConfigError {
            line: lineno,
            message: "roots must be a `[ … ]` array".into(),
        })?;
    inner
        .split(',')
        .map(str::trim)
        .filter(|part| !part.is_empty())
        .map(|part| unquote(part, lineno))
        .collect()
}

fn finish(w: Waiver, out: &mut Vec<Waiver>) -> Result<(), ConfigError> {
    if w.rule.is_empty() || w.path.is_empty() {
        return Err(ConfigError {
            line: w.decl_line,
            message: "waiver requires both `rule` and `path`".into(),
        });
    }
    if w.reason.trim().len() < 8 {
        return Err(ConfigError {
            line: w.decl_line,
            message: format!(
                "waiver for {} at {} needs a written justification (reason >= 8 chars)",
                w.rule, w.path
            ),
        });
    }
    out.push(w);
    Ok(())
}

fn strip_comment(v: &str) -> String {
    let mut in_str = false;
    let mut out = String::new();
    let mut chars = v.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                in_str = !in_str;
                out.push(c);
            }
            '\\' if in_str => {
                out.push(c);
                if let Some(n) = chars.next() {
                    out.push(n);
                }
            }
            '#' if !in_str => break,
            c => out.push(c),
        }
    }
    out.trim().to_string()
}

fn unquote(v: &str, lineno: u32) -> Result<String, ConfigError> {
    let v = v.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1]
            .replace("\\\"", "\"")
            .replace("\\\\", "\\"))
    } else {
        Err(ConfigError {
            line: lineno,
            message: format!("expected a quoted string, got {v}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_waiver_tables() {
        let src = r#"
# central allowlist
[[waiver]]
rule = "wall-clock"
path = "crates/core/src/runtime.rs"
reason = "threaded runtime is not sim-reachable"

[[waiver]]
rule = "hash-order"
path = "crates/tpcw/src/population.rs"
line = 328  # process-global cache
reason = "cache keyed by params; never iterated"
"#;
        let ws = parse_config(src).unwrap().waivers;
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].rule, "wall-clock");
        assert_eq!(ws[0].line, None);
        assert_eq!(ws[1].line, Some(328));
    }

    #[test]
    fn parses_roots_single_and_multi_line() {
        let one = parse_config("roots = [\"Engine::*\", \"decode_*\"]  # inline\n").unwrap();
        assert_eq!(one.roots, vec!["Engine::*", "decode_*"]);
        let src = r#"
roots = [
    "Replica::on_message",
    "decode_*",  # codec glob
]

[[waiver]]
rule = "state-growth"
path = "crates/core/src/log.rs"
reason = "compacted by snapshot task"
"#;
        let cfg = parse_config(src).unwrap();
        assert_eq!(cfg.roots, vec!["Replica::on_message", "decode_*"]);
        assert_eq!(cfg.waivers.len(), 1);
    }

    #[test]
    fn rejects_unknown_roots_key_and_unterminated_array() {
        // The two lists of the old `[roots]` table are one now.
        assert!(parse_config("[roots]\nsim = [\"x\"]\n").is_err());
        assert!(parse_config("protocol = [\"x\"]\n").is_err());
        assert!(parse_config("roots = [\n\"x\",\n").is_err());
        // A second `roots` line would silently replace the first list.
        let twice = "roots = [\"Replica::on_message\"]\n# more\nroots = [\"Engine::*\"]\n";
        let err = parse_config(twice).expect_err("duplicate roots");
        assert_eq!(err.line, 3);
        assert!(err.message.contains("lines 1 and 3"), "{}", err.message);
    }

    #[test]
    fn rejects_missing_reason() {
        let src = "[[waiver]]\nrule = \"x\"\npath = \"y\"\nreason = \"no\"\n";
        assert!(parse_config(src).is_err());
    }

    #[test]
    fn rejects_unquoted_and_unknown_keys() {
        assert!(parse_config("[[waiver]]\nrule = wall-clock\n").is_err());
        assert!(parse_config(
            "[[waiver]]\nrule = \"r\"\npath = \"p\"\nreason = \"long enough\"\nfoo = \"bar\"\n"
        )
        .is_err());
    }
}
