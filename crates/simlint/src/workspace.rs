//! Workspace enumeration and the analysis driver: scan files, build the
//! workspace index, run `state-growth`, apply waivers, detect stale
//! waivers and stale roots, build the report.

use std::fs;
use std::path::{Path, PathBuf};

use crate::config::{parse_config, Config, ConfigError};
use crate::diag::Diagnostic;
use crate::graph::{build, FileInput};
use crate::items::parse_items;
use crate::lexer::{lex, test_spans};
use crate::reach::match_roots;
use crate::rules::{check_graph, is_known_rule, FileData, GraphCtx};

/// Appended to an unknown-rule error: the seven rules simlint retired
/// are clippy's, and the hint says where each one went.
const UNKNOWN_RULE_HINT: &str = "(`simlint --list-rules` names simlint's rule; clippy owns \
     `hash-order` and `sim-taint` in clippy.toml, `io-println` as the print lints, `lossy-cast` \
     as cast_possible_truncation, `float-state` as float_arithmetic, `unchecked-slot-arith` as \
     arithmetic_side_effects and `panic-taint` as unwrap_used, expect_used, panic, unreachable, \
     todo, unimplemented and indexing_slicing)";

/// A waiver or root pattern that matched nothing (or is malformed) —
/// itself an error.
#[derive(Debug, Clone)]
pub struct StaleWaiver {
    /// Where it is declared (`simlint.toml:12`, `simlint.toml roots`).
    pub declared_at: String,
    pub rule: String,
    pub message: String,
}

/// Full analysis result for one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Unwaived violations (cause a non-zero exit).
    pub errors: Vec<Diagnostic>,
    /// Violations suppressed by a waiver, with the justification.
    pub waived: Vec<(Diagnostic, String)>,
    /// Stale or malformed waivers and stale root patterns (also cause a
    /// non-zero exit — code 3 when they are the *only* failure).
    pub stale: Vec<StaleWaiver>,
    pub files_scanned: usize,
}

impl Report {
    /// Whether the run should exit non-zero.
    pub fn failed(&self) -> bool {
        !self.errors.is_empty() || !self.stale.is_empty()
    }

    /// Whether the *only* failure is staleness (dedicated exit code 3,
    /// so CI can distinguish "code is dirty" from "allowlist rotted").
    pub fn stale_only(&self) -> bool {
        self.errors.is_empty() && !self.stale.is_empty()
    }
}

/// Collects the `.rs` files simlint analyzes: `src/**` of the root
/// package and every `crates/*` member. Excluded: vendored `shims/`,
/// `target/`, integration `tests/`, `examples/`, fixture corpora.
pub fn collect_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut roots = vec![root.join("src")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        let mut members: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            // simlint's own sources document the waiver syntax and rule
            // patterns in prose; it is a host-side tool, never part of
            // the simulation, so it is not scanned.
            .filter(|p| p.file_name().is_none_or(|n| n != "simlint"))
            .map(|p| p.join("src"))
            .collect();
        members.sort();
        roots.extend(members);
    }
    for r in roots {
        walk(&r, &mut files);
    }
    files.sort();
    files
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Derives the crate name from a repo-relative path:
/// `crates/<name>/src/…` → `<name>`, root `src/…` → `"."`.
pub fn crate_of(rel: &str) -> &str {
    if let Some(rest) = rel.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or(".")
    } else {
        "."
    }
}

/// Runs the full analysis over `root`, applying configuration from
/// `config_src` (the contents of `simlint.toml`, empty string if absent).
pub fn analyze(root: &Path, config_src: &str) -> Result<Report, ConfigError> {
    let cfg = parse_config(config_src)?;
    for w in &cfg.waivers {
        if !is_known_rule(&w.rule) {
            return Err(ConfigError {
                line: w.decl_line,
                message: format!("waiver names unknown rule {:?} {UNKNOWN_RULE_HINT}", w.rule),
            });
        }
    }

    // Load every file once: lex, test spans, items.
    let mut data: Vec<FileData> = Vec::new();
    for path in collect_files(root) {
        let rel = rel_path(root, &path);
        let Ok(src) = fs::read_to_string(&path) else {
            continue;
        };
        let tokens = lex(&src);
        let items = parse_items(&tokens, &test_spans(&tokens));
        data.push(FileData {
            krate: crate_of(&rel).to_string(),
            rel,
            src,
            tokens,
            items,
        });
    }
    Ok(analyze_sources(&data, &cfg))
}

/// Runs the analysis over pre-loaded sources (shared by [`analyze`] and
/// the in-memory fixture tests).
pub fn analyze_sources(data: &[FileData], cfg: &Config) -> Report {
    let mut report = Report {
        files_scanned: data.len(),
        ..Report::default()
    };

    // --- index + roots ---------------------------------------------------
    let inputs: Vec<FileInput<'_>> = data
        .iter()
        .map(|f| FileInput {
            path: &f.rel,
            krate: &f.krate,
            items: &f.items,
        })
        .collect();
    let graph = build(&inputs);
    let roots = match_roots(&graph, &cfg.roots);
    for pat in &roots.unmatched {
        report.stale.push(StaleWaiver {
            declared_at: "simlint.toml roots".into(),
            rule: "roots".into(),
            message: format!(
                "root pattern {pat:?} matches no workspace function — the held state \
                 silently shrank (fix the pattern or remove it)"
            ),
        });
    }

    // --- run the rule, in file order ------------------------------------
    let mut diags = check_graph(&GraphCtx {
        files: data,
        graph: &graph,
        roots: &roots.ids,
    });
    diags.sort_by_cached_key(|d| {
        let file = data.iter().position(|f| f.rel == d.path);
        (file, d.line, d.col, d.rule)
    });

    // --- waivers ---------------------------------------------------------
    let mut used = vec![false; cfg.waivers.len()];
    for d in diags {
        let waiver = cfg.waivers.iter().position(|w| {
            w.rule == d.rule && w.path == d.path && w.line.is_none_or(|l| l == d.line)
        });
        match waiver {
            Some(wi) => {
                used[wi] = true;
                report.waived.push((d, cfg.waivers[wi].reason.clone()));
            }
            None => report.errors.push(d),
        }
    }

    for (w, used) in cfg.waivers.iter().zip(used) {
        if !used {
            let exists = data.iter().any(|f| f.rel == w.path);
            report.stale.push(StaleWaiver {
                declared_at: format!("simlint.toml:{}", w.decl_line),
                rule: w.rule.clone(),
                message: if exists {
                    format!(
                        "waiver for {} at {} matches no diagnostic — remove it (stale waiver)",
                        w.rule, w.path
                    )
                } else {
                    format!("waiver points at missing file {}", w.path)
                },
            });
        }
    }

    // Errors read in path order.
    report
        .errors
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    report
}

/// Repo-relative path with forward slashes.
pub fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_of_paths() {
        assert_eq!(crate_of("crates/paxos/src/replica.rs"), "paxos");
        assert_eq!(crate_of("src/lib.rs"), ".");
    }
}
