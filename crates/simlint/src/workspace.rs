//! The analysis end to end: scan the workspace, build its index, run
//! `state-growth` from the roots, apply the waivers, and report the
//! findings, stale roots and stale waivers.
//!
//! The roots and waivers are Rust data ([`Config`]): the repository's
//! live in the test that lints it, `tests/fixtures.rs`. A waiver names
//! the fields it excuses as `Type.field`; a root pattern that matches no
//! function and a waived field that no longer grows are both errors, so
//! neither list can rot.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use crate::graph::{build, FileInput};
use crate::reach::match_roots;
use crate::rules::{check_graph, Diagnostic, FileData, GraphCtx};

/// Grow-only fields excused from `state-growth`, each named
/// `Type.field`, with why they are bounded or meant to grow.
#[derive(Debug)]
pub struct Waiver<'a> {
    pub fields: &'a [&'a str],
    pub reason: &'a str,
}

/// What to check: the root patterns ([`crate::reach`]) whose `self`
/// types are held state, and the waivers.
#[derive(Debug, Default)]
pub struct Config<'a> {
    pub roots: &'a [&'a str],
    pub waivers: &'a [Waiver<'a>],
}

/// Full analysis result for one run.
#[derive(Debug)]
pub struct Report {
    /// Unwaived findings, in path and line order.
    pub errors: Vec<Diagnostic>,
    /// Findings a waiver names.
    pub waived: Vec<Diagnostic>,
    /// Root patterns that match no function and waived fields that do
    /// not grow, one message each.
    pub stale: Vec<String>,
    pub files_scanned: usize,
}

/// Each finding as `path:line: message` with its chain, then each
/// stale root or waiver: the text a failing check prints.
impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.errors {
            writeln!(f, "{d}")?;
        }
        for s in &self.stale {
            writeln!(f, "{s}")?;
        }
        Ok(())
    }
}

/// Collects the `.rs` files simlint analyzes: `src/**` of the root
/// package and every `crates/*` member but simlint. Excluded: vendored
/// `shims/`, `target/`, integration `tests/` and `examples/`.
pub fn collect_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut roots = vec![root.join("src")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        let mut members: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            // simlint is a host-side tool, never part of the
            // simulation, so it is not scanned.
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

/// Runs the analysis over the workspace at `root`.
pub fn analyze(root: &Path, cfg: &Config<'_>) -> Report {
    let data: Vec<FileData> = collect_files(root)
        .iter()
        .filter_map(|path| {
            let src = fs::read_to_string(path).ok()?;
            Some(FileData::new(&rel_path(root, path), &src))
        })
        .collect();
    analyze_sources(&data, cfg)
}

/// Runs the analysis over pre-loaded sources (shared by [`analyze`] and
/// the in-memory tests).
pub fn analyze_sources(data: &[FileData], cfg: &Config<'_>) -> Report {
    let inputs: Vec<FileInput<'_>> = data
        .iter()
        .map(|f| FileInput {
            path: &f.rel,
            krate: &f.krate,
            items: &f.items,
        })
        .collect();
    let graph = build(&inputs);
    let roots = match_roots(&graph, cfg.roots);
    let mut diags = check_graph(&GraphCtx {
        files: data,
        graph: &graph,
        roots: &roots.ids,
    });
    diags.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));

    let waived: Vec<&str> = cfg.waivers.iter().flat_map(|w| w.fields).copied().collect();
    let (waived_diags, errors): (Vec<_>, Vec<_>) = diags
        .into_iter()
        .partition(|d| waived.contains(&d.field.as_str()));
    let stale_roots = roots.unmatched.iter().map(|pat| {
        format!(
            "stale root: {pat:?} matches no workspace function — the held state silently \
             shrank (fix the pattern or remove it)"
        )
    });
    let stale_waivers = waived
        .iter()
        .filter(|f| !waived_diags.iter().any(|d| d.field == **f))
        .map(|f| {
            format!("stale waiver: `{f}` is not a root-held field that only grows — remove it")
        });
    Report {
        errors,
        stale: stale_roots.chain(stale_waivers).collect(),
        waived: waived_diags,
        files_scanned: data.len(),
    }
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
