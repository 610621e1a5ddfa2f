//! The replica path denies clippy's panic lints and unchecked
//! arithmetic, in tier-1.
//!
//! The paper's fault model is crash-stop: a replica stops only where
//! the faultload crashes it. A panic in a replica's message path would
//! be a crash outside that model, so every crate a replica runs denies
//! the seven lints through which code can panic, and so do the two
//! cluster files that see every protocol message (`server.rs`, which
//! hosts the middleware, and `audit.rs`, which checks its effects).
//! Clippy enforces the deny; this test keeps the deny itself from
//! going missing: it walks the normal `[dependencies]` of `paxos`,
//! `treplica` and `robuststore` through the `Cargo.toml`s, and fails if
//! a crate of that closure drops a lint, if module-level opt-outs
//! grow past their cap, or if the item-level waivers of
//! `indexing_slicing` do.
//!
//! Slot, round and generation ordinals index the log every replica
//! applies in one order; a wrapped ordinal reorders it. So `paxos`,
//! `treplica` and the two cluster files also deny
//! `clippy::arithmetic_side_effects` outside test code, with no
//! module-level opt-out at all.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// The lints that can keep a panic on the replica path.
const PANIC_LINTS: [&str; 7] = [
    "unwrap_used",
    "expect_used",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "indexing_slicing",
];

/// Files outside the closure that deny the lints file-wide.
const CLUSTER_FILES: [&str; 2] = [
    "crates/cluster/src/server.rs",
    "crates/cluster/src/audit.rs",
];

/// Module-level `#![expect]`/`#![allow]` of a panic lint in the closure.
/// Policy: the count can only shrink; lower the cap when one goes.
const MODULE_OPT_OUT_CAP: usize = 2;

/// Item-level `#[expect(clippy::indexing_slicing, …)]` sites in the
/// closure and [`CLUSTER_FILES`]: each claims an index in range by
/// construction. Same policy as [`MODULE_OPT_OUT_CAP`].
const INDEXING_WAIVER_CAP: usize = 10;

/// The deny that keeps ordinals, simulated times, sizes and tallies
/// from wrapping; test code is exempt.
const ARITH_DENY: &str = "#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]";

/// Crates whose `lib.rs` carries [`ARITH_DENY`], as do [`CLUSTER_FILES`].
const ARITH_CRATES: [&str; 2] = ["paxos", "treplica"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `key = value` lines of one `[table]` of a `Cargo.toml`.
fn table<'a>(toml: &'a str, name: &str) -> Vec<(&'a str, &'a str)> {
    let header = format!("[{name}]");
    toml.lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim(), v.trim()))
        .collect()
}

/// The `path = "…"` of a dependency's inline table, if it has one.
fn path_of(value: &str) -> Option<&str> {
    let rest = &value[value.find("path")?..];
    rest.split('"').nth(1)
}

/// Directories (relative to the root) of the workspace crates that
/// `starts` depend on, transitively through normal `[dependencies]`,
/// keyed by dependency name; vendored `shims/` are skipped.
fn closure(starts: &[&str]) -> BTreeMap<String, PathBuf> {
    let root_toml = read(&root().join("Cargo.toml"));
    let workspace: BTreeMap<&str, &str> = table(&root_toml, "workspace.dependencies")
        .into_iter()
        .filter_map(|(k, v)| Some((k, path_of(v)?)))
        .collect();
    let mut found = BTreeMap::new();
    let mut queue: Vec<String> = starts.iter().map(|s| s.to_string()).collect();
    while let Some(name) = queue.pop() {
        let Some(dir) = workspace.get(name.as_str()) else {
            panic!("dependency {name} is not a workspace path dependency");
        };
        if dir.starts_with("shims/") || found.contains_key(&name) {
            continue;
        }
        let toml = read(&root().join(dir).join("Cargo.toml"));
        for (key, _) in table(&toml, "dependencies") {
            queue.push(key.trim_end_matches(".workspace").to_string());
        }
        found.insert(name, PathBuf::from(dir));
    }
    found
}

/// The lints named by the file's inner `#![deny(…)]` attributes.
fn denied(src: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for chunk in src.split("#![deny(").skip(1) {
        let body = chunk.split(")]").next().unwrap_or_default();
        out.extend(
            body.split(',')
                .map(|l| l.trim().trim_start_matches("clippy::")),
        );
    }
    out
}

fn missing_lints(path: &Path) -> Vec<&'static str> {
    let src = read(path);
    let denied = denied(&src);
    PANIC_LINTS
        .into_iter()
        .filter(|l| !denied.contains(l))
        .collect()
}

/// Every `.rs` file under `dir`, sorted.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Attributes opened by `open` (`"#!["` inner, `"#["` outer) that
/// `#[expect]` or `#[allow]` one of `lints`.
fn waivers(src: &str, open: &str, lints: &[&str]) -> usize {
    src.split(open)
        .skip(1)
        .filter(|attr| attr.starts_with("expect(") || attr.starts_with("allow("))
        .filter(|attr| {
            let body = attr.split(")]").next().unwrap_or_default();
            lints.iter().any(|l| body.contains(&format!("clippy::{l}")))
        })
        .count()
}

#[test]
fn replica_closure_denies_the_panic_lints() {
    let crates = closure(&["paxos", "treplica", "robuststore"]);
    // The walk must reach past the three it starts from.
    for dep in ["obs", "simnet", "tpcw"] {
        assert!(crates.contains_key(dep), "{dep} missing from {crates:?}");
    }

    let mut files: Vec<PathBuf> = crates
        .values()
        .map(|dir| root().join(dir).join("src/lib.rs"))
        .collect();
    files.extend(CLUSTER_FILES.iter().map(|f| root().join(f)));
    let missing: Vec<String> = files
        .iter()
        .map(|f| (f, missing_lints(f)))
        .filter(|(_, lints)| !lints.is_empty())
        .map(|(f, lints)| format!("{} lacks {lints:?}", f.display()))
        .collect();
    assert!(
        missing.is_empty(),
        "panic-lint deny missing:\n{}",
        missing.join("\n")
    );

    let mut scanned = Vec::new();
    for dir in crates.values() {
        sources(&root().join(dir).join("src"), &mut scanned);
    }
    scanned.extend(CLUSTER_FILES.iter().map(|f| root().join(f)));
    let opt_outs: Vec<(String, usize)> = scanned
        .iter()
        .map(|f| {
            (
                f.display().to_string(),
                waivers(&read(f), "#![", &PANIC_LINTS),
            )
        })
        .filter(|&(_, n)| n > 0)
        .collect();
    let total: usize = opt_outs.iter().map(|(_, n)| n).sum();
    assert!(
        total <= MODULE_OPT_OUT_CAP,
        "{total} module-level panic-lint opt-outs, above the cap of {MODULE_OPT_OUT_CAP}; \
         put an `#[expect]` on the function instead: {opt_outs:?}"
    );

    let indexing: Vec<(String, usize)> = scanned
        .iter()
        .map(|f| {
            let n = waivers(&read(f), "#[", &["indexing_slicing"]);
            (f.display().to_string(), n)
        })
        .filter(|&(_, n)| n > 0)
        .collect();
    let total: usize = indexing.iter().map(|(_, n)| n).sum();
    assert!(
        total <= INDEXING_WAIVER_CAP,
        "{total} item-level indexing_slicing waivers, above the cap of \
         {INDEXING_WAIVER_CAP}; reach the value through `get` or an iterator: {indexing:?}"
    );

    let arith_dirs: Vec<PathBuf> = ARITH_CRATES
        .iter()
        .map(|c| root().join(&crates[*c]).join("src"))
        .collect();
    let mut arith_files: Vec<PathBuf> = arith_dirs.iter().map(|d| d.join("lib.rs")).collect();
    arith_files.extend(CLUSTER_FILES.iter().map(|f| root().join(f)));
    let lacking: Vec<String> = arith_files
        .iter()
        .filter(|f| !read(f).lines().any(|l| l.trim() == ARITH_DENY))
        .map(|f| f.display().to_string())
        .collect();
    assert!(
        lacking.is_empty(),
        "`{ARITH_DENY}` missing from {lacking:?}"
    );

    let mut arith_scanned = Vec::new();
    for dir in &arith_dirs {
        sources(dir, &mut arith_scanned);
    }
    arith_scanned.extend(CLUSTER_FILES.iter().map(|f| root().join(f)));
    let arith_opt_outs: Vec<String> = arith_scanned
        .iter()
        .filter(|f| waivers(&read(f), "#![", &["arithmetic_side_effects"]) > 0)
        .map(|f| f.display().to_string())
        .collect();
    assert!(
        arith_opt_outs.is_empty(),
        "module-level arithmetic_side_effects opt-outs (cap 0); put an `#[expect]` on \
         the function instead: {arith_opt_outs:?}"
    );
}
