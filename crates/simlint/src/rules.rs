//! The rule simlint keeps: a repo-specific invariant that clippy
//! cannot express.
//!
//! `state-growth` runs over the workspace index ([`crate::graph`]) from
//! the `roots` declared in `simlint.toml`: the structs a root's `self`
//! type holds, transitively through their fields, must not keep a
//! collection that only grows. Clippy has no lint that follows a
//! struct's fields to the methods called on them anywhere in the
//! workspace.
//!
//! Wall-clock, thread and environment calls, narrowing casts, float
//! arithmetic, ordinal arithmetic and panics on the replica path are
//! clippy's (`clippy.toml` and the crates' lint lines): it resolves
//! paths and types where a token rule guesses.

use std::collections::BTreeMap;

use crate::diag::Diagnostic;
use crate::graph::{Graph, StructDef};
use crate::items::FileItems;
use crate::lexer::Token;

/// Collection type heads whose unbounded growth `state-growth` tracks.
const COLLECTIONS: &[&str] = &[
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "HashMap",
    "HashSet",
    "String",
    "Vec",
    "VecDeque",
];

/// Smart-pointer / cell wrappers looked through when classifying a
/// field's type (`Option<Vec<…>>` is still a `Vec` field).
const WRAPPERS: &[&str] = &[
    "Arc", "Box", "Cell", "Mutex", "Option", "Rc", "RefCell", "RwLock",
];

/// Methods that add entries to a collection.
const GROW_METHODS: &[&str] = &[
    "append",
    "entry",
    "extend",
    "insert",
    "or_default",
    "or_insert",
    "or_insert_with",
    "push",
    "push_back",
    "push_front",
    "push_str",
    "resize",
];

/// Methods that remove entries (any one of these anywhere in the
/// workspace clears the field from `state-growth`).
const SHRINK_METHODS: &[&str] = &[
    "clear",
    "dedup",
    "drain",
    "pop",
    "pop_back",
    "pop_first",
    "pop_front",
    "pop_last",
    "remove",
    "remove_entry",
    "retain",
    "split_off",
    "swap_remove",
    "take",
    "truncate",
];

/// Metadata for one rule.
pub struct RuleInfo {
    pub name: &'static str,
    pub summary: &'static str,
}

/// All rules, in reporting order.
pub const RULES: &[RuleInfo] = &[RuleInfo {
    name: "state-growth",
    summary: "root-held collections need a remove/clear/truncate/drain site somewhere",
}];

/// Whether `name` is a known rule slug.
pub fn is_known_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

const HELP_STATE_GROWTH: &str = "add a compaction/GC path (remove/clear/truncate/drain) or bound \
     the collection; a root-held collection that only grows leaks across million-event runs and \
     skews the paper's recovery-time measurements";

fn snippet_of(src: &str, line: u32) -> String {
    src.lines()
        .nth(line.saturating_sub(1) as usize)
        .map(|s| s.to_string())
        .unwrap_or_default()
}

/// One scanned file, as assembled by the workspace driver.
pub struct FileData {
    /// Repo-relative path with forward slashes.
    pub rel: String,
    pub krate: String,
    pub src: String,
    pub tokens: Vec<Token>,
    pub items: FileItems,
}

/// Inputs to `state-growth`.
pub struct GraphCtx<'a> {
    pub files: &'a [FileData],
    pub graph: &'a Graph,
    /// Root node ids: their self types are held state.
    pub roots: &'a [usize],
}

/// Runs `state-growth` over the workspace index.
pub fn check_graph(ctx: &GraphCtx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    state_growth(ctx, &held_types(ctx), &mut out);
    out
}

/// Root-held structs, keyed `(crate, name)`, each with its definition
/// and the provenance chain that makes it root-held.
type HeldTypes<'g> = BTreeMap<(String, String), (&'g StructDef, Vec<String>)>;

/// Computes the set of workspace struct types transitively held by the
/// root functions' `self` types, with provenance chains for
/// diagnostics.
fn held_types<'g>(ctx: &GraphCtx<'g>) -> HeldTypes<'g> {
    /// Holds `def` (reached via `prov`) unless it is already held.
    fn hold<'g>(
        held: &mut HeldTypes<'g>,
        queue: &mut Vec<(&'g StructDef, Vec<String>)>,
        def: &'g StructDef,
        prov: Vec<String>,
    ) {
        let key = (def.krate.clone(), def.item.name.clone());
        if let std::collections::btree_map::Entry::Vacant(e) = held.entry(key) {
            e.insert((def, prov.clone()));
            queue.push((def, prov));
        }
    }
    let mut held: HeldTypes = BTreeMap::new();
    let mut queue = Vec::new();
    for &r in ctx.roots {
        let node = &ctx.graph.nodes[r];
        let Some(ty) = &node.self_ty else { continue };
        if let Some(def) = ctx.graph.struct_in(&node.krate, ty) {
            let prov = format!("root {} ({}:{})", node.label(), node.path, node.line);
            hold(&mut held, &mut queue, def, vec![prov]);
        }
    }
    while let Some((def, prov)) = queue.pop() {
        let ty = &def.item.name;
        let path = &ctx.files[def.file].rel;
        for fld in &def.item.fields {
            // A field's type resolves inside the declaring crate first.
            for inner in &fld.ty_idents {
                if let Some(inner_def) = ctx.graph.struct_in(&def.krate, inner) {
                    let mut p = prov.clone();
                    p.push(format!("{ty}.{}: {inner} ({path}:{})", fld.name, fld.line));
                    hold(&mut held, &mut queue, inner_def, p);
                }
            }
        }
    }
    held
}

/// The collection head of a field's type, looking through wrappers.
fn collection_head(ty_idents: &[String]) -> Option<&str> {
    for id in ty_idents {
        if COLLECTIONS.contains(&id.as_str()) {
            return Some(id);
        }
        if !WRAPPERS.contains(&id.as_str()) {
            return None;
        }
    }
    None
}

/// `state-growth`: collection fields of root-held structs with at least
/// one grow site and no shrink site anywhere in the workspace.
fn state_growth(ctx: &GraphCtx<'_>, held: &HeldTypes, out: &mut Vec<Diagnostic>) {
    for ((_, ty), (def, prov)) in held {
        let f = &ctx.files[def.file];
        for fld in &def.item.fields {
            let Some(head) = collection_head(&fld.ty_idents) else {
                continue;
            };
            let (grows, shrinks) = field_usage(ctx, &fld.name);
            if grows && !shrinks {
                out.push(Diagnostic {
                    rule: "state-growth",
                    path: f.rel.clone(),
                    line: fld.line,
                    col: 1,
                    message: format!(
                        "`{ty}.{}` ({head}) is root-held state that only grows: insert/push \
                         sites exist but no remove/clear/truncate/drain anywhere in the \
                         workspace",
                        fld.name
                    ),
                    snippet: snippet_of(&f.src, fld.line),
                    help: HELP_STATE_GROWTH,
                    chain: prov.clone(),
                });
            }
        }
    }
}

/// Scans the whole workspace for `.field.grow(…)` / `.field.shrink(…)`
/// sites, `.field = …` reassignment, and `mem::take/replace(&mut
/// x.field)` (both count as shrink sites).
fn field_usage(ctx: &GraphCtx<'_>, field: &str) -> (bool, bool) {
    let mut grows = false;
    let mut shrinks = false;
    for f in ctx.files {
        let toks = &f.tokens;
        for (i, t) in toks.iter().enumerate() {
            let Some(id) = t.ident() else { continue };
            if id == field {
                // Require a field access: `<expr>.field…`.
                if i == 0 || !toks[i - 1].is_punct(".") {
                    continue;
                }
                // `.field.method(`
                if toks.get(i + 1).is_some_and(|n| n.is_punct(".")) {
                    if let Some(m) = toks.get(i + 2).and_then(|n| n.ident()) {
                        if toks.get(i + 3).is_some_and(|n| n.is_punct("(")) {
                            if GROW_METHODS.contains(&m) {
                                grows = true;
                            }
                            if SHRINK_METHODS.contains(&m) {
                                shrinks = true;
                            }
                        }
                    }
                }
                // `.field = …` (reassignment replaces the contents;
                // `==` lexes as one Punct token, so it cannot match).
                if toks.get(i + 1).is_some_and(|n| n.is_punct("=")) {
                    shrinks = true;
                }
            }
            // `mem::take(&mut x.field)` / `mem::replace(&mut x.field, …)`
            if (id == "take" || id == "replace") && prev_is_path(toks, i, "mem") {
                for k in i + 1..(i + 9).min(toks.len()) {
                    if toks[k].ident() == Some(field) && k >= 1 && toks[k - 1].is_punct(".") {
                        shrinks = true;
                        break;
                    }
                }
            }
        }
    }
    (grows, shrinks)
}

/// Whether token `i` is preceded by `prefix ::` (e.g. `rand :: random`).
fn prev_is_path(toks: &[Token], i: usize, prefix: &str) -> bool {
    i >= 2 && toks[i - 1].is_punct("::") && toks[i - 2].ident().is_some_and(|id| id == prefix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::items::parse_items;
    use crate::lexer::{lex, test_spans};
    use crate::workspace::analyze_sources;

    /// Lints a tiny in-memory workspace from the given roots.
    fn check_transitive(files: &[(&str, &str, &str)], roots: &[&str]) -> Vec<Diagnostic> {
        let data: Vec<FileData> = files
            .iter()
            .map(|(rel, krate, src)| {
                let tokens = lex(src);
                let items = parse_items(&tokens, &test_spans(&tokens));
                FileData {
                    rel: rel.to_string(),
                    krate: krate.to_string(),
                    src: src.to_string(),
                    tokens,
                    items,
                }
            })
            .collect();
        let cfg = Config {
            roots: roots.iter().map(|s| s.to_string()).collect(),
            ..Config::default()
        };
        analyze_sources(&data, &cfg).errors
    }

    #[test]
    fn test_code_is_exempt() {
        // A struct declared in test code is not held state, even under
        // the name a root's field holds.
        let d = check_transitive(
            &[(
                "crates/paxos/src/replica.rs",
                "paxos",
                "pub struct Replica { log: Log }
                 impl Replica { pub fn on_message(&mut self) { self.log.entries.push(1); } }
                 #[cfg(test)]
                 mod tests { pub struct Log { entries: Vec<u8> } }",
            )],
            &["Replica::on_message"],
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn state_growth_flags_grow_only_collections() {
        let d = check_transitive(
            &[(
                "crates/paxos/src/replica.rs",
                "paxos",
                "pub struct Replica { log: Log }
                 pub struct Log { entries: Vec<u8>, acked: Vec<u8> }
                 impl Replica { pub fn on_message(&mut self) { self.log.record(1); } }
                 impl Log {
                     pub fn record(&mut self, b: u8) { self.entries.push(b); self.acked.push(b); }
                     pub fn compact(&mut self) { self.acked.truncate(0); }
                 }",
            )],
            &["Replica::on_message"],
        );
        let growth: Vec<&Diagnostic> = d.iter().filter(|d| d.rule == "state-growth").collect();
        assert_eq!(growth.len(), 1);
        assert!(growth[0].message.contains("Log.entries"));
        // Chain: root → Replica.log field hop.
        assert_eq!(growth[0].chain.len(), 2);
        assert!(growth[0].chain[0].starts_with("root Replica::on_message"));
        assert!(growth[0].chain[1].starts_with("Replica.log: Log"));
    }
}
