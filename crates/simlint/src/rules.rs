//! `state-growth`, the invariant simlint keeps because clippy cannot
//! express it.
//!
//! It runs over the workspace index ([`crate::graph`]) from the declared
//! roots ([`crate::reach`]): the structs a root's `self` type holds,
//! transitively through their fields, must not keep a collection that
//! only grows. A field's grow and shrink sites are the `.field.method(…)`
//! calls in the files that can name it, by its visibility. Clippy has no
//! lint that follows a struct's fields to the methods called on them
//! across a workspace.
//!
//! Wall-clock, thread and environment calls, narrowing casts, float
//! arithmetic, ordinal arithmetic and panics on the replica path are
//! clippy's (`clippy.toml` and the crates' lint lines): it resolves
//! paths and types where a token rule guesses.

use std::collections::BTreeMap;
use std::fmt;

use crate::graph::{Graph, StructDef};
use crate::items::{parse_items, FieldItem, FileItems, Vis};
use crate::lexer::{lex, test_spans, Token};
use crate::workspace::crate_of;

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

/// One finding: a root-held collection field that only grows.
#[derive(Debug)]
pub struct Diagnostic {
    /// Repo-relative path of the field's struct.
    pub path: String,
    /// 1-based line of the field.
    pub line: u32,
    /// The field as `Type.field`, the name a waiver gives it.
    pub field: String,
    pub message: String,
    /// The chain from a declared root down to the held struct
    /// (`label (path:line)` per hop, root first).
    pub chain: Vec<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}\n    held via {}",
            self.path,
            self.line,
            self.message,
            self.chain.join(" → ")
        )
    }
}

/// One scanned file, lexed and parsed.
pub struct FileData {
    /// Repo-relative path with forward slashes.
    pub rel: String,
    pub krate: String,
    pub tokens: Vec<Token>,
    pub items: FileItems,
}

impl FileData {
    /// Lexes and parses `src`, the file at repo-relative `rel`.
    pub fn new(rel: &str, src: &str) -> Self {
        let tokens = lex(src);
        let items = parse_items(&tokens, &test_spans(&tokens));
        FileData {
            rel: rel.to_string(),
            krate: crate_of(rel).to_string(),
            tokens,
            items,
        }
    }
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
/// one grow site and no shrink site where the field can be named.
fn state_growth(ctx: &GraphCtx<'_>, held: &HeldTypes, out: &mut Vec<Diagnostic>) {
    for ((_, ty), (def, prov)) in held {
        for fld in &def.item.fields {
            let Some(head) = collection_head(&fld.ty_idents) else {
                continue;
            };
            let (grows, shrinks) = field_usage(ctx, def, fld);
            if grows && !shrinks {
                let field = format!("{ty}.{}", fld.name);
                out.push(Diagnostic {
                    path: ctx.files[def.file].rel.clone(),
                    line: fld.line,
                    message: format!(
                        "`{field}` ({head}) is root-held state that only grows: insert/push \
                         sites exist but no remove/clear/truncate/drain where it is visible"
                    ),
                    field,
                    chain: prov.clone(),
                });
            }
        }
    }
}

/// Whether `rel` is its package's `src/lib.rs` or `src/main.rs`, whose
/// private fields the crate's other files (its child modules) can name.
fn is_crate_root(rel: &str) -> bool {
    let in_package = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split_once('/'))
        .map_or(rel, |(_, r)| r);
    in_package == "src/lib.rs" || in_package == "src/main.rs"
}

/// Scans the files that can name `fld` of `def` for `.field.grow(…)` /
/// `.field.shrink(…)` sites, `.field = …` reassignment, and
/// `mem::take/replace(&mut x.field)` (both count as shrink sites). A
/// private field is visible in its defining file (its crate, when that
/// file is the crate root: no crate here has nested module files), a
/// `pub(…)` field in its crate and a `pub` field everywhere, so a
/// same-named field elsewhere never lends its shrink sites.
fn field_usage(ctx: &GraphCtx<'_>, def: &StructDef, fld: &FieldItem) -> (bool, bool) {
    let in_root_file = is_crate_root(&ctx.files[def.file].rel);
    let field = fld.name.as_str();
    let mut grows = false;
    let mut shrinks = false;
    for (fi, f) in ctx.files.iter().enumerate() {
        let visible = match fld.vis {
            Vis::Pub => true,
            Vis::Private if !in_root_file => fi == def.file,
            Vis::Private | Vis::Crate => f.krate == def.krate,
        };
        if !visible {
            continue;
        }
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
    use crate::workspace::{analyze_sources, Config};

    /// Lints a tiny in-memory workspace from the given roots.
    fn check_transitive(files: &[(&str, &str)], roots: &[&str]) -> Vec<Diagnostic> {
        let data: Vec<FileData> = files
            .iter()
            .map(|(rel, src)| FileData::new(rel, src))
            .collect();
        let cfg = Config {
            roots,
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
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].field, "Log.entries");
        // Chain: root → Replica.log field hop.
        assert_eq!(d[0].chain.len(), 2);
        assert!(d[0].chain[0].starts_with("root Replica::on_message"));
        assert!(d[0].chain[1].starts_with("Replica.log: Log"));
    }

    #[test]
    fn crate_roots_are_lib_and_main() {
        assert!(is_crate_root("crates/paxos/src/lib.rs"));
        assert!(is_crate_root("src/lib.rs"));
        assert!(is_crate_root("crates/bench/src/main.rs"));
        assert!(!is_crate_root("crates/paxos/src/replica.rs"));
        assert!(!is_crate_root("crates/bench/src/bin/exp_trace.rs"));
    }
}
