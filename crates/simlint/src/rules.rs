//! The rule set: repo-specific determinism and safety invariants that
//! clippy cannot express.
//!
//! Two rules:
//!
//! * `unchecked-slot-arith` — a token pattern scoped by crate role:
//!   clippy cannot tell an ordinal from a counter.
//! * `state-growth` — runs over the workspace index ([`crate::graph`])
//!   from the `roots` declared in `simlint.toml`: the structs a root's
//!   `self` type holds, transitively through their fields, must not
//!   keep a collection that only grows. Clippy has no lint that follows
//!   a struct's fields to the methods called on them anywhere in the
//!   workspace.
//!
//! Wall-clock, thread and environment calls, narrowing casts, float
//! arithmetic and panics on the replica path are clippy's (`clippy.toml`
//! and the crates' `lib.rs` lint lines): it resolves paths and types
//! where a token rule guesses.

use std::collections::BTreeMap;

use crate::diag::Diagnostic;
use crate::graph::{Graph, StructDef};
use crate::items::FileItems;
use crate::lexer::{in_spans, test_spans, Lexed, TokKind, Token};

/// Crates that hold consensus ordinals: `unchecked-slot-arith` scans
/// these.
pub const SIM_STATE_CRATES: &[&str] = &["paxos", "core", "cluster", "simnet"];

/// Identifier fragments that mark consensus-ordinal arithmetic.
const ORDINAL_NAMES: &[&str] = &["slot", "watermark", "generation"];

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
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "state-growth",
        summary: "root-held collections need a remove/clear/truncate/drain site somewhere",
    },
    RuleInfo {
        name: "unchecked-slot-arith",
        summary: "slot/watermark/generation arithmetic must use checked or saturating ops",
    },
];

/// Whether `name` is a known rule slug.
pub fn is_known_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

const HELP_STATE_GROWTH: &str = "add a compaction/GC path (remove/clear/truncate/drain) or bound \
     the collection; a root-held collection that only grows leaks across million-event runs and \
     skews the paper's recovery-time measurements";
const HELP_SLOT_ARITH: &str = "use checked_add/checked_sub/saturating_sub so ordinal overflow \
     or underflow is an explicit decision, not a silent wrap (or debug panic)";

/// Context for a single file scan.
pub struct FileCtx<'a> {
    /// Repo-relative path with forward slashes.
    pub rel_path: &'a str,
    /// Crate name derived from the path (`core`, `paxos`, …), or the
    /// root package marker `"."`.
    pub crate_name: &'a str,
    /// Raw source, for snippets.
    pub src: &'a str,
}

fn snippet_of(src: &str, line: u32) -> String {
    src.lines()
        .nth(line.saturating_sub(1) as usize)
        .map(|s| s.to_string())
        .unwrap_or_default()
}

/// Runs the one file-scoped rule, `unchecked-slot-arith`, over one
/// lexed file. Only the sim-state crates are in scope, and test spans
/// (`#[cfg(test)]`, `#[test]`) are exempt.
pub fn check_file(ctx: &FileCtx<'_>, lexed: &Lexed) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if !SIM_STATE_CRATES.contains(&ctx.crate_name) {
        return out;
    }
    let spans = test_spans(&lexed.tokens);
    let toks = &lexed.tokens;

    // Spans of `impl … Slot/Watermark …` blocks: inside them, `self`
    // arithmetic counts as ordinal arithmetic even though the receiver
    // is spelled `self.0`.
    let ordinal_impls = ordinal_impl_spans(toks);

    for (i, t) in toks.iter().enumerate() {
        if in_spans(&spans, t.line) {
            continue;
        }
        let op = match &t.kind {
            TokKind::Punct(p) if matches!(*p, "+=" | "-=" | "*=") => *p,
            TokKind::Char('+') => "+",
            TokKind::Char('-') => "-",
            TokKind::Char('*') => "*",
            _ => continue,
        };
        // `*` is deref/multiply-ambiguous and `-` can be unary: require
        // an expression terminator on the left so only binary uses are
        // considered.
        let left_end = i.checked_sub(1).map(|j| &toks[j]);
        let left_is_expr = left_end.is_some_and(|p| match &p.kind {
            TokKind::Ident(id) => !is_keyword(id),
            TokKind::Number(_) => true,
            TokKind::Punct(p) => *p == "]",
            TokKind::Char(c) => *c == ')' || *c == ']',
            _ => false,
        }) || matches!(op, "+=" | "-=" | "*=");
        if left_is_expr && ordinal_operand(toks, i, &ordinal_impls, t.line) {
            out.push(Diagnostic {
                rule: "unchecked-slot-arith",
                path: ctx.rel_path.to_string(),
                line: t.line,
                col: t.col,
                message: format!(
                    "unchecked `{op}` on slot/watermark/generation ordinal: overflow \
                     wraps in release builds and corrupts consensus ordering"
                ),
                snippet: snippet_of(ctx.src, t.line),
                help: HELP_SLOT_ARITH,
                chain: Vec::new(),
            });
        }
    }
    out
}

/// One scanned file, as assembled by the workspace driver.
pub struct FileData {
    /// Repo-relative path with forward slashes.
    pub rel: String,
    pub krate: String,
    pub src: String,
    pub lexed: Lexed,
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
        let toks = &f.lexed.tokens;
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

/// The Rust keywords that can stand where a name is expected.
const KEYWORDS: &[&str] = &[
    "if", "else", "match", "return", "let", "mut", "fn", "in", "for", "while", "loop", "break",
    "continue", "as", "where", "impl", "pub", "use", "mod", "struct", "enum", "trait", "type",
    "const", "static", "ref", "move", "unsafe",
];

fn is_keyword(id: &str) -> bool {
    KEYWORDS.contains(&id)
}

fn name_is_ordinal(id: &str) -> bool {
    let lower = id.to_ascii_lowercase();
    ORDINAL_NAMES.iter().any(|n| lower.contains(n))
}

/// Line spans of `impl` blocks whose target type name is ordinal-like
/// (`impl Slot { … }`): `self` arithmetic inside them is ordinal
/// arithmetic even without a named operand.
fn ordinal_impl_spans(toks: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].ident() == Some("impl") {
            let mut j = i + 1;
            let mut ordinal = false;
            while j < toks.len() && !toks[j].is_punct("{") && !toks[j].is_punct(";") {
                if let Some(id) = toks[j].ident() {
                    if name_is_ordinal(id) {
                        ordinal = true;
                    }
                }
                j += 1;
            }
            if ordinal && j < toks.len() && toks[j].is_punct("{") {
                let mut d = 0;
                let mut end = j;
                for (n, t) in toks.iter().enumerate().skip(j) {
                    if t.is_punct("{") {
                        d += 1;
                    } else if t.is_punct("}") {
                        d -= 1;
                        if d == 0 {
                            end = n;
                            break;
                        }
                    }
                }
                spans.push((toks[j].line, toks[end].line));
                i = j + 1;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    spans
}

/// Whether the ordinal identifier at `k` is only the *receiver* of a
/// method call (`slot.wire_size()`): the call's result has an unknown
/// type, so arithmetic on it is not ordinal arithmetic. Field accesses
/// (`slot.0`, `meta.generation`) still count.
fn is_method_receiver(toks: &[Token], k: usize) -> bool {
    toks.get(k + 1).is_some_and(|t| t.is_punct("."))
        && toks.get(k + 2).is_some_and(|t| t.ident().is_some())
        && toks.get(k + 3).is_some_and(|t| t.is_punct("("))
}

/// Whether the arithmetic at operator index `i` involves an ordinal
/// operand: an identifier containing slot/watermark/generation within
/// the postfix chains on either side, or `self` inside an ordinal impl.
fn ordinal_operand(toks: &[Token], i: usize, ordinal_impls: &[(u32, u32)], line: u32) -> bool {
    let in_ordinal_impl = in_spans(ordinal_impls, line);
    // Scan left over a postfix chain: ident . ident . 0 ) ] ?
    let mut j = i;
    let mut steps = 0;
    while j > 0 && steps < 8 {
        j -= 1;
        steps += 1;
        match &toks[j].kind {
            TokKind::Ident(id) => {
                if name_is_ordinal(id) && !is_method_receiver(toks, j) {
                    return true;
                }
                if id == "self" && in_ordinal_impl {
                    return true;
                }
                if is_keyword(id) {
                    break;
                }
                // continue through `a.b` chains only when preceded by `.`
                if j == 0 || !toks[j - 1].is_punct(".") {
                    break;
                }
            }
            TokKind::Number(_) => {
                if j == 0 || !toks[j - 1].is_punct(".") {
                    break;
                }
            }
            TokKind::Punct(p) if *p == "]" => {}
            TokKind::Char(c) if *c == ')' || *c == ']' || *c == '?' || *c == '.' => {}
            TokKind::Punct(p) if *p == "." => {}
            _ => break,
        }
    }
    // Scan right over the first operand after the operator.
    let mut j = i + 1;
    let mut steps = 0;
    while j < toks.len() && steps < 8 {
        match &toks[j].kind {
            TokKind::Ident(id) => {
                if name_is_ordinal(id) && !is_method_receiver(toks, j) {
                    return true;
                }
                if id == "self" && in_ordinal_impl {
                    // `… + self.0` inside impl Slot
                    return true;
                }
                if is_keyword(id) {
                    return false;
                }
            }
            TokKind::Number(_) => {}
            TokKind::Char(c) if *c == '.' || *c == '(' || *c == '&' => {}
            TokKind::Punct(p) if *p == "::" || *p == "." => {}
            _ => return false,
        }
        j += 1;
        steps += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::items::parse_items;
    use crate::lexer::lex;
    use crate::workspace::analyze_sources;

    fn check(crate_name: &str, rel_path: &str, src: &str) -> Vec<Diagnostic> {
        let lexed = lex(src);
        check_file(
            &FileCtx {
                rel_path,
                crate_name,
                src,
            },
            &lexed,
        )
    }

    /// Lints a tiny in-memory workspace from the given roots.
    fn check_transitive(files: &[(&str, &str, &str)], roots: &[&str]) -> Vec<Diagnostic> {
        let data: Vec<FileData> = files
            .iter()
            .map(|(rel, krate, src)| {
                let lexed = lex(src);
                let items = parse_items(&lexed.tokens, &test_spans(&lexed.tokens));
                FileData {
                    rel: rel.to_string(),
                    krate: krate.to_string(),
                    src: src.to_string(),
                    lexed,
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
    fn slot_arith_flags_bare_ops_in_scope_only() {
        let src = "fn f(slot: u64) -> u64 { slot + 1 }\n";
        let d = check("paxos", "crates/paxos/src/x.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "unchecked-slot-arith");
        assert!(check("tpcw", "crates/tpcw/src/x.rs", src).is_empty());
    }

    #[test]
    fn slot_arith_allows_checked() {
        let src = "fn f(slot: u64) -> Option<u64> { slot.checked_add(1) }\n";
        assert_eq!(check("paxos", "crates/paxos/src/x.rs", src).len(), 0);
    }

    #[test]
    fn slot_arith_in_ordinal_impl_self() {
        let src = "impl Slot { fn next(self) -> Slot { Slot(self.0 + 1) } }\n";
        let d = check("paxos", "crates/paxos/src/types.rs", src);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn plain_counter_arith_not_flagged() {
        let src = "fn f(count: u64) -> u64 { count + 1 }\n";
        assert_eq!(check("paxos", "crates/paxos/src/x.rs", src).len(), 0);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(slot: u64) -> u64 { slot + 1 }\n}\n";
        assert_eq!(check("paxos", "crates/paxos/src/x.rs", src).len(), 0);
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
