//! Workspace call graph assembled from per-file [`crate::items`].
//!
//! Resolution is heuristic and name-based — there is no type checker —
//! so the graph *over-approximates*: when a call site is ambiguous we
//! add an edge to every plausible workspace callee rather than none.
//! The precision rules below keep that over-approximation from
//! degenerating into "everything calls everything":
//!
//! * `self.m(…)` resolves inside the enclosing `impl` type when the
//!   method exists there; otherwise it falls back to name-wide.
//! * `self.field.m(…)` resolves through the field's declared type when
//!   a struct definition for the enclosing type is in the workspace.
//! * `Type::m(…)` resolves exactly against the `(type, name)` index; an
//!   unknown capitalized qualifier (e.g. `Vec::new`) produces **no**
//!   edge — foreign code cannot be a workspace callee, and forbidden
//!   foreign APIs are caught token-wise by the taint rules instead.
//! * `module::f(…)` and bare `f(…)` resolve name-wide, preferring
//!   same-file and matching-module candidates.
//! * `#[cfg(test)]` functions are excluded from the graph entirely:
//!   they are neither callees nor roots, so test helpers never taint
//!   production paths.

use std::collections::BTreeMap;

use crate::items::{Call, FileItems, Recv, StructItem};

/// One function node in the workspace graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index into [`Graph::nodes`].
    pub id: usize,
    /// Index of the owning file in the workspace file list.
    pub file: usize,
    pub name: String,
    pub self_ty: Option<String>,
    pub krate: String,
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token index range of the body braces in the owning file's
    /// token stream (inclusive), `None` for signature-only items.
    pub body: Option<(usize, usize)>,
}

impl FnNode {
    /// Display label: `Type::name` or bare `name`.
    pub fn label(&self) -> String {
        match &self.self_ty {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The assembled workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    pub nodes: Vec<FnNode>,
    /// `edges[caller] = [(callee, call-site line), …]`, deduplicated.
    pub edges: Vec<Vec<(usize, u32)>>,
    by_name: BTreeMap<String, Vec<usize>>,
    by_ty_name: BTreeMap<(String, String), Vec<usize>>,
    /// Struct definitions by name, one per defining crate (the first
    /// definition inside a crate wins). Look up with
    /// [`Graph::struct_in`].
    structs: BTreeMap<String, Vec<StructDef>>,
}

/// One struct definition and where it lives.
#[derive(Debug, Clone)]
pub struct StructDef {
    pub krate: String,
    /// Index of the defining file in the workspace file list.
    pub file: usize,
    pub item: StructItem,
}

/// Methods that are overwhelmingly std-library calls; name-wide
/// fallback skips them so `v.push(x)` does not edge into every
/// workspace `fn push`. Exact `(type, name)` resolution still works.
const STD_METHODS: &[&str] = &[
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "chain",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "expect",
    "extend",
    "filter",
    "filter_map",
    "find",
    "first",
    "flat_map",
    "flatten",
    "fmt",
    "fold",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into_iter",
    "is_empty",
    "is_none",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "map",
    "map_err",
    "max",
    "min",
    "next",
    "or_default",
    "or_insert",
    "or_insert_with",
    "partial_cmp",
    "pop",
    "pop_front",
    "position",
    "push",
    "push_back",
    "push_str",
    "remove",
    "retain",
    "rev",
    "sort",
    "sort_by",
    "sort_by_key",
    "split",
    "starts_with",
    "sum",
    "take",
    "to_owned",
    "to_string",
    "to_vec",
    "truncate",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "windows",
    "zip",
];

/// Per-file input to [`build`].
pub struct FileInput<'a> {
    pub path: &'a str,
    pub krate: &'a str,
    pub items: &'a FileItems,
}

/// Builds the workspace graph. `files[i]` corresponds to file index
/// `i` in the resulting nodes.
pub fn build(files: &[FileInput<'_>]) -> Graph {
    let mut g = Graph::default();
    // Pass 1: nodes + indexes.
    for (fi, f) in files.iter().enumerate() {
        for s in &f.items.structs {
            if s.is_test {
                continue;
            }
            let defs = g.structs.entry(s.name.clone()).or_default();
            if defs.iter().all(|d| d.krate != f.krate) {
                defs.push(StructDef {
                    krate: f.krate.to_string(),
                    file: fi,
                    item: s.clone(),
                });
            }
        }
        for it in &f.items.fns {
            if it.is_test {
                continue;
            }
            let id = g.nodes.len();
            g.by_name.entry(it.name.clone()).or_default().push(id);
            if let Some(ty) = &it.self_ty {
                g.by_ty_name
                    .entry((ty.clone(), it.name.clone()))
                    .or_default()
                    .push(id);
            }
            g.nodes.push(FnNode {
                id,
                file: fi,
                name: it.name.clone(),
                self_ty: it.self_ty.clone(),
                krate: f.krate.to_string(),
                path: f.path.to_string(),
                line: it.line,
                body: it.body,
            });
        }
    }
    g.edges = vec![Vec::new(); g.nodes.len()];
    g
}

impl Graph {
    /// The struct a type name written inside `krate` refers to: that
    /// crate's own definition, else the only definition in the
    /// workspace. Same-named structs in other crates never shadow each
    /// other; a name that is ambiguous from `krate` resolves to nothing.
    pub fn struct_in(&self, krate: &str, name: &str) -> Option<&StructDef> {
        let defs = self.structs.get(name)?;
        match defs.iter().find(|d| d.krate == krate) {
            Some(own) => Some(own),
            None if defs.len() == 1 => defs.first(),
            None => None,
        }
    }

    /// Resolves one call site from `caller` and records the edges.
    /// `calls` must come from the caller's body token range.
    pub fn add_calls(&mut self, caller: usize, calls: &[Call]) {
        let mut resolved: Vec<(usize, u32)> = Vec::new();
        for call in calls {
            self.resolve(caller, call, &mut resolved);
        }
        resolved.sort_unstable();
        resolved.dedup_by_key(|(id, _)| *id);
        self.edges[caller] = resolved;
    }

    fn resolve(&self, caller: usize, call: &Call, out: &mut Vec<(usize, u32)>) {
        let node = &self.nodes[caller];
        match call {
            Call::Method { recv, name, line } => match recv {
                Recv::SelfDirect => {
                    if let Some(ty) = &node.self_ty {
                        if let Some(ids) = self.by_ty_name.get(&(ty.clone(), name.clone())) {
                            out.extend(ids.iter().map(|&id| (id, *line)));
                            return;
                        }
                    }
                    self.name_wide_method(name, *line, out);
                }
                Recv::SelfField(field) => {
                    let field_ty = node
                        .self_ty
                        .as_ref()
                        .and_then(|ty| self.struct_in(&node.krate, ty))
                        .and_then(|def| def.item.fields.iter().find(|f| f.name == *field));
                    if let Some(fld) = field_ty {
                        // First type ident that owns a matching
                        // method wins (skips wrappers like Vec<…>).
                        for t in &fld.ty_idents {
                            if let Some(ids) = self.by_ty_name.get(&(t.clone(), name.clone())) {
                                out.extend(ids.iter().map(|&id| (id, *line)));
                                return;
                            }
                        }
                    }
                    self.name_wide_method(name, *line, out);
                }
                Recv::Other => self.name_wide_method(name, *line, out),
            },
            Call::Path { qual, name, line } => {
                if let Some(q) = qual {
                    if let Some(ids) = self.by_ty_name.get(&(q.clone(), name.clone())) {
                        out.extend(ids.iter().map(|&id| (id, *line)));
                        return;
                    }
                    if q.starts_with(char::is_uppercase) {
                        // Foreign type (`Vec::new`, `Instant::now`):
                        // no workspace callee; taint rules scan the
                        // call site token-wise instead.
                        return;
                    }
                    // Module-qualified: prefer candidates whose crate
                    // or file stem matches the qualifier.
                    if let Some(ids) = self.by_name.get(name) {
                        let near: Vec<usize> = ids
                            .iter()
                            .copied()
                            .filter(|&id| {
                                let n = &self.nodes[id];
                                n.krate == *q
                                    || n.path.ends_with(&format!("/{q}.rs"))
                                    || n.path.ends_with(&format!("/{q}/mod.rs"))
                            })
                            .collect();
                        let pick = if near.is_empty() { ids.clone() } else { near };
                        out.extend(pick.into_iter().map(|id| (id, *line)));
                    }
                }
                // Bare call: prefer same-file free functions.
                else if let Some(ids) = self.by_name.get(name) {
                    let same_file: Vec<usize> = ids
                        .iter()
                        .copied()
                        .filter(|&id| self.nodes[id].file == node.file)
                        .collect();
                    let free: Vec<usize> = ids
                        .iter()
                        .copied()
                        .filter(|&id| self.nodes[id].self_ty.is_none())
                        .collect();
                    let pick = if !same_file.is_empty() {
                        same_file
                    } else if !free.is_empty() {
                        free
                    } else {
                        ids.clone()
                    };
                    out.extend(pick.into_iter().map(|id| (id, *line)));
                }
            }
        }
    }

    /// Name-wide method fallback: every workspace method of that name,
    /// unless the name is overwhelmingly a std method.
    fn name_wide_method(&self, name: &str, line: u32, out: &mut Vec<(usize, u32)>) {
        if STD_METHODS.binary_search(&name).is_ok() {
            return;
        }
        if let Some(ids) = self.by_name.get(name) {
            out.extend(
                ids.iter()
                    .filter(|&&id| self.nodes[id].self_ty.is_some())
                    .map(|&id| (id, line)),
            );
        }
    }

    /// Renders the subgraph induced by `keep` (node ids) as Graphviz
    /// DOT, clustered by crate. Used by `--graph-dot`.
    pub fn to_dot(&self, keep: &[bool]) -> String {
        use std::fmt::Write as _;
        let mut s =
            String::from("digraph simlint {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n");
        let mut by_crate: Vec<(String, Vec<usize>)> = Vec::new();
        for n in &self.nodes {
            if !keep.get(n.id).copied().unwrap_or(false) {
                continue;
            }
            match by_crate.iter_mut().find(|(k, _)| *k == n.krate) {
                Some((_, v)) => v.push(n.id),
                None => by_crate.push((n.krate.clone(), vec![n.id])),
            }
        }
        by_crate.sort_by(|a, b| a.0.cmp(&b.0));
        for (krate, ids) in &by_crate {
            let _ = writeln!(s, "  subgraph \"cluster_{krate}\" {{");
            let _ = writeln!(s, "    label=\"{krate}\";");
            for &id in ids {
                let _ = writeln!(s, "    n{id} [label=\"{}\"];", self.nodes[id].label());
            }
            s.push_str("  }\n");
        }
        for (from, outs) in self.edges.iter().enumerate() {
            if !keep.get(from).copied().unwrap_or(false) {
                continue;
            }
            for &(to, _) in outs {
                if keep.get(to).copied().unwrap_or(false) {
                    let _ = writeln!(s, "  n{from} -> n{to};");
                }
            }
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::{extract_calls, parse_items};
    use crate::lexer::{lex, test_spans};

    fn build_ws(srcs: &[(&str, &str, &str)]) -> (Graph, Vec<crate::lexer::Lexed>) {
        let lexed: Vec<_> = srcs.iter().map(|(_, _, s)| lex(s)).collect();
        let items: Vec<_> = lexed
            .iter()
            .map(|lx| parse_items(&lx.tokens, &test_spans(&lx.tokens)))
            .collect();
        let inputs: Vec<FileInput<'_>> = srcs
            .iter()
            .zip(&items)
            .map(|((path, krate, _), it)| FileInput {
                path,
                krate,
                items: it,
            })
            .collect();
        let mut g = build(&inputs);
        for id in 0..g.nodes.len() {
            let n = &g.nodes[id];
            let (file, body) = (n.file, n.body);
            if let Some(body) = body {
                let calls = extract_calls(&lexed[file].tokens, body);
                g.add_calls(id, &calls);
            }
        }
        (g, lexed)
    }

    fn edge(g: &Graph, from: &str, to: &str) -> bool {
        let f = g.nodes.iter().find(|n| n.label() == from).unwrap();
        let t = g.nodes.iter().find(|n| n.label() == to).unwrap();
        g.edges[f.id].iter().any(|&(id, _)| id == t.id)
    }

    #[test]
    fn self_calls_resolve_to_own_impl_only() {
        let (g, _) = build_ws(&[
            (
                "crates/a/src/lib.rs",
                "a",
                "impl A { fn go(&self) { self.step(); } fn step(&self) {} }",
            ),
            (
                "crates/b/src/lib.rs",
                "b",
                "impl B { fn step(&self) { wall(); } } fn wall() {}",
            ),
        ]);
        assert!(edge(&g, "A::go", "A::step"));
        assert!(!edge(&g, "A::go", "B::step"));
    }

    #[test]
    fn field_typed_calls_resolve_through_struct_def() {
        let (g, _) = build_ws(&[(
            "crates/a/src/lib.rs",
            "a",
            "struct Eng { clock: Clock }\n\
             impl Eng { fn tick(&self) { self.clock.now(); } }\n\
             impl Clock { fn now(&self) {} }\n\
             impl Other { fn now(&self) {} }",
        )]);
        assert!(edge(&g, "Eng::tick", "Clock::now"));
        assert!(!edge(&g, "Eng::tick", "Other::now"));
    }

    #[test]
    fn foreign_uppercase_qualifier_yields_no_edge() {
        let (g, _) = build_ws(&[(
            "crates/a/src/lib.rs",
            "a",
            "fn new() {} fn go() { let v = Vec::new(); Inner::new(); }\n\
             impl Inner { fn new() {} }",
        )]);
        // `Vec::new` must not edge to the workspace free `fn new`,
        // but `Inner::new` resolves exactly.
        let go = g.nodes.iter().find(|n| n.label() == "go").unwrap();
        let callees: Vec<String> = g.edges[go.id]
            .iter()
            .map(|&(id, _)| g.nodes[id].label())
            .collect();
        assert_eq!(callees, vec!["Inner::new"]);
    }

    #[test]
    fn std_method_names_do_not_resolve_name_wide() {
        let (g, _) = build_ws(&[(
            "crates/a/src/lib.rs",
            "a",
            "impl Log { fn push(&mut self, b: u8) {} }\n\
             impl Eng { fn go(&mut self, v: &mut Vec<u8>) { v.push(1); } }",
        )]);
        assert!(!edge(&g, "Eng::go", "Log::push"));
    }

    #[test]
    fn module_qualified_prefers_matching_file() {
        let (g, _) = build_ws(&[
            ("crates/core/src/wire.rs", "core", "pub fn decode_u64() {}"),
            ("crates/b/src/other.rs", "b", "pub fn decode_u64() {}"),
            (
                "crates/core/src/mw.rs",
                "core",
                "fn handle() { wire::decode_u64(); }",
            ),
        ]);
        let h = g.nodes.iter().find(|n| n.label() == "handle").unwrap();
        let callees: Vec<&str> = g.edges[h.id]
            .iter()
            .map(|&(id, _)| g.nodes[id].path.as_str())
            .collect();
        assert_eq!(callees, vec!["crates/core/src/wire.rs"]);
    }

    #[test]
    fn test_functions_are_excluded() {
        let (g, _) = build_ws(&[(
            "crates/a/src/lib.rs",
            "a",
            "fn real() {}\n#[cfg(test)]\nmod tests { fn helper() { super::real(); } }",
        )]);
        assert_eq!(g.nodes.len(), 1);
        assert_eq!(g.nodes[0].name, "real");
    }
}
