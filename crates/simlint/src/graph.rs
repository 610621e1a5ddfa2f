//! The workspace index assembled from per-file [`crate::items`]: every
//! non-test function, which `roots` patterns match against
//! ([`crate::reach`]), and every non-test struct with its fields,
//! which `state-growth` follows from a root's `self` type.
//!
//! Resolution is by name, as there is no type checker: a struct name
//! written inside a crate resolves to that crate's own definition, else
//! to the workspace's only one ([`Graph::struct_in`]). `#[cfg(test)]`
//! items are excluded, so test helpers are neither roots nor held
//! state.

use std::collections::BTreeMap;

use crate::items::{FileItems, StructItem};

/// One function in the workspace index.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index into [`Graph::nodes`].
    pub id: usize,
    pub name: String,
    pub self_ty: Option<String>,
    pub krate: String,
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// Line of the `fn` keyword.
    pub line: u32,
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

/// The assembled workspace index.
#[derive(Debug, Default)]
pub struct Graph {
    pub nodes: Vec<FnNode>,
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

/// Per-file input to [`build`].
pub struct FileInput<'a> {
    pub path: &'a str,
    pub krate: &'a str,
    pub items: &'a FileItems,
}

/// Builds the workspace index. `files[i]` is file index `i` of the
/// struct definitions.
pub fn build(files: &[FileInput<'_>]) -> Graph {
    let mut g = Graph::default();
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
            g.nodes.push(FnNode {
                id: g.nodes.len(),
                name: it.name.clone(),
                self_ty: it.self_ty.clone(),
                krate: f.krate.to_string(),
                path: f.path.to_string(),
                line: it.line,
            });
        }
    }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;
    use crate::lexer::{lex, test_spans};

    #[test]
    fn test_functions_are_excluded() {
        let lx = lex("fn real() {}\n#[cfg(test)]\nmod tests { fn helper() { super::real(); } }");
        let items = parse_items(&lx, &test_spans(&lx));
        let g = build(&[FileInput {
            path: "crates/a/src/lib.rs",
            krate: "a",
            items: &items,
        }]);
        assert_eq!(g.nodes.len(), 1);
        assert_eq!(g.nodes[0].name, "real");
    }
}
