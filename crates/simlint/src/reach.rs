//! Root declarations, matched against the workspace index.
//!
//! The roots are the entry points of simulated execution, one list of
//! patterns in [`crate::workspace::Config`]; `state-growth` checks what
//! their `self` types hold. Patterns come in three shapes:
//!
//! * `Type::name` — an exact method (e.g. `Replica::on_message`);
//! * `name` — a bare function name, matched workspace-wide;
//! * a trailing `*` glob on the final segment — `decode_*` matches any
//!   function whose name starts with `decode_`, `Engine::*` matches
//!   every `Engine` method.
//!
//! A pattern that matches no workspace function is reported as a
//! *stale root*, so deleting or renaming an entry point cannot silently
//! shrink the held state.

use crate::graph::Graph;

/// The outcome of matching a root pattern set against the index.
#[derive(Debug, Default)]
pub struct Roots {
    /// Matched node ids, deduplicated.
    pub ids: Vec<usize>,
    /// Patterns that matched nothing (stale roots).
    pub unmatched: Vec<String>,
}

/// Matches `patterns` against the index.
pub fn match_roots(graph: &Graph, patterns: &[&str]) -> Roots {
    let mut out = Roots::default();
    for pat in patterns {
        let before = out.ids.len();
        let (ty, name) = match pat.split_once("::") {
            Some((t, n)) => (Some(t), n),
            None => (None, *pat),
        };
        let glob = name.strip_suffix('*');
        for node in &graph.nodes {
            let name_ok = match glob {
                Some(prefix) => node.name.starts_with(prefix),
                None => node.name == name,
            };
            let ty_ok = match ty {
                Some(t) => node.self_ty.as_deref() == Some(t),
                None => true,
            };
            if name_ok && ty_ok {
                out.ids.push(node.id);
            }
        }
        if out.ids.len() == before {
            out.unmatched.push(pat.to_string());
        }
    }
    out.ids.sort_unstable();
    out.ids.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{build, FileInput};
    use crate::items::parse_items;
    use crate::lexer::{lex, test_spans};

    fn graph_of(src: &str) -> Graph {
        let lx = lex(src);
        let items = parse_items(&lx, &test_spans(&lx));
        build(&[FileInput {
            path: "crates/a/src/lib.rs",
            krate: "a",
            items: &items,
        }])
    }

    const SRC: &str = "
impl Replica {
    fn on_message(&mut self) { self.advance(); }
    fn advance(&mut self) { leak_time(); }
}
fn leak_time() {}
fn unrelated() {}
fn decode_u64() {}
fn decode_frame() { decode_u64(); }
";

    #[test]
    fn exact_bare_and_glob_patterns() {
        let g = graph_of(SRC);
        let r = match_roots(&g, &["Replica::on_message", "decode_*", "Ghost::gone"]);
        let names: Vec<String> = r.ids.iter().map(|&i| g.nodes[i].label()).collect();
        assert_eq!(
            names,
            vec!["Replica::on_message", "decode_u64", "decode_frame"]
        );
        assert_eq!(r.unmatched, vec!["Ghost::gone"]);
    }

    #[test]
    fn glob_on_methods() {
        let g = graph_of(SRC);
        let r = match_roots(&g, &["Replica::*"]);
        assert_eq!(r.ids.len(), 2);
        assert!(r.unmatched.is_empty());
    }
}
