//! Item extraction: a dependency-free structural pass layered on the
//! lexer.
//!
//! `state-growth` needs the workspace's functions (to match the
//! `roots` patterns and find each root's `self` type) and its structs
//! with their fields (to follow what a root holds). This module
//! extracts `fn` and `struct` items from the token stream, descending
//! into `mod`, `impl` and `trait` bodies, so [`crate::graph`] can index
//! them.
//!
//! The parser is deliberately heuristic: no type checking, no macro
//! expansion. Function bodies found inside `macro_rules!` templates
//! are parsed like ordinary code: the template *is* the code of every
//! expansion, so a root pattern such as `decode` also matches the
//! codec impls a macro generates.

use crate::lexer::{in_spans, match_brace, Token};

/// One function item (free function, inherent/trait method, or default
/// trait method).
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// The `impl`/`trait` target type name, when inside one.
    pub self_ty: Option<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Whether the item sits inside a `#[cfg(test)]`/`#[test]` span.
    pub is_test: bool,
}

/// Where a field can be named from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vis {
    /// No `pub`: the defining module.
    Private,
    /// `pub(crate)`, `pub(super)` or `pub(in …)`: at most the crate.
    Crate,
    /// `pub`: anywhere.
    Pub,
}

/// One struct field.
#[derive(Debug, Clone)]
pub struct FieldItem {
    /// Field name (`"0"`, `"1"`, … for tuple structs).
    pub name: String,
    /// All identifiers appearing in the field's type, in order
    /// (`BTreeMap<Slot, Vec<u8>>` → `["BTreeMap","Slot","Vec","u8"]`).
    pub ty_idents: Vec<String>,
    pub line: u32,
    pub vis: Vis,
}

/// One struct item with its fields.
#[derive(Debug, Clone)]
pub struct StructItem {
    pub name: String,
    pub fields: Vec<FieldItem>,
    pub line: u32,
    pub is_test: bool,
}

/// Everything extracted from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    pub fns: Vec<FnItem>,
    pub structs: Vec<StructItem>,
}

/// Parses the items of one lexed file. `spans` are the test spans from
/// [`crate::lexer::test_spans`], used to mark test-only items.
pub fn parse_items(tokens: &[Token], spans: &[(u32, u32)]) -> FileItems {
    let mut out = FileItems::default();
    parse_region(tokens, 0, tokens.len(), None, spans, &mut out);
    out
}

fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    tokens.get(i).and_then(|t| t.ident())
}

fn is_punct_at(tokens: &[Token], i: usize, p: &str) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct(p))
}

/// Scans `lo..hi` for items; recurses into `mod`/`impl`/`trait` bodies.
fn parse_region(
    tokens: &[Token],
    lo: usize,
    hi: usize,
    self_ty: Option<&str>,
    spans: &[(u32, u32)],
    out: &mut FileItems,
) {
    let mut i = lo;
    while i < hi {
        let Some(id) = ident_at(tokens, i) else {
            i += 1;
            continue;
        };
        match id {
            "mod" if is_punct_at(tokens, i + 2, "{") => {
                let end = match_brace(tokens, i + 2).min(hi.saturating_sub(1));
                parse_region(tokens, i + 3, end, None, spans, out);
                i = end + 1;
            }
            "impl" | "trait" => {
                let is_trait = id == "trait";
                // Scan the header up to `{` (or `;` for `trait X;`-like
                // degenerate input), collecting depth-0 path idents and
                // noting a top-level `for` (trait impls).
                let mut j = i + 1;
                let mut angle: i32 = 0;
                let mut before_for: Vec<&str> = Vec::new();
                let mut after_for: Vec<&str> = Vec::new();
                let mut saw_for = false;
                let mut saw_where = false;
                while j < hi && !is_punct_at(tokens, j, "{") && !is_punct_at(tokens, j, ";") {
                    let t = &tokens[j];
                    if t.is_punct("<") {
                        angle += 1;
                    } else if t.is_punct(">") {
                        angle -= 1;
                    } else if t.is_punct(">>") {
                        angle -= 2;
                    } else if let Some(w) = t.ident() {
                        if angle <= 0 {
                            match w {
                                "for" => saw_for = true,
                                "where" => saw_where = true,
                                _ if !saw_where => {
                                    if saw_for {
                                        after_for.push(w);
                                    } else {
                                        before_for.push(w);
                                    }
                                }
                                _ => {}
                            }
                        }
                    }
                    j += 1;
                }
                let target = if saw_for {
                    after_for.last().copied()
                } else if is_trait {
                    before_for.first().copied()
                } else {
                    before_for.last().copied()
                };
                if j < hi && is_punct_at(tokens, j, "{") {
                    let end = match_brace(tokens, j).min(hi.saturating_sub(1));
                    parse_region(tokens, j + 1, end, target, spans, out);
                    i = end + 1;
                } else {
                    i = j + 1;
                }
            }
            "fn" => {
                let Some(name) = ident_at(tokens, i + 1) else {
                    // `fn(u8) -> u8` function-pointer type, not an item.
                    i += 1;
                    continue;
                };
                let line = tokens[i].line;
                // Scan past the signature for the body `{` or a
                // terminating `;`, tracking paren depth so default
                // arguments never confuse the search (none exist in
                // Rust, but `where` bounds with parens do).
                let mut j = i + 2;
                let mut paren: i32 = 0;
                while j < hi {
                    let t = &tokens[j];
                    if t.is_punct("(") {
                        paren += 1;
                    } else if t.is_punct(")") {
                        paren -= 1;
                    } else if paren == 0 && t.is_punct("{") {
                        j = match_brace(tokens, j).min(hi.saturating_sub(1));
                        break;
                    } else if paren == 0 && t.is_punct(";") {
                        break;
                    }
                    j += 1;
                }
                out.fns.push(FnItem {
                    name: name.to_string(),
                    self_ty: self_ty.map(str::to_string),
                    line,
                    is_test: in_spans(spans, line),
                });
                i = j + 1;
            }
            "struct" => {
                let Some(name) = ident_at(tokens, i + 1) else {
                    i += 1;
                    continue;
                };
                let line = tokens[i].line;
                let is_test = in_spans(spans, line);
                // Skip generics / where clause to `{`, `(`, or `;`.
                let mut j = i + 2;
                while j < hi
                    && !is_punct_at(tokens, j, "{")
                    && !is_punct_at(tokens, j, "(")
                    && !is_punct_at(tokens, j, ";")
                {
                    j += 1;
                }
                let mut fields = Vec::new();
                if j < hi && is_punct_at(tokens, j, "{") {
                    let end = match_brace(tokens, j).min(hi.saturating_sub(1));
                    parse_named_fields(tokens, j + 1, end, &mut fields);
                    i = end + 1;
                } else if j < hi && is_punct_at(tokens, j, "(") {
                    let end = match_paren(tokens, j).min(hi.saturating_sub(1));
                    parse_tuple_fields(tokens, j + 1, end, &mut fields);
                    i = end + 1;
                } else {
                    i = j + 1;
                }
                out.structs.push(StructItem {
                    name: name.to_string(),
                    fields,
                    line,
                    is_test,
                });
            }
            "enum" | "union" => {
                // Skip the body; variants hold no tracked state fields.
                let mut j = i + 1;
                while j < hi && !is_punct_at(tokens, j, "{") && !is_punct_at(tokens, j, ";") {
                    j += 1;
                }
                if j < hi && is_punct_at(tokens, j, "{") {
                    i = match_brace(tokens, j).min(hi.saturating_sub(1)) + 1;
                } else {
                    i = j + 1;
                }
            }
            _ => i += 1,
        }
    }
}

/// Index of the `)` matching the `(` at `open`.
fn match_paren(tokens: &[Token], open: usize) -> usize {
    let mut d = 0i64;
    for (n, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct("(") {
            d += 1;
        } else if t.is_punct(")") {
            d -= 1;
            if d == 0 {
                return n;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Parses `name: Type` fields between `lo..hi` (inside struct braces).
fn parse_named_fields(tokens: &[Token], lo: usize, hi: usize, out: &mut Vec<FieldItem>) {
    let mut i = lo;
    let mut vis = Vis::Private;
    while i < hi {
        // Skip attributes.
        if is_punct_at(tokens, i, "#") && is_punct_at(tokens, i + 1, "[") {
            let mut d = 0;
            let mut j = i + 1;
            while j < hi {
                if tokens[j].is_punct("[") {
                    d += 1;
                } else if tokens[j].is_punct("]") {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        if ident_at(tokens, i) == Some("pub") {
            i += 1;
            vis = Vis::Pub;
            if is_punct_at(tokens, i, "(") {
                i = match_paren(tokens, i).min(hi) + 1;
                vis = Vis::Crate;
            }
            continue;
        }
        let (Some(name), true) = (ident_at(tokens, i), is_punct_at(tokens, i + 1, ":")) else {
            i += 1;
            continue;
        };
        let line = tokens[i].line;
        // Collect type idents up to the field-separating `,` at angle
        // depth 0 (generic argument commas sit at depth > 0).
        let mut j = i + 2;
        let mut angle: i32 = 0;
        let mut ty_idents = Vec::new();
        while j < hi {
            let t = &tokens[j];
            if t.is_punct("<") {
                angle += 1;
            } else if t.is_punct(">") {
                angle -= 1;
            } else if t.is_punct(">>") {
                angle -= 2;
            } else if t.is_punct(",") && angle <= 0 {
                break;
            } else if let Some(w) = t.ident() {
                ty_idents.push(w.to_string());
            }
            j += 1;
        }
        out.push(FieldItem {
            name: name.to_string(),
            ty_idents,
            line,
            vis: std::mem::replace(&mut vis, Vis::Private),
        });
        i = j + 1;
    }
}

/// Parses tuple-struct fields between `lo..hi` (inside parens); fields
/// are named by position (`"0"`, `"1"`, …).
fn parse_tuple_fields(tokens: &[Token], lo: usize, hi: usize, out: &mut Vec<FieldItem>) {
    let mut i = lo;
    let mut idx = 0usize;
    let mut angle: i32 = 0;
    let mut paren: i32 = 0;
    let mut ty_idents: Vec<String> = Vec::new();
    let mut vis = Vis::Private;
    let mut line = tokens.get(lo).map_or(0, |t| t.line);
    while i < hi {
        let t = &tokens[i];
        if t.ident() == Some("pub") {
            vis = Vis::Pub;
            if is_punct_at(tokens, i + 1, "(") {
                i = match_paren(tokens, i + 1).min(hi);
                vis = Vis::Crate;
            }
        } else if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle -= 1;
        } else if t.is_punct(">>") {
            angle -= 2;
        } else if t.is_punct("(") {
            paren += 1;
        } else if t.is_punct(")") {
            paren -= 1;
        } else if t.is_punct(",") && angle <= 0 && paren <= 0 {
            out.push(FieldItem {
                name: idx.to_string(),
                ty_idents: std::mem::take(&mut ty_idents),
                line,
                vis: std::mem::replace(&mut vis, Vis::Private),
            });
            idx += 1;
            line = tokens.get(i + 1).map_or(line, |t| t.line);
        } else if let Some(w) = t.ident() {
            ty_idents.push(w.to_string());
        }
        i += 1;
    }
    if !ty_idents.is_empty() {
        out.push(FieldItem {
            name: idx.to_string(),
            ty_idents,
            line,
            vis,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, test_spans};

    fn parse(src: &str) -> FileItems {
        let lx = lex(src);
        let spans = test_spans(&lx);
        parse_items(&lx, &spans)
    }

    #[test]
    fn finds_free_and_impl_fns() {
        let src = "
pub fn free(x: u8) -> u8 { x }
impl Replica<V> {
    pub fn on_message(&mut self) { self.helper(); }
    fn helper(&mut self) {}
}
impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result { write(f) }
}
";
        let items = parse(src);
        let names: Vec<(String, Option<String>)> = items
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.self_ty.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free".into(), None),
                ("on_message".into(), Some("Replica".into())),
                ("helper".into(), Some("Replica".into())),
                ("fmt".into(), Some("Slot".into())),
            ]
        );
    }

    #[test]
    fn struct_fields_with_generic_types() {
        let src = "
pub struct Learner<V> {
    decided: BTreeMap<Slot, Vec<u8>>,
    pub score: f64,
    pub(crate) count: u64,
}
pub struct Slot(pub u64);
";
        let items = parse(src);
        assert_eq!(items.structs.len(), 2);
        let learner = &items.structs[0];
        assert_eq!(learner.name, "Learner");
        assert_eq!(learner.fields.len(), 3);
        assert_eq!(
            learner.fields[0].ty_idents,
            vec!["BTreeMap", "Slot", "Vec", "u8"]
        );
        assert_eq!(learner.fields[1].ty_idents, vec!["f64"]);
        assert_eq!(learner.fields[2].ty_idents, vec!["u64"]);
        let vis: Vec<Vis> = learner.fields.iter().map(|f| f.vis).collect();
        assert_eq!(vis, [Vis::Private, Vis::Pub, Vis::Crate]);
        let slot = &items.structs[1];
        assert_eq!(slot.fields.len(), 1);
        assert_eq!(slot.fields[0].name, "0");
        assert_eq!(slot.fields[0].ty_idents, vec!["u64"]);
        assert_eq!(slot.fields[0].vis, Vis::Pub);
    }

    #[test]
    fn test_fns_are_marked() {
        let src = "#[cfg(test)]\nmod tests { fn helper() {} }\nfn real() {}";
        let items = parse(src);
        assert!(
            items
                .fns
                .iter()
                .find(|f| f.name == "helper")
                .unwrap()
                .is_test
        );
        assert!(!items.fns.iter().find(|f| f.name == "real").unwrap().is_test);
    }

    #[test]
    fn macro_rules_templates_are_scanned_as_code() {
        // The template is the code of every expansion: its fns must be
        // visible so macro-generated codec impls stay inside the wall.
        let src = "
macro_rules! impl_wire {
    ($t:ty) => {
        impl Wire for $t {
            fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
                read_u16(input)
            }
        }
    };
}
";
        let items = parse(src);
        assert_eq!(items.fns.len(), 1);
        assert_eq!(items.fns[0].name, "decode");
    }
}
