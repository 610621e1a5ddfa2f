//! A self-contained Rust lexer for token-level static analysis.
//!
//! Produces a token stream with exact (line, column) spans; comments
//! are skipped. Strings, raw strings, byte strings, char literals, and
//! lifetimes are recognized so that a field name never matches inside a
//! literal or a comment. The lexer does not build an AST —
//! [`crate::items`] and `state-growth` in [`crate::rules`] work over
//! token windows, which is sufficient for the one invariant simlint
//! enforces and keeps the analyzer dependency-free (the build
//! environment is offline, so `syn` is not available).

/// Kind of a lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`HashMap`, `fn`, `self`, …).
    Ident(String),
    /// Numeric literal (value text preserved, suffix included).
    Number(String),
    /// String/char/byte literal (contents dropped; only the span matters).
    Literal,
    /// Lifetime such as `'a`.
    Lifetime,
    /// Operator or punctuation, possibly multi-character (`::`, `+=`, `->`).
    Punct(&'static str),
    /// Single punctuation character not in the multi-char table.
    Char(char),
}

/// One token with its source position (1-based line and column) and
/// the byte offset of its first character in the source.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    pub line: u32,
    pub col: u32,
    pub byte: u32,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this token is the exact punctuation `p`.
    pub fn is_punct(&self, p: &str) -> bool {
        match &self.kind {
            TokKind::Punct(s) => *s == p,
            TokKind::Char(c) => p.len() == 1 && p.starts_with(*c),
            _ => false,
        }
    }
}

const MULTI_PUNCT: &[&str] = &[
    "..=", "<<=", ">>=", "::", "->", "=>", "..", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "<<", ">>", "&&", "||", "==", "!=", "<=", ">=",
];

/// Lexes `src` into tokens. Never fails: unterminated
/// constructs are consumed to end-of-file (good enough for analysis —
/// such files will not compile anyway).
pub fn lex(src: &str) -> Vec<Token> {
    let bytes: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut col: u32 = 1;
    let mut byte: u32 = 0;

    // Advances over one char, tracking line/col/byte.
    macro_rules! bump {
        () => {{
            byte += bytes[i].len_utf8() as u32;
            if bytes[i] == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i];
        let (tline, tcol, tbyte) = (line, col, byte);

        // Whitespace.
        if c.is_whitespace() {
            bump!();
            continue;
        }

        // Line comment.
        if c == '/' && bytes.get(i + 1) == Some(&'/') {
            while i < bytes.len() && bytes[i] != '\n' {
                bump!();
            }
            continue;
        }

        // Block comment (nested).
        if c == '/' && bytes.get(i + 1) == Some(&'*') {
            let mut depth = 1;
            let mut j = i + 2;
            while j < bytes.len() && depth > 0 {
                if bytes[j] == '/' && bytes.get(j + 1) == Some(&'*') {
                    depth += 1;
                    j += 2;
                } else if bytes[j] == '*' && bytes.get(j + 1) == Some(&'/') {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            while i < j.min(bytes.len()) {
                bump!();
            }
            continue;
        }

        // Raw strings: r"..." / r#"..."# / br#"..."#, any number of #s.
        if (c == 'r' || c == 'b') && is_raw_string_start(&bytes, i) {
            let mut j = i;
            if bytes[j] == 'b' {
                j += 1;
            }
            j += 1; // past 'r'
            let mut hashes = 0;
            while bytes.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            j += 1; // past opening quote
            loop {
                match bytes.get(j) {
                    None => break,
                    Some('"') => {
                        let mut k = j + 1;
                        let mut seen = 0;
                        while seen < hashes && bytes.get(k) == Some(&'#') {
                            seen += 1;
                            k += 1;
                        }
                        if seen == hashes {
                            j = k;
                            break;
                        }
                        j += 1;
                    }
                    Some(_) => j += 1,
                }
            }
            out.push(Token {
                kind: TokKind::Literal,
                line: tline,
                col: tcol,
                byte: tbyte,
            });
            while i < j.min(bytes.len()) {
                bump!();
            }
            continue;
        }

        // Plain and byte strings.
        if c == '"' || (c == 'b' && bytes.get(i + 1) == Some(&'"')) {
            let mut j = if c == 'b' { i + 2 } else { i + 1 };
            loop {
                match bytes.get(j) {
                    None => break,
                    Some('\\') => j += 2,
                    Some('"') => {
                        j += 1;
                        break;
                    }
                    Some(_) => j += 1,
                }
            }
            out.push(Token {
                kind: TokKind::Literal,
                line: tline,
                col: tcol,
                byte: tbyte,
            });
            while i < j.min(bytes.len()) {
                bump!();
            }
            continue;
        }

        // Char literal vs lifetime.
        if c == '\'' {
            let next = bytes.get(i + 1).copied();
            let is_char = match next {
                Some('\\') => true,
                // 'x' is a char literal iff a closing quote follows the
                // ident run; otherwise it is a lifetime.
                Some(n) if n != '\'' && (n.is_alphanumeric() || n == '_') => {
                    let mut j = i + 1;
                    while bytes
                        .get(j)
                        .is_some_and(|ch| ch.is_alphanumeric() || *ch == '_')
                    {
                        j += 1;
                    }
                    bytes.get(j) == Some(&'\'')
                }
                // e.g. '(' — only valid as a char literal.
                _ => true,
            };
            if is_char {
                let mut j = i + 1;
                loop {
                    match bytes.get(j) {
                        None => break,
                        Some('\\') => j += 2,
                        Some('\'') => {
                            j += 1;
                            break;
                        }
                        Some(_) => j += 1,
                    }
                }
                out.push(Token {
                    kind: TokKind::Literal,
                    line: tline,
                    col: tcol,
                    byte: tbyte,
                });
                while i < j.min(bytes.len()) {
                    bump!();
                }
            } else {
                let mut j = i + 1;
                while bytes
                    .get(j)
                    .is_some_and(|ch| ch.is_alphanumeric() || *ch == '_')
                {
                    j += 1;
                }
                out.push(Token {
                    kind: TokKind::Lifetime,
                    line: tline,
                    col: tcol,
                    byte: tbyte,
                });
                while i < j {
                    bump!();
                }
            }
            continue;
        }

        // Identifier / keyword.
        if c.is_alphabetic() || c == '_' {
            let mut j = i;
            while bytes
                .get(j)
                .is_some_and(|ch| ch.is_alphanumeric() || *ch == '_')
            {
                j += 1;
            }
            out.push(Token {
                kind: TokKind::Ident(bytes[i..j].iter().collect()),
                line: tline,
                col: tcol,
                byte: tbyte,
            });
            while i < j {
                bump!();
            }
            continue;
        }

        // Number.
        if c.is_ascii_digit() {
            let mut j = i;
            while bytes
                .get(j)
                .is_some_and(|ch| ch.is_alphanumeric() || *ch == '_' || *ch == '.')
            {
                // Stop a trailing `..` range from being eaten into the number.
                if *ch_at(&bytes, j) == '.' && bytes.get(j + 1) == Some(&'.') {
                    break;
                }
                j += 1;
            }
            out.push(Token {
                kind: TokKind::Number(bytes[i..j].iter().collect()),
                line: tline,
                col: tcol,
                byte: tbyte,
            });
            while i < j {
                bump!();
            }
            continue;
        }

        // Multi-char punctuation.
        let mut matched = None;
        for p in MULTI_PUNCT {
            let pc: Vec<char> = p.chars().collect();
            if bytes[i..].starts_with(&pc) {
                matched = Some(*p);
                break;
            }
        }
        if let Some(p) = matched {
            out.push(Token {
                kind: TokKind::Punct(p),
                line: tline,
                col: tcol,
                byte: tbyte,
            });
            for _ in 0..p.len() {
                bump!();
            }
            continue;
        }

        out.push(Token {
            kind: TokKind::Char(c),
            line: tline,
            col: tcol,
            byte: tbyte,
        });
        bump!();
    }

    out
}

fn ch_at(bytes: &[char], j: usize) -> &char {
    &bytes[j]
}

fn is_raw_string_start(bytes: &[char], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == 'b' {
        j += 1;
        if bytes.get(j) != Some(&'r') {
            return false;
        }
    }
    if bytes.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while bytes.get(j) == Some(&'#') {
        j += 1;
    }
    bytes.get(j) == Some(&'"')
}

/// Index of the `}` matching the `{` at `open` (or the last token if the
/// stream ends unbalanced). Tracks nested brace depth over the full token
/// stream — strings, chars, and comments are already opaque at this layer,
/// so every brace token is structural.
pub fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut d = 0i64;
    for (n, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct("{") {
            d += 1;
        } else if t.is_punct("}") {
            d -= 1;
            if d == 0 {
                return n;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Whether the attribute body tokens `start..end` (between `#[` and the
/// matching `]`) restrict the item to test builds.
///
/// True for `#[test]` and for `#[cfg(...)]` conditions where `test`
/// appears *outside* any `not(...)`. `#[cfg(not(test))]` is the exact
/// opposite of test-only code and must NOT be exempted — the old
/// implementation treated any `test` token under `cfg` as an exemption
/// and silently leaked it onto code that only compiles in non-test
/// builds.
fn attr_is_test(tokens: &[Token], start: usize, end: usize) -> bool {
    let first = tokens.get(start).and_then(|t| t.ident());
    match first {
        Some("test") => true,
        Some("cfg") => {
            // Walk the condition tracking parenthesis depth and the
            // depths at which a `not(` scope opened.
            let mut depth = 0u32;
            let mut not_depths: Vec<u32> = Vec::new();
            let mut k = start + 1;
            while k < end {
                let t = &tokens[k];
                if t.is_punct("(") {
                    depth += 1;
                } else if t.is_punct(")") {
                    if not_depths.last() == Some(&depth) {
                        not_depths.pop();
                    }
                    depth = depth.saturating_sub(1);
                } else if let Some(id) = t.ident() {
                    if id == "not" && tokens.get(k + 1).is_some_and(|n| n.is_punct("(")) {
                        not_depths.push(depth + 1);
                    } else if id == "test" && not_depths.is_empty() {
                        return true;
                    }
                }
                k += 1;
            }
            false
        }
        _ => false,
    }
}

/// Line spans (inclusive) of test-only code: items annotated with
/// `#[cfg(test)]` or `#[test]`, including everything inside their braces
/// (nested modules, closures, and inner items track brace depth exactly).
/// Rules skip diagnostics inside these spans — test code may freely
/// unwrap, index and step ordinals unchecked.
pub fn test_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut idx = 0;
    while idx < tokens.len() {
        if tokens[idx].is_punct("#") && tokens.get(idx + 1).is_some_and(|t| t.is_punct("[")) {
            // Collect the attribute's tokens up to the matching `]`.
            let attr_start = idx + 2;
            let mut j = attr_start;
            let mut depth = 1;
            while j < tokens.len() && depth > 0 {
                if tokens[j].is_punct("[") {
                    depth += 1;
                } else if tokens[j].is_punct("]") {
                    depth -= 1;
                }
                j += 1;
            }
            // `j` is now one past the closing `]`; the body is
            // `attr_start..j-1`.
            if attr_is_test(tokens, attr_start, j.saturating_sub(1)) {
                // Skip any further attributes, then span the next item.
                let mut k = j;
                while k < tokens.len()
                    && tokens[k].is_punct("#")
                    && tokens.get(k + 1).is_some_and(|t| t.is_punct("["))
                {
                    let mut d = 0;
                    k += 1;
                    loop {
                        if k >= tokens.len() {
                            break;
                        }
                        if tokens[k].is_punct("[") {
                            d += 1;
                        } else if tokens[k].is_punct("]") {
                            d -= 1;
                            if d == 0 {
                                k += 1;
                                break;
                            }
                        }
                        k += 1;
                    }
                }
                // Find the item's opening brace (or a terminating `;` for
                // brace-less items like `mod tests;`).
                let mut open = None;
                while k < tokens.len() {
                    if tokens[k].is_punct("{") {
                        open = Some(k);
                        break;
                    }
                    if tokens[k].is_punct(";") {
                        break;
                    }
                    k += 1;
                }
                if let Some(open_idx) = open {
                    let end = match_brace(tokens, open_idx);
                    spans.push((tokens[idx].line, tokens[end].line));
                    idx = end + 1;
                    continue;
                }
            }
            idx = j;
            continue;
        }
        idx += 1;
    }
    spans
}

/// Whether `line` falls inside any of `spans`.
pub fn in_spans(spans: &[(u32, u32)], line: u32) -> bool {
    spans.iter().any(|(a, b)| line >= *a && line <= *b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_opaque() {
        let lx = lex(r##"let s = "HashMap"; // HashMap in comment
let r = r#"Instant::now()"#; /* SystemTime */ let x = 1;"##);
        let idents: Vec<_> = lx.iter().filter_map(|t| t.ident()).collect();
        assert_eq!(idents, ["let", "s", "let", "r", "let", "x"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lx = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes = lx.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let chars = lx.iter().filter(|t| t.kind == TokKind::Literal).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn multi_char_punct_and_spans() {
        let lx = lex("a += 1;\nb -> c;");
        assert!(lx.iter().any(|t| t.is_punct("+=")));
        assert!(lx.iter().any(|t| t.is_punct("->")));
        let arrow = lx.iter().find(|t| t.is_punct("->")).unwrap();
        assert_eq!(arrow.line, 2);
    }

    #[test]
    fn cfg_test_spans_cover_module() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let lx = lex(src);
        let spans = test_spans(&lx);
        assert_eq!(spans.len(), 1);
        assert!(in_spans(&spans, 4));
        assert!(!in_spans(&spans, 1));
        assert!(!in_spans(&spans, 6));
    }

    #[test]
    fn test_attr_fn_span() {
        let src = "#[test]\nfn t() { a.unwrap(); }\nfn real() {}\n";
        let lx = lex(src);
        let spans = test_spans(&lx);
        assert!(in_spans(&spans, 2));
        assert!(!in_spans(&spans, 3));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_span() {
        let src = "#[cfg(feature = \"x\")]\nfn real() { a.unwrap(); }\n";
        let lx = lex(src);
        assert!(test_spans(&lx).is_empty());
    }

    #[test]
    fn cfg_not_test_is_never_exempt() {
        // Regression: the old span logic treated any `test` ident under
        // `#[cfg(...)]` as an exemption, so `#[cfg(not(test))]` items —
        // code that only compiles OUTSIDE tests — were silently skipped.
        let src = "#[cfg(not(test))]\nfn real() { a.unwrap(); }\n";
        let lx = lex(src);
        assert!(test_spans(&lx).is_empty());
    }

    #[test]
    fn cfg_any_with_not_still_sees_bare_test() {
        let src = "#[cfg(any(not(feature_x), test))]\nmod tests { fn t() {} }\n";
        let lx = lex(src);
        assert_eq!(test_spans(&lx).len(), 1);
    }

    #[test]
    fn nested_modules_and_closures_end_exactly_at_block_close() {
        // Regression: the exemption must stop at the `mod tests` closing
        // brace even when the block nests modules, closures, and match
        // arms; the item after it is NOT exempt.
        let src = "\
#[cfg(test)]
mod tests {
    mod inner {
        fn t() {
            let f = |x: u64| { x + 1 };
            match f(1) { 2 => {} _ => {} }
        }
    }
    fn u() { let g = || { () }; g() }
}
fn after() {}
";
        let lx = lex(src);
        let spans = test_spans(&lx);
        assert_eq!(spans, vec![(1, 10)]);
        assert!(in_spans(&spans, 6));
        assert!(!in_spans(&spans, 11));
    }

    #[test]
    fn byte_offsets_are_strictly_monotone() {
        let src = "fn f() { let s = \"αβγ\"; s.len() + 1 }";
        let lx = lex(src);
        for w in lx.windows(2) {
            assert!(w[0].byte < w[1].byte);
        }
        assert_eq!(lx[0].byte, 0);
    }

    #[test]
    fn raw_string_with_hashes() {
        let lx = lex(r###"let x = r##"quote " inside"##; let y = 2;"###);
        let nums = lx
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Number(_)))
            .count();
        assert_eq!(nums, 1);
    }
}
