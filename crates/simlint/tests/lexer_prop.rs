//! Property tests for the dependency-free lexer. Everything simlint
//! reports hangs off this tokenizer, so the properties are the
//! load-bearing ones: it must never panic (rules run on arbitrary,
//! possibly half-edited source), token byte offsets must be strictly
//! monotone and in-bounds (span exemption math relies on it), and the
//! genuinely tricky Rust surface — raw strings containing `"#`,
//! char literals vs lifetimes — must tokenize as single units rather
//! than desynchronizing everything after them.

use proptest::collection;
use proptest::prelude::*;

use simlint::lexer::{lex, test_spans, TokKind};

/// Rust-ish fragments, heavily weighted toward the lexer's hazardous
/// paths: string/char/raw-string openers (including unterminated
/// ones), nested comments, lifetimes, and multi-byte UTF-8.
const FRAGMENTS: &[&str] = &[
    "fn f() {}",
    "let slot = 1;",
    "\"plain string\"",
    "\"escaped \\\" quote\"",
    "r\"raw\"",
    "r#\"raw with \" inside\"#",
    "r##\"raw with \"# inside\"##",
    "b\"bytes\"",
    "'a'",
    "'\\n'",
    "'\\''",
    "'x",
    "'static",
    "&'a str",
    "<'a, 'b>",
    "// line comment\n",
    "/* block */",
    "/* nested /* deeper */ still */",
    "/* unterminated",
    "\"unterminated",
    "r#\"unterminated",
    "#[cfg(test)]",
    "#[cfg(not(test))]",
    "mod t {",
    "}",
    "{ { } }",
    "0xfe_u64",
    "1_000_000",
    "a.b.c()",
    "x=>y",
    "::<u32>",
    "é_ident",
    "\u{1F600}",
    "\\",
    "\r\n",
];

proptest! {
    /// Gluing random fragments together must never panic the lexer or
    /// the span pass, and the tokens must come back in strictly
    /// increasing byte order, each starting inside the source.
    #[test]
    fn lexer_is_total_and_offsets_are_monotone(
        idxs in collection::vec(0usize..FRAGMENTS.len(), 0..40),
        sep in 0usize..3,
    ) {
        let sep = [" ", "", "\n"][sep];
        let src = idxs
            .iter()
            .map(|&i| FRAGMENTS[i])
            .collect::<Vec<_>>()
            .join(sep);
        let tokens = lex(&src);
        let mut prev: Option<u32> = None;
        for t in &tokens {
            prop_assert!(
                (t.byte as usize) < src.len().max(1),
                "token byte {} out of bounds (len {})", t.byte, src.len()
            );
            if let Some(p) = prev {
                prop_assert!(t.byte > p, "offsets not monotone: {p} then {}", t.byte);
            }
            prev = Some(t.byte);
            prop_assert!(t.line >= 1 && t.col >= 1, "1-based coordinates");
        }
        // The test-span pass runs on every lex result; it must be total
        // too, and every span it produces must be well-formed.
        for (start, end) in test_spans(&tokens) {
            prop_assert!(start <= end, "inverted span {start}..{end}");
        }
    }

    /// Arbitrary bytes (lossily decoded) — not even Rust-shaped input
    /// may panic the lexer.
    #[test]
    fn lexer_survives_arbitrary_bytes(bytes in collection::vec(any::<u8>(), 0..64)) {
        let src = String::from_utf8_lossy(&bytes);
        let tokens = lex(&src);
        let mut prev: Option<u32> = None;
        for t in &tokens {
            if let Some(p) = prev {
                prop_assert!(t.byte > p);
            }
            prev = Some(t.byte);
        }
    }
}

#[test]
fn raw_string_with_hash_quote_is_one_token() {
    // `"#` inside an r##-string must not terminate it; the `after`
    // ident must still be seen, at the right line.
    let src = "let s = r##\"has \"# inside\"##;\nafter";
    let tokens = lex(src);
    let idents: Vec<_> = tokens
        .iter()
        .filter_map(|t| match &t.kind {
            TokKind::Ident(id) => Some((id.as_str(), t.line)),
            _ => None,
        })
        .collect();
    assert_eq!(idents, vec![("let", 1), ("s", 1), ("after", 2)]);
    assert_eq!(
        tokens
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Literal))
            .count(),
        1,
        "the raw string lexes as exactly one literal"
    );
}

#[test]
fn char_literals_and_lifetimes_disambiguate() {
    // `'a'` is a char literal; `'a` before an ident boundary is a
    // lifetime; an escaped quote char must not eat the rest.
    let src = "fn f<'a>(x: &'a str) { let c = 'a'; let q = '\\''; }";
    let tokens = lex(src);
    let lifetimes = tokens
        .iter()
        .filter(|t| matches!(t.kind, TokKind::Lifetime))
        .count();
    let literals = tokens
        .iter()
        .filter(|t| matches!(t.kind, TokKind::Literal))
        .count();
    assert_eq!(lifetimes, 2, "<'a> and &'a");
    assert_eq!(literals, 2, "'a' and '\\''");
    // Nothing after the chars was swallowed: the closing brace is the
    // final token.
    assert!(tokens.last().is_some_and(|t| t.is_punct("}")));
}
