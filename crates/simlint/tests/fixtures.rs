//! Fixture-corpus integration tests: `state-growth` is exercised
//! against committed mini-workspaces — a seeded grow-only log
//! (`bad_ws`) and its compacting twin (`good_ws`), each with the
//! `simlint.toml` that declares its root — and against in-memory
//! sources. The CLI binary is run end-to-end for exit codes
//! (including the dedicated stale-only exit 3) and the `--json` schema;
//! and the real repository is linted with its committed `simlint.toml`
//! so a new violation or a stale waiver fails `cargo test` as well as
//! CI.

use std::path::{Path, PathBuf};
use std::process::Command;

use simlint::config::Config;
use simlint::diag::Diagnostic;
use simlint::items::parse_items;
use simlint::lexer::{lex, test_spans};
use simlint::rules::FileData;
use simlint::workspace::{analyze, analyze_sources};
use simlint::{report_to_json, JSON_VERSION};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The fixture's own `simlint.toml` (its `roots`), plus `extra`.
fn fixture_config(name: &str, extra: &str) -> String {
    let own = std::fs::read_to_string(fixture(name).join("simlint.toml")).expect("fixture config");
    format!("{own}{extra}")
}

/// The line of `Log.entries`, the field `bad_ws` seeds as grow-only.
const SEEDED_LINE: u32 = 10;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

/// The rules simlint handed to clippy: naming one in a waiver is an
/// error whose hint points at clippy.
const RETIRED_TO_CLIPPY: [&str; 7] = [
    "hash-order",
    "io-println",
    "sim-taint",
    "lossy-cast",
    "float-state",
    "panic-taint",
    "unchecked-slot-arith",
];

fn rule_count(report: &simlint::workspace::Report, rule: &str) -> usize {
    report.errors.iter().filter(|d| d.rule == rule).count()
}

fn only<'a>(report: &'a simlint::workspace::Report, rule: &str) -> &'a Diagnostic {
    let mut it = report.errors.iter().filter(|d| d.rule == rule);
    let first = it.next().unwrap_or_else(|| panic!("no {rule} diagnostic"));
    assert!(it.next().is_none(), "more than one {rule} diagnostic");
    first
}

#[test]
fn bad_workspace_flags_its_seeded_growth() {
    let report = analyze(&fixture("bad_ws"), &fixture_config("bad_ws", "")).expect("analyze");
    assert!(report.failed(), "a seeded violation must fail the lint");
    let d = only(&report, "state-growth");
    assert_eq!(
        (d.path.as_str(), d.line),
        ("crates/paxos/src/replica.rs", SEEDED_LINE)
    );
    assert!(d.message.contains("`Log.entries` (Vec)"), "{}", d.message);
    assert_eq!(report.errors.len(), 1);
    assert!(report.waived.is_empty());
    assert!(report.stale.is_empty());
}

#[test]
fn deleting_a_root_is_caught_as_stale() {
    // If a declared entry point is renamed or deleted, the held state
    // silently shrinks — simlint must refuse to pass.
    let roots = r#"roots = ["Replica::on_message", "Replica::vanished_handler"]"#;
    let report = analyze(&fixture("good_ws"), roots).expect("analyze");
    assert!(report.failed());
    let stale: Vec<_> = report.stale.iter().filter(|s| s.rule == "roots").collect();
    assert_eq!(stale.len(), 1);
    assert!(stale[0].declared_at.contains("roots"));
    assert!(stale[0].message.contains("matches no workspace function"));
    assert!(
        stale[0].message.contains("vanished_handler"),
        "names the missing pattern: {}",
        stale[0].message
    );
}

/// One in-memory source file, loaded the way `analyze` loads a tree.
fn file_data(rel: &str, src: String) -> FileData {
    let tokens = lex(&src);
    let items = parse_items(&tokens, &test_spans(&tokens));
    FileData {
        rel: rel.into(),
        krate: simlint::workspace::crate_of(rel).into(),
        src,
        tokens,
        items,
    }
}

#[test]
fn state_growth_resolves_held_types_in_their_own_crate() {
    // `core` declares its own `Log`, scanned first and held by no root:
    // `Replica.log` must resolve to the `Log` of its own crate, so the
    // finding names replica.rs and nothing names helpers.rs.
    let helpers = "pub struct Log {\n    pub entries: Vec<String>,\n}\n";
    let replica = "pub struct Replica {\n    pub log: Log,\n}\n\
                   pub struct Log {\n    pub entries: Vec<u64>,\n}\n\
                   impl Replica {\n    pub fn on_message(&mut self, slot: u64) {\n        \
                   self.log.entries.push(slot);\n    }\n}\n";
    let data = [
        file_data("crates/core/src/helpers.rs", helpers.into()),
        file_data("crates/paxos/src/replica.rs", replica.into()),
    ];
    let cfg = Config {
        roots: vec!["Replica::on_message".into()],
        ..Config::default()
    };
    let report = analyze_sources(&data, &cfg);
    assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
    let d = only(&report, "state-growth");
    assert_eq!(
        (d.path.as_str(), d.line),
        ("crates/paxos/src/replica.rs", 5)
    );
    assert!(d.message.contains("`Log.entries` (Vec)"));
    // The chain is the held-type provenance: the root, then the field.
    assert!(d.chain[0].starts_with("root Replica::on_message ("));
    assert!(d.chain[1].starts_with("Replica.log: Log ("));
}

#[test]
fn good_workspace_is_clean() {
    let report = analyze(&fixture("good_ws"), &fixture_config("good_ws", "")).expect("analyze");
    assert!(!report.failed(), "{report:?}");
    assert_eq!(report.files_scanned, 1);
    assert!(report.waived.is_empty());
    assert!(report.stale.is_empty(), "its root matches `on_message`");
}

#[test]
fn toml_waiver_suppresses_matching_diagnostics() {
    let config = fixture_config(
        "bad_ws",
        r#"
        [[waiver]]
        rule = "state-growth"
        path = "crates/paxos/src/replica.rs"
        reason = "fixture-level exemption used by the waiver test"
    "#,
    );
    let report = analyze(&fixture("bad_ws"), &config).expect("analyze");
    assert_eq!(rule_count(&report, "state-growth"), 0);
    assert_eq!(report.waived.len(), 1);
    assert!(report.waived[0].1.contains("fixture-level exemption"));
    assert!(!report.failed(), "{report:?}");
}

#[test]
fn line_scoped_toml_waiver_covers_only_that_line() {
    let waiver = |line: u32| {
        fixture_config(
            "bad_ws",
            &format!(
                "[[waiver]]\nrule = \"state-growth\"\npath = \"crates/paxos/src/replica.rs\"\n\
                 line = {line}\nreason = \"only this line of the fixture is exempted\"\n"
            ),
        )
    };
    let on_line = analyze(&fixture("bad_ws"), &waiver(SEEDED_LINE)).expect("analyze");
    assert!(!on_line.failed(), "{on_line:?}");
    assert_eq!(on_line.waived.len(), 1);
    assert_eq!(on_line.waived[0].0.line, SEEDED_LINE);

    // One line off, the waiver covers nothing: the finding stands and
    // the waiver is stale.
    let off = analyze(&fixture("bad_ws"), &waiver(SEEDED_LINE + 1)).expect("analyze");
    assert_eq!(rule_count(&off, "state-growth"), 1);
    assert_eq!(off.errors[0].line, SEEDED_LINE);
    assert!(off.waived.is_empty());
    assert_eq!(off.stale.len(), 1, "{:?}", off.stale);
}

#[test]
fn stale_toml_waiver_is_an_error() {
    let waivers = fixture_config(
        "good_ws",
        r#"
        [[waiver]]
        rule = "state-growth"
        path = "crates/paxos/src/replica.rs"
        reason = "nothing in the clean tree matches this entry"
    "#,
    );
    let report = analyze(&fixture("good_ws"), &waivers).expect("analyze");
    assert!(report.failed(), "a waiver matching nothing must fail");
    assert!(report.stale_only(), "clean code + stale waiver = exit 3");
    assert_eq!(report.stale.len(), 1);
    assert!(report.stale[0].message.contains("stale waiver"));
}

#[test]
fn waiver_for_missing_file_reports_the_path() {
    let waivers = r#"
        [[waiver]]
        rule = "state-growth"
        path = "crates/paxos/src/gone.rs"
        reason = "this file was deleted but the waiver lingered"
    "#;
    let report = analyze(&fixture("good_ws"), waivers).expect("analyze");
    assert!(report.failed());
    assert!(report.stale[0].message.contains("missing file"));
}

#[test]
fn waiver_naming_unknown_rule_is_a_config_error() {
    // A typo, and the rules clippy took over.
    for rule in ["no-such-rule"].iter().chain(&RETIRED_TO_CLIPPY) {
        let waivers = format!(
            "[[waiver]]\nrule = \"{rule}\"\npath = \"crates/paxos/src/replica.rs\"\n\
             reason = \"long enough reason, wrong rule name\"\n"
        );
        let err = analyze(&fixture("bad_ws"), &waivers).expect_err("must reject");
        assert!(
            err.message.contains("unknown rule"),
            "{rule}: {}",
            err.message
        );
        assert!(err.message.contains("clippy"), "{rule}: {}", err.message);
    }
    // The hint names where each retired rule went.
    let err = analyze(
        &fixture("bad_ws"),
        "[[waiver]]\nrule = \"unchecked-slot-arith\"\npath = \"crates/paxos/src/replica.rs\"\n\
         reason = \"long enough reason, retired rule\"\n",
    )
    .expect_err("must reject");
    assert!(
        err.message
            .contains("`unchecked-slot-arith` as arithmetic_side_effects"),
        "{}",
        err.message
    );
}

#[test]
fn json_report_matches_schema() {
    let report = analyze(&fixture("bad_ws"), &fixture_config("bad_ws", "")).expect("analyze");
    let doc = report_to_json(&report);
    // Stable top-level schema the CI job and external tooling key on.
    for key in [
        "\"version\"",
        "\"tool\": \"simlint\"",
        "\"rules\"",
        "\"diagnostics\"",
        "\"waived\"",
        "\"stale_waivers\"",
        "\"summary\"",
    ] {
        assert!(doc.contains(key), "missing {key} in:\n{doc}");
    }
    assert!(doc.contains(&format!("\"version\": {JSON_VERSION}")));
    assert!(doc.contains("\"errors\": 1"));
    assert!(doc.contains("\"rules\": [\"state-growth\"]"), "{doc}");
    // Every diagnostic row carries the fields a consumer needs to
    // locate it, and the provenance chain.
    for field in [
        "\"rule\":",
        "\"path\":",
        "\"line\":",
        "\"col\":",
        "\"message\":",
        "\"chain\":[",
    ] {
        assert!(doc.contains(field), "diagnostic rows need {field}");
    }
    assert!(!doc.contains("\"graph\""), "schema v3 has no graph block");
}

#[test]
fn cli_fails_on_seeded_violations_and_passes_clean_tree() {
    // The negative test the CI job relies on: the binary itself (not
    // just the library) must exit non-zero on the seeded corpus.
    let bad = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .args(["--root"])
        .arg(fixture("bad_ws"))
        .arg("--quiet")
        .output()
        .expect("run simlint");
    assert_eq!(bad.status.code(), Some(1), "bad_ws must exit 1");

    let good = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .args(["--root"])
        .arg(fixture("good_ws"))
        .args(["--json", "-"])
        .output()
        .expect("run simlint");
    assert_eq!(good.status.code(), Some(0), "good_ws must exit 0");
    let stdout = String::from_utf8(good.stdout).expect("utf8 json");
    assert!(
        !stdout.contains("simlint: "),
        "--json - must keep stdout pure JSON"
    );
    assert!(stdout.contains("\"errors\": 0, \"waived\": 0"), "{stdout}");
}

#[test]
fn cli_exits_3_when_only_failure_is_staleness() {
    // Dedicated exit code so CI can tell "code is dirty" (1) apart
    // from "the allowlist or the lint wall rotted" (3).
    let cfg = std::env::temp_dir().join("simlint_stale_roots_test.toml");
    std::fs::write(&cfg, "roots = [\"Replica::vanished_handler\"]\n").expect("write temp config");
    let out = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .args(["--root"])
        .arg(fixture("good_ws"))
        .args(["--config"])
        .arg(&cfg)
        .arg("--quiet")
        .output()
        .expect("run simlint");
    assert_eq!(
        out.status.code(),
        Some(3),
        "stale-only must exit 3, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn cli_rejects_unknown_arguments_with_usage_exit() {
    // `--graph-dot` left with the call graph.
    for args in [&["--frobnicate"][..], &["--graph-dot", "-"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_simlint"))
            .args(args)
            .output()
            .expect("run simlint");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn repository_is_clean_under_its_committed_waivers() {
    // The acceptance criterion as a test: zero unwaived violations and
    // zero stale waivers on the real tree with the real simlint.toml.
    // This makes `cargo test` catch a new violation even before CI runs.
    let root = repo_root();
    let waiver_src = std::fs::read_to_string(root.join("simlint.toml")).unwrap_or_default();
    let report = analyze(&root, &waiver_src).expect("analyze repo");
    assert!(
        report.files_scanned > 50,
        "sanity: expected the real workspace, scanned {}",
        report.files_scanned
    );
    assert!(
        report.errors.is_empty(),
        "unwaived simlint violations:\n{}",
        report
            .errors
            .iter()
            .map(|d| format!("  {}:{} {} — {}", d.path, d.line, d.rule, d.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.stale.is_empty(), "stale waivers: {:?}", report.stale);
    // `simlint.toml`'s policy: the waiver list can only shrink. The
    // ceiling is the current count; lower it when a waiver goes, never
    // raise it.
    assert!(
        report.waived.len() <= 13,
        "{} waived diagnostics, above the ceiling of 13",
        report.waived.len()
    );
    assert!(
        !report.waived.is_empty(),
        "sanity: state-growth resolves the roots' held state on the real tree"
    );
}
