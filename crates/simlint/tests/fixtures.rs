//! Fixture-corpus integration tests: the rules are exercised against
//! committed mini-workspaces — seeded violations (`bad_ws`) and a clean
//! twin with one justified inline allow (`good_ws`) — and against
//! in-memory sources. The CLI binary is run end-to-end for exit codes
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

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

/// The rules simlint handed to clippy: naming one in a waiver is an
/// error whose hint points at clippy.
const RETIRED_TO_CLIPPY: [&str; 6] = [
    "hash-order",
    "io-println",
    "sim-taint",
    "lossy-cast",
    "float-state",
    "panic-taint",
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
fn bad_workspace_flags_every_seeded_file_scoped_violation() {
    let report = analyze(&fixture("bad_ws"), "").expect("analyze");
    assert!(report.failed(), "seeded violations must fail the lint");
    // Exact counts pin both the detector and its span logic; the
    // fixture's indexing, unwrap and panic! are clippy's, not simlint's.
    assert_eq!(
        rule_count(&report, "unchecked-slot-arith"),
        2,
        "slot + 1, slot - 1"
    );
    assert_eq!(report.errors.len(), 2);
    assert!(report.waived.is_empty());
    assert!(report.stale.is_empty());
}

#[test]
fn deleting_a_root_is_caught_as_stale() {
    // If a declared entry point is renamed or deleted, the held state
    // silently shrinks — simlint must refuse to pass.
    let roots = r#"roots = ["handle", "Replica::vanished_handler"]"#;
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
    let lexed = lex(&src);
    let items = parse_items(&lexed.tokens, &test_spans(&lexed.tokens));
    FileData {
        rel: rel.into(),
        krate: simlint::workspace::crate_of(rel).into(),
        src,
        lexed,
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
fn good_workspace_is_clean_with_one_justified_allow() {
    let report = analyze(&fixture("good_ws"), "").expect("analyze");
    assert!(
        !report.failed(),
        "a waived violation must not fail: {report:?}"
    );
    assert!(
        report.errors.is_empty(),
        "clean twin: no unwaived diagnostics"
    );
    assert_eq!(report.files_scanned, 1);
    assert_eq!(report.waived.len(), 1);
    assert_eq!(report.waived[0].0.rule, "unchecked-slot-arith");
    assert!(report.waived[0].1.contains("inline waiver path"));
    assert!(report.stale.is_empty(), "the allow is used, not stale");

    // An inline allow naming a rule clippy now owns waives nothing: it
    // is reported stale and pointed at clippy.
    let rel = "crates/paxos/src/replica.rs";
    let src = std::fs::read_to_string(fixture("good_ws").join(rel)).expect("fixture");
    for retired in RETIRED_TO_CLIPPY {
        let with_allow = format!("{src}// simlint: allow({retired}): clippy checks this now\n");
        let report = analyze_sources(&[file_data(rel, with_allow)], &Config::default());
        assert!(report.stale_only(), "{retired}: {report:?}");
        assert!(
            report
                .stale
                .iter()
                .any(|w| w.message.contains("unknown rule") && w.message.contains("clippy")),
            "{retired}: {:?}",
            report.stale
        );
    }
}

#[test]
fn toml_waiver_suppresses_matching_diagnostics() {
    let config = r#"
        [[waiver]]
        rule = "unchecked-slot-arith"
        path = "crates/paxos/src/replica.rs"
        reason = "fixture-level exemption used by the waiver test"
    "#;
    let report = analyze(&fixture("bad_ws"), config).expect("analyze");
    assert_eq!(rule_count(&report, "unchecked-slot-arith"), 0);
    assert_eq!(report.waived.len(), 2);
    assert!(!report.failed(), "{report:?}");
}

#[test]
fn line_scoped_toml_waiver_covers_only_that_line() {
    // replica.rs: `slot + 1` on line 11, `slot - 1` on line 12.
    let waivers = r#"
        [[waiver]]
        rule = "unchecked-slot-arith"
        path = "crates/paxos/src/replica.rs"
        line = 11
        reason = "only the first ordinal step is exempted here"
    "#;
    let report = analyze(&fixture("bad_ws"), waivers).expect("analyze");
    assert_eq!(rule_count(&report, "unchecked-slot-arith"), 1);
    assert_eq!(report.errors[0].line, 12);
    assert_eq!(report.waived.len(), 1);
    assert_eq!(report.waived[0].0.line, 11);
}

#[test]
fn stale_toml_waiver_is_an_error() {
    let waivers = r#"
        [[waiver]]
        rule = "state-growth"
        path = "crates/paxos/src/replica.rs"
        reason = "nothing in the clean tree matches this entry"
    "#;
    let report = analyze(&fixture("good_ws"), waivers).expect("analyze");
    assert!(report.failed(), "a waiver matching nothing must fail");
    assert!(report.stale_only(), "clean code + stale waiver = exit 3");
    assert_eq!(report.stale.len(), 1);
    assert!(report.stale[0].message.contains("stale waiver"));
}

#[test]
fn waiver_for_missing_file_reports_the_path() {
    let waivers = r#"
        [[waiver]]
        rule = "unchecked-slot-arith"
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
}

#[test]
fn json_report_matches_schema() {
    let report = analyze(&fixture("bad_ws"), "").expect("analyze");
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
    assert!(doc.contains("\"errors\": 2"));
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
    assert!(stdout.contains("\"errors\": 0"));
    assert!(
        !stdout.contains("simlint: "),
        "--json - must keep stdout pure JSON"
    );
    // Its justified inline allow is reported, not failed.
    assert!(stdout.contains("\"errors\": 0, \"waived\": 1"), "{stdout}");
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
