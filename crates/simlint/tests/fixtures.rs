//! Fixture-corpus integration tests: each rule is exercised against
//! committed mini-workspaces — seeded violations (`bad_ws`), a clean
//! twin with one justified inline allow (`good_ws`), and a transitive
//! corpus whose violations sit at the end of multi-hop cross-crate call
//! chains (`taint_ws`). The CLI
//! binary is run end-to-end for exit codes (including the dedicated
//! stale-only exit 3) and the `--json` schema; and the real repository
//! is linted with its committed `simlint.toml` so a new violation or a
//! stale waiver fails `cargo test` as well as CI.

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
const RETIRED_TO_CLIPPY: [&str; 5] = [
    "hash-order",
    "io-println",
    "sim-taint",
    "lossy-cast",
    "float-state",
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

/// The committed roots for the transitive corpus (also read by the CLI
/// when it is pointed at the fixture directory).
fn taint_roots() -> String {
    std::fs::read_to_string(fixture("taint_ws").join("simlint.toml")).expect("taint_ws roots")
}

#[test]
fn bad_workspace_flags_every_seeded_file_scoped_violation() {
    let report = analyze(&fixture("bad_ws"), "").expect("analyze");
    assert!(report.failed(), "seeded violations must fail the lint");
    // Exact counts pin both the detector and its span logic: without
    // roots only the file-scoped rule runs.
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
fn declaring_roots_adds_transitive_findings_to_bad_workspace() {
    // Without roots the panics are invisible; declaring the fixture fn
    // as a root surfaces them transitively.
    let roots = r#"
        [roots]
        protocol = ["handle"]
    "#;
    let report = analyze(&fixture("bad_ws"), roots).expect("analyze");
    assert_eq!(
        rule_count(&report, "panic-taint"),
        3,
        "indexing + unwrap + panic!"
    );
    assert_eq!(report.errors.len(), 5, "2 file-scoped + 3 transitive");
    assert!(report.stale.is_empty(), "all root patterns match");
}

#[test]
fn transitive_corpus_flags_every_rule_with_call_chains() {
    let report = analyze(&fixture("taint_ws"), &taint_roots()).expect("analyze");
    assert_eq!(report.errors.len(), 2, "one finding per transitive rule");
    assert!(report.stale.is_empty());

    // panic-taint: the indexing expression four hops from the root,
    // across crates.
    let d = only(&report, "panic-taint");
    assert_eq!(
        (d.path.as_str(), d.line),
        ("crates/core/src/helpers.rs", 11)
    );
    assert_eq!(
        d.chain.len(),
        4,
        "on_message → step → persist → stamp: {:?}",
        d.chain
    );
    assert!(d.chain[0].starts_with("Replica::on_message (crates/paxos/src/replica.rs:"));
    assert!(d.chain[1].starts_with("Replica::step ("));
    assert!(d.chain[2].starts_with("persist (crates/core/src/helpers.rs:"));
    assert!(d.chain[3].starts_with("stamp ("));

    // state-growth: `Log.entries` held via the `Replica.log` field; the
    // chain is the held-type provenance, not a call path.
    let d = only(&report, "state-growth");
    assert_eq!(
        (d.path.as_str(), d.line),
        ("crates/paxos/src/replica.rs", 16)
    );
    assert!(d.message.contains("`Log.entries` (Vec)"));
    assert!(d.chain[0].starts_with("root Replica::on_message ("));
    assert!(d.chain[1].starts_with("Replica.log: Log ("));
    // `core` declares its own `Log` (scanned first, held by no root):
    // `Replica.log` must resolve to the `Log` of its own crate, so the
    // finding above names replica.rs and nothing names helpers.rs.
    assert!(report
        .errors
        .iter()
        .all(|e| e.rule != "state-growth" || e.path != "crates/core/src/helpers.rs"));
}

#[test]
fn transitive_corpus_graph_stats_and_dot_export() {
    let report = analyze(&fixture("taint_ws"), &taint_roots()).expect("analyze");
    assert_eq!(report.stats.functions, 4);
    assert_eq!(report.stats.edges, 3);
    assert_eq!(report.stats.sim_roots, 1);
    assert_eq!(report.stats.sim_reachable, 4, "every fn is on the chain");
    assert_eq!(report.stats.protocol_reachable, 4);
    assert!(report.dot.starts_with("digraph simlint {"));
    assert!(report.dot.contains("Replica::step"));
    assert!(report.dot.contains("cluster_core"), "crate clustering");
}

#[test]
fn deleting_a_root_is_caught_as_stale() {
    // Satellite 6: if a declared entry point is renamed or deleted, the
    // reachable set silently shrinks — simlint must refuse to pass.
    let roots = r#"
        [roots]
        sim = ["Replica::on_message", "Replica::vanished_handler"]
        protocol = ["Replica::on_message"]
    "#;
    let report = analyze(&fixture("taint_ws"), roots).expect("analyze");
    assert!(report.failed());
    let stale: Vec<_> = report.stale.iter().filter(|s| s.rule == "roots").collect();
    assert_eq!(stale.len(), 1);
    assert!(stale[0].declared_at.contains("[roots] sim"));
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
    // Roots on, so the same file also carries panic-taint findings the
    // rule-scoped waiver must leave alone.
    let config = r#"
        [roots]
        protocol = ["handle"]

        [[waiver]]
        rule = "unchecked-slot-arith"
        path = "crates/paxos/src/replica.rs"
        reason = "fixture-level exemption used by the waiver test"
    "#;
    let report = analyze(&fixture("bad_ws"), config).expect("analyze");
    assert_eq!(rule_count(&report, "unchecked-slot-arith"), 0);
    assert_eq!(report.waived.len(), 2);
    assert_eq!(
        rule_count(&report, "panic-taint"),
        3,
        "other rules still fire"
    );
    assert!(report.stale.is_empty());
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
        rule = "panic-taint"
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
    let report = analyze(&fixture("taint_ws"), &taint_roots()).expect("analyze");
    let doc = report_to_json(&report);
    // Stable top-level schema the CI job and external tooling key on.
    for key in [
        "\"version\"",
        "\"tool\": \"simlint\"",
        "\"rules\"",
        "\"diagnostics\"",
        "\"waived\"",
        "\"stale_waivers\"",
        "\"graph\"",
        "\"summary\"",
    ] {
        assert!(doc.contains(key), "missing {key} in:\n{doc}");
    }
    assert!(doc.contains(&format!("\"version\": {JSON_VERSION}")));
    assert!(doc.contains("\"errors\": 2"));
    // Every diagnostic row carries the fields a consumer needs to
    // locate it — including the v2 call chain.
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
    assert!(doc.contains("\"functions\": 4"));
    assert!(doc.contains("\"sim_reachable\": 4"));
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
fn cli_picks_up_fixture_roots_and_exports_the_graph() {
    // `--root taint_ws` reads the committed taint_ws/simlint.toml, so
    // the CLI exercises the same [roots] parsing as the real repo.
    let out = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .args(["--root"])
        .arg(fixture("taint_ws"))
        .args(["--graph-dot", "-"])
        .output()
        .expect("run simlint");
    assert_eq!(out.status.code(), Some(1), "two seeded violations");
    let dot = String::from_utf8(out.stdout).expect("utf8 dot");
    assert!(dot.starts_with("digraph simlint {"));
    assert!(dot.contains("Replica::on_message"));
}

#[test]
fn cli_exits_3_when_only_failure_is_staleness() {
    // Dedicated exit code so CI can tell "code is dirty" (1) apart
    // from "the allowlist or the lint wall rotted" (3).
    let cfg = std::env::temp_dir().join("simlint_stale_roots_test.toml");
    std::fs::write(&cfg, "[roots]\nsim = [\"Replica::vanished_handler\"]\n")
        .expect("write temp config");
    let out = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .args(["--root"])
        .arg(fixture("taint_ws"))
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
    let out = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .arg("--frobnicate")
        .output()
        .expect("run simlint");
    assert_eq!(out.status.code(), Some(2));
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
        report.stats.sim_reachable > 100 && report.stats.protocol_reachable > 100,
        "sanity: the lint walls actually cover the workspace ({:?})",
        report.stats
    );
}
