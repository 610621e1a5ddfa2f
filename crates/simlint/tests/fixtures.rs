//! `state-growth` on in-memory inputs and on the repository itself.
//!
//! The repository's roots and waivers are Rust data here, and
//! `repository_is_clean_under_its_committed_waivers` lints the real tree
//! with them: a new grow-only field, a root pattern that matches
//! nothing or a waived field that no longer grows fails `cargo test`.

use std::path::{Path, PathBuf};

use simlint::rules::FileData;
use simlint::workspace::{analyze, analyze_sources, Config, Report, Waiver};

/// The entry points of simulated execution: the engine, the node
/// handlers, the middleware, the replica, the SLO monitor and the codec
/// and auditor entry points. Their `self` types are held state. Each
/// entry is `Type::method`, a bare free-fn name, or a trailing-`*` glob
/// over method names (`Engine::*`).
const ROOTS: &[&str] = &[
    "Engine::*",
    "ServerNode::on_message",
    "ClientNode::on_message",
    "ProxyNode::on_message",
    "Middleware::*",
    "Replica::on_message",
    "Replica::on_tick",
    "Monitor::on_scrape",
    "decode",
    "decode_*",
    "check",
];

/// The root-held fields that only grow, by design: each is bounded by
/// configuration or append-only on purpose, and each reason records that
/// retention decision. The list can only shrink: a listed field that
/// stops growing is a stale waiver, and the repository test caps the
/// waived findings at today's count.
const WAIVERS: &[Waiver] = &[
    Waiver {
        fields: &[
            "Overlay.new_customers",
            "Overlay.new_orders",
            "Overlay.new_order_lines",
            "Overlay.new_cc_xacts",
            "Overlay.item_updates",
            "Overlay.sessions",
            "Overlay.last_order",
        ],
        reason: "TPC-W defines no delete interactions (its web interactions only insert or \
                 update); the overlay tables are the replicated database whose growth the \
                 paper's recovery-time experiments measure, and compacting them would change \
                 what recovery replays",
    },
    Waiver {
        fields: &["ProxyNode.servers", "InFlight.excluded"],
        reason: "bounded by the configured backend count: `servers` is the static backend \
                 list, and `excluded` holds the backends that crashed during one request's \
                 failover and is dropped with its InFlight entry",
    },
    Waiver {
        fields: &["Recovery.reports"],
        reason: "bounded by the acceptor count; collected once per view change and dropped \
                 wholesale when the recovery round completes",
    },
    Waiver {
        fields: &["SlotVotes.by_ballot", "Learner.delivered_pids"],
        reason: "`by_ballot` holds one slot's competing ballots and is dropped when the slot \
                 decides; `delivered_pids` is the exactly-once dedup set and cannot be pruned \
                 without client-session GC (a roadmap item)",
    },
    Waiver {
        fields: &["StableStore.logs"],
        reason: "keyed by the replica's fixed set of log names, so bounded by the key count; \
                 the entries within a log are truncated by the snapshot path",
    },
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

fn fields(ds: &[simlint::rules::Diagnostic]) -> Vec<&str> {
    ds.iter().map(|d| d.field.as_str()).collect()
}

fn analyze_files(files: &[(&str, &str)], cfg: &Config<'_>) -> Report {
    let data: Vec<FileData> = files
        .iter()
        .map(|(rel, src)| FileData::new(rel, src))
        .collect();
    analyze_sources(&data, cfg)
}

/// A replica whose `on_message` root pushes onto its log (line 5).
const GROWS: &str = "pub struct Replica {\n    log: Log,\n}\npub struct Log {\n    \
                     entries: Vec<u64>,\n}\nimpl Replica {\n    \
                     pub fn on_message(&mut self, slot: u64) {\n        \
                     self.log.entries.push(slot);\n    }\n}\n";

/// Its twin with the compaction it lacks.
const COMPACTS: &str = "pub struct Replica {\n    log: Log,\n}\npub struct Log {\n    \
                        entries: Vec<u64>,\n}\nimpl Replica {\n    \
                        pub fn on_message(&mut self, slot: u64) {\n        \
                        self.log.entries.push(slot);\n        \
                        self.log.entries.truncate(64);\n    }\n}\n";

const REPLICA_RS: &str = "crates/paxos/src/replica.rs";

/// One input of the analysis and what it reports.
struct Case {
    what: &'static str,
    files: &'static [(&'static str, &'static str)],
    roots: &'static [&'static str],
    waivers: &'static [Waiver<'static>],
    /// `Type.field` of each unwaived finding, in order.
    errors: &'static [&'static str],
    waived: &'static [&'static str],
    stale: usize,
    /// Text the failure message must contain.
    shows: &'static [&'static str],
}

const BASE: Case = Case {
    what: "",
    files: &[],
    roots: &["Replica::on_message"],
    waivers: &[],
    errors: &[],
    waived: &[],
    stale: 0,
    shows: &[],
};

/// Analyses one case's files under its roots and waivers and checks
/// what the report holds.
fn check(case: &Case) {
    let cfg = Config {
        roots: case.roots,
        waivers: case.waivers,
    };
    let report = analyze_files(case.files, &cfg);
    let what = case.what;
    assert_eq!(fields(&report.errors), case.errors, "{what}:\n{report}");
    assert_eq!(fields(&report.waived), case.waived, "{what}");
    assert_eq!(report.stale.len(), case.stale, "{what}:\n{report}");
    let text = report.to_string();
    for needle in case.shows {
        assert!(text.contains(needle), "{what}: no {needle:?} in:\n{text}");
    }
}

#[test]
fn bad_workspace_flags_its_seeded_growth() {
    check(&Case {
        what: "the seeded grow-only log, with its chain",
        files: &[(REPLICA_RS, GROWS)],
        errors: &["Log.entries"],
        shows: &[
            "crates/paxos/src/replica.rs:5: `Log.entries` (Vec) is root-held state that only \
                 grows",
            "held via root Replica::on_message (crates/paxos/src/replica.rs:8) → Replica.log: \
                 Log (crates/paxos/src/replica.rs:2)",
        ],
        ..BASE
    });
}

#[test]
fn good_workspace_is_clean() {
    check(&Case {
        what: "its compacting twin",
        files: &[(REPLICA_RS, COMPACTS)],
        ..BASE
    });
}

#[test]
fn deleting_a_root_is_caught_as_stale() {
    check(&Case {
        what: "a root pattern that matches nothing",
        files: &[(REPLICA_RS, COMPACTS)],
        roots: &["Replica::on_message", "Replica::vanished_handler"],
        stale: 1,
        shows: &["stale root: \"Replica::vanished_handler\" matches no workspace function"],
        ..BASE
    });
}

#[test]
fn stale_toml_waiver_is_an_error() {
    check(&Case {
        what: "a waiver for a field that does not grow",
        files: &[(REPLICA_RS, COMPACTS)],
        waivers: &[Waiver {
            fields: &["Log.entries"],
            reason: "nothing in the clean tree grows",
        }],
        stale: 1,
        shows: &["stale waiver: `Log.entries`"],
        ..BASE
    });
}

#[test]
fn toml_waiver_suppresses_matching_diagnostics() {
    check(&Case {
        what: "a waived field beside an unwaived one in the same file",
        files: &[(
            REPLICA_RS,
            "pub struct Replica {\n    log: Log,\n}\npub struct Log {\n    \
                 entries: Vec<u64>,\n    acked: Vec<u64>,\n}\nimpl Replica {\n    \
                 pub fn on_message(&mut self, slot: u64) {\n        \
                 self.log.entries.push(slot);\n        self.log.acked.push(slot);\n    }\n}\n",
        )],
        waivers: &[Waiver {
            fields: &["Log.acked"],
            reason: "acknowledgements are bounded elsewhere",
        }],
        errors: &["Log.entries"],
        waived: &["Log.acked"],
        shows: &["crates/paxos/src/replica.rs:5: `Log.entries`"],
        ..BASE
    });
}

const CROSS_FILE_CASES: &[Case] = &[
    Case {
        what: "a private field another crate's same-named field shrinks",
        files: &[
            (
                REPLICA_RS,
                "pub struct Replica {\n    entries: Vec<u64>,\n}\nimpl Replica {\n    \
                 pub fn on_message(&mut self, slot: u64) {\n        \
                 self.entries.push(slot);\n    }\n}\n",
            ),
            (
                "crates/simnet/src/disk.rs",
                "pub struct Disk {\n    entries: Vec<u8>,\n}\nimpl Disk {\n    \
                 pub fn flush(&mut self) {\n        self.entries.drain(..);\n    }\n}\n",
            ),
        ],
        errors: &["Replica.entries"],
        shows: &["crates/paxos/src/replica.rs:2: `Replica.entries`"],
        ..BASE
    },
    Case {
        what: "a pub field shrunk in another crate",
        files: &[
            (
                REPLICA_RS,
                "pub struct Replica {\n    pub entries: Vec<u64>,\n}\nimpl Replica {\n    \
                 pub fn on_message(&mut self, slot: u64) {\n        \
                 self.entries.push(slot);\n    }\n}\n",
            ),
            (
                "crates/core/src/checkpoint.rs",
                "pub fn compact(r: &mut Replica) {\n    r.entries.clear();\n}\n",
            ),
        ],
        ..BASE
    },
    Case {
        what: "a crate root's private field shrunk in a child module's file",
        files: &[
            (
                "crates/paxos/src/lib.rs",
                "pub struct Replica {\n    entries: Vec<u64>,\n}\nimpl Replica {\n    \
                 pub fn on_message(&mut self, slot: u64) {\n        \
                 self.entries.push(slot);\n    }\n}\n",
            ),
            (
                "crates/paxos/src/compact.rs",
                "pub fn compact(r: &mut Replica) {\n    r.entries.clear();\n}\n",
            ),
        ],
        ..BASE
    },
];

#[test]
fn state_growth_resolves_fields_across_files() {
    for case in CROSS_FILE_CASES {
        check(case);
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
    let cfg = Config {
        roots: &["Replica::on_message"],
        ..Config::default()
    };
    let report = analyze_files(
        &[
            ("crates/core/src/helpers.rs", helpers),
            (REPLICA_RS, replica),
        ],
        &cfg,
    );
    assert_eq!(report.errors.len(), 1, "{report}");
    let d = &report.errors[0];
    assert_eq!((d.path.as_str(), d.line), (REPLICA_RS, 5));
    assert!(d.message.contains("`Log.entries` (Vec)"));
    // The chain is the held-type provenance: the root, then the field.
    assert!(d.chain[0].starts_with("root Replica::on_message ("));
    assert!(d.chain[1].starts_with("Replica.log: Log ("));
}

#[test]
fn repository_is_clean_under_its_committed_waivers() {
    let report = analyze(
        &repo_root(),
        &Config {
            roots: ROOTS,
            waivers: WAIVERS,
        },
    );
    assert!(
        report.files_scanned > 50,
        "sanity: expected the real workspace, scanned {}",
        report.files_scanned
    );
    assert!(
        report.errors.is_empty() && report.stale.is_empty(),
        "{report}"
    );
    // The waiver list can only shrink: the ceiling is the current
    // count; lower it when a waived field goes, never raise it.
    assert!(
        report.waived.len() <= 13,
        "{} waived findings, above the ceiling of 13: {:?}",
        report.waived.len(),
        fields(&report.waived)
    );
}
