//! simlint — workspace determinism-and-safety static analysis.
//!
//! The paper's crash/failover/recovery measurements are reproducible
//! only because every replica run is deterministic, and its recovery
//! times grow with the state a replica reloads. simlint keeps the one
//! invariant clippy cannot express, `state-growth`: a collection held
//! by a root's `self` type must have a shrink site somewhere it is
//! visible.
//!
//! The rest of the determinism and safety policy is clippy's, which
//! resolves paths and types where a token rule guesses: hash-ordered
//! containers and wall-clock, thread and environment calls
//! (`clippy.toml`), narrowing casts (`cast_possible_truncation`), float
//! arithmetic in the replicated state machines (`float_arithmetic`),
//! unchecked ordinal arithmetic (`arithmetic_side_effects`), raw
//! printing from library crates (`print_stdout`, `print_stderr`,
//! `dbg_macro`) and panics in the crates a replica runs (`unwrap_used`,
//! `expect_used`, `panic`, `unreachable`, `todo`, `unimplemented` and
//! `indexing_slicing`).
//!
//! `state-growth` runs over a workspace index of functions and structs
//! ([`items`] → [`graph`]) from root patterns ([`reach`]); its findings
//! ([`rules`]) carry the chain of fields from a root's `self` type to
//! the collection that only grows. There is no binary: the test
//! `repository_is_clean_under_its_committed_waivers` holds the
//! repository's roots and waivers as Rust data and runs
//! [`workspace::analyze`], so `cargo test -q -p simlint` is the check.
//! Stale waivers and stale roots fail it, so neither list can rot.
//!
//! The analyzer is dependency-free by design: the build environment is
//! offline (external crates are vendored shims), so instead of `syn` it
//! uses a self-contained lexer (see [`lexer`]) that understands
//! comments, strings, lifetimes, and `#[cfg(test)]` regions — enough
//! for heuristic item extraction and field-use scans.

#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod graph;
pub mod items;
pub mod lexer;
pub mod reach;
pub mod rules;
pub mod workspace;
