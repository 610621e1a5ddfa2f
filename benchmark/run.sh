#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root.
#
#   benchmark/run.sh [--seed N]                 every workload, every metric
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                               one run; the last line of
#                                               stdout is the result object
#
# The build never touches the network. It is not --locked: every
# dependency is a path into this repository, so benchmark/Cargo.lock pins
# nothing, and a lock gone stale because a crate's dependencies changed
# must not stop a later change from being measured. Unless the caller
# sets CARGO_TARGET_DIR, the root target/ is reused, so a tree that has
# built the workspace does not start cold.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/repo-benchmark" "$@"
