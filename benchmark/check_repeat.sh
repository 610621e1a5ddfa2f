#!/usr/bin/env bash
# Runs the whole benchmark twice on the same tree and compares the two
# result files metric by metric. Fails unless every simulated-clock
# metric and every count is equal and every host-clock metric with a
# bound is within it. If a host timing spreads wider, raise its sample
# count in the harness, not its bound.
#
#   benchmark/check_repeat.sh [--seed N]
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out=benchmark/out
for run in first second; do
  benchmark/run.sh "$@"
  cp "$out/results.json" "$out/results.$run.json"
done
"${CARGO_TARGET_DIR:-target}/release/repo-benchmark" --compare \
  "$out/results.first.json" "$out/results.second.json"
