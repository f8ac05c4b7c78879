#!/usr/bin/env bash
# Hot-path benchmark runner. Offline-friendly (path dependencies only).
#
# Usage:
#   scripts/bench.sh          # criterion benches + full BENCH_hotpath.json
#   scripts/bench.sh smoke    # quick non-timing sanity pass (CI / check.sh)
#
# The full mode regenerates BENCH_hotpath.json in the repo root (the
# committed baseline-vs-optimised report); smoke mode runs tiny
# workloads once and writes under target/ so it never clobbers the
# committed numbers. Smoke mode also acts as a perf-regression gate:
# hotpath_report exits non-zero if any optimised engine is slower than
# its seed baseline beyond HOTPATH_GATE_TOLERANCE (default 1.5x), or
# if a warm program-cache hit is less than SERVER_WARM_GATE (default
# 5x) faster than a cold compile.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-full}"

case "$MODE" in
smoke | --smoke)
    cargo run --offline --release -p chase-bench --bin hotpath_report -- \
        --mode smoke --out target/BENCH_hotpath.smoke.json
    ;;
full)
    cargo bench --offline -p chase-bench --bench hotpath
    cargo run --offline --release -p chase-bench --bin hotpath_report -- \
        --out BENCH_hotpath.json
    ;;
*)
    echo "usage: scripts/bench.sh [smoke]" >&2
    exit 2
    ;;
esac
