#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, tests. Offline-friendly — every
# dependency is a path dependency (workspace crates + vendor/ stubs),
# so `--offline` never needs a network.
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== no build artifacts tracked or staged =="
# Any tracked path with a component starting with `target` (target/,
# target-bench/, ...) is build output.
artifacts="$(git ls-files --cached | grep -E '(^|/)target[^/]*/' || true)"
if [ -n "$artifacts" ]; then
    echo "ERROR: build artifacts are tracked or staged; run 'git rm -r --cached <path>'" >&2
    head <<<"$artifacts" >&2
    exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo doc --workspace (rustdoc warnings are errors: broken or private intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== frozen benchmark builds (perfbench against the current engine and server API) =="
# perfbench is its own workspace with its own lock file; --locked keeps
# that lock file from being rewritten.
cargo build --offline --locked --release --manifest-path perfbench/Cargo.toml

echo "== frozen benchmark's own tests (workload generators and their labels) =="
# perfbench's tests check its workload generators against the deciders
# and the direct engine (e.g. decide_cold_labels_agree_with_decide), so
# a decider or workload change that breaks a label fails here, not only
# when the benchmark runs.
cargo test --offline --locked -q --manifest-path perfbench/Cargo.toml

echo "== cargo test -q (root package: tier-1) =="
cargo test --offline -q

echo "== incremental-equivalence property suite (restricted vs seed, derivation replay) =="
cargo test --offline -q --test incremental_equivalence

echo "== cargo test -q --workspace =="
cargo test --offline -q --workspace

echo "== sticky-vs-linear decider sweep (1,500 random linear sets) =="
# The ignored exhaustive sweep of tests/decider_consistency.rs: the
# sticky Büchi decider and the independent linear decider must agree
# on every random linear set.
cargo test --offline -q --release --test decider_consistency -- --ignored

echo "== fault-injection suite (chase-engine faults) =="
cargo test --offline -q -p chase-engine faults

echo "== server isolation suite (concurrent faulty sessions vs direct runs) =="
# Boots the resident chase server on throwaway unix sockets and drives
# concurrent sessions — a non-terminating one killed by its deadline,
# one cancelled mid-run, one panicking via FaultPlan — and asserts the
# healthy sessions' result fingerprints are bit-identical to direct
# engine runs, with the server surviving to serve a follow-up request.
# Chase and decide share one session path, and the suite also pins its
# ordering: `accepted` precedes every line a runner writes for its
# session (64 pipelined sessions, warm cache), and a session id is free
# again once its result arrives (20,000 back-to-back reuses).
cargo test --offline -q -p chase-server --test server_isolation

echo "== serve/client round trip (chasectl golden tests, real processes) =="
cargo test --offline -q -p chase-cli --test cli_golden serve
# One fixed script of sequential requests over one connection to a
# fresh server; every reply line (keys sorted, timings zeroed) must
# match crates/server/tests/golden/served_transcript.jsonl.
cargo test --offline -q -p chase-server --test served_golden

echo "== program cache suite (repeated rule sets hit, decide memoized, abort shutdown) =="
# Boots a real server and submits the same rule set twice: the second
# submission must be a cache hit (asserted via the streamed
# server.program_cache.* telemetry counters) with a bit-identical
# result fingerprint; decide verdicts must be served from the
# memoization cache (cached:true + server.decide_cache.hits); and
# {"op":"shutdown","mode":"abort"} must cancel in-flight sessions.
# A reordered-and-renamed variant of a cached program must not be
# served the incumbent's chase result: its fingerprint must equal a
# direct run of its own text (rule and fact order decide restricted
# chase results).
cargo test --offline -q -p chase-server --test program_cache

echo "== fingerprint canonicalization property suite (order-preserving program id) =="
cargo test --offline -q -p chase-core --test compile_fingerprint

echo "== hot-path smoke report (bit-identity + timing sanity) =="
# Like the profiler gate below, the timing side gets
# ${BENCH_GATE_ATTEMPTS:-3} attempts: timings jitter on busy hosts, and
# a real regression fails every attempt while a noisy neighbour does
# not. Bit-identity violations fail hard on the first attempt (they
# assert, exit 101).
for attempt in $(seq 1 "${BENCH_GATE_ATTEMPTS:-3}"); do
    if scripts/bench.sh smoke; then
        break
    else
        status=$?
        if [ "$status" -ne 1 ] || [ "$attempt" -eq "${BENCH_GATE_ATTEMPTS:-3}" ]; then
            echo "hot-path smoke gate: failed (status $status) on attempt $attempt" >&2
            exit 1
        fi
        echo "hot-path smoke gate: attempt $attempt over tolerance (likely machine noise), retrying" >&2
    fi
done

echo "== BENCH_hotpath.json schema gate (host-honesty fields) =="
# The committed report must record the host it was measured on
# ("host_cpus") and carry the program-cache cold/warm comparison
# ("server_warm") behind the >= 5x smoke gate.
for field in '"host_cpus"' '"server_warm"'; do
    if ! grep -q "$field" BENCH_hotpath.json; then
        echo "BENCH_hotpath.json schema gate: missing required field $field" >&2
        exit 1
    fi
done

echo "== zero-alloc proof (NullObserver hot path) =="
cargo test --offline -q -p chase-bench --test hotpath_alloc

echo "== profiler smoke gate (overhead <= ${PROFILE_GATE_OVERHEAD:-10}% + report round-trip + full-trace fold) =="
# The overhead estimate (median of interleaved paired ratios) is
# robust to short interference, but a noise burst outlasting a whole
# invocation can still poison it on a busy host — so the gate allows
# ${PROFILE_GATE_ATTEMPTS:-3} attempts. A real overhead regression
# fails every attempt; a noisy neighbour does not.
cargo build --offline -q --release -p chase-cli
for attempt in $(seq 1 "${PROFILE_GATE_ATTEMPTS:-3}"); do
    if target/release/chasectl profile examples/rules/closure.chase \
        --runs "${PROFILE_GATE_RUNS:-9}" \
        --max-overhead "${PROFILE_GATE_OVERHEAD:-10}" \
        --json target/profile_smoke.json; then
        break
    elif [ "$attempt" -eq "${PROFILE_GATE_ATTEMPTS:-3}" ]; then
        echo "profiler smoke gate: overhead above the budget on all attempts" >&2
        exit 1
    else
        echo "profiler smoke gate: attempt $attempt over budget (likely machine noise), retrying" >&2
    fi
done
target/release/chasectl stats target/profile_smoke.json
# Fold a full release-mode trace (~126k lines) through `chasectl stats`:
# the offline fold must take every value of a real run, and release
# builds are where an unchecked add would wrap instead of panicking.
target/release/chasectl chase examples/rules/closure.chase \
    --trace target/closure_trace.jsonl --profile
target/release/chasectl stats target/closure_trace.jsonl

echo "All checks passed."
