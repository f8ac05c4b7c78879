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

echo "== examples (each runnable scenario once; a non-zero exit fails) =="
# `cargo test` and clippy only build examples/*.rs; this runs them.
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    echo "-- $name"
    cargo run --offline -q --example "$name" >/dev/null
done

echo "== decider consistency sweeps (1,500 random linear sets; guarded NOT verdicts vs the order search) =="
# The ignored sweeps of tests/decider_consistency.rs: the sticky Büchi
# decider and the independent linear decider must agree on every
# random linear set, and no NOT verdict of the guarded portfolio on
# about 2,500 random guarded, non-linear, non-sticky sets may be
# refuted by an exhaustive chase-order search from its witness
# database.
cargo test --offline -q --release --test decider_consistency -- --ignored

echo "== matcher enumeration order vs the reference matcher, 4,096 random bodies (release) =="
# The ignored scale run of chase_core::hom's order proptest: random
# bodies of 1-5 atoms with repeated variables and constants on random
# instances, from the empty binding and as a delta from every atom in
# every body position; the sequence of bindings must equal
# hom::reference's, tie-break permutations included.
cargo test --offline -q --release -p chase-core --lib enumeration_order_matches_reference_at_scale -- --ignored

echo "== decide sweep golden, all 200 seeds (release) =="
# Tier-1 runs the seeds that decide in under 0.2 s; this runs the slow
# ones too (about 30 s in release on a 2-CPU host).
cargo test --offline -q --release --test decide_sweep every_seed -- --ignored

echo "== guard-path slot walk vs derivation walk, all 200 sweep seeds (release) =="
# Tier-1 checks the labelled suite and the first 60 sweep seeds; this
# checks every seed the guarded seed search chases (about 12 s in
# release on a 2-CPU host).
cargo test --offline -q --release --test decider_suite guard_path_slot_walk_on_every_sweep_seed -- --ignored

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
# again once its result arrives (20,000 back-to-back reuses). With one
# runner busy and sessions queued behind it, a graceful shutdown still
# delivers every admitted session's result and an abortive one cancels
# the queued sessions too.
cargo test --offline -q -p chase-server --test server_isolation
# The served benchmark runs a release build, and the drain, abort and
# tenant-ring paths depend on timing, so run every server suite in
# release too.
cargo test --offline -q --release -p chase-server

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

echo "== experiment report (expreport regenerates the EXPERIMENTS.md figures) =="
# README and EXPERIMENTS.md point at this binary; running it keeps it
# working. The hot-path smoke stage above already built chase-bench in
# release. A non-zero exit fails the stage.
cargo run --offline --release -q -p chase-bench --bin expreport >/dev/null

echo "== BENCH_hotpath.json schema gate (host-honesty fields) =="
# The committed report must record the host it was measured on
# ("host_cpus"), carry the program-cache cold/warm comparison
# ("server_warm") behind the >= 5x smoke gate, the cold compile of the
# ingest-shaped program per source byte ("ingest_compile"), the cold
# compile of the small example programs ("compile_examples"), the
# per-seed decide times of the decide sweep ("decide_sweep"), the
# decide time and allocations of the guarded suite entries answered by
# the seed search ("guarded_seed_search"), and the instance bytes per
# stored atom of the ingest and scale rows ("bytes_per_atom").
for field in '"host_cpus"' '"server_warm"' '"ingest_compile"' '"compile_examples"' \
    '"decide_sweep"' '"guarded_seed_search"' '"bytes_per_atom"'; do
    if ! grep -q "$field" BENCH_hotpath.json; then
        echo "BENCH_hotpath.json schema gate: missing required field $field" >&2
        exit 1
    fi
done

echo "== zero-alloc proof (NullObserver hot path) =="
cargo test --offline -q -p chase-bench --test hotpath_alloc

echo "== parse allocation gate (<= 1 allocation per fact compiling a ~182 KB ingest program) =="
cargo test --offline -q -p chase-bench --test parse_alloc

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
