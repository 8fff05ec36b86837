#!/usr/bin/env bash
# The offline verification gate: proves the hermetic build holds.
# Builds everything, runs the full test suite, and regenerates the E1
# table — all with --offline, so any reintroduced registry dependency
# fails here before it reaches CI.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
# Neither the line above nor `cargo test` compiles the micro-benches
# (crates/bench/benches/*), so an API change would break them unseen.
cargo build --release --offline --workspace --benches
# Invariant lint: zero non-baselined findings (wall-clock reads, random
# hasher state, panics on request paths, lock-order cycles, protocol
# gaps, hot-path allocations, …). The ratchet lives in
# LINT_BASELINE.json; see DESIGN.md § Static analysis. The budget keeps
# whole-tree analysis (symbol index + call graph) from creeping into CI
# latency — it runs in well under a second today.
cargo run --release --offline -q -p copycat-lint -- check --budget-ms 20000
# A deadlocked test must fail the gate, not wedge it: the suite runs
# under a time limit. It takes about 35 s with warm test binaries and
# 82 s from a cold debug build on a 2-core box; 900 s leaves wide
# headroom, and `timeout` exits non-zero (124) when it fires.
timeout --kill-after=30 900 cargo test -q --offline --workspace
# The benchmark lives in its own workspace (perfbench/), so the line
# above never compiles it: test it explicitly, or an API change to the
# server, router, store or JSON types would break it unseen.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
cargo run --release --offline -p copycat-bench --bin harness -- e1
# Examples: `cargo test` only compiles them, yet hurricane_mashup and
# power_user are the only end-to-end drivers of tab switches, undo and
# transform-column edits. Each must run to completion (exit 0).
for example in examples/*.rs; do
    cargo run --release --offline -q --example "$(basename "$example" .rs)" > /dev/null
done
# Serve smoke: spawn an in-process copycat-serve, round-trip one request
# of every request class, and drain gracefully. Exits non-zero if any
# required class fails.
cargo run --release --offline -p copycat-serve -- smoke
# Chaos smoke: hard-down primary behind retry + circuit breaker fails
# over to a healthy replacement alias; health reports the trip with
# virtual (never wallclock) backoff. Exits non-zero on any regression.
cargo run --release --offline -p copycat-serve -- chaos
# Recover smoke: durable router journals traffic, crashes (dropped
# without shutdown), recovers from snapshot + WAL, and must answer
# byte-identically to a never-crashed control.
cargo run --release --offline -p copycat-serve -- recover
# Crash-storm smoke: the storage-fault sweep on the simulated
# filesystem — every fault kind (short writes, torn appends,
# failed/lying fsyncs, bit flips, partial reads, ENOSPC) injected at
# every I/O operation of a seeded workload, each run killed, recovered,
# and checked for the no-silent-loss property: every acked effect is
# byte-identically present or explicitly reported lost.
cargo run --release --offline -p copycat-serve -- crash-storm
# Transforms smoke: learn a string-transform program bridging two
# incompatibly formatted sources, accept the suggested transform edge,
# crash, and require the recovered session to answer byte-identically.
cargo run --release --offline -p copycat-serve -- transforms
# Herd smoke: 10k copy-on-write sessions over one shared world on one
# server; probes a sample end to end and asserts the marginal memory
# cost keeps >=100k sessions per GiB.
cargo run --release --offline -p copycat-serve -- herd
# Smoke: the four perf-trajectory emitters run and produce non-empty
# JSON (no timing assertions — numbers vary by machine). They write
# into a scratch directory, so the gate never rewrites the committed
# BENCH_*.json files; scripts/bench_json.sh refreshes those.
bench_out="$(mktemp -d)"
trap 'rm -rf "$bench_out"' EXIT
for emitter in e3-json serve-json faults-json transforms-json; do
    cargo run --release --offline -p copycat-bench --bin harness -- "$emitter" > "$bench_out/$emitter.json"
    test -s "$bench_out/$emitter.json" || { echo "verify: harness $emitter emitted nothing" >&2; exit 1; }
done
