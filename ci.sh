#!/bin/sh
# Tier-1 verification — everything here must pass fully offline (the
# workspace has zero registry dependencies; see DESIGN.md §6).
set -eux

# The lock files must already match the manifests: a dependency change that
# would rewrite Cargo.lock, or the benchmark's own perfbench/Cargo.lock,
# fails here instead of changing the file during a later build.
cargo metadata --locked --offline --format-version 1 > /dev/null
cargo metadata --locked --offline --format-version 1 \
    --manifest-path perfbench/Cargo.toml > /dev/null
cargo fmt --all --check
# Every crate of the workspace — simulator, NN, workloads, harness and
# service stack, with their tests, benches and examples — stays lint-clean.
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release
# The tests run optimized under the `ci-test` profile (release without thin
# LTO and single-unit codegen; see Cargo.toml): the shipped binaries, the
# perf gate and every benchmark below stay on `release`.
cargo test -q --profile ci-test
# The trace codec and the store's kernels once more in debug, where an
# integer overflow panics instead of wrapping silently.
cargo test -q -p act-trace -p act-store
# The service benchmark calls act-core, act-trace and act-store functions
# directly: build it and run its unit tests, so an API change cannot
# break it unseen.
cargo test --release --manifest-path perfbench/Cargo.toml

# Hot-path benchmark: quick suite must run, and the artifact must exist
# and parse against the schema (DESIGN.md §7). Numbers are not gated here
# (CI hosts are too noisy); the trajectory lives in BENCH_hotpath.json.
cargo run --release -p act-bench --bin perf -- --quick \
    --baseline BENCH_baseline.json --out BENCH_hotpath.quick.json
test -s BENCH_hotpath.quick.json
cargo run --release -p act-bench --bin perf -- --validate BENCH_hotpath.quick.json
cargo run --release -p act-bench --bin perf -- --validate BENCH_hotpath.json

# Perf gate: the batched hot path must not regress. The verdict is
# restricted to the two headline benches (classify kernel throughput and
# coalesced diagnose rps) at 10% against the committed reference numbers,
# and because one run can land in a transient slow regime on a shared
# host, the gate gets three attempts — a real regression fails all three.
gate_ok=0
for gate_attempt in 1 2 3; do
    if cargo run --release -p act-bench --bin perf -- --quick \
        --only classify_predictions,batched_diagnose \
        --gate BENCH_hotpath.json --gate-pct 10 \
        --gate-bench classify_predictions_per_sec,batched_diagnose_rps \
        --out BENCH_gate.quick.json; then
        gate_ok=1
        break
    fi
done
test "$gate_ok" = 1

# Observability overhead: the obs-instrumented classify bench must run on
# its own (exercises --only and the act-obs hot path). The <3% budget is
# gated on the reference host, not here (CI hosts are too noisy).
cargo run --release -p act-bench --bin perf -- --quick --only obs_classify \
    --out BENCH_obs.quick.json
test -s BENCH_obs.quick.json

# Corpus store and text codec: the codec, CRC-32 and text parse/write
# benches must run, and a CLI round trip through a real corpus must be
# lossless (DESIGN.md §9).
cargo run --release -p act-bench --bin perf -- --quick --only store_,text_ \
    --out BENCH_store.quick.json
test -s BENCH_store.quick.json
STORE_DIR=$(mktemp -d)
target/release/act store init "$STORE_DIR/corpus"
target/release/act store put "$STORE_DIR/corpus" seq --runs 2 | grep "2 correct-run traces"
target/release/act store ls "$STORE_DIR/corpus" | grep "seq-0"
target/release/act store stat "$STORE_DIR/corpus" | grep "live entries"
target/release/act store get "$STORE_DIR/corpus" seq-0 --out "$STORE_DIR/seq-0.trace"
target/release/act store put "$STORE_DIR/corpus" seq \
    --trace "$STORE_DIR/seq-0.trace" --key seq-copy
target/release/act store get "$STORE_DIR/corpus" seq-copy --out "$STORE_DIR/back.trace"
cmp "$STORE_DIR/seq-0.trace" "$STORE_DIR/back.trace"
target/release/act store compact "$STORE_DIR/corpus" | grep "compacted"
rm -rf "$STORE_DIR"

# Exit codes: an unknown flag, an unparsable value and a zero count each
# exit 2 before any work is done (the trace directory stays empty, and no
# daemon starts); a run that fails, like `perf` reading a missing file,
# exits 1.
expect_exit() {
    want=$1
    shift
    status=0
    "$@" || status=$?
    test "$status" = "$want"
}
REJECT_DIR=$(mktemp -d)
expect_exit 2 target/release/act trace seq --out "$REJECT_DIR" --runs abc
expect_exit 2 target/release/act serve --worker 2
expect_exit 2 target/release/table4 --jobs 0
expect_exit 1 target/release/perf --validate "$REJECT_DIR/missing.json"
rmdir "$REJECT_DIR"

ACT=target/release/act

# Wait until the daemon at the given --addr/--unix answers STATUS; fail
# the script if it has not within 10 s.
wait_ready() {
    deadline=$(($(date +%s) + 10))
    until "$ACT" request status --io-timeout 1000 "$@" > /dev/null 2>&1; do
        if [ "$(date +%s)" -ge "$deadline" ]; then
            echo "daemon at $* did not answer STATUS within 10 s" >&2
            exit 1
        fi
        sleep 0.1
    done
}

# Daemon smoke test: boot act-serve on loopback, train + diagnose over the
# wire, assert the ranked suspect list is non-empty, shut down cleanly.
ADDR=127.0.0.1:7461
SERVE_CORPUS=$(mktemp -d)
"$ACT" serve --addr "$ADDR" --workers 2 --queue-depth 8 \
    --corpus "$SERVE_CORPUS/corpus" \
    --event-log act-serve-events.jsonl &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
wait_ready --addr "$ADDR"
"$ACT" request train seq --addr "$ADDR" | grep "trained seq"
# Corpus over the wire: ingest, read back losslessly.
"$ACT" trace seq --out "$SERVE_CORPUS/traces" --runs 1
"$ACT" request trace-put seq --addr "$ADDR" \
    --trace "$SERVE_CORPUS/traces/seq-0.trace" | grep "stored seq-0"
"$ACT" request trace-get --key seq-0 --addr "$ADDR" \
    --out "$SERVE_CORPUS/back.trace"
cmp "$SERVE_CORPUS/traces/seq-0.trace" "$SERVE_CORPUS/back.trace"
"$ACT" request diagnose seq --addr "$ADDR" | tee /tmp/act-smoke-diagnosis.txt
grep "^diagnosis workload=seq" /tmp/act-smoke-diagnosis.txt
grep "^#1 " /tmp/act-smoke-diagnosis.txt
"$ACT" request status --addr "$ADDR" | tee /tmp/act-smoke-status.txt
grep "cache_hits 1" /tmp/act-smoke-status.txt
# STATUS: the metrics table rides along with the counter block.
grep -- "-- metrics --" /tmp/act-smoke-status.txt
grep "cache_hit_rate" /tmp/act-smoke-status.txt
grep "req_diagnose" /tmp/act-smoke-status.txt
grep "service_us" /tmp/act-smoke-status.txt
"$ACT" request shutdown --addr "$ADDR"
wait "$SERVE_PID"
trap - EXIT
rm -rf "$SERVE_CORPUS"

# The event log is valid JSONL and recorded the daemon lifecycle.
test -s act-serve-events.jsonl
grep '"target":"serve.start"' act-serve-events.jsonl
grep '"target":"serve.shutdown"' act-serve-events.jsonl

# Unix-socket smoke: a daemon on a socket path alone answers STATUS, drains
# on SHUTDOWN, and removes its socket file on the way out.
UNIX_DIR=$(mktemp -d)
SOCK="$UNIX_DIR/act.sock"
"$ACT" serve --unix "$SOCK" --workers 1 --queue-depth 4 &
UNIX_PID=$!
trap 'kill "$UNIX_PID" 2>/dev/null || true' EXIT
wait_ready --unix "$SOCK"
"$ACT" request status --unix "$SOCK" | grep "requests_served"
"$ACT" request shutdown --unix "$SOCK"
wait "$UNIX_PID"
trap - EXIT
test ! -e "$SOCK"
rm -rf "$UNIX_DIR"

# Gateway smoke test: two backends behind act-gate, one killed mid-fleet.
# Requests keep succeeding through failover and STATUS aggregates what is
# left standing (DESIGN.md §10).
B1=127.0.0.1:7462
B2=127.0.0.1:7463
GATE=127.0.0.1:7464
"$ACT" serve --addr "$B1" --workers 2 --queue-depth 8 &
B1_PID=$!
"$ACT" serve --addr "$B2" --workers 2 --queue-depth 8 &
B2_PID=$!
trap 'kill "$B1_PID" "$B2_PID" 2>/dev/null || true' EXIT
wait_ready --addr "$B1"
wait_ready --addr "$B2"
"$ACT" gate --backends "$B1,$B2" --listen "$GATE" --workers 2 \
    --event-log act-gate-events.jsonl &
GATE_PID=$!
trap 'kill "$GATE_PID" "$B1_PID" "$B2_PID" 2>/dev/null || true' EXIT
wait_ready --addr "$GATE"
# Models shard across the fleet; clients talk only to the gateway.
"$ACT" request train seq --addr "$GATE" | grep "trained seq"
"$ACT" request train seq --seed 1 --addr "$GATE" | grep "trained seq"
"$ACT" request status --addr "$GATE" | tee /tmp/act-gate-status.txt
grep "act-gate status" /tmp/act-gate-status.txt
grep "backends_up 2" /tmp/act-gate-status.txt
grep "replies_relayed 2" /tmp/act-gate-status.txt
grep "fleet_requests_served" /tmp/act-gate-status.txt
grep -- "-- backend 1 " /tmp/act-gate-status.txt
# Kill one backend; diagnosis must still succeed via the ring neighbor.
kill "$B2_PID"
wait "$B2_PID" || true
"$ACT" request diagnose seq --addr "$GATE" | tee /tmp/act-gate-diagnosis.txt
grep "^diagnosis workload=seq" /tmp/act-gate-diagnosis.txt
grep "^#1 " /tmp/act-gate-diagnosis.txt
"$ACT" request status --addr "$GATE" | grep "backends_up 1"
"$ACT" request shutdown --addr "$GATE"
wait "$GATE_PID"
# The surviving backend outlives its gateway and drains on its own.
"$ACT" request status --addr "$B1" | grep "requests_served"
"$ACT" request shutdown --addr "$B1"
wait "$B1_PID"
trap - EXIT

# The gateway event log recorded the lifecycle and the mark-down.
test -s act-gate-events.jsonl
grep '"target":"gate.start"' act-gate-events.jsonl
grep '"target":"gate.down"' act-gate-events.jsonl
grep '"target":"gate.shutdown"' act-gate-events.jsonl

# Streaming ingest smoke: chunk a >64 MiB trace — too big for any single
# frame — through gate -> serve -> store, then read it back from the
# corpus byte-for-byte (PROTOCOL.md, "Chunked uploads").
BIG_B=127.0.0.1:7465
BIG_GATE=127.0.0.1:7466
BIG_DIR=$(mktemp -d)
"$ACT" trace seq --out "$BIG_DIR/traces" --runs 1
# Inflate a canonical trace past the 64 MiB frame cap by repeating one
# store record; parse -> columnar encode -> re-serialize reproduces the
# lines verbatim, so the round trip below stays byte-exact.
cp "$BIG_DIR/traces/seq-0.trace" "$BIG_DIR/big.trace"
LINE=$(grep -m1 '^S ' "$BIG_DIR/big.trace")
yes "$LINE" | head -n 4500000 >> "$BIG_DIR/big.trace"
test "$(wc -c < "$BIG_DIR/big.trace")" -gt 67108864
"$ACT" serve --addr "$BIG_B" --workers 2 --queue-depth 8 \
    --corpus "$BIG_DIR/corpus" &
BIG_B_PID=$!
trap 'kill "$BIG_B_PID" 2>/dev/null || true' EXIT
wait_ready --addr "$BIG_B"
"$ACT" gate --backends "$BIG_B" --listen "$BIG_GATE" --workers 2 &
BIG_GATE_PID=$!
trap 'kill "$BIG_GATE_PID" "$BIG_B_PID" 2>/dev/null || true' EXIT
wait_ready --addr "$BIG_GATE"
"$ACT" request trace-put seq --addr "$BIG_GATE" --stream \
    --trace "$BIG_DIR/big.trace" --key big | grep "stored big"
"$ACT" request shutdown --addr "$BIG_GATE"
wait "$BIG_GATE_PID"
"$ACT" request shutdown --addr "$BIG_B"
wait "$BIG_B_PID"
trap - EXIT
"$ACT" store get "$BIG_DIR/corpus" big --out "$BIG_DIR/back.trace"
cmp "$BIG_DIR/big.trace" "$BIG_DIR/back.trace"
rm -rf "$BIG_DIR"
