#!/usr/bin/env bash
# Full CI gate for the MISCELA-V workspace. Every step must pass.
#
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo build --release"
cargo build --release

step "cargo test (workspace: unit + integration + property + doc tests)"
cargo test --workspace -q

step "perfbench: build and test the benchmark package against the workspace"
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline --manifest-path perfbench/Cargo.toml

step "perfbench: short oracle runs (exit 0 only when every correctness check passes)"
for workload in tune explore; do
    cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0 >/dev/null
done

step "cargo doc --no-deps (deny rustdoc warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

step "bench smoke (tiny-scale, executes the bench binaries)"
MISCELA_BENCH_SMOKE=1 cargo bench -p miscela-bench --bench miner_vs_baseline
MISCELA_BENCH_SMOKE=1 cargo bench -p miscela-bench --bench search_scaling
MISCELA_BENCH_SMOKE=1 cargo bench -p miscela-bench --bench extraction_scaling
MISCELA_BENCH_SMOKE=1 cargo bench -p miscela-bench --bench streaming_append

step "sweep-bench smoke (bounded grid; asserts batch/loop byte-identity before timing)"
MISCELA_BENCH_SMOKE=1 MISCELA_SWEEP_SMOKE=1 cargo bench -p miscela-bench --bench sweep

step "bench_snapshot smoke (schema-8 JSON emitted)"
snapshot_out="$(mktemp)"
MISCELA_BENCH_SMOKE=1 cargo run --release -q -p miscela-bench --bin bench_snapshot -- --out "$snapshot_out" >/dev/null
grep -q '"schema": 8' "$snapshot_out" || { echo "bench_snapshot did not emit schema-8 JSON" >&2; rm -f "$snapshot_out"; exit 1; }
for key in extraction_ns append_remine_ns append_retained_ns recovery_replay_ns completed_p99_ns \
    shed_rate duplicate_suppressions goodput sweep_batch_ns sweep_loop_ns \
    contended_wall_ns sharded_wall_ns watch_wakeup_p99_ns; do
    grep -q "\"$key\"" "$snapshot_out" || { echo "bench_snapshot is missing $key" >&2; rm -f "$snapshot_out"; exit 1; }
done
rm -f "$snapshot_out"

step "load-generator smoke (bounded overload storm, typed outcomes only)"
MISCELA_OVERLOAD_SMOKE=1 cargo run --release -q -p miscela-bench --bin load_generator >/dev/null
MISCELA_OVERLOAD_SMOKE=1 cargo run --release -q -p miscela-bench --bin load_generator -- --sweeps >/dev/null

step "subscriber-storm smoke (watch wakeups on single-shard vs sharded stores)"
MISCELA_OVERLOAD_SMOKE=1 cargo run --release -q -p miscela-bench --bin load_generator -- --subscribers >/dev/null

step "recovery-matrix smoke (bounded kill-point subset of the crash-recovery matrix)"
MISCELA_RECOVERY_SMOKE=1 cargo test --release -q -p miscela-v --test recovery_matrix

step "overload-matrix smoke (bounded chaos storms: shedding, cancellation, degraded mode)"
MISCELA_OVERLOAD_SMOKE=1 cargo test --release -q -p miscela-v --test overload_matrix

step "chaos-matrix smoke (every transport fault class converges to the undisturbed twin)"
MISCELA_CHAOS_SMOKE=1 cargo test --release -q -p miscela-v --test chaos_transport_matrix

printf '\nCI gate passed.\n'
