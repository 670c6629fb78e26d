#!/usr/bin/env bash
# Repository CI gate: release build, full test suite, and lint-clean clippy
# across every target (libs, bins, tests, benches). The workspace has zero
# external dependencies, so this runs fully offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "=== cargo build --release --workspace ==="
# --workspace matters: the root package is the `relpat` facade, and a bare
# `cargo build` would skip the serve/bench release binaries entirely,
# leaving stale executables in target/release/.
cargo build --release --workspace

echo "=== cargo test -q (workspace) ==="
# Runs every unit, integration and doc test in the workspace, including all
# the differential/equivalence gates (index, join, planning, lexical,
# streaming, explain, profiler, exposition, loopback ...); under `set -e` a
# failure in any of them stops the gate here.
cargo test -q --workspace

echo "=== cargo clippy --all-targets -- -D warnings ==="
cargo clippy --all-targets --workspace -- -D warnings

echo "=== batch throughput smoke ==="
cargo bench -p relpat-bench --bench qa_batch_throughput -- --smoke

echo "=== mapping throughput smoke ==="
cargo bench -p relpat-bench --bench qa_mapping_throughput -- --smoke

echo "=== planning throughput smoke ==="
cargo bench -p relpat-bench --bench qa_planning_throughput -- --smoke

echo "=== observability overhead smoke ==="
cargo bench -p relpat-bench --bench obs_overhead -- --smoke

echo "=== store scaling smoke (paper + 100k tiers) ==="
cargo bench -p relpat-bench --bench store_scaling -- --smoke

echo "=== bench-diff regression sentinel self-test ==="
cargo run --release -q -p relpat-bench --bin bench-diff -- --smoke BENCH_store_scaling.json

echo "=== benchmark build (perfbench/ is its own workspace) ==="
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "=== qald_http smoke (serve stand-up/drain x16, Table 2 over HTTP) ==="
# Exits non-zero on a wrong answer, a failed request or a load generator
# that fell behind.
cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload qald_http --seed 1 --seconds 1 --trace 0

echo "CI OK"
