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

echo "=== pattern mining smoke (x1 + x12, pinned mined-pattern fingerprints) ==="
cargo bench -p relpat-bench --bench pattern_mining -- --smoke

echo "=== bench-diff regression sentinel self-test ==="
cargo run --release -q -p relpat-bench --bin bench-diff -- --smoke BENCH_store_scaling.json

echo "=== benchmark build (perfbench/ is its own workspace) ==="
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "=== qald_http smoke (serve stand-up/drain x16, Table 2 over HTTP) ==="
# Exits non-zero on a wrong answer, a failed request or a load generator
# that fell behind.
cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload qald_http --seed 1 --seconds 1 --trace 0

echo "=== sparql_scan_1m smoke (every join shape at 1M triples vs an independent evaluator) ==="
# Checks sampled results of every scan and merge shape over the x119 KB
# against the benchmark's own `triples_matching` evaluation; exits non-zero
# on a wrong answer or a failed query.
cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload sparql_scan_1m --seed 1 --seconds 1 --trace 0

echo "=== qa_unique_100k traced smoke (staged §2 replay vs Pipeline::answer) ==="
# Replays every question stage by stage and re-runs each executed candidate
# from its SPARQL text; exits non-zero if a staged answer differs from
# `Pipeline::answer`, if a candidate's text fails to parse or execute, or if
# fewer than 95% of the answers are correct.
cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload qa_unique_100k --seed 1 --seconds 1 --trace 1

echo "CI OK"
