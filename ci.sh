#!/usr/bin/env bash
# Repository CI gate: release build, full test suite, lint-clean clippy
# across every target (libs, bins, tests, examples), warning-free docs, the
# store-scaling work-count diff and the perfbench smokes. The workspace has
# zero external dependencies, so this runs fully offline.
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

echo "=== cargo doc (workspace, -D warnings) ==="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "=== bench-diff regression sentinel self-test ==="
cargo run --release -q -p relpat-bench --bin bench-diff -- --smoke BENCH_store_scaling.json

echo "=== bench-diff: fresh x1/x12 trajectory vs committed BENCH_store_scaling.json ==="
# Fails if any rows_scanned / rows_scanned_nested differs from the
# committed file or a benchmark of a measured tier is missing; the x119
# tier is not measured here and is skipped. The p50 ratios of this short
# run are printed, not gated (`--threshold inf`): a 20-sample timing on a
# shared machine against a 200-sample committed one is not a verdict.
# Weighing each gap against the runs' quartile spread does not make it
# one: whole runs shift (DESIGN.md §16, "Perf-regression sentinel").
cargo run --release -q -p relpat-bench --bin repro-profile -- \
    --bench-json target/store_scaling_smoke.json --smoke
cargo run --release -q -p relpat-bench --bin bench-diff -- --threshold inf \
    BENCH_store_scaling.json target/store_scaling_smoke.json

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
