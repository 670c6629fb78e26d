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
cargo test -q --workspace

echo "=== cargo clippy --all-targets -- -D warnings ==="
cargo clippy --all-targets --workspace -- -D warnings

echo "=== parallel-eval determinism gate ==="
cargo test -q -p relpat-eval parallel_report_matches_sequential

echo "=== lexical index equivalence gate ==="
cargo test -q -p relpat-qa --test lexical_equivalence

echo "=== frozen-index equivalence gate ==="
cargo test -q -p relpat-rdf --test index_equivalence

echo "=== planning equivalence gate (beam == exact top-k, Table-2 budget) ==="
cargo test -q -p relpat-eval --test planning_equivalence

echo "=== streaming LIMIT pushdown gate ==="
cargo test -q -p relpat-sparql --test streaming

echo "=== explain-plan golden + allocation overhead gate ==="
cargo test -q -p relpat-sparql --test explain

echo "=== join equivalence gate (merge/gallop vs nested oracle) ==="
cargo test -q -p relpat-sparql --test join_equivalence

echo "=== result-path allocation gate (FILTER/ORDER BY/materialize/clone flat in rows) ==="
cargo test -q -p relpat-sparql --test result_alloc

echo "=== prometheus exposition audit gate (incl. slo_* / prof_* families) ==="
cargo test -q -p relpat-obs every_exposition_family_has_help_and_type
cargo test -q -p relpat-obs slo_and_prof_families_render_with_metadata

echo "=== profiler equivalence gate (Table-2 bit-identical, sampler on vs off) ==="
cargo test -q -p relpat-eval --test profiler_equivalence

echo "=== profiler span-scope audit gate (push/pop order == trace stages) ==="
cargo test -q -p relpat-qa --test span_scopes

echo "=== profiler hot-path allocation gate ==="
cargo test -q -p relpat-obs --test prof_alloc

echo "=== SLO burn-rate unit sweep ==="
cargo test -q -p relpat-obs slo::

echo "=== flight-recorder concurrency hammer gate ==="
cargo test -q -p relpat-obs --test concurrency

echo "=== serve loopback smoke gate ==="
cargo test -q -p relpat-serve --test loopback

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
