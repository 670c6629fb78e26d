//! Perf P2: triple-store load time and SPARQL latency vs knowledge-base
//! size. Generates the synthetic DBpedia along the tier ladder in
//! [`relpat_bench::scaling`] — paper scale (~9.6k triples), 100k and 1M —
//! and measures the representative query shapes the QA pipeline emits.
//!
//! `--smoke` (the ci.sh gate) stops at the 100k tier and trims sample
//! counts so the whole bench finishes in seconds:
//! `cargo bench -p relpat-bench --bench store_scaling -- --smoke`
//!
//! Queries run uncached ([`relpat_kb::KnowledgeBase::query_uncached`]): this bench
//! tracks the store's join latency, which the result cache would hide.

use relpat_bench::scaling::{QUERIES, SMOKE_TIERS, TIERS};
use relpat_bench::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use relpat_kb::{generate, KbConfig, DEFAULT_KB_FINGERPRINT};

fn smoke() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_scaling");
    group.sample_size(if smoke() { 5 } else { 20 });

    let tiers = if smoke() { SMOKE_TIERS } else { TIERS };
    for &factor in tiers {
        let config = KbConfig::scaled(factor);
        let kb = generate(&config);
        let triples = kb.len() as u64;
        if factor == 1 {
            // The smoke gate doubles as the generator's byte-identity guard:
            // scaled(1) == default config, so its fingerprint is pinned.
            assert_eq!(
                kb.fingerprint(),
                DEFAULT_KB_FINGERPRINT,
                "default-scale KB drifted from the pinned fingerprint"
            );
        }

        group.throughput(Throughput::Elements(triples));
        // Re-generating the 100k/1M KBs per sample would dominate the run;
        // their one-off build cost is tracked by `repro-profile --bench-json`
        // (the BENCH_store_scaling.json trajectory), so the in-loop generate
        // measurement stays at paper scale.
        if factor <= 4 {
            group.bench_with_input(
                BenchmarkId::new("generate", format!("x{factor}({triples}t)")),
                &config,
                |b, cfg| b.iter(|| black_box(generate(cfg)).len()),
            );
        }

        for (name, query) in QUERIES {
            group.bench_with_input(
                BenchmarkId::new(*name, format!("x{factor}({triples}t)")),
                &kb,
                |b, kb| {
                    b.iter(|| {
                        black_box(kb.query_uncached(query).expect("query runs"));
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
