//! Perf P4: end-to-end QA latency per stage — triple extraction (§2.1),
//! mapping (§2.2), query construction + answer extraction (§2.3) — and the
//! full pipeline against both baselines.

use relpat_bench::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use relpat_kb::{generate, KbConfig, KnowledgeBase};
use relpat_patterns::{mine, CorpusConfig};
use relpat_qa::{
    build_queries, extract, similar_property_pairs, KeywordBaseline, Mapper, MappingConfig,
    Pipeline, TemplateBaseline,
};
use relpat_wordnet::embedded;
use std::sync::OnceLock;

const QUESTIONS: &[&str] = &[
    "Which book is written by Orhan Pamuk?",
    "What is the height of Michael Jordan?",
    "Where did Abraham Lincoln die?",
    "Who directed Titanic?",
    "When was Albert Einstein born?",
    "What is the capital of Turkey?",
];

fn kb() -> &'static KnowledgeBase {
    static KB: OnceLock<KnowledgeBase> = OnceLock::new();
    KB.get_or_init(|| generate(&KbConfig::default()))
}

fn bench_stages(c: &mut Criterion) {
    let kb = kb();
    let mined = mine(kb, &CorpusConfig::default());
    let pairs = similar_property_pairs(kb, embedded());
    let mapper = Mapper {
        kb,
        wordnet: embedded(),
        patterns: &mined.store,
        similar_pairs: &pairs,
        config: MappingConfig::default(),
    };

    let mut group = c.benchmark_group("pipeline_stages");
    group.throughput(Throughput::Elements(QUESTIONS.len() as u64));

    group.bench_function("extract", |b| {
        b.iter(|| {
            for q in QUESTIONS {
                black_box(extract(&relpat_nlp::parse_sentence(q)));
            }
        })
    });

    let analyses: Vec<_> = QUESTIONS
        .iter()
        .map(|q| extract(&relpat_nlp::parse_sentence(q)).expect("covered question"))
        .collect();
    group.bench_function("map", |b| {
        b.iter(|| {
            for a in &analyses {
                black_box(mapper.map(a));
            }
        })
    });

    let mapped: Vec<_> = analyses.iter().map(|a| mapper.map(a).expect("mapped")).collect();
    group.bench_function("build_queries", |b| {
        b.iter(|| {
            for (a, m) in analyses.iter().zip(mapped.iter()) {
                black_box(build_queries(kb, a, m, 50));
            }
        })
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let kb = kb();
    let pipeline = Pipeline::new(kb);
    let keyword = KeywordBaseline::new(kb);
    let template = TemplateBaseline::new(kb);

    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(30);
    group.throughput(Throughput::Elements(QUESTIONS.len() as u64));

    group.bench_function("relpat", |b| {
        b.iter(|| {
            for q in QUESTIONS {
                black_box(pipeline.answer(q).is_answered());
            }
        })
    });
    group.bench_function("baseline_keyword", |b| {
        b.iter(|| {
            for q in QUESTIONS {
                black_box(keyword.answer(q).is_some());
            }
        })
    });
    group.bench_function("baseline_template", |b| {
        b.iter(|| {
            for q in QUESTIONS {
                black_box(template.answer(q).is_some());
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_stages, bench_end_to_end);
criterion_main!(benches);
