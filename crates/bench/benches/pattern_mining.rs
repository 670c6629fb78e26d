//! Perf P3: relational-pattern mining throughput — corpus synthesis,
//! mention detection + distant supervision, store/taxonomy construction —
//! as a function of corpus size, on the tiny KB and at ×1 / ×12 scale.
//!
//! `--smoke` (the ci.sh gate) mines the ×1 and ×12 KBs once per corpus
//! configuration, prints the per-phase split (`mine`'s `patterns.*` spans,
//! plus a separate mention-detection pass), and asserts every pinned
//! [`MINED_FINGERPRINTS`] value:
//! `cargo bench -p relpat-bench --bench pattern_mining -- --smoke`

use std::time::Instant;

use relpat_bench::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use relpat_kb::{generate, KbConfig, KnowledgeBase};
use relpat_nlp::tokenize;
use relpat_patterns::{
    extract_occurrences, generate_corpus, mine, CorpusConfig, MentionDetector, PatternStore,
    Sentence, MINED_FINGERPRINTS,
};

fn smoke() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// Mention detection alone over a corpus: seconds, and the candidate entity
/// pairs it hands to supervision (consecutive mentions 1–6 tokens apart,
/// every reading of each).
fn detect_pass(kb: &KnowledgeBase, corpus: &[Sentence]) -> (f64, usize) {
    let start = Instant::now();
    let detector = MentionDetector::new(kb);
    let mut pairs = 0;
    for sentence in corpus {
        let tokens = tokenize(&sentence.text);
        let mentions = detector.detect(&tokens);
        for w in mentions.windows(2) {
            if (1..=6).contains(&(w[1].start - w[0].end)) {
                pairs += w[0].entities.len() * w[1].entities.len();
            }
        }
    }
    (start.elapsed().as_secs_f64(), pairs)
}

/// `mine`'s phase spans, as recorded in the global registry.
const PHASES: [&str; 3] = ["patterns.corpus", "patterns.extract", "patterns.index"];

/// Total nanoseconds recorded so far under span `name`.
fn span_ns(name: &str) -> u64 {
    relpat_obs::global().histogram(name).summary().sum
}

/// One timed mine per (scale, corpus) pair, split by `mine`'s own phase
/// spans, then checked against its pin.
fn smoke_run() {
    println!("=== pattern mining smoke (x1, x12; fingerprints pinned) ===");
    println!(
        "{:>4} {:>5} {:>9} {:>11} {:>9} {:>8} {:>8} {:>9} {:>8} {:>8}",
        "kb", "data", "sentences", "occurrences", "pairs", "mine_s", "corpus_s", "extract_s",
        "index_s", "detect_s"
    );
    for scale in [1, 12] {
        let kb = generate(&KbConfig::scaled(scale));
        for (_, data, pinned) in MINED_FINGERPRINTS.into_iter().filter(|r| r.0 == scale) {
            let config =
                if data { CorpusConfig::with_data_properties() } else { CorpusConfig::default() };
            let before = PHASES.map(span_ns);
            let start = Instant::now();
            let mined = mine(&kb, &config);
            let mine_s = start.elapsed().as_secs_f64();
            let [corpus_s, extract_s, index_s] =
                std::array::from_fn(|i| (span_ns(PHASES[i]) - before[i]) as f64 / 1e9);
            let (detect_s, pairs) = detect_pass(&kb, &generate_corpus(&kb, &config));

            println!(
                "{:>4} {:>5} {:>9} {:>11} {:>9} {:>8.3} {:>8.3} {:>9.3} {:>8.3} {:>8.3}",
                format!("x{scale}"),
                data,
                mined.sentences,
                mined.occurrences,
                pairs,
                mine_s,
                corpus_s,
                extract_s,
                index_s,
                detect_s
            );
            assert_eq!(
                mined.fingerprint(),
                pinned,
                "x{scale} (data: {data}) mined patterns drifted from the pinned fingerprint"
            );
        }
    }
}

fn bench_mining(c: &mut Criterion) {
    if smoke() {
        smoke_run();
        return;
    }
    let kb = generate(&KbConfig::tiny());
    let mut group = c.benchmark_group("pattern_mining");
    group.sample_size(10);

    for realizations in [1usize, 2, 3] {
        let config = CorpusConfig { max_realizations: realizations, ..CorpusConfig::default() };
        let corpus = generate_corpus(&kb, &config);
        let sentences = corpus.len() as u64;

        group.throughput(Throughput::Elements(sentences));
        group.bench_with_input(
            BenchmarkId::new("corpus_gen", format!("r{realizations}({sentences}s)")),
            &config,
            |b, cfg| b.iter(|| black_box(generate_corpus(&kb, cfg)).len()),
        );
        group.bench_with_input(
            BenchmarkId::new("extraction", format!("r{realizations}({sentences}s)")),
            &corpus,
            |b, corpus| b.iter(|| black_box(extract_occurrences(&kb, corpus)).len()),
        );
        let occurrences = extract_occurrences(&kb, &corpus);
        group.bench_with_input(
            BenchmarkId::new("store_build", format!("r{realizations}({sentences}s)")),
            &occurrences,
            |b, occ| b.iter(|| black_box(PatternStore::from_occurrences(occ)).pattern_count()),
        );
        group.bench_with_input(
            BenchmarkId::new("full_mine", format!("r{realizations}")),
            &config,
            |b, cfg| b.iter(|| black_box(mine(&kb, cfg)).occurrences),
        );
    }

    // Scale, not just realizations: at ×12 labels are ambiguous, so each
    // sentence yields more candidate pairs.
    let config = CorpusConfig::default();
    for scale in [1usize, 12] {
        let kb = generate(&KbConfig::scaled(scale));
        let sentences = generate_corpus(&kb, &config).len() as u64;
        group.throughput(Throughput::Elements(sentences));
        group.bench_with_input(
            BenchmarkId::new("full_mine", format!("x{scale}({sentences}s)")),
            &kb,
            |b, kb| b.iter(|| black_box(mine(kb, &config)).occurrences),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_mining);
criterion_main!(benches);
