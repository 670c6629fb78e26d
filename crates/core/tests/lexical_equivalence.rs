//! Equivalence gate for the lexical candidate index (CI-enforced): with
//! `use_lexical_index` on and off, `entity_pool`, `resolve_entity` and
//! `property_candidates` must return *bit-identical* results — the index
//! only skips entries whose similarity provably cannot reach the threshold.
//!
//! The sweep covers every ontology property name, label, label word and
//! camel constituent, every entity label in the tiny KB (exact and with one
//! character dropped), every word of the QALD questions, threshold-boundary
//! scores (exactly at `string_sim_threshold` / `entity_sim_threshold`),
//! empty/unicode queries, and a seeded random-string sweep across the
//! threshold regimes (including 0.5, below the bigram-recall guarantee,
//! which exercises the index's full-scan fallback) — same structure that
//! gated PR 3's early-termination change.

use relpat_kb::{generate, qald_questions, split_camel_case, KbConfig, KnowledgeBase};
use relpat_obs::fx::FxHashMap;
use relpat_obs::Rng;
use relpat_patterns::{mine, CorpusConfig, PatternStore};
use relpat_qa::{similar_property_pairs, Mapper, MappingConfig, PredKind};
use relpat_wordnet::embedded;
use std::sync::OnceLock;

struct Fixture {
    kb: KnowledgeBase,
    patterns: PatternStore,
    pairs: FxHashMap<String, Vec<(String, f64)>>,
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let kb = generate(&KbConfig::tiny());
        let mined = mine(&kb, &CorpusConfig::default());
        let pairs = similar_property_pairs(&kb, embedded());
        Fixture { kb, patterns: mined.store, pairs }
    })
}

fn mapper_with(config: MappingConfig) -> Mapper<'static> {
    let f = fixture();
    Mapper { kb: &f.kb, wordnet: embedded(), patterns: &f.patterns, similar_pairs: &f.pairs, config }
}

/// Index-on and index-off mappers sharing every other knob.
fn mapper_pair(config: MappingConfig) -> (Mapper<'static>, Mapper<'static>) {
    (
        mapper_with(MappingConfig { use_lexical_index: true, ..config.clone() }),
        mapper_with(MappingConfig { use_lexical_index: false, ..config }),
    )
}

/// Every lexical form the ontology itself can produce (property names,
/// whole labels, label words and camel-split constituents), plus every word
/// of the QALD questions.
fn vocabulary(kb: &KnowledgeBase) -> Vec<String> {
    let mut words: Vec<String> = Vec::new();
    for (name, label) in kb
        .ontology
        .object_properties
        .iter()
        .map(|p| (p.name, p.label))
        .chain(kb.ontology.data_properties.iter().map(|p| (p.name, p.label)))
    {
        words.push(name.to_string());
        words.push(label.to_string());
        words.extend(split_camel_case(name));
        words.extend(label.split_whitespace().map(str::to_string));
    }
    for q in qald_questions(kb) {
        let text = q.text.split(|c: char| !c.is_alphabetic());
        words.extend(text.filter(|w| w.len() > 2).map(str::to_lowercase));
    }
    words.sort();
    words.dedup();
    words
}

fn assert_equivalent_for_word(on: &Mapper<'_>, off: &Mapper<'_>, word: &str, context: &str) {
    for kind in [PredKind::Verb, PredKind::Noun, PredKind::Adjective] {
        let a = on.property_candidates(word, word, kind);
        let b = off.property_candidates(word, word, kind);
        assert_eq!(a, b, "property candidates diverged for {word:?} ({kind:?}, {context})");
    }
    let a = on.entity_pool(word);
    let b = off.entity_pool(word);
    assert_eq!(a, b, "entity pool diverged for {word:?} ({context})");
    let a = on.resolve_entity(word, &[]);
    let b = off.resolve_entity(word, &[]);
    assert_eq!(a, b, "resolved entity diverged for {word:?} ({context})");
}

#[test]
fn all_vocabulary_words_map_identically() {
    let (on, off) = mapper_pair(MappingConfig::default());
    for word in vocabulary(&fixture().kb) {
        assert_equivalent_for_word(&on, &off, &word, "default config");
    }
}

#[test]
fn all_entity_labels_map_identically() {
    let (on, off) = mapper_pair(MappingConfig::default());
    let labels: Vec<String> =
        fixture().kb.labels_iter().map(|(l, _)| l.to_string()).collect();
    let mut rng = Rng::seed_from_u64(0x10CA1);
    for label in labels {
        // The exact label short-circuits the fuzzy path; mutated copies
        // (drop the middle character, drop a seeded random one) force it.
        assert_eq!(on.entity_pool(&label), off.entity_pool(&label), "exact {label:?}");
        let chars: Vec<char> = label.chars().collect();
        if chars.len() > 2 {
            for drop in [chars.len() / 2, rng.gen_range(0usize..chars.len())] {
                let fuzzed: String = chars[..drop].iter().chain(&chars[drop + 1..]).collect();
                assert_eq!(
                    on.entity_pool(&fuzzed),
                    off.entity_pool(&fuzzed),
                    "fuzzed {fuzzed:?} (from {label:?})"
                );
            }
        }
    }
}

#[test]
fn threshold_boundary_scores_agree() {
    // lcs_score("write", "writer") = 5/6 and ("written","writer") = 5/7:
    // pin the thresholds exactly there so `s >= threshold` sits on the
    // boundary, the regime where a sloppy pruning bound would diverge.
    for threshold in [5.0 / 6.0, 5.0 / 7.0, 0.95, 0.9, 1.0] {
        let (on, off) = mapper_pair(MappingConfig {
            string_sim_threshold: threshold,
            entity_sim_threshold: threshold,
            ..MappingConfig::default()
        });
        for word in ["write", "written", "writer", "height", "population", "orhan pamuk"] {
            assert_equivalent_for_word(&on, &off, word, &format!("threshold {threshold}"));
        }
    }
}

#[test]
fn empty_and_unicode_queries_agree() {
    let (on, off) = mapper_pair(MappingConfig::default());
    for word in ["", " ", "é", "naïveté", "höhe", "北京", "a", "-", "🦀"] {
        assert_equivalent_for_word(&on, &off, word, "edge-case query");
    }
}

#[test]
fn random_sweep_agrees_across_threshold_regimes() {
    // Random ASCII-ish strings at thresholds covering all three index
    // regimes: 0.5 (below 2/3 → full-scan fallback), 0.7 (default, bigram
    // guarantee active), 0.9/0.95 (short bound, heavy pruning).
    let alphabet: Vec<char> = "abcdefghilmnoprstuwé ".chars().collect();
    for threshold in [0.5, 0.7, 0.9, 0.95] {
        let (on, off) = mapper_pair(MappingConfig {
            string_sim_threshold: threshold,
            entity_sim_threshold: threshold,
            ..MappingConfig::default()
        });
        let mut rng = Rng::seed_from_u64(0x1E81CA1 ^ threshold.to_bits());
        for case in 0..150 {
            let len = rng.gen_range(0usize..16);
            let word: String =
                (0..len).map(|_| alphabet[rng.gen_range(0usize..alphabet.len())]).collect();
            assert_equivalent_for_word(
                &on,
                &off,
                &word,
                &format!("random case {case} @ {threshold}"),
            );
        }
    }
}

#[test]
fn full_question_mapping_is_identical() {
    let (on, off) = mapper_pair(MappingConfig::default());
    for question in [
        "Which book is written by Orhan Pamuk?",
        "Who is the wife of Barack Obama?",
        "How tall is Michael Jordan?",
        "In which city did John F. Kennedy die?",
        "Which books by Kerouac were published by Viking Press?",
    ] {
        let Some(analysis) = relpat_qa::extract(&relpat_nlp::parse_sentence(question)) else {
            continue;
        };
        assert_eq!(on.map(&analysis), off.map(&analysis), "mapping diverged for {question:?}");
    }
}

#[test]
fn index_prunes_but_scores_everything_it_keeps() {
    // Sanity on the stats contract: probed = pruned + kept-units, and the
    // fuzzy sweep above means at least something was probed and pruned.
    let f = fixture();
    let before = f.kb.lexical().lookup_stats();
    let on = mapper_with(MappingConfig::default());
    on.entity_pool("orhan pamukk");
    on.property_candidates("written", "write", PredKind::Verb);
    let delta = f.kb.lexical().lookup_stats().delta_since(&before);
    assert!(delta.probed > 0, "{delta:?}");
    assert!(delta.scored > 0, "{delta:?}");
    assert!(delta.probed >= delta.pruned, "{delta:?}");
}
