//! Completeness gate for the lexical candidate index (CI-enforced): the
//! mapper reads entity and property candidates only through the KB's
//! [`relpat_kb::LexicalIndex`], which may skip an entry only when its
//! similarity provably cannot reach the threshold. For every swept query,
//! each label row and property whose brute-force score reaches the
//! threshold must be among the index's candidates; everything after
//! candidate selection is the mapper's one code path.
//!
//! The sweep covers every ontology property name, label, label word and
//! camel constituent, every entity label in the tiny KB (exact and with one
//! character dropped), every word of the QALD questions, threshold-boundary
//! scores (exactly at `string_sim_threshold` / `entity_sim_threshold`),
//! empty/unicode queries, a seeded random-string sweep across the
//! threshold regimes (including 0.5, below the bigram-recall guarantee,
//! which exercises the index's full-scan fallback) and the mentions and
//! predicate words of extracted questions.
//!
//! The index's work is pinned too: the per-question probed, pruned and
//! scored counts of `Mapper::map` over the QALD evaluated subset and the
//! seeded template traffic at ×1, so a rewrite of the lookup cannot change
//! what the index examines or prunes.

mod common;

use relpat_kb::{
    evaluated_subset, generate, normalize_label, qald_questions, split_camel_case, KbConfig,
    KnowledgeBase, PropertyId,
};
use relpat_obs::fx::FxHashMap;
use relpat_obs::Rng;
use relpat_patterns::{mine, CorpusConfig, PatternStore};
use relpat_qa::{
    extract, lcs_score_pre, property_name_score_pre, similar_property_pairs, LcsScratch, Mapper,
    MappingConfig, PredKind, PredicateSlot, SlotTerm,
};
use relpat_wordnet::{derived_noun, embedded};
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

/// Asserts that the index keeps every entry the brute-force scan scores at
/// or above `config`'s thresholds: label rows against `word` as a mention,
/// and both property families against `word` as a predicate — at the
/// string-similarity threshold, and at the 0.9 near-exact match the mapper
/// also runs for the word's attribute and derived nouns.
fn assert_complete_for_word(config: &MappingConfig, word: &str, context: &str) {
    let kb = &fixture().kb;
    let lexical = kb.lexical();
    let mut scratch = LcsScratch::default();

    let norm = normalize_label(word);
    let threshold = config.entity_sim_threshold;
    let mut rows = lexical.entity_rows(&norm, threshold);
    rows.sort_unstable();
    for (row, (label, _)) in kb.labels_iter().enumerate() {
        if lcs_score_pre(&norm, label, &mut scratch) >= threshold {
            assert!(
                rows.binary_search(&(row as u32)).is_ok(),
                "label {label:?} missing for mention {word:?} ({context})"
            );
        }
    }

    let mut queries = vec![(word.to_lowercase(), config.string_sim_threshold)];
    let nouns = [embedded().attribute_noun(word), derived_noun(word)];
    queries.extend(nouns.into_iter().flatten().map(|n| (n.to_lowercase(), 0.9)));
    let ontology = &kb.ontology;
    for (query, threshold) in &queries {
        let mut hits: Vec<PropertyId> =
            lexical.object_property_candidates(&[query], *threshold).collect();
        hits.extend(lexical.data_property_candidates(&[query], *threshold));
        let object = ontology.object_properties.iter().map(|p| (p.name, p.label));
        let data = ontology.data_properties.iter().map(|p| (p.name, p.label));
        for (name, label) in object.chain(data) {
            if property_name_score_pre(query, name, label, &mut scratch) >= *threshold {
                assert!(
                    ontology.property_id(name).is_some_and(|id| hits.contains(&id)),
                    "property {name} missing for {query:?} at {threshold} ({context})"
                );
            }
        }
    }
}

#[test]
fn index_keeps_every_vocabulary_match() {
    let config = MappingConfig::default();
    for word in vocabulary(&fixture().kb) {
        assert_complete_for_word(&config, &word, "default config");
    }
}

#[test]
fn index_keeps_every_entity_label_match() {
    let config = MappingConfig::default();
    let labels: Vec<String> =
        fixture().kb.labels_iter().map(|(l, _)| l.to_string()).collect();
    let mut rng = Rng::seed_from_u64(0x10CA1);
    for label in labels {
        // The exact label; mutated copies (drop the middle character, drop
        // a seeded random one) score below 1 against it.
        assert_complete_for_word(&config, &label, "exact label");
        let chars: Vec<char> = label.chars().collect();
        if chars.len() > 2 {
            for drop in [chars.len() / 2, rng.gen_range(0usize..chars.len())] {
                let fuzzed: String = chars[..drop].iter().chain(&chars[drop + 1..]).collect();
                assert_complete_for_word(&config, &fuzzed, &format!("fuzzed from {label:?}"));
            }
        }
    }
}

#[test]
fn index_keeps_threshold_boundary_matches() {
    // lcs_score("write", "writer") = 5/6 and ("written","writer") = 5/7:
    // pin the thresholds exactly there so `s >= threshold` sits on the
    // boundary, the regime where a sloppy pruning bound would drop entries.
    for threshold in [5.0 / 6.0, 5.0 / 7.0, 0.95, 0.9, 1.0] {
        let config = MappingConfig {
            string_sim_threshold: threshold,
            entity_sim_threshold: threshold,
            ..MappingConfig::default()
        };
        for word in ["write", "written", "writer", "height", "population", "orhan pamuk"] {
            assert_complete_for_word(&config, word, &format!("threshold {threshold}"));
        }
    }
}

#[test]
fn index_keeps_matches_of_empty_and_unicode_queries() {
    let config = MappingConfig::default();
    for word in ["", " ", "é", "naïveté", "höhe", "北京", "a", "-", "🦀"] {
        assert_complete_for_word(&config, word, "edge-case query");
    }
}

#[test]
fn index_keeps_random_matches_across_threshold_regimes() {
    // Random ASCII-ish strings at thresholds covering all three index
    // regimes: 0.5 (below 2/3 → full-scan fallback), 0.7 (default, bigram
    // guarantee active), 0.9/0.95 (short bound, heavy pruning).
    let alphabet: Vec<char> = "abcdefghilmnoprstuwé ".chars().collect();
    for threshold in [0.5, 0.7, 0.9, 0.95] {
        let config = MappingConfig {
            string_sim_threshold: threshold,
            entity_sim_threshold: threshold,
            ..MappingConfig::default()
        };
        let mut rng = Rng::seed_from_u64(0x1E81CA1 ^ threshold.to_bits());
        for case in 0..150 {
            let len = rng.gen_range(0usize..16);
            let word: String =
                (0..len).map(|_| alphabet[rng.gen_range(0usize..alphabet.len())]).collect();
            assert_complete_for_word(&config, &word, &format!("random case {case} @ {threshold}"));
        }
    }
}

#[test]
fn index_keeps_every_match_of_extracted_questions() {
    let config = MappingConfig::default();
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
        for triple in &analysis.triples {
            for slot in [&triple.subject, &triple.object] {
                if let SlotTerm::Mention { text } = slot {
                    assert_complete_for_word(&config, text, question);
                }
            }
            if let PredicateSlot::Word { text, lemma, .. } = &triple.predicate {
                assert_complete_for_word(&config, text, question);
                assert_complete_for_word(&config, lemma, question);
            }
        }
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

/// Pinned FNV-1a fingerprint of the per-question index work (see
/// [`index_work_on_question_traffic_is_pinned`]).
const INDEX_WORK_FINGERPRINT: u64 = 0xc08c_41da_b0d3_835d;

#[test]
fn index_work_on_question_traffic_is_pinned() {
    // A knowledge base of its own: lookup totals are kept per knowledge
    // base, and the shared fixture's lookups from other tests would leak
    // into the deltas.
    let kb = generate(&KbConfig::scaled(1));
    let patterns = mine(&kb, &CorpusConfig::default()).store;
    let pairs = similar_property_pairs(&kb, embedded());
    let m = Mapper {
        kb: &kb,
        wordnet: embedded(),
        patterns: &patterns,
        similar_pairs: &pairs,
        config: MappingConfig::default(),
    };
    let qald = qald_questions(&kb);
    let mut questions: Vec<String> =
        evaluated_subset(&qald).into_iter().map(|q| q.text.clone()).collect();
    questions.extend(common::template_questions(&kb, 23));
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut probed = 0;
    for q in &questions {
        let line = match extract(&relpat_nlp::parse_sentence(q)) {
            Some(analysis) => {
                let before = kb.lexical().lookup_stats();
                m.map(&analysis);
                let d = kb.lexical().lookup_stats().delta_since(&before);
                probed += d.probed;
                format!("{q} {} {} {}", d.probed, d.pruned, d.scored)
            }
            None => format!("{q} not attempted"),
        };
        for &b in line.as_bytes().iter().chain(&[0xff]) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    assert!(questions.len() > 200 && probed > 0, "{} questions, {probed} probed", questions.len());
    assert_eq!(hash, INDEX_WORK_FINGERPRINT, "index work changed: {hash:#x}");
}
