//! Integration tests for data-property pattern mining — the §5 research gap
//! the extended system closes — plus property-based invariants on the
//! pattern store and support-set tree.

use relpat_kb::{generate, KbConfig, KnowledgeBase};
use relpat_obs::Rng;
use relpat_patterns::{
    extract_occurrences, generate_corpus, mine, CorpusConfig, Occurrences, PatternStore,
    PatternTree, Sentence,
};
use relpat_rdf::TermId;
use std::sync::OnceLock;

fn kb() -> &'static KnowledgeBase {
    static KB: OnceLock<KnowledgeBase> = OnceLock::new();
    KB.get_or_init(|| generate(&KbConfig::tiny()))
}

#[test]
fn data_corpus_is_superset_of_object_corpus() {
    let base = generate_corpus(kb(), &CorpusConfig::default());
    let with_data = generate_corpus(kb(), &CorpusConfig::with_data_properties());
    assert!(with_data.len() > base.len());
    // Data sentences verbalize literals.
    assert!(with_data.iter().any(|s| s.text.contains("meters tall")));
    assert!(with_data.iter().any(|s| s.text.contains("was born on")));
}

#[test]
fn height_pattern_mined_from_literal_sentences() {
    let mined = mine(kb(), &CorpusConfig::with_data_properties());
    let tall = mined.store.candidates_for_word("tall");
    assert!(
        tall.iter().any(|c| c.property == "height" && c.is_data),
        "{tall:?}"
    );
    // And via the full phrase.
    let phrase = mined.store.candidates_for_phrase("$v meter tall");
    assert!(phrase.iter().any(|c| c.property == "height" && c.is_data), "{phrase:?}");
}

#[test]
fn population_pattern_covers_value_before_entity_order() {
    // "{V} people live in {S}" puts the literal first.
    let mined = mine(kb(), &CorpusConfig::with_data_properties());
    let live = mined.store.candidates_for_word("live");
    assert!(
        live.iter().any(|c| c.property == "populationTotal" && c.is_data),
        "{live:?}"
    );
}

#[test]
fn date_patterns_supervised_against_date_literals() {
    let mined = mine(kb(), &CorpusConfig::with_data_properties());
    let bear = mined.store.candidates_for_word("bear");
    assert!(
        bear.iter().any(|c| c.property == "birthDate" && c.is_data),
        "{bear:?}"
    );
    // Object evidence for birthPlace must still top the *object* candidates
    // (data sentences may out-frequency it overall, since every person has a
    // birth date but not every corpus sentence names a place).
    let top_object = bear.iter().find(|c| !c.is_data).unwrap();
    assert_eq!(top_object.property, "birthPlace");
}

#[test]
fn object_only_corpus_yields_no_data_patterns() {
    let mined = mine(kb(), &CorpusConfig::default());
    for (pattern, candidates) in mined.store.patterns() {
        for c in candidates {
            assert!(!c.is_data, "unexpected data pattern {pattern:?} → {c:?}");
        }
    }
}

#[test]
fn handcrafted_sentence_with_unknown_value_is_ignored() {
    // A literal that matches no KB fact must produce no supervision.
    let corpus =
        vec![Sentence { text: "Michael Jordan is 9.99 meters tall.".to_string() }];
    let occ = extract_occurrences(kb(), &corpus);
    assert!(occ.iter().all(|o| !o.is_data), "{occ:?}");
}

#[test]
fn handcrafted_sentence_with_matching_value_is_supervised() {
    // 1.98 is the athlete's height fact in the KB.
    let corpus =
        vec![Sentence { text: "Michael Jordan is 1.98 meters tall.".to_string() }];
    let occ = extract_occurrences(kb(), &corpus);
    assert!(
        occ.iter().any(|o| o.is_data && o.property == "height"),
        "{occ:?}"
    );
}

// --------------------------------------------- randomized invariant sweeps
// (Formerly proptest; now seeded deterministic cases via `relpat_obs::Rng`.)

fn arb_occurrence(rng: &mut Rng, occs: &mut Occurrences) {
    let patterns = ["die in", "bear in", "write by", "$v meter tall"];
    let properties = ["deathPlace", "birthPlace", "author", "height"];
    let pair = rng.gen_range(0u32..50);
    occs.push(
        patterns[rng.gen_range(0usize..patterns.len())],
        properties[rng.gen_range(0usize..properties.len())],
        rng.gen_bool(0.5),
        rng.gen_bool(0.5),
        (TermId(2 * pair), TermId(2 * pair + 1)),
    );
}

/// Store invariant: word-index frequencies are sums over the phrase
/// index, and every candidate list is sorted by descending frequency.
#[test]
fn store_frequencies_consistent() {
    for case in 0..48u64 {
        let mut rng = Rng::seed_from_u64(0x57_0e + case);
        let n = rng.gen_range(0usize..80);
        let mut occs = Occurrences::default();
        for _ in 0..n {
            arb_occurrence(&mut rng, &mut occs);
        }
        let store = PatternStore::from_occurrences(&occs);
        for (_, candidates) in store.patterns() {
            for w in candidates.windows(2) {
                assert!(w[0].freq >= w[1].freq);
            }
            let total: u64 = candidates.iter().map(|c| c.freq).sum();
            assert!(total as usize <= occs.len());
        }
        // Phrase totals equal occurrence totals.
        let phrase_total: u64 = store
            .patterns()
            .flat_map(|(_, cs)| cs.iter().map(|c| c.freq))
            .sum();
        assert_eq!(phrase_total as usize, occs.len());
    }
}

/// Tree invariant: support size never exceeds insert count, and
/// subsumption at overlap 1.0 is antisymmetric for distinct supports.
#[test]
fn tree_support_and_subsumption() {
    for case in 0..48u64 {
        let mut rng = Rng::seed_from_u64(0x7e_ee + case);
        let n = rng.gen_range(1usize..60);
        let pairs: Vec<(u32, bool)> =
            (0..n).map(|_| (rng.gen_range(0u32..20), rng.gen_bool(0.5))).collect();
        let mut tree = PatternTree::new();
        for (pair, which) in &pairs {
            tree.insert(if *which { "die in" } else { "bear in" }, *pair);
        }
        for pattern in ["die in", "bear in"] {
            if let Some(s) = tree.support(pattern) {
                assert!(s.len() <= pairs.len());
            }
        }
        if tree.support("die in").is_some() && tree.support("bear in").is_some() {
            use relpat_patterns::Subsumption::*;
            let ab = tree.subsumption("die in", "bear in", 1.0);
            let ba = tree.subsumption("bear in", "die in", 1.0);
            match (ab, ba) {
                (Equivalent, Equivalent) | (Independent, Independent) => {}
                (SubsumedBy, Subsumes) | (Subsumes, SubsumedBy) => {}
                other => panic!("inconsistent subsumption {other:?}"),
            }
        }
    }
}

