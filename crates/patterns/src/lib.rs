//! # relpat-patterns — PATTY-style relational pattern mining
//!
//! Reimplements the PATTY machinery the paper relies on (§2.2.3): a corpus
//! (synthesized from knowledge-base facts, since NYT/Wikipedia cannot be
//! shipped), mention detection, pattern normalization, distant supervision,
//! frequency-ranked pattern→property indexes, and the support-set prefix
//! tree from which the subsumption taxonomy is computed.
//!
//! ```no_run
//! use relpat_kb::{generate, KbConfig};
//! use relpat_patterns::{mine, CorpusConfig};
//!
//! let kb = generate(&KbConfig::tiny());
//! let mined = mine(&kb, &CorpusConfig::default());
//! let candidates = mined.store.candidates_for_word("die");
//! assert_eq!(candidates[0].property, "deathPlace");
//! ```

mod corpus;
mod extract;
mod store;
mod tree;

pub use corpus::{generate_corpus, templates_for, CorpusConfig, Sentence};
pub use extract::{
    extract_occurrences, normalize_pattern, Mention, MentionDetector, Occurrence, Occurrences,
    PairInterner,
};
pub use store::{PatternStore, PropertyFreq};
pub use tree::{PatternTree, Subsumption};

use relpat_kb::KnowledgeBase;
use relpat_rdf::Iri;

/// Pinned [`Mined::fingerprint`] values, as `(KbConfig::scaled factor,
/// CorpusConfig::include_data_properties, fingerprint)`. Extraction
/// refactors must keep the mined store and taxonomy byte-identical; the
/// unit test `mining_matches_the_pinned_fingerprints` checks every row.
pub const MINED_FINGERPRINTS: [(usize, bool, u64); 4] = [
    (1, false, 0x914d_deed_b369_cdf7),
    (1, true, 0xf34e_590f_ae35_b68c),
    (12, false, 0x2318_e32f_8ee2_42a8),
    (12, true, 0x42b9_3b1e_b34c_bdaa),
];

/// Everything the mining pipeline produces.
pub struct Mined {
    pub store: PatternStore,
    pub tree: PatternTree,
    /// The entity pairs the tree's support sets name, indexed by pair id.
    pub pairs: Vec<(Iri, Iri)>,
    /// Number of corpus sentences processed.
    pub sentences: usize,
    /// Number of supervised occurrences extracted.
    pub occurrences: usize,
}

/// Runs the full mining pipeline: synthesize corpus → detect mentions →
/// lift + normalize patterns → distant supervision → indexes + taxonomy.
/// The three phases time into the `patterns.corpus`, `patterns.extract` and
/// `patterns.index` spans.
pub fn mine(kb: &KnowledgeBase, config: &CorpusConfig) -> Mined {
    let sentences = {
        let _timer = relpat_obs::span!("patterns.corpus");
        generate_corpus(kb, config)
    };
    let occurrences = {
        let _timer = relpat_obs::span!("patterns.extract");
        extract_occurrences(kb, &sentences)
    };
    let _timer = relpat_obs::span!("patterns.index");
    let store = PatternStore::from_occurrences(&occurrences);
    let mut interner = PairInterner::default();
    let mut supports = vec![Vec::new(); occurrences.patterns().len()];
    for o in occurrences.iter() {
        supports[o.pattern as usize].push(interner.intern(o.pair));
    }
    // Patterns in first-occurrence order, so nodes are created as an
    // occurrence-at-a-time insert would create them.
    let mut tree = PatternTree::new();
    for (pattern, pairs) in occurrences.patterns().iter().zip(supports) {
        tree.insert_all(pattern, pairs);
    }
    let iri = |id| kb.graph.term(id).as_iri().expect("mentions name IRIs").clone();
    let pairs = interner.pairs().iter().map(|&(a, b)| (iri(a), iri(b))).collect();
    Mined { store, tree, pairs, sentences: sentences.len(), occurrences: occurrences.len() }
}

impl Mined {
    /// Order-sensitive FNV-1a hash of what mining produced: the phrase and
    /// word indexes (keys sorted, each candidate list in stored order) and
    /// every pattern's support set as sorted IRI pairs. It does not depend
    /// on hash-map layout or on how pairs are numbered, so it pins mining
    /// output across representation changes (see [`MINED_FINGERPRINTS`]).
    pub fn fingerprint(&self) -> u64 {
        let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
        let mut phrases: Vec<_> = self.store.patterns().collect();
        let mut words: Vec<_> = self.store.words().collect();
        for (tag, index) in [("p", &mut phrases), ("w", &mut words)] {
            index.sort_unstable_by_key(|&(key, _)| key);
            for &(key, candidates) in index.iter() {
                hash.str(tag);
                hash.str(key);
                for c in candidates {
                    hash.str(&c.property);
                    hash.bytes(&[c.inverse as u8, c.is_data as u8]);
                    hash.bytes(&c.freq.to_le_bytes());
                }
            }
        }
        let mut patterns: Vec<&str> = self.tree.patterns().collect();
        patterns.sort_unstable();
        for pattern in patterns {
            hash.str("t");
            hash.str(pattern);
            let mut support: Vec<(&str, &str)> = self
                .tree
                .support(pattern)
                .into_iter()
                .flatten()
                .map(|&id| {
                    let (a, b) = &self.pairs[id as usize];
                    (a.as_str(), b.as_str())
                })
                .collect();
            support.sort_unstable();
            for (a, b) in support {
                hash.str(a);
                hash.str(b);
            }
        }
        hash.0
    }
}

/// FNV-1a over a byte stream; strings end with a `0xff` byte, which UTF-8
/// never contains.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relpat_kb::{generate, KbConfig};

    #[test]
    fn end_to_end_mining_matches_paper_claims() {
        let kb = generate(&KbConfig::tiny());
        let mined = mine(&kb, &CorpusConfig::default());
        assert!(mined.sentences > 200);
        assert!(mined.occurrences > 200);
        assert!(mined.store.pattern_count() > 20);

        // §2.2.3: "die" ranks deathPlace above birthPlace/residence.
        let die = mined.store.candidates_for_word("die");
        assert!(!die.is_empty());
        assert_eq!(die[0].property, "deathPlace");

        // "bear" (lemma of born) ranks birthPlace first, but noise gives it
        // deathPlace company — the paper's PATTY criticism.
        let bear = mined.store.candidates_for_word("bear");
        assert_eq!(bear[0].property, "birthPlace");

        // "write" supports author (books) and writer (songs).
        let write = mined.store.candidates_for_word("write");
        let props: Vec<&str> = write.iter().map(|c| c.property.as_str()).collect();
        assert!(props.contains(&"author"));
        assert!(props.contains(&"writer"));

        // Tree indexes every pattern in the store.
        assert_eq!(mined.tree.len(), mined.store.pattern_count());
    }

    #[test]
    fn mining_matches_the_pinned_fingerprints() {
        for scale in [1, 12] {
            let kb = generate(&KbConfig::scaled(scale));
            for (_, data, pinned) in MINED_FINGERPRINTS.into_iter().filter(|r| r.0 == scale) {
                let config = match data {
                    true => CorpusConfig::with_data_properties(),
                    false => CorpusConfig::default(),
                };
                assert_eq!(
                    mine(&kb, &config).fingerprint(),
                    pinned,
                    "x{scale} (data: {data}) mined patterns drifted from the pinned fingerprint"
                );
            }
        }
    }

    #[test]
    fn capital_pattern_maps_inverse() {
        let kb = generate(&KbConfig::tiny());
        let mined = mine(&kb, &CorpusConfig::default());
        // "{O} is the capital of {S}" puts the city first: textual order is
        // inverse of the capital fact (Country → City).
        let caps = mined.store.candidates_for_phrase("capital of");
        assert!(caps.iter().any(|c| c.property == "capital" && c.inverse));
    }
}
