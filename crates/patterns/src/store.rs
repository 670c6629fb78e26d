//! The relational pattern store the QA pipeline queries (paper §2.2.3).
//!
//! Aggregates supervised occurrences into two indexes:
//!
//! - **phrase index**: full normalized pattern → properties with frequency
//!   (`"bear in"` → `{birthPlace: 812, deathPlace: 13, residence: 9}`);
//! - **word index**: single content word → properties with frequency,
//!   aggregated over every pattern containing the word — this is the
//!   paper's "the word *die* may occur in many forms in pattern texts; we
//!   count all occurrences and assign it as a frequency value".

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use relpat_obs::fx::FxHashMap;
use relpat_obs::PatternLookupStats;

use crate::extract::Occurrences;

/// `(property, inverse, is_data)`: what one candidate list entry counts.
type PropKey = (&'static str, bool, bool);

/// A property candidate with its evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyFreq {
    /// Property local name (`deathPlace`).
    pub property: String,
    /// True when the pattern's textual direction is the inverse of the RDF
    /// fact direction.
    pub inverse: bool,
    /// True for data-property patterns (mined from entity–literal text).
    pub is_data: bool,
    /// Number of supporting occurrences.
    pub freq: u64,
}

/// Immutable pattern store built from extraction output.
///
/// Lookups keep running hit/miss tallies (relaxed atomics, so `&self`
/// lookups stay lock-free); [`lookup_stats`](Self::lookup_stats) exposes
/// them and the QA pipeline samples deltas around the mapping stage to
/// attribute lookups to individual question traces.
#[derive(Debug, Default)]
pub struct PatternStore {
    phrase_index: FxHashMap<String, Vec<PropertyFreq>>,
    word_index: FxHashMap<String, Vec<PropertyFreq>>,
    pattern_count: usize,
    phrase_hits: AtomicU64,
    phrase_misses: AtomicU64,
    word_hits: AtomicU64,
    word_misses: AtomicU64,
}

impl PatternStore {
    /// Aggregates occurrences into the store.
    pub fn from_occurrences(occurrences: &Occurrences) -> Self {
        // Count in id space, keeping each pattern's keys in first-seen order.
        let mut counts: Vec<Vec<(PropKey, u64)>> = vec![Vec::new(); occurrences.patterns().len()];
        for o in occurrences.iter() {
            let key = (o.property, o.inverse, o.is_data);
            let keys = &mut counts[o.pattern as usize];
            match keys.iter_mut().find(|(k, _)| *k == key) {
                Some((_, n)) => *n += 1,
                None => keys.push((key, 1)),
            }
        }

        // Pattern ids and each key list follow first occurrence, so these
        // inserts replay the order an occurrence-at-a-time count would make:
        // the maps get the same layout, and `sorted` the same tie order.
        let mut phrase: FxHashMap<&str, FxHashMap<PropKey, u64>> = FxHashMap::default();
        for (pattern, keys) in occurrences.patterns().iter().zip(counts) {
            let mut props = FxHashMap::default();
            for (key, n) in keys {
                props.insert(key, n);
            }
            phrase.insert(pattern, props);
        }

        let mut word: FxHashMap<&str, FxHashMap<PropKey, u64>> = FxHashMap::default();
        for (pattern, props) in &phrase {
            for token in pattern.split_whitespace() {
                if is_function_word(token) || token == "$v" {
                    continue;
                }
                let entry = word.entry(token).or_default();
                for (&key, freq) in props {
                    *entry.entry(key).or_insert(0) += freq;
                }
            }
        }

        let pattern_count = phrase.len();
        PatternStore {
            phrase_index: phrase.into_iter().map(|(k, v)| (k.to_string(), sorted(v))).collect(),
            word_index: word.into_iter().map(|(k, v)| (k.to_string(), sorted(v))).collect(),
            pattern_count,
            ..PatternStore::default()
        }
    }

    /// Property candidates for a full normalized pattern, most frequent
    /// first.
    pub fn candidates_for_phrase(&self, pattern: &str) -> &[PropertyFreq] {
        match self.phrase_index.get(pattern) {
            Some(v) => {
                self.phrase_hits.fetch_add(1, Relaxed);
                v.as_slice()
            }
            None => {
                self.phrase_misses.fetch_add(1, Relaxed);
                &[]
            }
        }
    }

    /// Property candidates for a single (lemmatized) word, most frequent
    /// first — the lookup the paper's predicate mapping uses.
    pub fn candidates_for_word(&self, word: &str) -> &[PropertyFreq] {
        match self.word_index.get(word) {
            Some(v) => {
                self.word_hits.fetch_add(1, Relaxed);
                v.as_slice()
            }
            None => {
                self.word_misses.fetch_add(1, Relaxed);
                &[]
            }
        }
    }

    /// Cumulative hit/miss counts over this store's lifetime.
    pub fn lookup_stats(&self) -> PatternLookupStats {
        PatternLookupStats {
            phrase_hits: self.phrase_hits.load(Relaxed),
            phrase_misses: self.phrase_misses.load(Relaxed),
            word_hits: self.word_hits.load(Relaxed),
            word_misses: self.word_misses.load(Relaxed),
        }
    }

    /// Number of distinct normalized patterns.
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// All indexed words with their candidates (for reports and the mined
    /// fingerprint).
    pub fn words(&self) -> impl Iterator<Item = (&str, &[PropertyFreq])> {
        self.word_index.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// All normalized patterns (for taxonomy construction and reports).
    pub fn patterns(&self) -> impl Iterator<Item = (&str, &[PropertyFreq])> {
        self.phrase_index.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }
}

fn sorted(map: FxHashMap<PropKey, u64>) -> Vec<PropertyFreq> {
    let mut v: Vec<PropertyFreq> = map
        .into_iter()
        .map(|((property, inverse, is_data), freq)| PropertyFreq {
            property: property.to_string(),
            inverse,
            is_data,
            freq,
        })
        .collect();
    v.sort_by(|a, b| b.freq.cmp(&a.freq).then_with(|| a.property.cmp(&b.property)));
    v
}

/// Prepositions and connector words do not identify a relation on their own.
fn is_function_word(word: &str) -> bool {
    matches!(
        word,
        "of" | "in" | "at" | "by" | "to" | "from" | "on" | "for" | "with" | "as" | "through"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use relpat_rdf::TermId;

    fn occ(all: &mut Occurrences, pattern: &str, property: &'static str, inverse: bool, n: u32) {
        for i in 0..n {
            all.push(pattern, property, inverse, false, (TermId(2 * i), TermId(2 * i + 1)));
        }
    }

    fn paper_store() -> PatternStore {
        // Paper §2.2.3: "die" maps to deathPlace (high), birthPlace and
        // residence (low) because of corpus noise.
        let mut all = Occurrences::default();
        occ(&mut all, "die in", "deathPlace", false, 40);
        occ(&mut all, "die at", "deathPlace", false, 12);
        occ(&mut all, "die in", "birthPlace", false, 3);
        occ(&mut all, "die in", "residence", false, 2);
        occ(&mut all, "bear in", "birthPlace", false, 50);
        occ(&mut all, "bear in", "deathPlace", false, 4);
        occ(&mut all, "write by", "author", false, 30);
        occ(&mut all, "write", "author", true, 25);
        PatternStore::from_occurrences(&all)
    }

    #[test]
    fn phrase_lookup_ranks_by_frequency() {
        let store = paper_store();
        let cands = store.candidates_for_phrase("die in");
        assert_eq!(cands[0].property, "deathPlace");
        assert_eq!(cands[0].freq, 40);
        assert_eq!(cands.len(), 3);
    }

    #[test]
    fn word_lookup_aggregates_across_patterns() {
        let store = paper_store();
        let cands = store.candidates_for_word("die");
        // deathPlace: 40 + 12 = 52 across "die in"/"die at".
        assert_eq!(cands[0].property, "deathPlace");
        assert_eq!(cands[0].freq, 52);
        // The paper's ranking claim: deathPlace > birthPlace, residence.
        let freq_of = |p: &str| cands.iter().find(|c| c.property == p).map(|c| c.freq);
        assert!(freq_of("deathPlace") > freq_of("birthPlace"));
        assert!(freq_of("birthPlace") >= freq_of("residence"));
    }

    #[test]
    fn direction_is_preserved_distinctly() {
        let store = paper_store();
        let cands = store.candidates_for_word("write");
        assert!(cands.iter().any(|c| c.property == "author" && !c.inverse));
        assert!(cands.iter().any(|c| c.property == "author" && c.inverse));
    }

    #[test]
    fn function_words_not_indexed() {
        let store = paper_store();
        assert!(store.candidates_for_word("in").is_empty());
        assert!(store.candidates_for_word("by").is_empty());
    }

    #[test]
    fn unknown_lookups_are_empty() {
        let store = paper_store();
        assert!(store.candidates_for_phrase("fly over").is_empty());
        assert!(store.candidates_for_word("zzz").is_empty());
    }

    #[test]
    fn lookup_stats_count_hits_and_misses() {
        let store = paper_store();
        assert_eq!(store.lookup_stats(), PatternLookupStats::default());
        store.candidates_for_phrase("die in");
        store.candidates_for_phrase("fly over");
        store.candidates_for_word("die");
        store.candidates_for_word("die");
        store.candidates_for_word("zzz");
        let s = store.lookup_stats();
        assert_eq!(s.phrase_hits, 1);
        assert_eq!(s.phrase_misses, 1);
        assert_eq!(s.word_hits, 2);
        assert_eq!(s.word_misses, 1);
        assert_eq!(s.total(), 5);
    }

    #[test]
    fn pattern_count_counts_distinct_patterns() {
        let store = paper_store();
        // die in, die at, bear in, write by, write
        assert_eq!(store.pattern_count(), 5);
        assert_eq!(store.patterns().count(), 5);
    }
}
