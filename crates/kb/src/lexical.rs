//! Sublinear lexical candidate index for entity & property mapping.
//!
//! The §2.2 mapping stage scores question words against every entity label
//! and every ontology property with a full LCS dynamic program. This module
//! replaces the brute-force scan with a pre-built index that retrieves a
//! *provable superset* of the entries that can reach the similarity
//! threshold; the caller then runs the exact scorer only on the survivors,
//! so the final candidate lists are bit-identical to the brute-force scan.
//!
//! ## Structure
//!
//! Every indexed string ("scoring unit") is stored lowercased with
//! precomputed artifacts: character length, a character-frequency multiset
//! (sparse `(char, count)` runs, all units' runs in one flat buffer) and a
//! score scale (1.0 for whole names and entity labels, 0.9 for label words,
//! matching `property_name_score`). Units feed three retrieval
//! structures:
//!
//! - a character **bigram inverted index** (unit text → its adjacent
//!   character pairs → posting lists);
//! - an **exact-word map** for the 0.95 near-exact rule (camel-case
//!   constituents of property names and label words);
//! - a per-scale **short-unit bucket** (units sorted by length) for the
//!   region where the bigram guarantee below does not apply.
//!
//! ## Why retrieval is lossless
//!
//! LCS is a *subsequence* measure, so n-gram retrieval needs a real
//! argument (two strings can share a long subsequence but no trigram).
//! Count adjacency breaks: a common subsequence of length `L` in strings of
//! length `m` and `ℓ` has `L−1` adjacent pairs, and at most
//! `(m−L) + (ℓ−L)` of them are interrupted by non-subsequence characters.
//! If `3L ≥ m+ℓ+2` some pair survives contiguously in both strings — a
//! shared bigram. With `score = L/max(m,ℓ) ≥ t` this holds whenever
//! `max(m,ℓ) ≥ 2/(3t−2)` (valid for `t > 2/3`; the same derivation for
//! trigrams needs `t > 4/5`, above our 0.7 property threshold, which is why
//! this is a bigram index). Pairs below that length bound live in the
//! short-unit bucket, which is scanned only when the query itself is short
//! (if the query is long, `max(m,ℓ)` is large and the guarantee applies).
//! When the effective threshold is ≤ 2/3 (ablation sweeps), retrieval
//! degrades to a bounded full scan of the unit list — still pruned, still
//! exact.
//!
//! ## Why pruning is lossless
//!
//! Survivors of retrieval are kept only if a cheap upper bound on the LCS
//! score clears the threshold: `lcs ≤ min(m,ℓ)` (length-band bound) and
//! `lcs ≤ |multiset intersection|` (character-count bound). Both bounds are
//! integers ≥ the true LCS length, and `x ↦ x/max` and `x ↦ x·scale` are
//! monotone under IEEE rounding, so the computed bound is ≥ the exactly
//! computed score — an entry is pruned only when its true score cannot
//! reach the threshold. Exact-word hits skip the bounds entirely.

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use relpat_obs::fx::FxHashMap;

use crate::labels::LabelTable;
use crate::ontology::{Ontology, PropertyId};

/// Character-frequency multiset of a (lowercased) string: ASCII counts in a
/// dense array, anything else in a sorted spill vector. Built once per
/// lookup for the query; indexed units keep only their [`runs`](Self::runs).
#[derive(Debug, Clone)]
struct CharBag {
    ascii: [u16; 128],
    other: Vec<(char, u16)>,
}

impl CharBag {
    fn of(s: &str) -> Self {
        let mut ascii = [0u16; 128];
        let mut other: Vec<(char, u16)> = Vec::new();
        for c in s.chars() {
            if (c as u32) < 128 {
                let slot = &mut ascii[c as usize];
                *slot = slot.saturating_add(1);
            } else {
                match other.binary_search_by_key(&c, |&(x, _)| x) {
                    Ok(i) => other[i].1 = other[i].1.saturating_add(1),
                    Err(i) => other.insert(i, (c, 1)),
                }
            }
        }
        CharBag { ascii, other }
    }

    /// The multiset as `(char, count)` runs ascending by char, zero counts
    /// left out: the sparse form a unit stores.
    fn runs(&self) -> impl Iterator<Item = (char, u16)> + '_ {
        let ascii = (0..128u8).filter(|&c| self.ascii[c as usize] > 0);
        ascii.map(|c| (c as char, self.ascii[c as usize])).chain(self.other.iter().copied())
    }

    fn count(&self, c: char) -> u16 {
        match self.ascii.get(c as usize) {
            Some(&n) => n,
            None => {
                self.other.binary_search_by_key(&c, |&(x, _)| x).map_or(0, |i| self.other[i].1)
            }
        }
    }

    /// Size of the multiset intersection with a unit's runs — an upper
    /// bound on the LCS length of the two strings.
    fn intersection(&self, runs: &[(char, u16)]) -> usize {
        runs.iter().map(|&(c, n)| n.min(self.count(c)) as usize).sum()
    }
}

/// One indexed scoring unit: a lowercased string that the exact scorer
/// compares against via LCS, scaled by `scale` in the final score. Its
/// character bag lives in [`SimIndex::runs`].
#[derive(Debug)]
struct Unit {
    entry: u32,
    scale: f64,
    len: u32,
}

/// Units of one scale, ordered by character length (short-bucket scans walk
/// a prefix of this list).
#[derive(Debug)]
struct ScaleGroup {
    scale: f64,
    by_len: Vec<u32>,
}

/// Build-time description of one entry.
struct EntrySpec<'a> {
    /// `(lowercased text, scale)` LCS scoring units.
    units: Vec<(Cow<'a, str>, f64)>,
    /// Exact-match words for the 0.95 rule (camel constituents + label words).
    words: Vec<String>,
}

fn bigram_key(a: char, b: char) -> u64 {
    ((a as u64) << 32) | b as u64
}

/// The buffers a lookup works in, kept per thread and reused, so a lookup
/// allocates nothing once they have grown to the largest index. Units and
/// entries are marked with the lookup's stamp, so no buffer is cleared
/// between lookups.
#[derive(Debug, Default)]
struct Scratch {
    stamp: u32,
    /// Per unit: the stamp of the last lookup that queued it.
    seen: Vec<u32>,
    /// Per entry: the stamp of the last lookup it survived.
    survivor: Vec<u32>,
    /// Units the lookup examines, in the order they were queued.
    examine: Vec<u32>,
    /// The query's bigram keys probed so far, sorted.
    keys: Vec<u64>,
    /// Surviving entry ids.
    out: Vec<u32>,
}

impl Scratch {
    /// Starts a lookup over `units` units and `entries` entries: returns
    /// its stamp, which no slot holds yet.
    fn begin(&mut self, units: usize, entries: usize) -> u32 {
        if self.stamp == u32::MAX {
            self.seen.fill(0);
            self.survivor.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        if self.seen.len() < units {
            self.seen.resize(units, 0);
        }
        if self.survivor.len() < entries {
            self.survivor.resize(entries, 0);
        }
        self.examine.clear();
        self.keys.clear();
        self.stamp
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Inverted index over one family of entries (entity labels, object
/// properties or data properties). Entry ids are positions in the caller's
/// backing list, so survivors come back in the caller's iteration order.
#[derive(Debug)]
struct SimIndex {
    units: Vec<Unit>,
    /// Every unit's character bag as sparse runs, back to back: unit `u`'s
    /// are `runs[runs_at[u]..runs_at[u + 1]]`.
    runs: Vec<(char, u16)>,
    runs_at: Vec<u32>,
    entry_count: usize,
    bigrams: FxHashMap<u64, Vec<u32>>,
    groups: Vec<ScaleGroup>,
    words: FxHashMap<String, Vec<u32>>,
}

impl SimIndex {
    fn build<'a>(specs: impl Iterator<Item = EntrySpec<'a>>) -> Self {
        let mut entry_count = 0;
        let mut units: Vec<Unit> = Vec::new();
        let (mut runs, mut runs_at) = (Vec::new(), vec![0u32]);
        let mut bigrams: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        let mut words: FxHashMap<String, Vec<u32>> = FxHashMap::default();
        for (entry, spec) in specs.enumerate() {
            entry_count += 1;
            for (text, scale) in spec.units {
                let id = units.len() as u32;
                let mut keys: Vec<u64> = text
                    .chars()
                    .zip(text.chars().skip(1))
                    .map(|(a, b)| bigram_key(a, b))
                    .collect();
                keys.sort_unstable();
                keys.dedup();
                for key in keys {
                    bigrams.entry(key).or_default().push(id);
                }
                units.push(Unit { entry: entry as u32, scale, len: text.chars().count() as u32 });
                runs.extend(CharBag::of(&text).runs());
                runs_at.push(runs.len() as u32);
            }
            for word in spec.words {
                let posting = words.entry(word).or_default();
                if posting.last() != Some(&(entry as u32)) {
                    posting.push(entry as u32);
                }
            }
        }
        let mut scales: Vec<f64> = units.iter().map(|u| u.scale).collect();
        scales.sort_by(f64::total_cmp);
        scales.dedup();
        let groups = scales
            .into_iter()
            .map(|scale| {
                let mut by_len: Vec<u32> = (0..units.len() as u32)
                    .filter(|&u| units[u as usize].scale == scale)
                    .collect();
                by_len.sort_by_key(|&u| units[u as usize].len);
                ScaleGroup { scale, by_len }
            })
            .collect();
        runs.shrink_to_fit();
        SimIndex { units, runs, runs_at, entry_count, bigrams, groups, words }
    }

    /// Appends to `s.out` the entry ids (ascending) whose true score
    /// against `query` *may* reach `threshold` — a provable superset, see
    /// the module docs. `query` must already be lowercased (entity queries:
    /// `normalize_label`ed).
    fn candidates(&self, query: &str, threshold: f64, stats: &LookupCells, s: &mut Scratch) {
        let qlen = query.chars().count();
        let qbag = CharBag::of(query);
        let stamp = s.begin(self.units.len(), self.entry_count);
        let Scratch { seen, survivor, examine, keys, out, .. } = s;
        let first = out.len();
        let survive = |e: u32, survivor: &mut [u32], out: &mut Vec<u32>| {
            survivor[e as usize] = stamp;
            out.push(e);
        };

        // Exact-word fast path: 0.95-rule hits survive unconditionally (the
        // exact scorer re-derives the actual score).
        if let Some(posting) = self.words.get(query) {
            for &e in posting {
                survive(e, survivor, out);
            }
        }

        let mut mark = |u: u32, examine: &mut Vec<u32>| {
            if seen[u as usize] != stamp {
                seen[u as usize] = stamp;
                examine.push(u);
            }
        };
        let mut probe_bigrams = false;
        let mut full_scan_groups = 0u64;
        for group in &self.groups {
            if group.scale < threshold {
                continue; // scale · lcs_score ≤ scale < threshold: unreachable
            }
            let t_eff = threshold / group.scale;
            if t_eff <= 2.0 / 3.0 {
                // Below the bigram-recall guarantee: bounded full scan.
                full_scan_groups += 1;
                for &u in &group.by_len {
                    mark(u, examine);
                }
            } else {
                probe_bigrams = true;
                // Guarantee bound (+1 absorbs float rounding of the ceil).
                let bound = (2.0 / (3.0 * t_eff - 2.0)).ceil() as usize + 1;
                if qlen < bound {
                    for &u in &group.by_len {
                        if self.units[u as usize].len as usize >= bound {
                            break;
                        }
                        mark(u, examine);
                    }
                }
            }
        }
        if full_scan_groups > 0 {
            // One event per lookup (not per unit) — this is the hot path.
            relpat_obs::jevent!(
                relpat_obs::Level::Debug, "kb.lexical.full_scan",
                "query" => query,
                "groups" => full_scan_groups,
                "examined" => examine.len(),
            );
        }
        if probe_bigrams && qlen >= 2 {
            for (a, b) in query.chars().zip(query.chars().skip(1)) {
                let key = bigram_key(a, b);
                // Each distinct bigram's posting is walked once, in query
                // order (a repeat would mark nothing new).
                match keys.binary_search(&key) {
                    Ok(_) => continue,
                    Err(at) => keys.insert(at, key),
                }
                if let Some(posting) = self.bigrams.get(&key) {
                    for &u in posting {
                        mark(u, examine);
                    }
                }
            }
        }

        let mut pruned: u64 = 0;
        for &u in examine.iter() {
            let unit = &self.units[u as usize];
            if survivor[unit.entry as usize] == stamp {
                continue;
            }
            if unit.scale < threshold {
                pruned += 1;
                continue;
            }
            let (len, max) = (unit.len as usize, (unit.len as usize).max(qlen));
            if max == 0 {
                // Both empty: true score is 0, matching `lcs_score`.
                if 0.0 < threshold {
                    pruned += 1;
                    continue;
                }
                survive(unit.entry, survivor, out);
                continue;
            }
            let band = unit.scale * (len.min(qlen) as f64 / max as f64);
            if band < threshold {
                pruned += 1;
                continue;
            }
            let ub = unit.scale * (qbag.intersection(self.runs_of(u)) as f64 / max as f64);
            if ub < threshold {
                pruned += 1;
                continue;
            }
            survive(unit.entry, survivor, out);
        }

        out[first..].sort_unstable();
        stats.record(examine.len() as u64, pruned, (out.len() - first) as u64);
    }

    /// Unit `u`'s character bag.
    fn runs_of(&self, u: u32) -> &[(char, u16)] {
        let u = u as usize;
        &self.runs[self.runs_at[u] as usize..self.runs_at[u + 1] as usize]
    }

    fn posting_len(&self) -> usize {
        self.bigrams.values().map(Vec::len).sum()
    }

    /// Heap bytes held, from lengths and capacities (hash tables count one
    /// control byte per bucket).
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let postings = |v: &Vec<u32>| v.capacity() * 4;
        self.units.capacity() * size_of::<Unit>()
            + self.runs.capacity() * size_of::<(char, u16)>()
            + self.runs_at.capacity() * size_of::<u32>()
            + self.bigrams.capacity() * (size_of::<(u64, Vec<u32>)>() + 1)
            + self.bigrams.values().map(postings).sum::<usize>()
            + self.groups.iter().map(|g| postings(&g.by_len)).sum::<usize>()
            + self.words.capacity() * (size_of::<(String, Vec<u32>)>() + 1)
            + self.words.iter().map(|(w, p)| w.capacity() + postings(p)).sum::<usize>()
    }
}

/// Cumulative lookup totals (snapshot of [`LexicalIndex::lookup_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexLookupStats {
    /// Scoring units examined via postings, buckets or fallback scans.
    pub probed: u64,
    /// Units rejected by the length-band / multiset upper bounds.
    pub pruned: u64,
    /// Entries returned to the caller for exact scoring.
    pub scored: u64,
}

impl IndexLookupStats {
    pub fn delta_since(&self, before: &IndexLookupStats) -> IndexLookupStats {
        IndexLookupStats {
            probed: self.probed - before.probed,
            pruned: self.pruned - before.pruned,
            scored: self.scored - before.scored,
        }
    }

    /// Fraction of probed units the bounds rejected without running the DP.
    pub fn prune_rate(&self) -> f64 {
        if self.probed == 0 {
            0.0
        } else {
            self.pruned as f64 / self.probed as f64
        }
    }
}

/// The ids of a mask's bits, ascending.
fn property_ids(mut mask: u64) -> impl Iterator<Item = PropertyId> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros();
            mask &= mask - 1;
            PropertyId(bit as u8)
        })
    })
}

#[derive(Debug, Default)]
struct LookupCells {
    probed: AtomicU64,
    pruned: AtomicU64,
    scored: AtomicU64,
}

impl LookupCells {
    fn record(&self, probed: u64, pruned: u64, scored: u64) {
        self.probed.fetch_add(probed, Relaxed);
        self.pruned.fetch_add(pruned, Relaxed);
        self.scored.fetch_add(scored, Relaxed);
        relpat_obs::counter!("qa.map.index.probed", probed);
        relpat_obs::counter!("qa.map.index.pruned", pruned);
        relpat_obs::counter!("qa.map.index.scored", scored);
    }

    fn snapshot(&self) -> IndexLookupStats {
        IndexLookupStats {
            probed: self.probed.load(Relaxed),
            pruned: self.pruned.load(Relaxed),
            scored: self.scored.load(Relaxed),
        }
    }
}

/// Build-time shape of the index (for profiles and benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LexStats {
    pub entity_entries: usize,
    pub property_entries: usize,
    pub units: usize,
    pub bigram_postings: usize,
    pub exact_words: usize,
}

/// The per-`KnowledgeBase` lexical candidate index: entity labels plus
/// object/data property names and labels. Built once in
/// [`KnowledgeBase::from_graph`](crate::KnowledgeBase::from_graph). Entity
/// entries are the rows of the KB's [`LabelTable`]; the index keeps no copy
/// of their text.
#[derive(Debug)]
pub struct LexicalIndex {
    /// Entry `i` is label-table row `i`.
    entities: SimIndex,
    object_props: SimIndex,
    data_props: SimIndex,
    lookups: LookupCells,
}

impl LexicalIndex {
    pub(crate) fn build(labels: &LabelTable, ontology: &Ontology) -> Self {
        let entity_specs = labels.iter().map(|(label, _)| EntrySpec {
            units: vec![(Cow::Borrowed(label), 1.0)],
            words: Vec::new(),
        });
        let property_specs = |id: PropertyId| {
            let p = ontology.property(id);
            let mut units = vec![(Cow::Borrowed(p.name_lower.as_str()), 1.0)];
            units.extend(p.label_words.iter().map(|w| (Cow::Borrowed(w.as_str()), 0.9)));
            let mut words: Vec<String> =
                p.name_words.iter().chain(&p.label_words).cloned().collect();
            words.sort_unstable();
            words.dedup();
            EntrySpec { units, words }
        };
        let object_props = SimIndex::build(
            (0..ontology.object_properties.len())
                .map(|i| property_specs(ontology.object_property_id(i))),
        );
        let data_props = SimIndex::build(
            (0..ontology.data_properties.len())
                .map(|i| property_specs(ontology.data_property_id(i))),
        );
        LexicalIndex {
            entities: SimIndex::build(entity_specs),
            object_props,
            data_props,
            lookups: LookupCells::default(),
        }
    }

    /// Label-table rows (ascending) that may score ≥ `threshold` against
    /// the (already `normalize_label`ed) query. A superset of the true
    /// matches; callers re-score with the exact LCS and filter.
    pub fn entity_rows(&self, norm_query: &str, threshold: f64) -> Vec<u32> {
        SCRATCH.with_borrow_mut(|s| {
            s.out.clear();
            self.entities.candidates(norm_query, threshold, &self.lookups, s);
            s.out.to_vec()
        })
    }

    /// Object property ids (ascending) that may score ≥ `threshold`
    /// against *any* of the lowercased query words.
    pub fn object_property_candidates(
        &self,
        words: &[&str],
        threshold: f64,
    ) -> impl Iterator<Item = PropertyId> {
        property_ids(self.multi_word(&self.object_props, words, threshold))
    }

    /// Data property ids (ascending) that may score ≥ `threshold` against
    /// *any* of the lowercased query words.
    pub fn data_property_candidates(
        &self,
        words: &[&str],
        threshold: f64,
    ) -> impl Iterator<Item = PropertyId> {
        let mask = self.multi_word(&self.data_props, words, threshold);
        property_ids(mask << self.object_props.entry_count)
    }

    /// The union of every distinct word's survivors as a mask over the
    /// family's entries.
    fn multi_word(&self, index: &SimIndex, words: &[&str], threshold: f64) -> u64 {
        SCRATCH.with_borrow_mut(|s| {
            s.out.clear();
            for (i, word) in words.iter().enumerate() {
                if words[..i].contains(word) {
                    continue; // identical word (text == lemma): same survivors
                }
                index.candidates(word, threshold, &self.lookups, s);
            }
            s.out.iter().fold(0, |mask, &e| mask | 1 << e)
        })
    }

    /// Cumulative probe/prune/score totals across all lookups on this index
    /// (per-KB, so concurrent tests in one process do not bleed).
    pub fn lookup_stats(&self) -> IndexLookupStats {
        self.lookups.snapshot()
    }

    /// Heap bytes held by the three entry families' indexes.
    pub fn heap_bytes(&self) -> usize {
        self.entities.heap_bytes() + self.object_props.heap_bytes() + self.data_props.heap_bytes()
    }

    /// Build-time shape of the index.
    pub fn stats(&self) -> LexStats {
        LexStats {
            entity_entries: self.entities.entry_count,
            property_entries: self.object_props.entry_count + self.data_props.entry_count,
            units: self.entities.units.len()
                + self.object_props.units.len()
                + self.data_props.units.len(),
            bigram_postings: self.entities.posting_len()
                + self.object_props.posting_len()
                + self.data_props.posting_len(),
            exact_words: self.object_props.words.len() + self.data_props.words.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ontology::split_camel_case;
    use relpat_rdf::vocab::{rdfs, res};
    use relpat_rdf::{GraphBuilder, Term};

    /// Reference LCS (chars, two-row DP) for soundness checks.
    fn lcs_len(a: &str, b: &str) -> usize {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        let mut prev = vec![0usize; b.len() + 1];
        let mut cur = vec![0usize; b.len() + 1];
        for &ca in &a {
            for (j, &cb) in b.iter().enumerate() {
                cur[j + 1] = if ca == cb { prev[j] + 1 } else { prev[j + 1].max(cur[j]) };
            }
            std::mem::swap(&mut prev, &mut cur);
            cur[0] = 0;
        }
        prev[b.len()]
    }

    fn lcs_score(a: &str, b: &str) -> f64 {
        let max = a.chars().count().max(b.chars().count());
        if max == 0 {
            0.0
        } else {
            lcs_len(a, b) as f64 / max as f64
        }
    }

    /// Reference property score over the same unit model the index encodes.
    fn property_score(word: &str, name: &str, label: &str) -> f64 {
        let mut best = lcs_score(word, &name.to_lowercase());
        for w in split_camel_case(name) {
            if w == word {
                best = best.max(0.95);
            }
        }
        for w in label.to_lowercase().split_whitespace() {
            if w == word {
                best = best.max(0.95);
            } else {
                best = best.max(lcs_score(word, w) * 0.9);
            }
        }
        best
    }

    /// Toy entity labels (sorted, as table rows must be).
    const TOY_LABELS: [&str; 6] =
        ["a", "ankara", "michael jordan", "orhan pamuk", "orhan pamul", "é"];

    fn toy_index() -> LexicalIndex {
        let mut g = GraphBuilder::new();
        for label in TOY_LABELS {
            g.add(Term::iri(res::iri(label)), Term::iri(rdfs::LABEL), Term::literal(label));
        }
        LexicalIndex::build(&LabelTable::from_graph(&g.build()), &Ontology::dbpedia())
    }

    fn entity_survivors(ix: &LexicalIndex, query: &str, t: f64) -> Vec<String> {
        ix.entity_rows(query, t).into_iter().map(|row| TOY_LABELS[row as usize].to_string()).collect()
    }

    #[test]
    fn camel_split_matches_expected() {
        assert_eq!(split_camel_case("populationTotal"), vec!["population", "total"]);
        assert_eq!(split_camel_case("height"), vec!["height"]);
    }

    #[test]
    fn entity_retrieval_is_a_superset_of_true_matches() {
        let ix = toy_index();
        for t in [0.5, 0.7, 0.85, 0.95, 1.0] {
            for query in ["orhan pamuk", "orham pamuk", "ankaro", "a", "é", "", "jordan"] {
                let got = entity_survivors(&ix, query, t);
                for label in TOY_LABELS {
                    if lcs_score(query, label) >= t {
                        assert!(got.contains(&label.to_string()), "missing {label:?} for {query:?} @ {t}");
                    }
                }
            }
        }
    }

    #[test]
    fn single_char_query_finds_single_char_label() {
        // Exercises the short-unit bucket: no bigrams exist on either side.
        let ix = toy_index();
        assert!(entity_survivors(&ix, "a", 0.85).contains(&"a".to_string()));
        assert!(entity_survivors(&ix, "é", 0.85).contains(&"é".to_string()));
    }

    #[test]
    fn property_retrieval_is_a_superset_and_sorted() {
        let ix = toy_index();
        let ontology = Ontology::dbpedia();
        for t in [0.5, 0.7, 0.9, 0.95] {
            for word in ["population", "written", "height", "of", "crosses", "zzz", ""] {
                let obj: Vec<PropertyId> = ix.object_property_candidates(&[word], t).collect();
                assert!(obj.windows(2).all(|w| w[0] < w[1]), "unsorted {obj:?}");
                for (i, p) in ontology.object_properties.iter().enumerate() {
                    if property_score(word, p.name, p.label) >= t {
                        let id = ontology.object_property_id(i);
                        assert!(obj.contains(&id), "missing {} for {word:?} @ {t}", p.name);
                    }
                }
                let data: Vec<PropertyId> = ix.data_property_candidates(&[word], t).collect();
                assert!(data.iter().all(|&id| ontology.property(id).is_data), "{data:?}");
                for (i, p) in ontology.data_properties.iter().enumerate() {
                    if property_score(word, p.name, p.label) >= t {
                        let id = ontology.data_property_id(i);
                        assert!(data.contains(&id), "missing {} for {word:?} @ {t}", p.name);
                    }
                }
            }
        }
    }

    #[test]
    fn multi_word_union_covers_both_words() {
        let ix = toy_index();
        let ontology = Ontology::dbpedia();
        let both: Vec<PropertyId> =
            ix.object_property_candidates(&["written", "crosses"], 0.7).collect();
        for word in ["written", "crosses"] {
            for (i, p) in ontology.object_properties.iter().enumerate() {
                if property_score(word, p.name, p.label) >= 0.7 {
                    assert!(both.contains(&ontology.object_property_id(i)), "missing {}", p.name);
                }
            }
        }
        // Duplicate words collapse to one lookup's worth of survivors.
        assert!(ix
            .object_property_candidates(&["written", "written"], 0.7)
            .eq(ix.object_property_candidates(&["written"], 0.7)));
    }

    #[test]
    fn random_sweep_never_loses_a_match() {
        let mut rng = relpat_obs::Rng::seed_from_u64(0xBEEF);
        let ix = toy_index();
        let ontology = Ontology::dbpedia();
        let alphabet: Vec<char> = "abcdehilmnoprstu é".chars().collect();
        for _ in 0..300 {
            let len = (rng.next_u64() % 13) as usize;
            let query: String =
                (0..len).map(|_| alphabet[(rng.next_u64() as usize) % alphabet.len()]).collect();
            for t in [0.5, 0.7, 0.85, 0.9] {
                let got = entity_survivors(&ix, &query, t);
                for label in TOY_LABELS {
                    if lcs_score(&query, label) >= t {
                        assert!(got.contains(&label.to_string()), "lost {label:?} for {query:?} @ {t}");
                    }
                }
                let obj: Vec<PropertyId> = ix.object_property_candidates(&[&query], t).collect();
                for (i, p) in ontology.object_properties.iter().enumerate() {
                    if property_score(&query, p.name, p.label) >= t {
                        let id = ontology.object_property_id(i);
                        assert!(obj.contains(&id), "lost {} for {query:?} @ {t}", p.name);
                    }
                }
            }
        }
    }

    #[test]
    fn lookups_survive_the_stamp_wrapping() {
        let ix = toy_index();
        let entities = entity_survivors(&ix, "orhan pamuk", 0.85);
        let written = |ix: &LexicalIndex| ix.object_property_candidates(&["written"], 0.7);
        let properties: Vec<PropertyId> = written(&ix).collect();
        assert!(!entities.is_empty() && !properties.is_empty());
        SCRATCH.with_borrow_mut(|s| s.stamp = u32::MAX - 1);
        for _ in 0..3 {
            assert_eq!(entity_survivors(&ix, "orhan pamuk", 0.85), entities);
            assert!(written(&ix).eq(properties.iter().copied()));
        }
        assert!(SCRATCH.with_borrow(|s| s.stamp) < 10, "the stamp wrapped to a small value");
    }

    #[test]
    fn bounds_prune_and_stats_accumulate() {
        let ix = toy_index();
        let before = ix.lookup_stats();
        let _ = entity_survivors(&ix, "orhan pamuk", 0.85);
        let delta = ix.lookup_stats().delta_since(&before);
        assert!(delta.probed > 0);
        // Entity entries have exactly one unit and no word map, so every
        // probed unit is either pruned or scored.
        assert_eq!(delta.probed, delta.pruned + delta.scored);
        // The near-duplicate label survives, unrelated labels are pruned.
        let survivors = entity_survivors(&ix, "orhan pamuk", 0.85);
        assert!(survivors.contains(&"orhan pamuk".to_string()));
        assert!(survivors.contains(&"orhan pamul".to_string()));
        assert!(!survivors.contains(&"michael jordan".to_string()));
    }

    #[test]
    fn build_stats_report_shape() {
        let ix = toy_index();
        let s = ix.stats();
        assert_eq!(s.entity_entries, 6);
        let ontology = Ontology::dbpedia();
        assert_eq!(
            s.property_entries,
            ontology.object_properties.len() + ontology.data_properties.len()
        );
        assert!(s.units > s.entity_entries + s.property_entries); // label words add units
        assert!(s.bigram_postings > 0);
        assert!(s.exact_words > 0);
    }

    #[test]
    fn char_bag_intersection_bounds_lcs() {
        let mut rng = relpat_obs::Rng::seed_from_u64(7);
        let alphabet: Vec<char> = "abcdefgé".chars().collect();
        for _ in 0..200 {
            let mk = |rng: &mut relpat_obs::Rng| -> String {
                let len = (rng.next_u64() % 10) as usize;
                (0..len).map(|_| alphabet[(rng.next_u64() as usize) % alphabet.len()]).collect()
            };
            let (a, b) = (mk(&mut rng), mk(&mut rng));
            let runs = |s: &str| CharBag::of(s).runs().collect::<Vec<_>>();
            let inter = CharBag::of(&a).intersection(&runs(&b));
            assert_eq!(inter, CharBag::of(&b).intersection(&runs(&a)), "{a:?} vs {b:?}");
            assert!(inter >= lcs_len(&a, &b), "bag bound broken for {a:?} vs {b:?}");
            assert!(inter <= a.chars().count().min(b.chars().count()));
        }
    }
}
