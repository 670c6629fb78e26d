//! Lexical database structures and similarity metrics.
//!
//! A WordNet-style database: synsets (sets of synonymous words) arranged in a
//! hypernym DAG per part of speech, with corpus counts from which information
//! content is derived. Implements the two metrics the paper uses to build its
//! similar-property list (§2.2.1):
//!
//! - **Lin**: `2·IC(lcs) / (IC(a) + IC(b))` with `IC(s) = −ln p(s)` and
//!   `p(s)` the cumulative corpus probability of the synset and its
//!   descendants (Resnik-style information content);
//! - **Wu–Palmer**: `2·depth(lcs) / (depth(a) + depth(b))` with depth counted
//!   from the per-POS virtual root (root depth = 1).

use relpat_obs::fx::FxHashMap;

/// Part of speech of a synset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WnPos {
    Noun,
    Verb,
    Adjective,
}

/// Index of a synset within a [`WordNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SynsetId(pub u32);

/// A set of synonymous words with hypernym links.
#[derive(Debug, Clone)]
pub struct Synset {
    pub words: Vec<String>,
    pub pos: WnPos,
    pub hypernyms: Vec<SynsetId>,
    /// Raw corpus count of this sense (not cumulative).
    pub count: u64,
}

/// The lexical database. Everything the similarity metrics read of the
/// DAG — information content, depth, ancestor lists — is computed once by
/// [`WordNetBuilder::build`].
#[derive(Debug)]
pub struct WordNet {
    synsets: Vec<Synset>,
    /// Per POS (indexed by `pos as usize`): word (lower) → synsets
    /// containing it.
    index: [FxHashMap<String, Vec<SynsetId>>; 3],
    /// `−ln(cumulative / total)` per synset, where `cumulative` is the
    /// synset's own count plus all its descendants' and `total` the POS's
    /// root mass.
    ic: Vec<f64>,
    /// Depth from the per-POS virtual root (root synsets have depth 1).
    depth: Vec<u32>,
    /// Every synset's ancestors (inclusive, itself first), concatenated;
    /// synset `i`'s run is `ancestors[ancestor_start[i]..ancestor_start[i + 1]]`.
    ancestors: Vec<SynsetId>,
    ancestor_start: Vec<u32>,
    /// adjective → attribute noun ("tall" → "height").
    attributes: FxHashMap<String, String>,
}

/// Incremental builder; synsets must be added parents-before-children.
#[derive(Debug, Default)]
pub struct WordNetBuilder {
    synsets: Vec<Synset>,
    by_name: FxHashMap<(String, WnPos), SynsetId>,
    attributes: FxHashMap<String, String>,
}

impl WordNetBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a synset. `hypernyms` name the *first word* of previously added
    /// synsets of the same POS. Panics on a dangling hypernym name: the
    /// embedded database is static data, so that is a programming error.
    pub fn synset(
        &mut self,
        words: &[&str],
        pos: WnPos,
        hypernyms: &[&str],
        count: u64,
    ) -> SynsetId {
        let id = SynsetId(self.synsets.len() as u32);
        let hyper_ids: Vec<SynsetId> = hypernyms
            .iter()
            .map(|h| {
                *self
                    .by_name
                    .get(&(h.to_string(), pos))
                    .unwrap_or_else(|| panic!("dangling hypernym '{h}' ({pos:?})"))
            })
            .collect();
        self.synsets.push(Synset {
            words: words.iter().map(|w| w.to_string()).collect(),
            pos,
            hypernyms: hyper_ids,
            count,
        });
        // The head word names the synset for later hypernym references; do
        // not overwrite an existing sense (first sense stays addressable).
        self.by_name.entry((words[0].to_string(), pos)).or_insert(id);
        id
    }

    /// Registers an adjective → attribute-noun mapping (`tall` → `height`).
    pub fn attribute(&mut self, adjective: &str, noun: &str) {
        self.attributes.insert(adjective.to_string(), noun.to_string());
    }

    pub fn build(self) -> WordNet {
        let n = self.synsets.len();
        let mut index: [FxHashMap<String, Vec<SynsetId>>; 3] = Default::default();
        for (i, s) in self.synsets.iter().enumerate() {
            for w in &s.words {
                index[s.pos as usize].entry(w.clone()).or_default().push(SynsetId(i as u32));
            }
        }

        // Cumulative counts: children were added after parents, so walking
        // in reverse id order propagates each synset's mass to its
        // hypernyms before those are themselves consumed.
        let mut cumulative: Vec<u64> = self.synsets.iter().map(|s| s.count).collect();
        for i in (0..n).rev() {
            let mass = cumulative[i];
            for h in self.synsets[i].hypernyms.clone() {
                cumulative[h.0 as usize] += mass;
            }
        }

        // Depths: parents-first order makes a single forward pass exact.
        let mut depth = vec![0u32; n];
        for i in 0..n {
            let d = self.synsets[i]
                .hypernyms
                .iter()
                .map(|h| depth[h.0 as usize])
                .max()
                .unwrap_or(0);
            depth[i] = d + 1;
        }

        let mut totals: FxHashMap<WnPos, u64> = FxHashMap::default();
        for (i, s) in self.synsets.iter().enumerate() {
            if s.hypernyms.is_empty() {
                *totals.entry(s.pos).or_insert(0) += cumulative[i];
            }
        }
        let ic = self
            .synsets
            .iter()
            .zip(&cumulative)
            .map(|(s, &cum)| {
                let total = *totals.get(&s.pos).unwrap_or(&1) as f64;
                -(cum.max(1) as f64 / total).ln()
            })
            .collect();

        // Ancestor lists in the order of a stack walk up the hypernym
        // links, which is the order `lcs` breaks information-content ties
        // in.
        let mut ancestors: Vec<SynsetId> = Vec::new();
        let mut ancestor_start = Vec::with_capacity(n + 1);
        let mut stack = Vec::new();
        for i in 0..n {
            let start = ancestors.len();
            ancestor_start.push(start as u32);
            ancestors.push(SynsetId(i as u32));
            stack.push(SynsetId(i as u32));
            while let Some(s) = stack.pop() {
                for &h in &self.synsets[s.0 as usize].hypernyms {
                    if !ancestors[start..].contains(&h) {
                        ancestors.push(h);
                        stack.push(h);
                    }
                }
            }
        }
        ancestor_start.push(ancestors.len() as u32);

        WordNet {
            synsets: self.synsets,
            index,
            ic,
            depth,
            ancestors,
            ancestor_start,
            attributes: self.attributes,
        }
    }
}

impl WordNet {
    /// Number of synsets.
    pub fn len(&self) -> usize {
        self.synsets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.synsets.is_empty()
    }

    /// Synsets containing a word. The word is lowercased, allocating only
    /// when it is not lowercase already.
    pub fn synsets_of(&self, word: &str, pos: WnPos) -> &[SynsetId] {
        let index = &self.index[pos as usize];
        let hit = if word.is_ascii() && !word.bytes().any(|b| b.is_ascii_uppercase()) {
            index.get(word)
        } else {
            index.get(&word.to_lowercase())
        };
        hit.map(Vec::as_slice).unwrap_or(&[])
    }

    /// The synset behind an id.
    pub fn synset(&self, id: SynsetId) -> &Synset {
        &self.synsets[id.0 as usize]
    }

    /// Synonyms of a word: all words sharing any of its synsets.
    pub fn synonyms(&self, word: &str, pos: WnPos) -> Vec<&str> {
        let lower = word.to_lowercase();
        let mut out: Vec<&str> = Vec::new();
        for &sid in self.synsets_of(&lower, pos) {
            for w in &self.synsets[sid.0 as usize].words {
                if w != &lower && !out.contains(&w.as_str()) {
                    out.push(w);
                }
            }
        }
        out
    }

    /// Information content of a synset: `−ln(cumulative/total)`.
    pub fn information_content(&self, id: SynsetId) -> f64 {
        self.ic[id.0 as usize]
    }

    /// The synset and all its ancestors.
    fn ancestors_of(&self, id: SynsetId) -> &[SynsetId] {
        let i = id.0 as usize;
        &self.ancestors[self.ancestor_start[i] as usize..self.ancestor_start[i + 1] as usize]
    }

    /// Least common subsumer by maximum information content (of equals,
    /// the last in `a`'s ancestor order).
    pub fn lcs(&self, a: SynsetId, b: SynsetId) -> Option<SynsetId> {
        let anc_b = self.ancestors_of(b);
        self.ancestors_of(a)
            .iter()
            .copied()
            .filter(|x| anc_b.contains(x))
            .max_by(|x, y| self.ic[x.0 as usize].total_cmp(&self.ic[y.0 as usize]))
    }

    /// Lin and Wu–Palmer similarity between two synsets, from one `lcs`.
    pub fn lin_wup_synsets(&self, a: SynsetId, b: SynsetId) -> (f64, f64) {
        if a == b {
            return (1.0, 1.0);
        }
        let Some(lcs) = self.lcs(a, b) else { return (0.0, 0.0) };
        let (ic_a, ic_b) = (self.information_content(a), self.information_content(b));
        let lin = if ic_a + ic_b == 0.0 {
            0.0
        } else {
            (2.0 * self.information_content(lcs) / (ic_a + ic_b)).clamp(0.0, 1.0)
        };
        let da = self.depth(a) as f64;
        let db = self.depth(b) as f64;
        let dl = self.depth(lcs) as f64;
        // +1 on every depth accounts for the virtual per-POS root.
        let wup = (2.0 * (dl + 1.0) / ((da + 1.0) + (db + 1.0))).clamp(0.0, 1.0);
        (lin, wup)
    }

    /// Word-level Lin and Wu–Palmer similarity in one pass over the sense
    /// pairs: each is the maximum over all sense pairs (the standard
    /// word-similarity lifting, also what WordNet::Similarity does).
    /// `None` when either word is unknown.
    pub fn lin_wup(&self, a: &str, b: &str, pos: WnPos) -> Option<(f64, f64)> {
        let sa = self.synsets_of(a, pos);
        let sb = self.synsets_of(b, pos);
        if sa.is_empty() || sb.is_empty() {
            return None;
        }
        let (mut lin, mut wup): (f64, f64) = (0.0, 0.0);
        for &x in sa {
            for &y in sb {
                let (l, w) = self.lin_wup_synsets(x, y);
                lin = lin.max(l);
                wup = wup.max(w);
            }
        }
        Some((lin, wup))
    }

    /// Word-level Lin similarity (see [`lin_wup`](Self::lin_wup)).
    pub fn lin(&self, a: &str, b: &str, pos: WnPos) -> Option<f64> {
        self.lin_wup(a, b, pos).map(|(lin, _)| lin)
    }

    /// Word-level Wu–Palmer similarity (see [`lin_wup`](Self::lin_wup)).
    pub fn wup(&self, a: &str, b: &str, pos: WnPos) -> Option<f64> {
        self.lin_wup(a, b, pos).map(|(_, wup)| wup)
    }

    /// Shortest hypernym-path length between two synsets (edges through the
    /// least common subsumer); `None` when they share no ancestor.
    pub fn path_length(&self, a: SynsetId, b: SynsetId) -> Option<u32> {
        if a == b {
            return Some(0);
        }
        let lcs = self.lcs(a, b)?;
        let up = |from: SynsetId| self.depth(from).saturating_sub(self.depth(lcs));
        Some(up(a) + up(b))
    }

    /// Path similarity `1 / (1 + path_length)` — the third classic
    /// WordNet::Similarity metric, provided for completeness.
    pub fn path(&self, a: &str, b: &str, pos: WnPos) -> Option<f64> {
        self.max_over_senses(a, b, pos, |x, y| {
            self.path_length(x, y)
                .map(|d| 1.0 / (1.0 + d as f64))
                .unwrap_or(0.0)
        })
    }

    fn max_over_senses<F: Fn(SynsetId, SynsetId) -> f64>(
        &self,
        a: &str,
        b: &str,
        pos: WnPos,
        f: F,
    ) -> Option<f64> {
        let sa = self.synsets_of(a, pos);
        let sb = self.synsets_of(b, pos);
        if sa.is_empty() || sb.is_empty() {
            return None;
        }
        let mut best: f64 = 0.0;
        for &x in sa {
            for &y in sb {
                best = best.max(f(x, y));
            }
        }
        Some(best)
    }

    /// The attribute noun of an adjective (`tall` → `height`), as the
    /// paper's JAWS-derived adjective list provides (§2.2.2).
    pub fn attribute_noun(&self, adjective: &str) -> Option<&str> {
        self.attributes.get(&adjective.to_lowercase()).map(String::as_str)
    }

    /// All registered adjective → attribute pairs (for building data-property
    /// candidate lists).
    pub fn attribute_pairs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.attributes.iter().map(|(a, n)| (a.as_str(), n.as_str()))
    }

    /// Depth of a synset from the virtual root.
    pub fn depth(&self, id: SynsetId) -> u32 {
        self.depth[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> WordNet {
        let mut b = WordNetBuilder::new();
        b.synset(&["entity"], WnPos::Noun, &[], 100);
        b.synset(&["person"], WnPos::Noun, &["entity"], 50);
        b.synset(&["writer", "author"], WnPos::Noun, &["person"], 10);
        b.synset(&["poet"], WnPos::Noun, &["writer"], 5);
        b.synset(&["place"], WnPos::Noun, &["entity"], 40);
        b.attribute("tall", "height");
        b.build()
    }

    #[test]
    fn synonyms_share_synset() {
        let wn = tiny();
        assert_eq!(wn.synonyms("writer", WnPos::Noun), vec!["author"]);
        assert_eq!(wn.lin("writer", "author", WnPos::Noun), Some(1.0));
        assert_eq!(wn.wup("writer", "author", WnPos::Noun), Some(1.0));
    }

    #[test]
    fn cumulative_counts_accumulate_upward() {
        let wn = tiny();
        // The root's mass: 100 + 50 + 10 + 5 + 40; the writer's: 10 + 5.
        let writer = wn.synsets_of("writer", WnPos::Noun)[0];
        assert_eq!(wn.information_content(writer), -(15.0f64 / 205.0).ln());
        let place = wn.synsets_of("place", WnPos::Noun)[0];
        assert_eq!(wn.information_content(place), -(40.0f64 / 205.0).ln());
    }

    #[test]
    fn lookup_lowercases_the_word() {
        let wn = tiny();
        let writer = wn.synsets_of("writer", WnPos::Noun);
        assert_eq!(wn.synsets_of("Writer", WnPos::Noun), writer);
        assert_eq!(wn.synsets_of("AUTHOR", WnPos::Noun), writer);
        assert!(wn.synsets_of("Wrïter", WnPos::Noun).is_empty());
    }

    #[test]
    fn ic_decreases_with_generality() {
        let wn = tiny();
        let entity = wn.synsets_of("entity", WnPos::Noun)[0];
        let poet = wn.synsets_of("poet", WnPos::Noun)[0];
        assert!(wn.information_content(entity) < wn.information_content(poet));
        assert_eq!(wn.information_content(entity), 0.0); // root: p = 1
    }

    #[test]
    fn lcs_is_most_specific_common_ancestor() {
        let wn = tiny();
        let poet = wn.synsets_of("poet", WnPos::Noun)[0];
        let writer = wn.synsets_of("writer", WnPos::Noun)[0];
        assert_eq!(wn.lcs(poet, writer), Some(writer));
        let place = wn.synsets_of("place", WnPos::Noun)[0];
        let entity = wn.synsets_of("entity", WnPos::Noun)[0];
        assert_eq!(wn.lcs(poet, place), Some(entity));
    }

    #[test]
    fn closer_pairs_score_higher() {
        let wn = tiny();
        let close = wn.lin("poet", "writer", WnPos::Noun).unwrap();
        let far = wn.lin("poet", "place", WnPos::Noun).unwrap();
        assert!(close > far, "lin: {close} vs {far}");
        let close_w = wn.wup("poet", "writer", WnPos::Noun).unwrap();
        let far_w = wn.wup("poet", "place", WnPos::Noun).unwrap();
        assert!(close_w > far_w, "wup: {close_w} vs {far_w}");
    }

    #[test]
    fn unknown_word_is_none() {
        let wn = tiny();
        assert_eq!(wn.lin("poet", "zzz", WnPos::Noun), None);
        assert_eq!(wn.wup("zzz", "poet", WnPos::Noun), None);
        assert!(wn.synsets_of("poet", WnPos::Verb).is_empty());
    }

    #[test]
    fn attribute_lookup() {
        let wn = tiny();
        assert_eq!(wn.attribute_noun("tall"), Some("height"));
        assert_eq!(wn.attribute_noun("TALL"), Some("height"));
        assert_eq!(wn.attribute_noun("short"), None);
        assert_eq!(wn.attribute_pairs().count(), 1);
    }

    #[test]
    fn depths_count_from_root() {
        let wn = tiny();
        let entity = wn.synsets_of("entity", WnPos::Noun)[0];
        let poet = wn.synsets_of("poet", WnPos::Noun)[0];
        assert_eq!(wn.depth(entity), 1);
        assert_eq!(wn.depth(poet), 4);
    }

    #[test]
    fn path_similarity_tracks_distance() {
        let wn = tiny();
        assert_eq!(wn.path("writer", "author", WnPos::Noun), Some(1.0)); // same synset
        let parent_child = wn.path("poet", "writer", WnPos::Noun).unwrap(); // 1 edge
        assert!((parent_child - 0.5).abs() < 1e-12);
        let across = wn.path("poet", "place", WnPos::Noun).unwrap(); // 3 up + 1 up
        assert!((across - 0.2).abs() < 1e-12);
        assert!(parent_child > across);
        assert_eq!(wn.path("poet", "zzz", WnPos::Noun), None);
    }

    #[test]
    fn path_length_is_symmetric() {
        let wn = tiny();
        let poet = wn.synsets_of("poet", WnPos::Noun)[0];
        let place = wn.synsets_of("place", WnPos::Noun)[0];
        assert_eq!(wn.path_length(poet, place), wn.path_length(place, poet));
        assert_eq!(wn.path_length(poet, poet), Some(0));
    }

    #[test]
    #[should_panic(expected = "dangling hypernym")]
    fn dangling_hypernym_panics() {
        let mut b = WordNetBuilder::new();
        b.synset(&["orphan"], WnPos::Noun, &["ghost"], 1);
    }
}
