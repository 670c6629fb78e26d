//! Entity and property extraction (paper §2.2).
//!
//! Maps the slots of each candidate triple onto the knowledge base:
//!
//! - subjects/objects → entities (with graph-centrality disambiguation,
//!   §2.2.5) or ontology classes (§2.2.4);
//! - verb predicates → object properties by string similarity (§2.2.1),
//!   expanded with WordNet similar-property pairs, plus relational-pattern
//!   candidates with frequency scores (§2.2.3);
//! - noun/adjective predicates → data properties via string similarity and
//!   the WordNet adjective list (§2.2.2).
//!
//! Every candidate records its provenance so ablations can switch sources
//! off and the ranking step can weight them.

use relpat_kb::{normalize_label, KnowledgeBase};
use relpat_patterns::PatternStore;
use relpat_rdf::{Iri, TermId};
use relpat_wordnet::{derived_noun, WnPos, WordNet};
use relpat_obs::fx::FxHashMap;

use crate::similarity::{lcs_score, lcs_score_pre, property_name_score_pre, LcsScratch};
use crate::triples::{PatternTriple, PredKind, PredicateSlot, QuestionAnalysis, SlotTerm};

/// Where a property candidate came from (drives weights and ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateSource {
    /// §2.2.1 / §2.2.2: greatest-common-subsequence similarity.
    StringSimilarity,
    /// §2.2.1: WordNet Lin/Wu–Palmer similar-property pairs.
    WordNetPair,
    /// §2.2.2: adjective → attribute noun (tall → height).
    AdjectiveAttribute,
    /// WordNet derivational link (born → birth → birthDate).
    DerivedNoun,
    /// §2.2.3: relational pattern frequency.
    RelationalPattern,
}

/// One property candidate for a predicate slot.
#[derive(Debug, Clone, PartialEq)]
pub struct PropertyCandidate {
    /// Property local name (`deathPlace`).
    pub property: String,
    /// True for data properties.
    pub is_data: bool,
    /// Direction hint from pattern evidence: `Some(true)` means the
    /// textual subject/object order is inverted relative to the RDF fact.
    pub preferred_inverse: Option<bool>,
    /// Ranking weight (pattern frequency or scaled similarity).
    pub weight: f64,
    pub source: CandidateSource,
}

/// A resolved entity mention: its graph id, IRI and primary label.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedEntity {
    pub id: TermId,
    pub iri: Iri,
    pub label: String,
}

/// A mapped slot.
#[derive(Debug, Clone, PartialEq)]
pub enum MappedSlot {
    Var,
    Entity(ResolvedEntity),
}

/// A fully mapped triple pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum MappedTriple {
    /// `?x rdf:type <Class>`
    Type { class: String },
    /// A relation triple with its candidate properties.
    Relation { subject: MappedSlot, object: MappedSlot, candidates: Vec<PropertyCandidate> },
}

/// Output of the mapping stage.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedQuestion {
    pub triples: Vec<MappedTriple>,
}

/// Knobs for the mapping stage (ablation switches live here).
#[derive(Debug, Clone)]
pub struct MappingConfig {
    pub use_relational_patterns: bool,
    /// Consult *data-property* patterns mined from entity–literal text
    /// (extended system only; the paper's PATTY has object patterns only).
    pub use_data_patterns: bool,
    pub use_wordnet_expansion: bool,
    pub use_centrality: bool,
    /// Acceptance threshold for string similarity (paper normalizes LCS by
    /// word length; we sweep this in ablation A4).
    pub string_sim_threshold: f64,
    /// Fuzzy entity-label acceptance threshold.
    pub entity_sim_threshold: f64,
    /// Keep at most this many pattern candidates per predicate.
    pub max_pattern_candidates: usize,
    /// Route entity/property string-similarity scans through the KB's
    /// prebuilt [`relpat_kb::LexicalIndex`] instead of brute-force label
    /// scans. Candidates are bit-identical either way (the index only
    /// prunes provably below-threshold entries). Only the
    /// `lexical_equivalence` test turns it off, to run the brute-force
    /// scan as its oracle.
    pub use_lexical_index: bool,
}

impl Default for MappingConfig {
    fn default() -> Self {
        MappingConfig {
            use_relational_patterns: true,
            use_data_patterns: false,
            use_wordnet_expansion: true,
            use_centrality: true,
            string_sim_threshold: 0.7,
            entity_sim_threshold: 0.85,
            max_pattern_candidates: 5,
            use_lexical_index: true,
        }
    }
}

/// The mapper: borrows the KB, the lexical database, the pattern store and
/// the precomputed similar-property pairs.
pub struct Mapper<'a> {
    pub kb: &'a KnowledgeBase,
    pub wordnet: &'static WordNet,
    pub patterns: &'a PatternStore,
    pub similar_pairs: &'a FxHashMap<String, Vec<(String, f64)>>,
    pub config: MappingConfig,
}

/// Precomputes the §2.2.1 similar-property list: object-property pairs whose
/// label head words score Lin ≥ 0.75 and Wu–Palmer ≥ 0.85 (the paper's
/// thresholds), with compound modifiers required to match too (so
/// `birth place` ≁ `death place`).
pub fn similar_property_pairs(
    kb: &KnowledgeBase,
    wordnet: &WordNet,
) -> FxHashMap<String, Vec<(String, f64)>> {
    let mut out: FxHashMap<String, Vec<(String, f64)>> = FxHashMap::default();
    let props = &kb.ontology.object_properties;
    // Lin/Wu–Palmer and the modifier check are symmetric, so each unordered
    // pair is scored once and recorded in both directions. Partners still
    // arrive in ascending ontology order for every entry: pairs with a
    // lower-indexed partner are pushed while the outer loop is on that
    // partner, before the entry's own outer iteration pushes the rest.
    for (i, a) in props.iter().enumerate() {
        for b in &props[i + 1..] {
            if let Some(score) = label_pair_similarity(a.label, b.label, wordnet) {
                out.entry(a.name.to_string()).or_default().push((b.name.to_string(), score));
                out.entry(b.name.to_string()).or_default().push((a.name.to_string(), score));
            }
        }
    }
    out
}

fn label_pair_similarity(a: &str, b: &str, wordnet: &WordNet) -> Option<f64> {
    let wa: Vec<&str> = a.split_whitespace().collect();
    let wb: Vec<&str> = b.split_whitespace().collect();
    let (ha, hb) = (*wa.last()?, *wb.last()?);
    let (lin, wup) = wordnet.lin_wup(ha, hb, WnPos::Noun)?;
    if lin < 0.75 || wup < 0.85 {
        return None;
    }
    // Modifier compatibility: both compound or both simple, and compound
    // modifiers must themselves pass the thresholds.
    match (wa.len(), wb.len()) {
        (1, 1) => Some(lin),
        (x, y) if x >= 2 && y >= 2 => {
            let (ma, mb) = (wa[wa.len() - 2], wb[wb.len() - 2]);
            if ma == mb {
                return Some(lin);
            }
            let (mlin, mwup) = wordnet.lin_wup(ma, mb, WnPos::Noun)?;
            if mlin >= 0.75 && mwup >= 0.85 {
                Some(lin * mlin)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// The candidate pools of a question's mentions (subject and object
/// mentions in triple order), each computed when first needed.
struct MentionPools<'q> {
    texts: Vec<&'q str>,
    pools: Vec<Vec<TermId>>,
    computed: Vec<bool>,
}

impl<'q> MentionPools<'q> {
    fn new(analysis: &'q QuestionAnalysis) -> Self {
        let texts: Vec<&str> = analysis
            .triples
            .iter()
            .flat_map(|t| [&t.subject, &t.object])
            .filter_map(|s| match s {
                SlotTerm::Mention { text } => Some(text.as_str()),
                SlotTerm::Var => None,
            })
            .collect();
        let n = texts.len();
        MentionPools { texts, pools: vec![Vec::new(); n], computed: vec![false; n] }
    }

    fn compute(&mut self, mapper: &Mapper<'_>, k: usize) {
        if !self.computed[k] {
            self.pools[k] = mapper.entity_pool(self.texts[k]);
            self.computed[k] = true;
        }
    }
}

impl Mapper<'_> {
    /// Maps an analyzed question. `None` = some slot could not be resolved
    /// (the question is abandoned, paper §3's unprocessed bucket).
    pub fn map(&self, analysis: &QuestionAnalysis) -> Option<MappedQuestion> {
        let mut pools = MentionPools::new(analysis);
        let mut triples = Vec::with_capacity(analysis.triples.len());
        let mut first_pool = 0;
        for t in &analysis.triples {
            triples.push(self.map_triple(t, &mut pools, first_pool)?);
            first_pool += [&t.subject, &t.object]
                .iter()
                .filter(|s| matches!(s, SlotTerm::Mention { .. }))
                .count();
        }
        Some(MappedQuestion { triples })
    }

    /// Maps one triple; its mentions' pools start at `pools[first_pool]`.
    fn map_triple(
        &self,
        triple: &PatternTriple,
        pools: &mut MentionPools<'_>,
        first_pool: usize,
    ) -> Option<MappedTriple> {
        if let Some(class_word) = triple.class_word() {
            let class = self.resolve_class(class_word)?;
            return Some(MappedTriple::Type { class: class.to_string() });
        }
        let object_pool = first_pool + usize::from(matches!(triple.subject, SlotTerm::Mention { .. }));
        let subject = self.map_slot(&triple.subject, pools, first_pool)?;
        let object = self.map_slot(&triple.object, pools, object_pool)?;
        let candidates = match &triple.predicate {
            PredicateSlot::RdfType => return None, // class word was not a mention
            PredicateSlot::Word { text, lemma, kind } => {
                self.property_candidates(text, lemma, *kind)
            }
        };
        if candidates.is_empty() {
            return None;
        }
        Some(MappedTriple::Relation { subject, object, candidates })
    }

    /// Maps a slot; a mention resolves from `pools[pool]`. Only a mention
    /// with two or more candidates reads the other mentions' pools (for
    /// centrality), so only then are they all computed.
    fn map_slot(
        &self,
        slot: &SlotTerm,
        pools: &mut MentionPools<'_>,
        pool: usize,
    ) -> Option<MappedSlot> {
        match slot {
            SlotTerm::Var => Some(MappedSlot::Var),
            SlotTerm::Mention { text } => {
                pools.compute(self, pool);
                if pools.pools[pool].len() >= 2 && self.config.use_centrality {
                    for k in 0..pools.texts.len() {
                        pools.compute(self, k);
                    }
                }
                self.resolve_from_pool(text, &pools.pools[pool], &pools.pools)
                    .map(MappedSlot::Entity)
            }
        }
    }

    // ---------------------------------------------------------------- classes

    /// §2.2.4: class by label, with a fuzzy fallback.
    pub fn resolve_class(&self, word: &str) -> Option<&'static str> {
        if let Some(c) = self.kb.class_with_label(word) {
            return Some(c);
        }
        self.kb
            .ontology
            .classes
            .iter()
            .map(|c| (c.name, lcs_score(word, c.label)))
            .filter(|(_, s)| *s >= 0.8)
            .max_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(name, _)| name)
    }

    // --------------------------------------------------------------- entities

    /// Candidate entities for a mention (exact normalized label, then fuzzy).
    /// The fuzzy scan goes through the lexical index unless the escape-hatch
    /// flag is off; either way the query is normalized (hence lowercased)
    /// once and scored with a shared DP scratch.
    pub fn entity_pool(&self, text: &str) -> Vec<TermId> {
        let exact = self.kb.entities_with_label(text);
        if !exact.is_empty() {
            return exact.to_vec();
        }
        let norm = normalize_label(text);
        let threshold = self.config.entity_sim_threshold;
        let mut scratch = LcsScratch::default();
        let mut scored: Vec<(f64, TermId)> = Vec::new();
        let mut score = |label: &str, ids: &[TermId]| {
            let s = lcs_score_pre(&norm, label, &mut scratch);
            if s >= threshold {
                scored.extend(ids.iter().map(|&id| (s, id)));
            }
        };
        if self.config.use_lexical_index {
            for row in self.kb.lexical().entity_rows(&norm, threshold) {
                let (label, ids) = self.kb.labels().row(row as usize);
                score(label, ids);
            }
        } else {
            for (label, ids) in self.kb.labels_iter() {
                score(label, ids);
            }
        }
        // Equal-score ties break on the IRI so the top-5 truncation is
        // stable regardless of label iteration order.
        let graph = &self.kb.graph;
        scored.sort_by(|(sa, a), (sb, b)| {
            sb.total_cmp(sa).then_with(|| graph.term(*a).cmp(graph.term(*b)))
        });
        scored.into_iter().take(5).map(|(_, id)| id).collect()
    }

    /// §2.2.5: disambiguation by string similarity + page-link centrality.
    /// The centrality terms are (a) links to candidates of the *other*
    /// mentions in the question and (b) a global page-degree prior.
    pub fn resolve_entity(&self, text: &str, pools: &[Vec<TermId>]) -> Option<ResolvedEntity> {
        self.resolve_from_pool(text, &self.entity_pool(text), pools)
    }

    /// [`resolve_entity`](Self::resolve_entity) over the mention's already
    /// computed [`entity_pool`](Self::entity_pool). A single candidate is
    /// the pick whatever it scores, so it is not scored.
    fn resolve_from_pool(
        &self,
        text: &str,
        candidates: &[TermId],
        pools: &[Vec<TermId>],
    ) -> Option<ResolvedEntity> {
        relpat_obs::counter!("qa.map.entity_lookups");
        relpat_obs::counter!("qa.map.entity_candidates", candidates.len() as u64);
        match candidates {
            [] => return None,
            &[id] => return self.resolved(id, self.kb.label_of(id).unwrap_or_default()),
            _ => {}
        }
        let norm = normalize_label(text);
        let max_degree = candidates
            .iter()
            .map(|&c| self.kb.page_degree(c))
            .max()
            .unwrap_or(0)
            .max(1) as f64;
        let mut best: Option<(TermId, &str, f64)> = None;
        for &id in candidates {
            let label = self.kb.label_of(id).unwrap_or_default();
            let sim = lcs_score(&norm, &normalize_label(label));
            let mut score = sim;
            if self.config.use_centrality {
                let degree = self.kb.page_degree(id) as f64 / max_degree;
                let linked = pools
                    .iter()
                    .filter(|pool| !pool.contains(&id)) // other mentions
                    .any(|pool| pool.iter().any(|&p| self.kb.are_linked(id, p)));
                score += 0.3 * degree + 0.5 * f64::from(linked);
            }
            if best.is_none_or(|(_, _, b)| score > b) {
                best = Some((id, label, score));
            }
        }
        let (id, label, _) = best?;
        self.resolved(id, label)
    }

    fn resolved(&self, id: TermId, label: &str) -> Option<ResolvedEntity> {
        let iri = self.kb.graph.term(id).as_iri()?.clone();
        Some(ResolvedEntity { id, iri, label: label.to_string() })
    }

    // -------------------------------------------------------------- properties

    /// All property candidates for a predicate word, per §2.2.1–§2.2.3.
    pub fn property_candidates(
        &self,
        text: &str,
        lemma: &str,
        kind: PredKind,
    ) -> Vec<PropertyCandidate> {
        let mut out: Vec<PropertyCandidate> = Vec::new();
        match kind {
            PredKind::Verb => {
                self.string_sim_object_properties(text, lemma, &mut out);
                self.wordnet_expansion(&mut out);
                self.derived_noun_data_properties(lemma, &mut out);
                self.pattern_candidates(lemma, &mut out);
            }
            PredKind::Noun => {
                self.string_sim_data_properties(text, lemma, &mut out);
                self.string_sim_object_properties(text, lemma, &mut out);
                self.wordnet_expansion(&mut out);
                self.wordnet_noun_properties(lemma, &mut out);
                self.pattern_candidates(lemma, &mut out);
            }
            PredKind::Adjective => {
                if let Some(attr) = self.wordnet.attribute_noun(lemma) {
                    self.data_properties_matching(attr, 10.0, CandidateSource::AdjectiveAttribute, &mut out);
                }
                self.string_sim_data_properties(text, lemma, &mut out);
                // Mined data patterns ("$v meter tall" → height) cover
                // adjectives the curated attribute list misses.
                self.pattern_candidates(lemma, &mut out);
            }
        }
        let out = dedup_candidates(out);
        relpat_obs::counter!("qa.map.slots");
        relpat_obs::counter!("qa.map.candidates", out.len() as u64);
        out
    }

    /// §2.2.1: verbs against object properties by LCS score.
    fn string_sim_object_properties(
        &self,
        text: &str,
        lemma: &str,
        out: &mut Vec<PropertyCandidate>,
    ) {
        self.string_sim_properties(text, lemma, false, out);
    }

    /// §2.2.2: nouns against data properties by LCS score.
    fn string_sim_data_properties(
        &self,
        text: &str,
        lemma: &str,
        out: &mut Vec<PropertyCandidate>,
    ) {
        self.string_sim_properties(text, lemma, true, out);
    }

    /// Shared §2.2.1/§2.2.2 scan: both the word and its lemma against one
    /// property family. The word pair is lowercased once; the lexical index
    /// narrows the family to entries that can clear the threshold, and
    /// survivors are rescored exactly (in ontology order either way).
    fn string_sim_properties(
        &self,
        text: &str,
        lemma: &str,
        is_data: bool,
        out: &mut Vec<PropertyCandidate>,
    ) {
        let threshold = self.config.string_sim_threshold;
        let (text_l, lemma_l) = (text.to_lowercase(), lemma.to_lowercase());
        let mut scratch = LcsScratch::default();
        let mut score_and_push = |name: &str, label: &str| {
            let s = property_name_score_pre(&lemma_l, name, label, &mut scratch)
                .max(property_name_score_pre(&text_l, name, label, &mut scratch));
            if s >= threshold {
                out.push(PropertyCandidate {
                    property: name.to_string(),
                    is_data,
                    preferred_inverse: None,
                    weight: s * 10.0,
                    source: CandidateSource::StringSimilarity,
                });
            }
        };
        if is_data {
            let props = &self.kb.ontology.data_properties;
            if self.config.use_lexical_index {
                let hits =
                    self.kb.lexical().data_property_candidates(&[&lemma_l, &text_l], threshold);
                for i in hits {
                    score_and_push(props[i].name, props[i].label);
                }
            } else {
                for p in props {
                    score_and_push(p.name, p.label);
                }
            }
        } else {
            let props = &self.kb.ontology.object_properties;
            if self.config.use_lexical_index {
                let hits =
                    self.kb.lexical().object_property_candidates(&[&lemma_l, &text_l], threshold);
                for i in hits {
                    score_and_push(props[i].name, props[i].label);
                }
            } else {
                for p in props {
                    score_and_push(p.name, p.label);
                }
            }
        }
    }

    /// Data properties whose name/label matches a given noun near-exactly.
    fn data_properties_matching(
        &self,
        noun: &str,
        weight: f64,
        source: CandidateSource,
        out: &mut Vec<PropertyCandidate>,
    ) {
        let noun_l = noun.to_lowercase();
        let mut scratch = LcsScratch::default();
        let props = &self.kb.ontology.data_properties;
        let mut check_and_push = |name: &str, label: &str| {
            if property_name_score_pre(&noun_l, name, label, &mut scratch) >= 0.9 {
                out.push(PropertyCandidate {
                    property: name.to_string(),
                    is_data: true,
                    preferred_inverse: None,
                    weight,
                    source,
                });
            }
        };
        if self.config.use_lexical_index {
            for i in self.kb.lexical().data_property_candidates(&[&noun_l], 0.9) {
                check_and_push(props[i].name, props[i].label);
            }
        } else {
            for p in props {
                check_and_push(p.name, p.label);
            }
        }
    }

    /// WordNet derivational link: verb → event noun → data property
    /// (`born` → `birth` → `birthDate`). Covers the date questions the
    /// pattern store cannot (it holds object properties only, paper §5).
    fn derived_noun_data_properties(&self, lemma: &str, out: &mut Vec<PropertyCandidate>) {
        if let Some(noun) = derived_noun(lemma) {
            self.data_properties_matching(noun, 8.0, CandidateSource::DerivedNoun, out);
        }
    }

    /// §2.2.1: expand string-similarity seeds with the precomputed
    /// similar-meaning property pairs (writer → author).
    fn wordnet_expansion(&self, out: &mut Vec<PropertyCandidate>) {
        if !self.config.use_wordnet_expansion {
            return;
        }
        let seeds: Vec<(String, f64)> = out
            .iter()
            .filter(|c| !c.is_data && c.source == CandidateSource::StringSimilarity)
            .map(|c| (c.property.clone(), c.weight))
            .collect();
        for (seed, weight) in seeds {
            if let Some(similar) = self.similar_pairs.get(&seed) {
                for (other, score) in similar {
                    out.push(PropertyCandidate {
                        property: other.clone(),
                        is_data: false,
                        preferred_inverse: None,
                        weight: weight * score * 0.8,
                        source: CandidateSource::WordNetPair,
                    });
                }
            }
        }
    }

    /// Noun predicates matched to object-property label heads through
    /// WordNet (wife → spouse) using the paper's thresholds.
    fn wordnet_noun_properties(&self, lemma: &str, out: &mut Vec<PropertyCandidate>) {
        if !self.config.use_wordnet_expansion {
            return;
        }
        for p in &self.kb.ontology.object_properties {
            let head = p.label.split_whitespace().last().unwrap_or(p.label);
            if head == lemma {
                continue; // string similarity already found it
            }
            let Some((lin, wup)) = self.wordnet.lin_wup(lemma, head, WnPos::Noun) else {
                continue;
            };
            if lin >= 0.75 && wup >= 0.85 {
                out.push(PropertyCandidate {
                    property: p.name.to_string(),
                    is_data: false,
                    preferred_inverse: None,
                    weight: lin * 8.0,
                    source: CandidateSource::WordNetPair,
                });
            }
        }
    }

    /// §2.2.3: relational-pattern candidates, frequency-weighted.
    fn pattern_candidates(&self, lemma: &str, out: &mut Vec<PropertyCandidate>) {
        if !self.config.use_relational_patterns {
            return;
        }
        let mut taken = 0usize;
        for c in self.patterns.candidates_for_word(lemma) {
            if c.is_data && !self.config.use_data_patterns {
                continue;
            }
            if taken >= self.config.max_pattern_candidates {
                break;
            }
            taken += 1;
            out.push(PropertyCandidate {
                property: c.property.clone(),
                is_data: c.is_data,
                // Data patterns have a forced orientation (entity → literal);
                // object patterns carry their observed direction.
                preferred_inverse: if c.is_data { None } else { Some(c.inverse) },
                weight: c.freq as f64,
                source: CandidateSource::RelationalPattern,
            });
        }
    }
}

/// Merges duplicate `(property, is_data, preferred_inverse)` candidates,
/// keeping the maximum weight, and sorts by weight descending.
fn dedup_candidates(candidates: Vec<PropertyCandidate>) -> Vec<PropertyCandidate> {
    let mut merged: Vec<PropertyCandidate> = Vec::new();
    for c in candidates {
        match merged.iter_mut().find(|m| {
            m.property == c.property
                && m.is_data == c.is_data
                && m.preferred_inverse == c.preferred_inverse
        }) {
            Some(existing) => {
                if c.weight > existing.weight {
                    existing.weight = c.weight;
                    existing.source = c.source;
                }
            }
            None => merged.push(c),
        }
    }
    merged.sort_by(|a, b| b.weight.total_cmp(&a.weight));
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use relpat_kb::{generate, KbConfig};
    use relpat_patterns::{mine, CorpusConfig};
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

    fn mapper() -> Mapper<'static> {
        let f = fixture();
        Mapper {
            kb: &f.kb,
            wordnet: embedded(),
            patterns: &f.patterns,
            similar_pairs: &f.pairs,
            config: MappingConfig::default(),
        }
    }

    #[test]
    fn similar_pairs_match_naive_double_loop() {
        // The i<j halving must reproduce the full (a,b)+(b,a) grid exactly,
        // including partner order within each entry.
        let f = fixture();
        let wordnet = embedded();
        let mut naive: FxHashMap<String, Vec<(String, f64)>> = FxHashMap::default();
        let props = &f.kb.ontology.object_properties;
        for a in props {
            for b in props {
                if a.name == b.name {
                    continue;
                }
                if let Some(score) = label_pair_similarity(a.label, b.label, wordnet) {
                    naive
                        .entry(a.name.to_string())
                        .or_default()
                        .push((b.name.to_string(), score));
                }
            }
        }
        assert_eq!(similar_property_pairs(&f.kb, wordnet), naive);
    }

    #[test]
    fn similar_pairs_contain_writer_author_but_not_birth_death() {
        let f = fixture();
        let writer = f.pairs.get("writer").map(Vec::as_slice).unwrap_or(&[]);
        assert!(writer.iter().any(|(p, _)| p == "author"), "{writer:?}");
        let birth = f.pairs.get("birthPlace").map(Vec::as_slice).unwrap_or(&[]);
        assert!(!birth.iter().any(|(p, _)| p == "deathPlace"), "{birth:?}");
    }

    #[test]
    fn written_maps_to_writer_and_author() {
        // Paper §2.2.1: Pt("written") = {dbont:writer, dbont:author}.
        let m = mapper();
        let cands = m.property_candidates("written", "write", PredKind::Verb);
        let props: Vec<&str> = cands.iter().map(|c| c.property.as_str()).collect();
        assert!(props.contains(&"writer"), "{props:?}");
        assert!(props.contains(&"author"), "{props:?}");
    }

    #[test]
    fn die_maps_to_death_birth_residence_ranked() {
        // Paper §2.2.3: Pt("die") = {deathPlace, birthPlace, residence} with
        // deathPlace ranked highest by pattern frequency.
        let m = mapper();
        let cands = m.property_candidates("die", "die", PredKind::Verb);
        let top_pattern = cands
            .iter()
            .filter(|c| c.source == CandidateSource::RelationalPattern)
            .max_by(|a, b| a.weight.total_cmp(&b.weight))
            .unwrap();
        assert_eq!(top_pattern.property, "deathPlace");
    }

    #[test]
    fn tall_maps_to_height_via_adjective_list() {
        // Paper §2.2.2: "tall" → dbont:height.
        let m = mapper();
        let cands = m.property_candidates("tall", "tall", PredKind::Adjective);
        assert_eq!(cands[0].property, "height");
        assert!(cands[0].is_data);
        assert_eq!(cands[0].source, CandidateSource::AdjectiveAttribute);
    }

    #[test]
    fn height_noun_maps_to_height_data_property() {
        let m = mapper();
        let cands = m.property_candidates("height", "height", PredKind::Noun);
        assert_eq!(cands[0].property, "height");
        assert!(cands[0].is_data);
    }

    #[test]
    fn population_maps_to_population_total() {
        let m = mapper();
        let cands = m.property_candidates("population", "population", PredKind::Noun);
        assert!(cands.iter().any(|c| c.property == "populationTotal" && c.is_data));
    }

    #[test]
    fn wife_maps_to_spouse_via_wordnet() {
        let m = mapper();
        let cands = m.property_candidates("wife", "wife", PredKind::Noun);
        assert!(
            cands
                .iter()
                .any(|c| c.property == "spouse" && c.source == CandidateSource::WordNetPair),
            "{cands:?}"
        );
    }

    #[test]
    fn born_maps_to_birth_date_via_derivation() {
        let m = mapper();
        let cands = m.property_candidates("born", "bear", PredKind::Verb);
        assert!(
            cands
                .iter()
                .any(|c| c.property == "birthDate" && c.source == CandidateSource::DerivedNoun),
            "{cands:?}"
        );
        // And birthPlace via patterns.
        assert!(cands.iter().any(|c| c.property == "birthPlace"));
    }

    #[test]
    fn alive_has_no_candidates() {
        // Paper §5: neither the property list nor the patterns contain
        // "alive" — the polar question dies here.
        let m = mapper();
        assert!(m.property_candidates("is", "be", PredKind::Verb).is_empty());
        assert!(m.property_candidates("alive", "alive", PredKind::Adjective).is_empty());
    }

    #[test]
    fn entity_resolution_exact_label() {
        let m = mapper();
        let e = m.resolve_entity("Orhan Pamuk", &[]).unwrap();
        assert!(e.iri.as_str().ends_with("Orhan_Pamuk"));
        assert_eq!(e.label, "Orhan Pamuk");
    }

    #[test]
    fn michael_jordan_disambiguates_to_athlete_by_centrality() {
        let m = mapper();
        let e = m.resolve_entity("Michael Jordan", &[]).unwrap();
        let athlete = m.kb.ontology.class_id("Athlete").unwrap();
        assert!(m.kb.is_instance_of(e.id, athlete), "picked {}", e.iri.as_str());
    }

    #[test]
    fn centrality_off_changes_nothing_for_unambiguous_mentions() {
        let f = fixture();
        let m = Mapper {
            config: MappingConfig { use_centrality: false, ..MappingConfig::default() },
            kb: &f.kb,
            wordnet: embedded(),
            patterns: &f.patterns,
            similar_pairs: &f.pairs,
        };
        let e = m.resolve_entity("Abraham Lincoln", &[]).unwrap();
        assert!(e.iri.as_str().ends_with("Abraham_Lincoln"));
    }

    #[test]
    fn unknown_mention_resolves_to_none() {
        let m = mapper();
        assert!(m.resolve_entity("Zorblax the Unknowable", &[]).is_none());
    }

    #[test]
    fn class_resolution() {
        let m = mapper();
        assert_eq!(m.resolve_class("book"), Some("Book"));
        assert_eq!(m.resolve_class("film"), Some("Film"));
        assert_eq!(m.resolve_class("city"), Some("City"));
        assert_eq!(m.resolve_class("spaceship"), None);
    }

    #[test]
    fn end_to_end_mapping_of_figure1() {
        let m = mapper();
        let analysis =
            crate::triples::extract(&relpat_nlp::parse_sentence("Which book is written by Orhan Pamuk?"))
                .unwrap();
        let mapped = m.map(&analysis).unwrap();
        assert_eq!(mapped.triples.len(), 2);
        assert!(matches!(&mapped.triples[0], MappedTriple::Type { class } if class == "Book"));
        match &mapped.triples[1] {
            MappedTriple::Relation { subject, object, candidates } => {
                assert_eq!(subject, &MappedSlot::Var);
                assert!(matches!(object, MappedSlot::Entity(e) if e.label == "Orhan Pamuk"));
                assert!(candidates.iter().any(|c| c.property == "author"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mapping_fails_cleanly_for_unknown_entity() {
        let m = mapper();
        let analysis = crate::triples::extract(&relpat_nlp::parse_sentence(
            "Who directed Zorblax?",
        ))
        .unwrap();
        assert!(m.map(&analysis).is_none());
    }

    #[test]
    fn patterns_off_drops_pattern_candidates() {
        let f = fixture();
        let m = Mapper {
            config: MappingConfig {
                use_relational_patterns: false,
                ..MappingConfig::default()
            },
            kb: &f.kb,
            wordnet: embedded(),
            patterns: &f.patterns,
            similar_pairs: &f.pairs,
        };
        let cands = m.property_candidates("die", "die", PredKind::Verb);
        assert!(cands
            .iter()
            .all(|c| c.source != CandidateSource::RelationalPattern));
    }

    #[test]
    fn dedup_keeps_max_weight() {
        let c = |w: f64, src| PropertyCandidate {
            property: "author".into(),
            is_data: false,
            preferred_inverse: None,
            weight: w,
            source: src,
        };
        let merged = dedup_candidates(vec![
            c(3.0, CandidateSource::StringSimilarity),
            c(9.0, CandidateSource::WordNetPair),
        ]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].weight, 9.0);
        assert_eq!(merged[0].source, CandidateSource::WordNetPair);
    }
}
