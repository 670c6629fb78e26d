//! Pattern extraction: mention detection, normalization, distant supervision.
//!
//! Follows PATTY's first stage (paper §2.2.3): find sentences containing two
//! knowledge-base entities, lift the connecting text as a *relational
//! pattern*, normalize it, and label it with every property that holds
//! between the pair in the KB (distant supervision). Ambiguous mentions
//! contribute through every reading that matches a fact, which is exactly
//! how noisy patterns (and PATTY's `born in` / `deathPlace` artifact) arise.
//!
//! Everything after tokenization runs in id space: mentions resolve to graph
//! [`TermId`]s once, through a trie of label words; each candidate pair costs
//! one `(e1, ?, e2)` and one `(e2, ?, e1)` probe; occurrences name their
//! pattern by an interned id and their property by the ontology's
//! `&'static str`.

use std::rc::Rc;

use relpat_kb::{KnowledgeBase, LabelTable};
use relpat_nlp::{tag, tokenize, PosTag};
use relpat_obs::fx::FxHashMap;
use relpat_rdf::vocab::dbont;
use relpat_rdf::{Graph, IdPattern, Term, TermId};

use crate::corpus::Sentence;

/// One supervised pattern occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occurrence {
    /// Id of the normalized pattern text in the owning [`Occurrences`]
    /// (`"bear in"`, `"capital of"`; data patterns mark the literal
    /// position with `$v`, as in `"$v meter tall"`).
    pub pattern: u32,
    /// Property local name the pair supports (`birthPlace`).
    pub property: &'static str,
    /// True when the textual order is object-then-subject relative to the
    /// RDF fact (`{O} wrote {S}` → the `author` fact runs S→O in RDF).
    pub inverse: bool,
    /// True for data-property patterns (entity–literal, not entity–entity).
    pub is_data: bool,
    /// The supporting entity pair as graph term ids, in textual order (for
    /// data patterns the second element is the subject again; support sets
    /// still distinguish facts).
    pub pair: (TermId, TermId),
}

/// Extraction output: occurrences in corpus order, plus the distinct
/// pattern texts they name. Pattern ids are handed out by [`push`], so they
/// number patterns in order of first occurrence.
///
/// [`push`]: Occurrences::push
#[derive(Debug, Default, Clone)]
pub struct Occurrences {
    patterns: Vec<String>,
    ids: FxHashMap<String, u32>,
    list: Vec<Occurrence>,
}

impl Occurrences {
    /// Appends an occurrence of `pattern`, interning the text.
    pub fn push(
        &mut self,
        pattern: &str,
        property: &'static str,
        inverse: bool,
        is_data: bool,
        pair: (TermId, TermId),
    ) {
        let pattern = match self.ids.get(pattern) {
            Some(&id) => id,
            None => {
                let id = self.patterns.len() as u32;
                self.patterns.push(pattern.to_string());
                self.ids.insert(pattern.to_string(), id);
                id
            }
        };
        self.list.push(Occurrence { pattern, property, inverse, is_data, pair });
    }

    /// The text of pattern `id`.
    pub fn pattern(&self, id: u32) -> &str {
        &self.patterns[id as usize]
    }

    /// Distinct pattern texts, indexed by [`Occurrence::pattern`].
    pub fn patterns(&self) -> &[String] {
        &self.patterns
    }

    /// Occurrences in extraction order.
    pub fn iter(&self) -> std::slice::Iter<'_, Occurrence> {
        self.list.iter()
    }

    pub fn len(&self) -> usize {
        self.list.len()
    }

    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }
}

/// An entity mention in a token stream: tokens `start..end` name every
/// entity in `entities` (all readings of an ambiguous label).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mention<'d> {
    pub start: usize,
    /// Exclusive.
    pub end: usize,
    pub entities: &'d [TermId],
}

/// Node 0 is the root.
const ROOT: u32 = 0;

/// Detects KB-entity mentions by longest-match label lookup, walking a trie
/// of lowercased label words built once over the KB's label-table rows (a
/// node keeps its row number; the entities stay in the table).
///
/// A span matches the label key its words normalize to. Looking a span up
/// normalizes it twice (once by the caller, once by
/// [`KnowledgeBase::entities_with_label`]), so up to two leading articles
/// (`the`/`a`/`an`) are dropped, each only while a word follows it. The walk
/// reproduces that: it starts past the leading articles, and a span made
/// only of articles looks up its last one.
pub struct MentionDetector<'kb> {
    table: &'kb LabelTable,
    /// Lowercased label word → word id.
    words: FxHashMap<String, u32>,
    /// `(node, word id)` → child node.
    edges: FxHashMap<(u32, u32), u32>,
    /// Per node: the label-table row whose key ends there, or [`NO_ROW`].
    rows: Vec<u32>,
    /// Longest label in words, plus one for a leading article.
    max_label_tokens: usize,
}

/// A trie node no label key ends at.
const NO_ROW: u32 = u32::MAX;

impl<'kb> MentionDetector<'kb> {
    pub fn new(kb: &'kb KnowledgeBase) -> Self {
        let mut detector = MentionDetector {
            table: kb.labels(),
            words: FxHashMap::default(),
            edges: FxHashMap::default(),
            rows: vec![NO_ROW],
            max_label_tokens: 1,
        };
        for (row, (key, _)) in kb.labels_iter().enumerate() {
            let mut node = ROOT;
            let mut len = 0;
            for word in key.split_whitespace() {
                len += 1;
                let next_word = detector.words.len() as u32;
                let w = *detector.words.entry(word.to_string()).or_insert(next_word);
                let next_node = detector.rows.len() as u32;
                node = *detector.edges.entry((node, w)).or_insert(next_node);
                if node == next_node {
                    detector.rows.push(NO_ROW);
                }
            }
            detector.max_label_tokens = detector.max_label_tokens.max(len + 1);
            if node == ROOT {
                continue; // an empty key is never looked up
            }
            detector.rows[node as usize] = row as u32;
        }
        detector
    }

    /// The entities whose label key ends at `node`.
    fn entities_at(&self, node: u32) -> Option<&'kb [TermId]> {
        let row = self.rows[node as usize];
        (row != NO_ROW).then(|| self.table.entities(row as usize))
    }

    /// Finds non-overlapping mentions, longest-first greedy left-to-right.
    pub fn detect(&self, tokens: &[String]) -> Vec<Mention<'kb>> {
        // Per token: its label-word id (if any label uses it) and whether it
        // is an article.
        let words: Vec<(Option<u32>, bool)> = tokens
            .iter()
            .map(|t| {
                let lower = t.to_lowercase();
                let article = matches!(lower.as_str(), "the" | "a" | "an");
                (self.words.get(&lower).copied(), article)
            })
            .collect();
        let mut mentions = Vec::new();
        let mut i = 0;
        while i < words.len() {
            match self.longest_at(&words, i) {
                Some((end, entities)) => {
                    mentions.push(Mention { start: i, end, entities });
                    i = end;
                }
                None => i += 1,
            }
        }
        mentions
    }

    /// The longest labelled span starting at token `i`: its end and entities.
    fn longest_at(&self, words: &[(Option<u32>, bool)], i: usize) -> Option<(usize, &'kb [TermId])> {
        let max_j = (i + self.max_label_tokens).min(words.len());
        let articles = words[i..max_j].iter().take(2).take_while(|w| w.1).count();
        let mut best = None;
        let mut node = ROOT;
        for (j, &(word, _)) in words.iter().enumerate().take(max_j).skip(i + articles) {
            let Some(&next) = word.and_then(|w| self.edges.get(&(node, w))) else { break };
            node = next;
            if let Some(entities) = self.entities_at(node) {
                best = Some((j + 1, entities));
            }
        }
        if best.is_some() {
            return best;
        }
        // Only articles: "the a" is looked up as "a", "the" as "the".
        (0..articles).rev().find_map(|k| {
            let node = words[i + k].0.and_then(|w| self.edges.get(&(ROOT, w)))?;
            Some((i + k + 1, self.entities_at(*node)?))
        })
    }
}

/// Normalizes the connecting text of a pattern: lemmatize, drop
/// determiners/adverbs/auxiliaries/punctuation, keep content words and
/// prepositions. `"was born in"` → `"bear in"`, `"is the capital of"` →
/// `"capital of"`.
pub fn normalize_pattern(words: &[String]) -> String {
    let tagged = tag(words);
    let mut kept: Vec<String> = Vec::new();
    for t in &tagged {
        let lower = t.lower();
        // Auxiliaries and light "have" carry no relational content; keeping
        // "have" would make it the strongest word of patterns like
        // "has a population of", polluting the word index.
        if relpat_nlp::is_be_form(&lower)
            || relpat_nlp::is_do_form(&lower)
            || relpat_nlp::is_have_form(&lower)
        {
            continue;
        }
        match t.pos {
            PosTag::Dt | PosTag::Rb | PosTag::Punct | PosTag::Md | PosTag::Pos
            | PosTag::Prp | PosTag::PrpPoss => {}
            _ => kept.push(t.lemma.clone()),
        }
    }
    kept.join(" ")
}

/// [`normalize_pattern`] memoized per distinct token slice: a corpus repeats
/// a few hundred connecting phrases across tens of thousands of sentences.
#[derive(Default)]
struct PatternMemo(FxHashMap<Vec<String>, Rc<str>>);

impl PatternMemo {
    fn get(&mut self, words: &[String]) -> Rc<str> {
        if let Some(pattern) = self.0.get(words) {
            return pattern.clone();
        }
        let pattern: Rc<str> = normalize_pattern(words).into();
        self.0.insert(words.to_vec(), pattern.clone());
        pattern
    }
}

/// Distant supervision over graph ids: which ontology properties hold
/// between two entities, or between an entity and a literal.
struct Supervisor<'kb> {
    graph: &'kb Graph,
    /// Object properties in ontology order, with their predicate ids (`None`
    /// when the graph has no such fact at all).
    object_props: Vec<(&'static str, Option<TermId>)>,
    data_props: Vec<(&'static str, Option<TermId>)>,
    /// Predicates found by the current probes, reused across calls
    /// (`forward` also collects a data probe's matches).
    forward: Vec<TermId>,
    inverse: Vec<TermId>,
}

impl<'kb> Supervisor<'kb> {
    fn new(kb: &'kb KnowledgeBase) -> Self {
        let id = |name: &str| kb.graph.term_id(&Term::iri(dbont::iri(name)));
        Supervisor {
            graph: &kb.graph,
            object_props: kb
                .ontology
                .object_properties
                .iter()
                .map(|p| (p.name, id(p.name)))
                .collect(),
            data_props: kb.ontology.data_properties.iter().map(|p| (p.name, id(p.name))).collect(),
            forward: Vec::new(),
            inverse: Vec::new(),
        }
    }

    /// Predicates linking `s` to `o`: one OSP-routed probe.
    fn predicates(graph: &Graph, s: TermId, o: TermId, out: &mut Vec<TermId>) {
        out.clear();
        let pattern = IdPattern { subject: Some(s), predicate: None, object: Some(o) };
        out.extend(graph.scan_iter(pattern).map(|(_, p, _)| p));
    }

    /// Calls `emit(property, inverse)` for each object property holding
    /// between textual pair `(e1, e2)`: forward (`e1 p e2`) then inverse
    /// (`e2 p e1`) per property, in ontology order.
    fn object_facts(
        &mut self,
        (e1, e2): (TermId, TermId),
        mut emit: impl FnMut(&'static str, bool),
    ) {
        Self::predicates(self.graph, e1, e2, &mut self.forward);
        Self::predicates(self.graph, e2, e1, &mut self.inverse);
        if self.forward.is_empty() && self.inverse.is_empty() {
            return;
        }
        for &(name, id) in &self.object_props {
            let Some(id) = id else { continue };
            if self.forward.contains(&id) {
                emit(name, false);
            }
            if self.inverse.contains(&id) {
                emit(name, true);
            }
        }
    }

    /// Calls `emit(property)` for each data property of `entity` with a
    /// literal whose lexical form is `token`, in ontology order.
    fn data_facts(&mut self, entity: TermId, token: &str, mut emit: impl FnMut(&'static str)) {
        self.forward.clear();
        let pattern = IdPattern { subject: Some(entity), predicate: None, object: None };
        for (_, p, o) in self.graph.scan_iter(pattern) {
            if self.data_props.iter().any(|&(_, id)| id == Some(p))
                && self.graph.term(o).as_literal().is_some_and(|l| l.lexical_form() == token)
            {
                self.forward.push(p);
            }
        }
        for &(name, id) in &self.data_props {
            if id.is_some_and(|id| self.forward.contains(&id)) {
                emit(name);
            }
        }
    }
}

/// Extracts supervised pattern occurrences from a corpus.
pub fn extract_occurrences(kb: &KnowledgeBase, corpus: &[Sentence]) -> Occurrences {
    let mut extractor = Extractor::new(kb);
    corpus.iter().for_each(|sentence| extractor.add(sentence));
    extractor.finish()
}

/// Extraction over a stream of sentences: each sentence's occurrences are
/// recorded as it is added, so a caller that synthesizes the corpus one
/// sentence at a time never holds it whole.
pub(crate) struct Extractor<'kb> {
    detector: MentionDetector<'kb>,
    supervisor: Supervisor<'kb>,
    memo: PatternMemo,
    out: Occurrences,
}

impl<'kb> Extractor<'kb> {
    pub(crate) fn new(kb: &'kb KnowledgeBase) -> Self {
        Extractor {
            detector: MentionDetector::new(kb),
            supervisor: Supervisor::new(kb),
            memo: PatternMemo::default(),
            out: Occurrences::default(),
        }
    }

    /// Records the occurrences of one sentence.
    pub(crate) fn add(&mut self, sentence: &Sentence) {
        let tokens = tokenize(&sentence.text);
        let mentions = self.detector.detect(&tokens);
        // Consider consecutive mention pairs only (PATTY's shortest-path
        // restriction; our sentences have exactly two mentions anyway).
        for window in mentions.windows(2) {
            let (m1, m2) = (&window[0], &window[1]);
            if m2.start <= m1.end {
                continue;
            }
            let between = &tokens[m1.end..m2.start];
            if between.is_empty() || between.len() > 6 {
                continue;
            }
            let pattern = self.memo.get(between);
            if pattern.is_empty() {
                continue;
            }
            for &e1 in m1.entities {
                for &e2 in m2.entities {
                    self.supervisor.object_facts((e1, e2), |property, inverse| {
                        self.out.push(&pattern, property, inverse, false, (e1, e2));
                    });
                }
            }
        }

        // Data patterns: one entity mention + one literal-looking token.
        extract_data_occurrences(
            &mut self.supervisor,
            &tokens,
            &mentions,
            &mut self.memo,
            &mut self.out,
        );
    }

    /// The occurrences of every sentence added, in order.
    pub(crate) fn finish(self) -> Occurrences {
        self.out
    }
}

/// A token that could be a literal value: a decimal number (`42`, `-3`,
/// `1.98`) or an ISO `YYYY-MM-DD` date.
fn is_literal_token(token: &str) -> bool {
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    let unsigned = token.strip_prefix('-').unwrap_or(token);
    let decimal = match unsigned.split_once('.') {
        Some((int, frac)) => digits(int) && digits(frac),
        None => digits(unsigned),
    };
    let date = token.len() == 10
        && token.bytes().enumerate().all(|(i, b)| match i {
            4 | 7 => b == b'-',
            _ => b.is_ascii_digit(),
        });
    decimal || date
}

/// Lifts entity–literal patterns: the connecting text plus up to three
/// normalized context words after the value, with the value position marked
/// `$v` (`"X is 1.98 meters tall"` → `"$v meter tall"`). Supervised against
/// data-property facts whose lexical form equals the token.
fn extract_data_occurrences(
    supervisor: &mut Supervisor<'_>,
    tokens: &[String],
    mentions: &[Mention<'_>],
    memo: &mut PatternMemo,
    out: &mut Occurrences,
) {
    for m in mentions {
        for (li, token) in tokens.iter().enumerate() {
            if (m.start..m.end).contains(&li) || !is_literal_token(token) {
                continue;
            }
            let pattern = if li >= m.end {
                if li - m.end > 6 {
                    continue;
                }
                let prefix = memo.get(&tokens[m.end..li]);
                let tail_end = (li + 4).min(tokens.len());
                let suffix = memo.get(&tokens[li + 1..tail_end]);
                join_data_pattern(&prefix, &suffix)
            } else {
                if m.start - li > 6 {
                    continue;
                }
                let between = memo.get(&tokens[li + 1..m.start]);
                if between.is_empty() {
                    continue;
                }
                format!("$v {between}")
            };
            if pattern == "$v" {
                continue;
            }
            for &entity in m.entities {
                supervisor.data_facts(entity, token, |property| {
                    out.push(&pattern, property, false, true, (entity, entity));
                });
            }
        }
    }
}

fn join_data_pattern(prefix: &str, suffix: &str) -> String {
    match (prefix.is_empty(), suffix.is_empty()) {
        (true, true) => "$v".to_string(),
        (true, false) => format!("$v {suffix}"),
        (false, true) => format!("{prefix} $v"),
        (false, false) => format!("{prefix} $v {suffix}"),
    }
}

/// Dense ids for entity pairs, in first-interned order (used by the
/// support-set prefix tree).
#[derive(Debug, Default)]
pub struct PairInterner {
    ids: FxHashMap<(TermId, TermId), u32>,
    pairs: Vec<(TermId, TermId)>,
}

impl PairInterner {
    pub fn intern(&mut self, pair: (TermId, TermId)) -> u32 {
        let next = self.pairs.len() as u32;
        let id = *self.ids.entry(pair).or_insert(next);
        if id == next {
            self.pairs.push(pair);
        }
        id
    }

    /// Interned pairs, indexed by id.
    pub fn pairs(&self) -> &[(TermId, TermId)] {
        &self.pairs
    }

    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{generate_corpus, CorpusConfig};
    use relpat_kb::{generate, KbConfig};

    fn kb() -> KnowledgeBase {
        generate(&KbConfig::tiny())
    }

    fn iri(kb: &KnowledgeBase, id: TermId) -> &str {
        kb.graph.term(id).as_iri().unwrap().as_str()
    }

    #[test]
    fn normalization_examples() {
        let norm = |s: &str| normalize_pattern(&tokenize(s));
        assert_eq!(norm("was born in"), "bear in");
        assert_eq!(norm("is the capital of"), "capital of");
        assert_eq!(norm("died at"), "die at");
        assert_eq!(norm("is married to"), "marry to");
        assert_eq!(norm("wrote"), "write");
        assert_eq!(norm("is a book by"), "book by");
        assert_eq!(norm("was directed by"), "direct by");
    }

    #[test]
    fn pattern_memo_agrees_with_normalize_pattern() {
        let mut memo = PatternMemo::default();
        for s in ["was born in", "is the capital of", "was born in", "wrote"] {
            let words = tokenize(s);
            assert_eq!(&*memo.get(&words), normalize_pattern(&words));
        }
        assert_eq!(memo.0.len(), 3);
    }

    #[test]
    fn mention_detection_finds_paper_entities() {
        let kb = kb();
        let detector = MentionDetector::new(&kb);
        let tokens = tokenize("Snow was written by Orhan Pamuk.");
        let mentions = detector.detect(&tokens);
        assert_eq!(mentions.len(), 2);
        assert_eq!(mentions[0].entities.len(), 1);
        assert!(iri(&kb, mentions[1].entities[0]).ends_with("Orhan_Pamuk"));
    }

    #[test]
    fn mention_detection_handles_articles_and_multiword() {
        let kb = kb();
        let detector = MentionDetector::new(&kb);
        let tokens = tokenize("Orhan Pamuk wrote The Museum of Innocence.");
        let mentions = detector.detect(&tokens);
        assert_eq!(mentions.len(), 2);
        assert_eq!(mentions[1].end - mentions[1].start, 4);
    }

    #[test]
    fn ambiguous_mention_lists_all_candidates() {
        let kb = kb();
        let detector = MentionDetector::new(&kb);
        let tokens = tokenize("Michael Jordan lives here.");
        let mentions = detector.detect(&tokens);
        assert_eq!(mentions[0].entities.len(), 2);
    }

    #[test]
    fn distant_supervision_labels_author_patterns() {
        let kb = kb();
        let corpus = vec![Sentence { text: "Snow was written by Orhan Pamuk.".into() }];
        let occ = extract_occurrences(&kb, &corpus);
        assert!(
            occ.iter().any(|o| o.property == "author"
                && occ.pattern(o.pattern) == "write by"
                && !o.inverse),
            "got {occ:?}"
        );
    }

    #[test]
    fn inverse_direction_detected() {
        let kb = kb();
        let corpus = vec![Sentence { text: "Orhan Pamuk wrote Snow.".into() }];
        let occ = extract_occurrences(&kb, &corpus);
        // Textual order (Pamuk, Snow) but the fact is Snow→author→Pamuk.
        assert!(occ.iter().any(|o| o.property == "author" && o.inverse));
    }

    #[test]
    fn full_corpus_extraction_yields_many_occurrences() {
        let kb = kb();
        let corpus = generate_corpus(&kb, &CorpusConfig::default());
        let occ = extract_occurrences(&kb, &corpus);
        assert!(occ.len() > 200, "only {} occurrences", occ.len());
        // Core paper pattern: "die in" supports deathPlace.
        assert!(occ
            .iter()
            .any(|o| occ.pattern(o.pattern) == "die in" && o.property == "deathPlace"));
        // And the noise: some "bear in/at" occurrence supports deathPlace
        // (possible because of injected confusions or co-located facts) —
        // at minimum birthPlace support must dominate.
        let bear_birth = occ
            .iter()
            .filter(|o| occ.pattern(o.pattern).starts_with("bear") && o.property == "birthPlace")
            .count();
        assert!(bear_birth > 0);
    }

    #[test]
    fn pattern_ids_follow_first_occurrence() {
        let mut occ = Occurrences::default();
        let pair = (TermId(1), TermId(2));
        occ.push("die in", "deathPlace", false, false, pair);
        occ.push("bear in", "birthPlace", false, false, pair);
        occ.push("die in", "deathPlace", false, false, pair);
        let ids: Vec<u32> = occ.iter().map(|o| o.pattern).collect();
        assert_eq!(ids, [0, 1, 0]);
        assert_eq!(occ.patterns(), ["die in", "bear in"]);
    }

    #[test]
    fn literal_tokens_are_decimals_or_iso_dates() {
        for t in ["42", "-3", "1.98", "0.5", "1961-08-04"] {
            assert!(is_literal_token(t), "{t}");
        }
        for t in [
            "NaN", "nan", "inf", "-inf", "Infinity", "1e5", "+3", "1.", ".5", "1.2.3", "-",
            "abcd-ef-gh", "1961-8-04x", "19610-8-04", "", "tall",
        ] {
            assert!(!is_literal_token(t), "{t}");
        }
    }

    #[test]
    fn pair_interner_is_stable() {
        let mut pi = PairInterner::default();
        let a = (TermId(7), TermId(9));
        let b = (TermId(9), TermId(7));
        assert_eq!(pi.intern(a), 0);
        assert_eq!(pi.intern(b), 1);
        assert_eq!(pi.intern(a), 0);
        assert_eq!(pi.len(), 2);
        assert_eq!(pi.pairs(), [a, b]);
    }
}
