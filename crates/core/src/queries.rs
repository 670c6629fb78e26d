//! Candidate query construction (paper §2.3) as ranked query *planning*.
//!
//! The paper builds the full cartesian product of property-candidate
//! assignments over the mapped triples into concrete SPARQL queries, each
//! carrying a ranking score (the product of its predicates' weights,
//! §2.3.1). Both orientations of every relation are considered; the
//! ontology's domain/range declarations prune inconsistent ones, and
//! pattern-evidence direction hints dampen the disfavored orientation.
//!
//! This module replaces the blow-up-then-truncate product with a ranked
//! **beam/lattice search** over the per-triple option sets
//! ([`PlannerStrategy::Beam`], the default): assignments are expanded
//! best-first from a frontier priority queue ordered by an admissible
//! upper bound on every completion's score, so the search returns the
//! *exact* top-`max` assignments of the full product without materializing
//! it. Rendered triple-line fragments are shared across beam states — each
//! option's SPARQL line and the fixed-line prefix are rendered once and
//! reused by every assignment that selects them.
//!
//! The original cartesian builder is kept as the differential reference
//! ([`PlannerStrategy::CartesianExhaustive`]). Its historical bug — mid-fold
//! truncation by *partial* score, which could silently drop a combination
//! whose later weights would have ranked it on top — is fixed by truncating
//! on final scores only (see DESIGN.md §14 for the post-mortem).

use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use relpat_kb::{ClassSet, KnowledgeBase, PropertyId};
use relpat_rdf::vocab::{dbont, rdf};
use relpat_rdf::{Iri, Term};
use relpat_sparql::ast::{AskQuery, GraphPattern, Projection, Query, SelectQuery, TriplePattern};

use crate::mapping::{MappedQuestion, MappedSlot, MappedTriple, PropertyCandidate};
use crate::triples::QuestionAnalysis;

/// A concrete candidate query with its ranking score: the `query` the
/// answer stage executes, and its SPARQL text for responses and traces
/// (`parse_query(&sparql) == Ok(query)`).
#[derive(Debug, Clone, PartialEq)]
pub struct BuiltQuery {
    pub sparql: String,
    pub query: Query,
    pub score: f64,
}

/// How candidate assignments are searched (§2.3 / ROADMAP item 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlannerStrategy {
    /// Exact top-`max` best-first frontier search over the assignment
    /// lattice. Never enumerates more states than needed to *prove* the
    /// ranking; worst case (all scores tied or NaN) degenerates to the full
    /// product.
    #[default]
    Beam,
    /// The paper's full cartesian product, truncated to `max` on final
    /// scores only. Exact by construction; exponential in relation-triple
    /// count. Kept as the differential reference for the beam planner.
    CartesianExhaustive,
}

impl PlannerStrategy {
    /// Short label used in traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            PlannerStrategy::Beam => "beam",
            PlannerStrategy::CartesianExhaustive => "cartesian",
        }
    }
}

/// What the planner did for one question (feeds the per-question
/// [`relpat_obs::QuestionTrace`] and the global `qa.plan.*` counters).
///
/// Semantics per strategy — `Beam`: `expanded` counts frontier states
/// popped and branched, `pruned` counts states generated but still in the
/// frontier when the search proved the top-`max` (never explored),
/// `emitted` counts the queries returned. `CartesianExhaustive`:
/// `expanded` counts partial and complete combinations materialized by the
/// fold, `pruned` counts full combinations discarded by the final
/// truncation, `emitted` counts the queries returned. Either way `emitted`
/// is counted after adjacent duplicate assignments are dropped, so it is
/// the length of the returned list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    pub expanded: u64,
    pub pruned: u64,
    pub emitted: u64,
}

/// One triple of the candidate queries — a resolved relation option or the
/// type constraint — as its SPARQL `line` and its AST `pattern`.
#[derive(Debug)]
struct TripleParts {
    line: String,
    pattern: TriplePattern,
}

/// One resolved relation triple option (property + orientation). Its parts
/// are built when the first emitted assignment selects it and shared by
/// every later one; an option no emitted assignment selects builds none.
#[derive(Debug)]
struct TripleOption<'a> {
    subject: &'a MappedSlot,
    property: PropertyId,
    /// The property's term, built once by the ontology.
    predicate: &'a Term,
    object: &'a MappedSlot,
    weight: f64,
    parts: OnceCell<TripleParts>,
}

impl TripleOption<'_> {
    fn parts(&self) -> &TripleParts {
        self.parts.get_or_init(|| {
            TripleParts::new(
                slot_term(self.subject),
                self.predicate.clone(),
                slot_term(self.object),
            )
        })
    }

    /// True if both options write the same triple, hence the same line.
    fn same_triple(&self, other: &TripleOption<'_>) -> bool {
        self.property == other.property
            && slot_iri(self.subject) == slot_iri(other.subject)
            && slot_iri(self.object) == slot_iri(other.object)
    }
}

/// Builds ranked candidate queries with the default [`PlannerStrategy::Beam`]
/// planner. Returns at most `max` queries, highest score first.
pub fn build_queries(
    kb: &KnowledgeBase,
    analysis: &QuestionAnalysis,
    mapped: &MappedQuestion,
    max: usize,
) -> Vec<BuiltQuery> {
    build_queries_planned(kb, analysis, mapped, max, PlannerStrategy::Beam).0
}

/// [`build_queries`] with an explicit strategy, returning the planner's
/// [`PlanStats`] alongside the ranked queries. Both strategies produce the
/// identical query list (the differential guarantee CI enforces via the
/// `planning_equivalence` gate); only the work done to find it differs.
pub fn build_queries_planned(
    kb: &KnowledgeBase,
    analysis: &QuestionAnalysis,
    mapped: &MappedQuestion,
    max: usize,
    strategy: PlannerStrategy,
) -> (Vec<BuiltQuery>, PlanStats) {
    let max = max.max(1);
    let mut fixed: Vec<TripleParts> = Vec::new();
    let mut option_sets: Vec<Vec<TripleOption>> = Vec::new();
    // The variable's class constraint from the first Type triple, used for
    // domain/range checks: no constraint admits every class.
    let var_classes = mapped.triples.iter().find_map(|t| match t {
        MappedTriple::Type { class } => Some(kb.ontology.class_set(kb.ontology.class_id(class))),
        _ => None,
    });
    let slot_classes = |slot: &MappedSlot| match slot {
        MappedSlot::Var => var_classes.unwrap_or_default(),
        MappedSlot::Entity(e) => kb.entity_classes(e.id),
    };

    for triple in &mapped.triples {
        match triple {
            MappedTriple::Type { class } => {
                fixed.push(TripleParts::new(
                    Term::var("x"),
                    Term::iri(rdf::TYPE),
                    Term::iri(dbont::iri(class)),
                ));
            }
            MappedTriple::Relation { subject, object, candidates } => {
                let classes = (slot_classes(subject), slot_classes(object));
                let mut options = Vec::new();
                for c in candidates {
                    for inverse in [false, true] {
                        if let Some(opt) = triple_option(kb, subject, object, classes, c, inverse) {
                            options.push(opt);
                        }
                    }
                }
                if options.is_empty() {
                    // No consistent reading of this triple.
                    return (Vec::new(), PlanStats::default());
                }
                option_sets.push(options);
            }
        }
    }

    let (combos, mut stats) = match strategy {
        PlannerStrategy::Beam => beam_topk(&option_sets, max),
        PlannerStrategy::CartesianExhaustive => cartesian_topk(&option_sets, max),
    };
    let out = render_combos(analysis, &fixed, &option_sets, &combos);
    stats.emitted = out.len() as u64;

    relpat_obs::counter!("qa.plan.expanded", stats.expanded);
    relpat_obs::counter!("qa.plan.pruned", stats.pruned);
    relpat_obs::counter!("qa.plan.emitted", stats.emitted);
    (out, stats)
}

/// One frontier state of the beam search: the option choices made so far
/// (`indices`, one per already-assigned relation triple, in triple order),
/// the exact partial score of those choices, and an admissible upper bound
/// on the score of any completion.
///
/// Heap order: higher bound first; equal bounds tie-break toward the
/// lexicographically smaller index prefix so exploration — and therefore
/// the emission order of equal-scored assignments — is deterministic and
/// matches the cartesian reference's generation order (the "IRI
/// tie-break": earlier-listed candidates/orientations win ties).
struct Frontier {
    bound: f64,
    score: f64,
    indices: Vec<u32>,
}

impl PartialEq for Frontier {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Frontier {}
impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound
            .total_cmp(&other.bound)
            .then_with(|| other.indices.cmp(&self.indices))
    }
}

/// Admissible upper bound on every completion of a partial score through
/// the remaining option sets, each abstracted to its `(min, max)` weight
/// range (under `total_cmp`, so NaN — canonicalized positive in
/// [`triple_option`] — saturates the range and disables pruning rather
/// than corrupting it).
///
/// The interval is folded **left-associated, one set at a time**, exactly
/// like the score accumulation itself. IEEE-754 multiplication is weakly
/// monotone in each operand, so the running `[lo, hi]` interval bounds
/// every reachable left-associated partial product bit-for-bit — the bound
/// can never round below an achievable score, which is what makes the
/// frontier search exact in floating point, not just over the reals.
/// Negative weights are handled by tracking both interval ends.
fn completion_bound(score: f64, ranges: &[(f64, f64)]) -> f64 {
    let (mut lo, mut hi) = (score, score);
    for &(wlo, whi) in ranges {
        let mut nlo = lo * wlo;
        let mut nhi = nlo;
        for c in [lo * whi, hi * wlo, hi * whi] {
            if c.total_cmp(&nlo) == Ordering::Less {
                nlo = c;
            }
            if c.total_cmp(&nhi) == Ordering::Greater {
                nhi = c;
            }
        }
        (lo, hi) = (nlo, nhi);
    }
    hi
}

/// Exact top-`max` assignments over the option-set lattice, best-first.
///
/// Scores are products of per-triple weights; a frontier state's priority
/// is [`completion_bound`], an admissible upper bound, so when the
/// `max`-th best complete assignment's score strictly exceeds every
/// remaining frontier bound the search has *proved* the top-`max` and
/// stops — everything still in the frontier is pruned unexplored. Ties at
/// the cutoff keep the search running (equal-scored assignments must be
/// collected so the deterministic index tie-break picks the same winners
/// as the exhaustive reference); in the degenerate all-tied case this
/// falls back to enumerating the full product, never worse than the
/// cartesian strategy.
///
/// Returns assignments sorted by (score descending under `total_cmp`,
/// index vector ascending), truncated to `max`.
fn beam_topk(option_sets: &[Vec<TripleOption>], max: usize) -> (Vec<(Vec<u32>, f64)>, PlanStats) {
    let n = option_sets.len();
    let ranges: Vec<(f64, f64)> = option_sets
        .iter()
        .map(|set| {
            let (mut lo, mut hi) = (set[0].weight, set[0].weight);
            for o in &set[1..] {
                if o.weight.total_cmp(&lo) == Ordering::Less {
                    lo = o.weight;
                }
                if o.weight.total_cmp(&hi) == Ordering::Greater {
                    hi = o.weight;
                }
            }
            (lo, hi)
        })
        .collect();

    let mut heap = BinaryHeap::new();
    heap.push(Frontier { bound: completion_bound(1.0, &ranges), score: 1.0, indices: Vec::new() });
    let mut complete: Vec<(Vec<u32>, f64)> = Vec::new();
    let mut stats = PlanStats::default();
    loop {
        // Termination: the k-th best complete score beats every remaining
        // bound (strictly — equal bounds may still complete into tie-mates
        // that the index tie-break ranks ahead).
        if complete.len() >= max {
            let kth = complete[max - 1].1;
            match heap.peek() {
                None => break,
                Some(top) if top.bound.total_cmp(&kth) == Ordering::Less => break,
                _ => {}
            }
        }
        let Some(state) = heap.pop() else { break };
        let depth = state.indices.len();
        if depth == n {
            // Complete states pop in (score desc, indices asc) order among
            // themselves: their bound equals their exact score.
            complete.push((state.indices, state.score));
            continue;
        }
        stats.expanded += 1;
        for (i, opt) in option_sets[depth].iter().enumerate() {
            let score = state.score * opt.weight;
            let mut indices = Vec::with_capacity(depth + 1);
            indices.extend_from_slice(&state.indices);
            indices.push(i as u32);
            let bound = completion_bound(score, &ranges[depth + 1..]);
            heap.push(Frontier { bound, score, indices });
        }
    }
    stats.pruned = heap.len() as u64;
    // Interleaved incomplete states can emit a smaller-indexed tie-mate
    // after a larger-indexed equal-scored one; canonicalize.
    complete.sort_by(|(ia, a), (ib, b)| b.total_cmp(a).then_with(|| ia.cmp(ib)));
    complete.truncate(max);
    (complete, stats)
}

/// The paper's cartesian product, kept as the differential reference.
///
/// Materializes every combination and truncates to `max` **on final scores
/// only**. The previous implementation truncated mid-fold by partial
/// score, which is unsound: a combination's rank after later triples'
/// weights multiply in is unrelated to its partial rank (negative or tied
/// weights invert it outright), so an eventually-top-ranked combination
/// could be silently dropped and the output was not an exact top-`max` of
/// the product.
fn cartesian_topk(
    option_sets: &[Vec<TripleOption>],
    max: usize,
) -> (Vec<(Vec<u32>, f64)>, PlanStats) {
    let mut combos: Vec<(Vec<u32>, f64)> = vec![(Vec::new(), 1.0)];
    let mut stats = PlanStats { expanded: 1, ..PlanStats::default() };
    for set in option_sets {
        let mut next = Vec::with_capacity(combos.len() * set.len());
        for (indices, score) in &combos {
            for (i, opt) in set.iter().enumerate() {
                let mut idx = Vec::with_capacity(indices.len() + 1);
                idx.extend_from_slice(indices);
                idx.push(i as u32);
                next.push((idx, score * opt.weight));
            }
        }
        combos = next;
        stats.expanded += combos.len() as u64;
    }
    // Stable sort: equal scores keep lexicographic generation order — the
    // same deterministic tie-break as the beam planner.
    combos.sort_by(|(_, a), (_, b)| b.total_cmp(a));
    stats.pruned = combos.len().saturating_sub(max) as u64;
    combos.truncate(max);
    (combos, stats)
}

/// Assembles ranked assignments into queries and their SPARQL text. An
/// assignment whose triples equal the previous emitted one's is dropped
/// before any text is written (equal triples write equal text), so
/// adjacent duplicates collapse to the highest-ranked occurrence. The
/// fixed lines and each option's line are written once; each query's text
/// is written into one buffer of its exact length.
fn render_combos(
    analysis: &QuestionAnalysis,
    fixed: &[TripleParts],
    option_sets: &[Vec<TripleOption>],
    combos: &[(Vec<u32>, f64)],
) -> Vec<BuiltQuery> {
    let (head, tail) =
        if analysis.ask { ("ASK { ", " }") } else { ("SELECT DISTINCT ?x WHERE { ", " }") };
    let chosen = |indices| selected(option_sets, indices);
    let mut out: Vec<BuiltQuery> = Vec::with_capacity(combos.len());
    let mut previous: Option<&[u32]> = None;
    for (indices, score) in combos {
        if previous.is_some_and(|p| chosen(p).zip(chosen(indices)).all(|(a, b)| a.same_triple(b))) {
            continue;
        }
        previous = Some(indices);
        let parts = || fixed.iter().chain(chosen(indices).map(TripleOption::parts));
        let body: usize = parts().map(|p| p.line.len() + 1).sum();
        let mut sparql = String::with_capacity(head.len() + body.saturating_sub(1) + tail.len());
        sparql.push_str(head);
        for (i, p) in parts().enumerate() {
            if i > 0 {
                sparql.push(' ');
            }
            sparql.push_str(&p.line);
        }
        sparql.push_str(tail);
        let pattern = GraphPattern {
            triples: parts().map(|p| p.pattern.clone()).collect(),
            ..GraphPattern::default()
        };
        let query = if analysis.ask {
            Query::Ask(AskQuery { pattern })
        } else {
            Query::Select(SelectQuery {
                distinct: true,
                projection: Projection::Vars(vec!["x".to_string()]),
                pattern,
                order_by: Vec::new(),
                limit: None,
                offset: None,
            })
        };
        debug_assert_eq!(relpat_sparql::parse_query(&sparql).as_ref(), Ok(&query));
        out.push(BuiltQuery { sparql, query, score: *score });
    }
    out
}

/// The options an assignment selects, one per option set.
fn selected<'s, 'a>(
    option_sets: &'s [Vec<TripleOption<'a>>],
    indices: &'s [u32],
) -> impl Iterator<Item = &'s TripleOption<'a>> {
    option_sets.iter().zip(indices).map(|(set, &i)| &set[i as usize])
}

/// Resolves one (candidate, orientation) pair into a triple option, or
/// `None` when the ontology's domain/range rules it out. `classes` are the
/// subject's and the object's classes (see [`ClassSet::admits`]).
fn triple_option<'a>(
    kb: &'a KnowledgeBase,
    subject: &'a MappedSlot,
    object: &'a MappedSlot,
    classes: (ClassSet, ClassSet),
    candidate: &PropertyCandidate,
    inverse: bool,
) -> Option<TripleOption<'a>> {
    let property = kb.ontology.property(candidate.property);
    let (eff_subject, eff_object) =
        if inverse { (object, subject) } else { (subject, object) };
    let (subject_classes, object_classes) =
        if inverse { (classes.1, classes.0) } else { classes };

    // Direction-hint dampening.
    let orientation_factor = match candidate.preferred_inverse {
        Some(pref) if pref == inverse => 1.0,
        Some(_) => 0.25,
        None => {
            if inverse {
                0.9
            } else {
                1.0
            }
        }
    };
    // Canonicalize NaN weights (0/0 pattern normalizations) to the positive
    // quiet NaN so `total_cmp` ranks every NaN state identically and the
    // planner's completion bounds saturate instead of mis-pruning.
    let weight = candidate.weight * orientation_factor;
    let weight = if weight.is_nan() { f64::NAN } else { weight };

    // Data property: the literal side must be the variable, the subject
    // side an entity (or typed variable within the domain).
    if property.is_data && !matches!(eff_object, MappedSlot::Var) {
        return None;
    }
    if !subject_classes.admits(&kb.ontology, property.domain)
        || property.range.is_some_and(|range| !object_classes.admits(&kb.ontology, range))
    {
        return None;
    }
    Some(TripleOption {
        subject: eff_subject,
        property: candidate.property,
        predicate: &property.term,
        object: eff_object,
        weight,
        parts: OnceCell::new(),
    })
}

fn slot_term(slot: &MappedSlot) -> Term {
    match slot {
        MappedSlot::Var => Term::var("x"),
        MappedSlot::Entity(e) => Term::Iri(e.iri.clone()),
    }
}

/// The IRI a slot writes; `None` for the variable.
fn slot_iri(slot: &MappedSlot) -> Option<&Iri> {
    match slot {
        MappedSlot::Var => None,
        MappedSlot::Entity(e) => Some(&e.iri),
    }
}

/// `term` as `Term`'s `Display` writes it, in pieces: an IRI or a
/// variable, the only terms the planner writes.
fn pieces(term: &Term) -> [&str; 3] {
    match term {
        Term::Iri(iri) => ["<", iri.as_str(), ">"],
        Term::Variable(v) => ["?", v, ""],
        other => unreachable!("the planner writes no {other:?}"),
    }
}

impl TripleParts {
    /// The pattern and its line `subject predicate object .`, every IRI
    /// written out in full (`Term`'s own `Display`, not the query
    /// `Display`'s prefixed form) into one buffer of its exact length.
    fn new(subject: Term, predicate: Term, object: Term) -> Self {
        let words = [pieces(&subject), pieces(&predicate), pieces(&object)];
        let len: usize = words.iter().flatten().map(|p| p.len()).sum();
        let mut line = String::with_capacity(len + 4);
        for word in words {
            word.iter().for_each(|p| line.push_str(p));
            line.push(' ');
        }
        line.push('.');
        TripleParts { line, pattern: TriplePattern::new(subject, predicate, object) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{similar_property_pairs, Mapper, MappingConfig};
    use crate::triples::extract;
    use relpat_kb::{generate, KbConfig, KnowledgeBase};
    use relpat_patterns::{mine, CorpusConfig, PatternStore};
    use relpat_wordnet::embedded;
    use relpat_obs::fx::FxHashMap;
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

    /// The id of an ontology property by name.
    fn property(name: &str) -> PropertyId {
        fixture().kb.ontology.property_id(name).unwrap()
    }

    /// The resolved entity `res:<name>`, labelled `name`.
    fn entity(kb: &KnowledgeBase, name: &str) -> crate::mapping::ResolvedEntity {
        let iri = relpat_rdf::Iri::new(relpat_rdf::vocab::res::iri(name));
        let id = kb.graph.term_id(&Term::Iri(iri.clone())).unwrap_or_else(|| panic!("{name}"));
        crate::mapping::ResolvedEntity { id, iri, label: name.into() }
    }

    fn queries_for(question: &str) -> Vec<BuiltQuery> {
        let f = fixture();
        let mapper = Mapper {
            kb: &f.kb,
            wordnet: embedded(),
            patterns: &f.patterns,
            similar_pairs: &f.pairs,
            config: MappingConfig::default(),
        };
        let analysis = extract(&relpat_nlp::parse_sentence(question)).unwrap();
        let mapped = mapper.map(&analysis).unwrap();
        build_queries(&f.kb, &analysis, &mapped, 50)
    }

    #[test]
    fn figure1_generates_the_papers_two_queries() {
        let queries = queries_for("Which book is written by Orhan Pamuk?");
        assert!(!queries.is_empty());
        // The paper's Query1/Query2 use dbont:writer and dbont:author; the
        // domain/range check kills writer (domain Song, ?x is a Book), so
        // the author reading must be present and executable.
        assert!(
            queries.iter().any(|q| q.sparql.contains("/author>")
                && q.sparql.contains("Orhan_Pamuk")),
            "{queries:#?}"
        );
        // Every query carries the class constraint.
        for q in &queries {
            assert!(q.sparql.contains("Book"), "{}", q.sparql);
        }
    }

    #[test]
    fn scores_are_sorted_descending() {
        let queries = queries_for("Where did Abraham Lincoln die?");
        for w in queries.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        // Top-ranked query must target deathPlace (pattern frequency).
        assert!(queries[0].sparql.contains("deathPlace"), "{}", queries[0].sparql);
    }

    #[test]
    fn data_property_orientation_forced() {
        let queries = queries_for("How tall is Michael Jordan?");
        // Entity must be the subject of the data property; centrality picks
        // the athlete, who carries the qualified IRI (the scientist namesake
        // was minted first).
        assert!(
            queries[0]
                .sparql
                .contains("Michael_Jordan_(2)> <http://dbpedia.org/ontology/height> ?x"),
            "{}",
            queries[0].sparql
        );
    }

    #[test]
    fn ask_query_for_polar_question() {
        let queries = queries_for("Is Ankara the capital of Turkey?");
        assert!(queries[0].sparql.starts_with("ASK"));
        assert!(queries[0].sparql.contains("capital"));
    }

    #[test]
    fn inverse_orientation_from_pattern_evidence() {
        // "Who wrote Snow?" — the fact runs Snow →author→ person, so the
        // winning option must place Snow as subject.
        let queries = queries_for("Who wrote Snow?");
        let best_author = queries.iter().find(|q| q.sparql.contains("/author>")).unwrap();
        assert!(
            best_author.sparql.contains("<http://dbpedia.org/resource/Snow> <http://dbpedia.org/ontology/author> ?x"),
            "{}",
            best_author.sparql
        );
    }

    #[test]
    fn queries_are_deduplicated_and_bounded() {
        let f = fixture();
        let mapper = Mapper {
            kb: &f.kb,
            wordnet: embedded(),
            patterns: &f.patterns,
            similar_pairs: &f.pairs,
            config: MappingConfig::default(),
        };
        let analysis =
            extract(&relpat_nlp::parse_sentence("Where did Abraham Lincoln die?")).unwrap();
        let mapped = mapper.map(&analysis).unwrap();
        let queries = build_queries(&f.kb, &analysis, &mapped, 3);
        assert!(queries.len() <= 3);
        let mut texts: Vec<&str> = queries.iter().map(|q| q.sparql.as_str()).collect();
        texts.sort_unstable();
        texts.dedup();
        assert_eq!(texts.len(), queries.len());
    }

    #[test]
    fn cartesian_product_over_two_relation_triples() {
        // Hand-built mapped question with two relation triples, each with two
        // candidates → 4 combinations, scored by the product of weights.
        use crate::mapping::{CandidateSource, MappedSlot, PropertyCandidate};
        let f = fixture();
        let pamuk = entity(&f.kb, "Orhan Pamuk");
        let cand = |prop: &str, w: f64| PropertyCandidate {
            property: property(prop),
            preferred_inverse: Some(false),
            weight: w,
            source: CandidateSource::RelationalPattern,
        };
        let mapped = crate::mapping::MappedQuestion {
            triples: vec![
                crate::mapping::MappedTriple::Relation {
                    subject: MappedSlot::Var,
                    object: MappedSlot::Entity(pamuk.clone()),
                    candidates: vec![cand("author", 10.0), cand("publisher", 2.0)],
                },
                crate::mapping::MappedTriple::Relation {
                    subject: MappedSlot::Var,
                    object: MappedSlot::Entity(pamuk),
                    candidates: vec![cand("author", 5.0), cand("publisher", 1.0)],
                },
            ],
        };
        let analysis = extract(&relpat_nlp::parse_sentence(
            "Which book is written by Orhan Pamuk?",
        ))
        .unwrap();
        let queries = build_queries(&f.kb, &analysis, &mapped, 50);
        assert!(!queries.is_empty());
        // Highest score must be the product of the two best candidates
        // (10 × 5, possibly dampened by orientation factors ≤ 1).
        assert!(queries[0].score <= 50.0 + 1e-9);
        assert!(queries[0].score >= queries.last().unwrap().score);
        // Product space is bounded by the requested cap.
        let capped = build_queries(&f.kb, &analysis, &mapped, 2);
        assert!(capped.len() <= 2);
    }

    #[test]
    fn beam_matches_cartesian_on_pipeline_questions() {
        let f = fixture();
        let mapper = Mapper {
            kb: &f.kb,
            wordnet: embedded(),
            patterns: &f.patterns,
            similar_pairs: &f.pairs,
            config: MappingConfig::default(),
        };
        for question in [
            "Which book is written by Orhan Pamuk?",
            "Where did Abraham Lincoln die?",
            "How tall is Michael Jordan?",
            "Is Ankara the capital of Turkey?",
            "Who wrote Snow?",
        ] {
            let analysis = extract(&relpat_nlp::parse_sentence(question)).unwrap();
            let mapped = mapper.map(&analysis).unwrap();
            for max in [1, 2, 3, 50] {
                let (beam, _) = build_queries_planned(
                    &f.kb, &analysis, &mapped, max, PlannerStrategy::Beam,
                );
                let (cart, _) = build_queries_planned(
                    &f.kb, &analysis, &mapped, max, PlannerStrategy::CartesianExhaustive,
                );
                assert_eq!(beam, cart, "{question} max={max}");
            }
        }
    }

    #[test]
    fn truncation_cannot_drop_an_eventually_top_combination() {
        // Regression for the bounded-product ranking bug: with `max = 2`,
        // the old fold kept only the two best *partial* scores after the
        // first triple (publisher 5, director 4) and dropped author (−10) —
        // whose product with the second triple's author (−8) is the global
        // maximum (+80). Truncating on final scores (cartesian) or bounding
        // the frontier admissibly (beam) must both keep it.
        use crate::mapping::{CandidateSource, MappedSlot, PropertyCandidate};
        let f = fixture();
        let pamuk = entity(&f.kb, "Orhan Pamuk");
        let cand = |prop: &str, w: f64| PropertyCandidate {
            property: property(prop),
            preferred_inverse: Some(false),
            weight: w,
            source: CandidateSource::RelationalPattern,
        };
        let mapped = crate::mapping::MappedQuestion {
            triples: vec![
                crate::mapping::MappedTriple::Relation {
                    subject: MappedSlot::Var,
                    object: MappedSlot::Entity(pamuk.clone()),
                    candidates: vec![
                        cand("author", -10.0),
                        cand("publisher", 5.0),
                        cand("director", 4.0),
                    ],
                },
                crate::mapping::MappedTriple::Relation {
                    subject: MappedSlot::Var,
                    object: MappedSlot::Entity(pamuk),
                    candidates: vec![cand("author", -8.0), cand("publisher", 1.0)],
                },
            ],
        };
        let analysis = extract(&relpat_nlp::parse_sentence(
            "Which book is written by Orhan Pamuk?",
        ))
        .unwrap();
        for strategy in [PlannerStrategy::Beam, PlannerStrategy::CartesianExhaustive] {
            let (queries, _) = build_queries_planned(&f.kb, &analysis, &mapped, 2, strategy);
            assert!(
                (queries[0].score - 80.0).abs() < 1e-9,
                "{strategy:?} dropped the (-10 × -8) combination: {queries:#?}"
            );
            assert!(
                queries[0].sparql.matches("/author>").count() == 2,
                "{strategy:?}: {}",
                queries[0].sparql
            );
        }
    }

    #[test]
    fn beam_prunes_states_the_cartesian_product_materializes() {
        // A wide two-triple lattice with a clear ranking: the beam search
        // must prove the top-3 without expanding everything the cartesian
        // fold materializes, and both must emit the identical queries.
        use crate::mapping::{CandidateSource, MappedSlot, PropertyCandidate};
        let f = fixture();
        let pamuk = entity(&f.kb, "Orhan Pamuk");
        let props = ["author", "publisher", "director", "starring", "capital", "spouse"];
        let cands = |base: f64| -> Vec<PropertyCandidate> {
            props
                .iter()
                .enumerate()
                .map(|(i, p)| PropertyCandidate {
                    property: property(p),
                    preferred_inverse: Some(false),
                    weight: base / (i + 1) as f64,
                    source: CandidateSource::RelationalPattern,
                })
                .collect()
        };
        let relation = |c: Vec<PropertyCandidate>| crate::mapping::MappedTriple::Relation {
            subject: MappedSlot::Var,
            object: MappedSlot::Entity(pamuk.clone()),
            candidates: c,
        };
        let mapped = crate::mapping::MappedQuestion {
            triples: vec![relation(cands(64.0)), relation(cands(32.0))],
        };
        let analysis = extract(&relpat_nlp::parse_sentence(
            "Which book is written by Orhan Pamuk?",
        ))
        .unwrap();
        let (beam, beam_stats) =
            build_queries_planned(&f.kb, &analysis, &mapped, 3, PlannerStrategy::Beam);
        let (cart, cart_stats) = build_queries_planned(
            &f.kb, &analysis, &mapped, 3, PlannerStrategy::CartesianExhaustive,
        );
        assert_eq!(beam, cart);
        assert_eq!(beam.len(), 3);
        assert!(
            beam_stats.expanded < cart_stats.expanded,
            "beam {beam_stats:?} vs cartesian {cart_stats:?}"
        );
        assert!(beam_stats.pruned > 0, "{beam_stats:?}");
        assert_eq!(beam_stats.emitted, 3);
    }

    #[test]
    fn nan_scored_candidates_rank_without_panicking() {
        // A zero-frequency pattern feeding a 0/0 normalization yields a NaN
        // weight; ranking must stay total (`f64::total_cmp`) instead of
        // panicking in `partial_cmp().unwrap()`.
        use crate::mapping::{CandidateSource, MappedSlot, PropertyCandidate};
        let f = fixture();
        let pamuk = entity(&f.kb, "Orhan Pamuk");
        let cand = |prop: &str, w: f64| PropertyCandidate {
            property: property(prop),
            preferred_inverse: Some(false),
            weight: w,
            source: CandidateSource::RelationalPattern,
        };
        let mapped = crate::mapping::MappedQuestion {
            triples: vec![crate::mapping::MappedTriple::Relation {
                subject: MappedSlot::Var,
                object: MappedSlot::Entity(pamuk),
                candidates: vec![cand("author", f64::NAN), cand("writer", 1.0)],
            }],
        };
        let analysis = extract(&relpat_nlp::parse_sentence(
            "Which book is written by Orhan Pamuk?",
        ))
        .unwrap();
        let queries = build_queries(&f.kb, &analysis, &mapped, 50);
        // No panic, and the finite-scored readings are all still present.
        assert!(queries.iter().any(|q| q.score == 1.0), "{queries:#?}");
        for w in queries.windows(2) {
            // Ordering stays total even with NaN in the mix.
            assert_ne!(w[0].score.total_cmp(&w[1].score), std::cmp::Ordering::Less);
        }
    }

    #[test]
    fn relation_with_no_consistent_reading_voids_the_query_set() {
        // A candidate whose domain/range cannot fit either orientation must
        // yield zero queries (the question falls back to "not attempted").
        use crate::mapping::{CandidateSource, MappedSlot, PropertyCandidate};
        let f = fixture();
        let turkey = entity(&f.kb, "Turkey");
        let mapped = crate::mapping::MappedQuestion {
            triples: vec![crate::mapping::MappedTriple::Relation {
                subject: MappedSlot::Entity(turkey.clone()),
                object: MappedSlot::Entity(turkey),
                // crosses: Bridge → River; Turkey is a Country on both sides.
                candidates: vec![PropertyCandidate {
                    property: property("crosses"),
                    preferred_inverse: None,
                    weight: 5.0,
                    source: CandidateSource::StringSimilarity,
                }],
            }],
        };
        let analysis =
            extract(&relpat_nlp::parse_sentence("Is Ankara the capital of Turkey?")).unwrap();
        assert!(build_queries(&f.kb, &analysis, &mapped, 50).is_empty());
    }

    #[test]
    fn all_queries_parse_and_execute() {
        let f = fixture();
        for question in [
            "Which book is written by Orhan Pamuk?",
            "Where did Abraham Lincoln die?",
            "How tall is Michael Jordan?",
            "What is the capital of Turkey?",
        ] {
            for q in queries_for(question) {
                f.kb.query(&q.sparql)
                    .unwrap_or_else(|e| panic!("query failed ({question}): {e}\n{}", q.sparql));
            }
        }
    }
}
