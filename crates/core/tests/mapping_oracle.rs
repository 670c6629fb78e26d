//! Differential gate for the §2.2 mapper's on-demand mention pools. The
//! reference is the eager mapper the pools replaced: every mention's pool
//! computed up front, and every mention — one candidate or many — resolved
//! by the full §2.2.5 score (string similarity, page-degree prior, links to
//! the other mentions' pools). `Mapper::map` must return the same
//! `MappedQuestion`, with or without centrality.
//!
//! Scope: every QALD question and the seeded template questions, at ×1 and
//! ×12.

mod common;

use relpat_kb::{generate, normalize_label, qald_questions, KbConfig, KnowledgeBase};
use relpat_patterns::{mine, CorpusConfig, PatternStore};
use relpat_qa::{
    extract, lcs_score, similar_property_pairs, MappedQuestion, MappedSlot, MappedTriple, Mapper,
    MappingConfig, PredicateSlot, QuestionAnalysis, ResolvedEntity, SlotTerm,
};
use relpat_rdf::TermId;

/// §2.2.5 over a precomputed pool: the highest-scoring candidate, first of
/// equals.
fn resolve(
    m: &Mapper<'_>,
    text: &str,
    candidates: &[TermId],
    pools: &[Vec<TermId>],
) -> Option<ResolvedEntity> {
    let kb = m.kb;
    let norm = normalize_label(text);
    let max_degree = candidates.iter().map(|&c| kb.page_degree(c)).max()?.max(1) as f64;
    let mut best: Option<(TermId, &str, f64)> = None;
    for &id in candidates {
        let label = kb.label_of(id).unwrap_or_default();
        let mut score = lcs_score(&norm, &normalize_label(label));
        if m.config.use_centrality {
            let degree = kb.page_degree(id) as f64 / max_degree;
            let linked = pools
                .iter()
                .filter(|pool| !pool.contains(&id))
                .any(|pool| pool.iter().any(|&p| kb.are_linked(id, p)));
            score += 0.3 * degree + 0.5 * f64::from(linked);
        }
        if best.is_none_or(|(_, _, b)| score > b) {
            best = Some((id, label, score));
        }
    }
    let (id, label, _) = best?;
    let iri = kb.graph.term(id).as_iri()?.clone();
    Some(ResolvedEntity {
        id,
        iri,
        label: label.to_string(),
    })
}

/// The eager mapper: all pools first, then the triples in order.
fn eager_map(m: &Mapper<'_>, analysis: &QuestionAnalysis) -> Option<MappedQuestion> {
    let mention = |s: &SlotTerm| matches!(s, SlotTerm::Mention { .. });
    let pools: Vec<Vec<TermId>> = analysis
        .triples
        .iter()
        .flat_map(|t| [&t.subject, &t.object])
        .filter_map(|s| match s {
            SlotTerm::Mention { text } => Some(m.entity_pool(text)),
            SlotTerm::Var => None,
        })
        .collect();
    let mut next_pool = 0;
    let mut triples = Vec::new();
    for t in &analysis.triples {
        let first = next_pool;
        next_pool += usize::from(mention(&t.subject)) + usize::from(mention(&t.object));
        if let Some(class_word) = t.class_word() {
            triples.push(MappedTriple::Type {
                class: m.resolve_class(class_word)?.to_string(),
            });
            continue;
        }
        let map_slot = |slot: &SlotTerm, k: usize| match slot {
            SlotTerm::Var => Some(MappedSlot::Var),
            SlotTerm::Mention { text } => {
                resolve(m, text, &pools[k], &pools).map(MappedSlot::Entity)
            }
        };
        let subject = map_slot(&t.subject, first)?;
        let object = map_slot(&t.object, first + usize::from(mention(&t.subject)))?;
        let candidates = match &t.predicate {
            PredicateSlot::RdfType => return None,
            PredicateSlot::Word { text, lemma, kind } => m.property_candidates(text, lemma, *kind),
        };
        if candidates.is_empty() {
            return None;
        }
        triples.push(MappedTriple::Relation {
            subject,
            object,
            candidates,
        });
    }
    Some(MappedQuestion { triples })
}

fn check(kb: &KnowledgeBase, patterns: &PatternStore, questions: &[String], what: &str) -> usize {
    let pairs = similar_property_pairs(kb, relpat_wordnet::embedded());
    let mut mapped = 0;
    for use_centrality in [true, false] {
        let m = Mapper {
            kb,
            wordnet: relpat_wordnet::embedded(),
            patterns,
            similar_pairs: &pairs,
            config: MappingConfig {
                use_centrality,
                ..MappingConfig::default()
            },
        };
        for q in questions {
            let Some(analysis) = extract(&relpat_nlp::parse_sentence(q)) else {
                continue;
            };
            let got = m.map(&analysis);
            assert_eq!(
                got,
                eager_map(&m, &analysis),
                "{what} (centrality {use_centrality}): {q}"
            );
            mapped += usize::from(got.is_some());
        }
    }
    mapped
}

#[test]
fn on_demand_pools_map_like_the_eager_reference() {
    for scale in [1, 12] {
        let kb = generate(&KbConfig::scaled(scale));
        let patterns = mine(&kb, &CorpusConfig::default()).store;
        let qald: Vec<String> = qald_questions(&kb).into_iter().map(|q| q.text).collect();
        let mapped = check(&kb, &patterns, &qald, &format!("x{scale} QALD"));
        assert!(mapped > 40, "x{scale}: only {mapped} QALD mappings");
        let templates = common::template_questions(&kb, 23);
        let mapped = check(&kb, &patterns, &templates, &format!("x{scale} templates"));
        assert!(mapped > 300, "x{scale}: only {mapped} template mappings");
    }
}
