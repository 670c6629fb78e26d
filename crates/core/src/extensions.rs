//! Extensions beyond the published system — the future work the paper's
//! Discussion (§5) and Conclusion (§6) call for, implemented behind opt-in
//! flags so the default configuration stays a faithful reproduction:
//!
//! - **existence questions** — "Is Frank Herbert still alive?" The paper
//!   shows the triple `[Frank Herbert][is][alive]` and notes that "new
//!   methods should be implemented to overcome this kind of issues"; here
//!   the adjective is compiled to a `deathDate` existence check.
//! - **superlatives** — "What is the highest mountain?" compiled to an
//!   `ORDER BY DESC(...) LIMIT 1` query via the adjective→attribute map.
//! - **count questions** — "How many books did Orhan Pamuk write?" compiled
//!   to a SPARQL `COUNT`, and "How many employees does X have?" resolved to
//!   a numeric data property. Together with data-property relational
//!   patterns (the §5 "research gap"), this also covers "How many people
//!   live in X?".

use relpat_nlp::{DepGraph, DepRel, PosTag};
use relpat_rdf::vocab::{dbont, rdf};
use relpat_rdf::Literal;
use relpat_wordnet::WnPos;

use crate::answer::{Answer, AnswerValue};
use crate::mapping::Mapper;
use crate::pipeline::{Response, Stage};
use crate::similarity::property_name_score;
use crate::triples::{PatternTriple, PredicateSlot, QuestionKind, SlotTerm};

/// Which extensions are active. All off by default: the paper's system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtensionConfig {
    pub existence_questions: bool,
    pub superlatives: bool,
    pub count_questions: bool,
}

impl ExtensionConfig {
    /// Everything on — the "extended system" evaluated in EXPERIMENTS.md.
    pub fn all() -> Self {
        ExtensionConfig {
            existence_questions: true,
            superlatives: true,
            count_questions: true,
        }
    }

    pub fn any(&self) -> bool {
        self.existence_questions || self.superlatives || self.count_questions
    }
}

/// Attempts the extension handlers on a question the standard pipeline gave
/// up on. Returns a full response on success.
pub fn try_answer(
    mapper: &Mapper<'_>,
    config: ExtensionConfig,
    question: &str,
    graph: &DepGraph,
    prior: &Response,
) -> Option<Response> {
    if config.existence_questions {
        if let Some(r) = existence_question(mapper, question, prior) {
            return Some(r);
        }
    }
    if config.superlatives {
        if let Some(r) = superlative_question(mapper, question, graph) {
            return Some(r);
        }
    }
    if config.count_questions {
        if let Some(r) = count_question(mapper, question, graph, prior) {
            return Some(r);
        }
    }
    None
}

fn answered(
    mapper: &Mapper<'_>,
    question: &str,
    prior: &Response,
    sparql: String,
    value: AnswerValue,
) -> Response {
    let answer = Answer { value, sparql, score: 1.0 };
    // Rebuild the trace for the upgraded stage/answer; timings, lookup
    // deltas and execution stats from the standard attempt carry over.
    let mut trace = crate::pipeline::trace_for(
        mapper.kb,
        question,
        Stage::Answered,
        prior.analysis.as_ref(),
        prior.mapped.as_ref(),
        &prior.queries,
        Some(&answer),
    );
    trace.queries_executed = prior.trace.queries_executed;
    trace.queries_survived = prior.trace.queries_survived;
    trace.queries_failed = prior.trace.queries_failed;
    trace.pattern_lookups = prior.trace.pattern_lookups;
    trace.stages = prior.trace.stages.clone();
    Response {
        question: question.to_string(),
        stage: Stage::Answered,
        analysis: prior.analysis.clone(),
        mapped: prior.mapped.clone(),
        queries: prior.queries.clone(),
        answer: Some(answer),
        trace,
    }
}

/// "Is Frank Herbert still alive?" — polar copular adjective over life
/// state, compiled to a `deathDate` existence check.
fn existence_question(
    mapper: &Mapper<'_>,
    question: &str,
    prior: &Response,
) -> Option<Response> {
    let analysis = prior.analysis.as_ref()?;
    if analysis.kind != QuestionKind::Polar {
        return None;
    }
    let triple = analysis.triples.first()?;
    let (alive, entity_text) = match triple {
        PatternTriple {
            subject: SlotTerm::Mention { text },
            predicate: PredicateSlot::Word { lemma, .. },
            object: SlotTerm::Mention { text: adj },
        } if lemma == "be" => match adj.to_lowercase().as_str() {
            "alive" | "living" => (true, text),
            "dead" | "deceased" => (false, text),
            _ => return None,
        },
        _ => return None,
    };
    let entity = mapper.resolve_entity(entity_text, &[])?;
    let sparql = format!(
        "ASK {{ <{}> <{}> ?d }}",
        entity.iri.as_str(),
        dbont::iri("deathDate")
    );
    let has_death_date = match mapper.kb.query(&sparql) {
        Ok(relpat_sparql::QueryResult::Boolean(b)) => b,
        _ => return None,
    };
    let verdict = if alive { !has_death_date } else { has_death_date };
    Some(answered(mapper, question, prior, sparql, AnswerValue::Boolean(verdict)))
}

/// Adjectives whose superlative asks for the *smallest* value.
fn ascending_superlative(adj: &str) -> bool {
    matches!(adj, "small" | "low" | "short" | "young" | "shallow" | "little")
}

/// "What is the highest mountain?" — wh-copular with a superlative
/// adjective over a class noun, compiled to `ORDER BY` + `LIMIT 1`.
fn superlative_question(
    mapper: &Mapper<'_>,
    question: &str,
    graph: &DepGraph,
) -> Option<Response> {
    let root = graph.root?;
    let root_tok = graph.token(root);
    if !root_tok.pos.is_noun() {
        return None;
    }
    graph.child_with(root, &DepRel::Cop)?;
    let subj = graph.child_with(root, &DepRel::Nsubj)?;
    if !graph.token(subj).pos.is_wh() {
        return None;
    }
    let amod = graph.child_where(root, |r| r == &DepRel::Amod)?;
    let adj_tok = graph.token(amod);
    if adj_tok.pos != PosTag::Jjs {
        return None;
    }

    let class = mapper.resolve_class(&root_tok.lemma)?;
    let attr = mapper.wordnet.attribute_noun(&adj_tok.lemma)?;
    let property = data_property_for_attr(mapper, attr, class)?;

    let direction = if ascending_superlative(&adj_tok.lemma) { "ASC" } else { "DESC" };
    let sparql = format!(
        "SELECT ?x WHERE {{ ?x <{}> <{}> . ?x <{}> ?v }} ORDER BY {direction}(?v) LIMIT 1",
        rdf::TYPE,
        dbont::iri(class),
        dbont::iri(&property)
    );
    let terms = run_select(mapper, &sparql)?;
    let empty = Response {
        question: question.to_string(),
        stage: Stage::ExtractionFailed,
        analysis: None,
        mapped: None,
        queries: Vec::new(),
        answer: None,
        trace: relpat_obs::QuestionTrace::new(question),
    };
    Some(answered(mapper, question, &empty, sparql, AnswerValue::Terms(terms)))
}

/// The data property carrying attribute `attr` for instances of `class`:
/// exact/near name match first, then a WordNet hypernym-path match
/// (`height` → `elevation` for mountains). Domain must cover the class.
fn data_property_for_attr(mapper: &Mapper<'_>, attr: &str, class: &str) -> Option<String> {
    let mut best: Option<(f64, String)> = None;
    for p in &mapper.kb.ontology.data_properties {
        let domain_ok = mapper.kb.ontology.is_subclass_of(class, p.domain)
            || mapper.kb.ontology.is_subclass_of(p.domain, class);
        if !domain_ok {
            continue;
        }
        let mut score = property_name_score(attr, p.name, p.label);
        if score < 0.9 {
            let head = p.label.split_whitespace().last().unwrap_or(p.label);
            if let (Some(lin), Some(wup)) = (
                mapper.wordnet.lin(attr, head, WnPos::Noun),
                mapper.wordnet.wup(attr, head, WnPos::Noun),
            ) {
                if lin >= 0.75 && wup >= 0.85 {
                    score = score.max(lin * 0.95);
                }
            }
        }
        if score >= 0.7 && best.as_ref().is_none_or(|(s, _)| score > *s) {
            best = Some((score, p.name.to_string()));
        }
    }
    best.map(|(_, p)| p)
}

/// Count questions: "How many books did X write?" (class counting via
/// SPARQL COUNT) and "How many employees does X have?" / "How many people
/// live in X?" (numeric data property).
fn count_question(
    mapper: &Mapper<'_>,
    question: &str,
    graph: &DepGraph,
    prior: &Response,
) -> Option<Response> {
    // Identify the "how many N" noun.
    let tokens = &graph.tokens;
    let how = tokens.iter().position(|t| t.lemma == "how")?;
    if tokens.get(how + 1).map(|t| t.lemma.as_str()) != Some("many") {
        return None;
    }
    let counted = tokens.get(how + 2).filter(|t| t.pos.is_noun())?;

    let root = graph.root?;
    let root_tok = graph.token(root);
    if !root_tok.pos.is_verb() {
        return None;
    }

    // Reading 1 — class counting: "How many books did X write?"
    if let Some(r) = count_by_class(mapper, question, graph, prior, root, &counted.lemma) {
        return Some(r);
    }

    // Reading 2 — numeric data property: the counted noun or the verb names
    // it ("employees" → numberOfEmployees; "people live" → populationTotal
    // via mined data patterns).
    let entity_idx = graph
        .child_with(root, &DepRel::Nsubj)
        .into_iter()
        .chain(graph.edges.iter().filter_map(|e| {
            (e.head == root && matches!(e.rel, DepRel::Prep(_) | DepRel::Dobj))
                .then_some(e.dependent)
        }))
        .find(|&i| graph.token(i).pos.is_proper_noun())?;
    let entity = mapper.resolve_entity(&graph.phrase_text(entity_idx), &[])?;

    let mut candidates: Vec<(f64, String)> = Vec::new();
    for p in &mapper.kb.ontology.data_properties {
        let s = property_name_score(&counted.lemma, p.name, p.label);
        if s >= 0.75 {
            candidates.push((s * 10.0, p.name.to_string()));
        }
    }
    for word in [counted.lemma.as_str(), root_tok.lemma.as_str()] {
        for c in mapper.patterns.candidates_for_word(word) {
            if c.is_data {
                candidates.push((c.freq as f64, c.property.clone()));
            }
        }
    }
    candidates.sort_by(|(a, _), (b, _)| b.total_cmp(a));
    // Try candidates in ranked order: the first one that actually holds a
    // numeric value for this entity wins (the KB arbitrates ties).
    for (_, property) in candidates {
        let sparql = format!(
            "SELECT ?x WHERE {{ <{}> <{}> ?x }}",
            entity.iri.as_str(),
            dbont::iri(&property)
        );
        let Some(terms) = run_select(mapper, &sparql) else { continue };
        let numeric =
            terms.iter().all(|t| t.as_literal().is_some_and(|l| l.is_numeric()));
        if numeric {
            return Some(answered(mapper, question, prior, sparql, AnswerValue::Terms(terms)));
        }
    }
    None
}

/// Reading 1 of count questions: count instances of a class related to an
/// entity through the verb's property ("How many books did X write?").
fn count_by_class(
    mapper: &Mapper<'_>,
    question: &str,
    graph: &DepGraph,
    prior: &Response,
    root: usize,
    counted_lemma: &str,
) -> Option<Response> {
    let class = mapper.resolve_class(counted_lemma)?;
    let root_tok = graph.token(root);
    let subj = graph.child_with(root, &DepRel::Nsubj)?;
    let entity = mapper.resolve_entity(&graph.phrase_text(subj), &[])?;
    // Property candidates for the verb, reusing the §2.2 machinery.
    let candidates = mapper.property_candidates(
        &root_tok.text,
        &root_tok.lemma,
        crate::triples::PredKind::Verb,
    );
    for c in candidates.iter().filter(|c| !c.is_data) {
        for inverse in [c.preferred_inverse.unwrap_or(false), true] {
            let (s, o) = if inverse {
                ("?x".to_string(), format!("<{}>", entity.iri.as_str()))
            } else {
                (format!("<{}>", entity.iri.as_str()), "?x".to_string())
            };
            let sparql = format!(
                "SELECT (COUNT(DISTINCT ?x) AS ?c) WHERE {{ ?x <{}> <{}> . {s} <{}> {o} }}",
                rdf::TYPE,
                dbont::iri(class),
                dbont::iri(&c.property)
            );
            if let Some(terms) = run_select(mapper, &sparql) {
                let positive = terms
                    .first()
                    .and_then(|t| t.as_literal())
                    .and_then(Literal::as_i64)
                    .is_some_and(|n| n > 0);
                if positive {
                    return Some(answered(mapper, question, prior, sparql, AnswerValue::Terms(terms)));
                }
            }
        }
    }
    None
}

fn run_select(mapper: &Mapper<'_>, sparql: &str) -> Option<Vec<relpat_rdf::Term>> {
    match mapper.kb.query(sparql) {
        Ok(relpat_sparql::QueryResult::Solutions(sols)) => {
            let out: Vec<relpat_rdf::Term> = sols.distinct_cells().flatten().cloned().collect();
            (!out.is_empty()).then_some(out)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig};
    use relpat_kb::{generate, KbConfig, KnowledgeBase};
    use std::sync::OnceLock;

    fn kb() -> &'static KnowledgeBase {
        static KB: OnceLock<KnowledgeBase> = OnceLock::new();
        KB.get_or_init(|| generate(&KbConfig::tiny()))
    }

    fn extended() -> &'static Pipeline<'static> {
        static P: OnceLock<Pipeline<'static>> = OnceLock::new();
        P.get_or_init(|| Pipeline::extended(kb()))
    }

    fn strict() -> Pipeline<'static> {
        Pipeline::with_config(kb(), PipelineConfig::standard())
    }

    #[test]
    fn config_defaults_off_all_on() {
        assert!(!ExtensionConfig::default().any());
        assert!(ExtensionConfig::all().any());
    }

    #[test]
    fn alive_question_answered_by_extension_only() {
        let q = "Is Frank Herbert still alive?";
        // Paper configuration: fails in mapping.
        assert_eq!(strict().answer(q).stage, Stage::MappingFailed);
        // Extended: Herbert died in 1986 → "no".
        let r = extended().answer(q);
        assert_eq!(r.stage, Stage::Answered);
        assert_eq!(r.answer.unwrap().value, AnswerValue::Boolean(false));
    }

    #[test]
    fn alive_question_true_for_living_person() {
        // Michelle Obama has no deathDate.
        let r = extended().answer("Is Michelle Obama still alive?");
        assert_eq!(r.answer.unwrap().value, AnswerValue::Boolean(true));
    }

    #[test]
    fn dead_question_inverts() {
        let r = extended().answer("Is Frank Herbert dead?");
        assert_eq!(r.answer.unwrap().value, AnswerValue::Boolean(true));
    }

    #[test]
    fn superlative_mountain_uses_elevation() {
        let r = extended().answer("What is the highest mountain?");
        assert_eq!(r.stage, Stage::Answered, "{:?}", r.stage);
        let ans = r.answer.unwrap();
        assert!(ans.sparql.contains("elevation"), "{}", ans.sparql);
        assert!(ans.sparql.contains("DESC"));
        // Verify it really is the maximum.
        let golds = kb()
            .query("SELECT ?m { ?m rdf:type dbont:Mountain . ?m dbont:elevation ?e } ORDER BY DESC(?e) LIMIT 1")
            .unwrap()
            .into_solutions().unwrap();
        if let AnswerValue::Terms(ts) = &ans.value {
            assert_eq!(ts[0].as_iri(), golds.first().unwrap().as_iri());
        }
    }

    #[test]
    fn superlative_river_and_lake() {
        let river = extended().answer("What is the longest river?");
        assert_eq!(river.stage, Stage::Answered);
        assert!(river.answer.unwrap().sparql.contains("length"));
        let lake = extended().answer("What is the deepest lake?");
        assert_eq!(lake.stage, Stage::Answered);
        assert!(lake.answer.unwrap().sparql.contains("depth"));
    }

    #[test]
    fn count_books_by_author() {
        let r = extended().answer("How many books did Orhan Pamuk write?");
        assert_eq!(r.stage, Stage::Answered, "{:?}", r.stage);
        let ans = r.answer.unwrap();
        assert!(ans.sparql.contains("COUNT"));
        if let AnswerValue::Terms(ts) = &ans.value {
            assert_eq!(ts[0].as_literal().unwrap().as_i64(), Some(3));
        }
    }

    #[test]
    fn count_employees_is_data_property() {
        let r = extended().answer("How many employees does Vertex Systems have?");
        assert_eq!(r.stage, Stage::Answered, "{:?}", r.stage);
        let ans = r.answer.unwrap();
        assert!(ans.sparql.contains("numberOfEmployees"), "{}", ans.sparql);
    }

    #[test]
    fn how_many_people_live_in_turkey_via_data_patterns() {
        let r = extended().answer("How many people live in Turkey?");
        assert_eq!(r.stage, Stage::Answered, "{:?}", r.stage);
        let ans = r.answer.unwrap();
        assert!(ans.sparql.contains("populationTotal"), "{}", ans.sparql);
        if let AnswerValue::Terms(ts) = &ans.value {
            assert_eq!(ts[0].as_literal().unwrap().as_i64(), Some(74_724_269));
        }
    }

    #[test]
    fn superlative_with_unknown_class_declines() {
        let r = extended().answer("What is the highest spaceship?");
        assert_ne!(r.stage, Stage::Answered);
    }

    #[test]
    fn superlative_without_matching_attribute_declines() {
        // "oldest museum": museums have no age-like data property in the
        // ontology, so the handler must decline rather than guess.
        let r = extended().answer("What is the oldest museum?");
        assert_ne!(r.stage, Stage::Answered);
    }

    #[test]
    fn count_with_unknown_entity_declines() {
        let r = extended().answer("How many books did Zorblax write?");
        assert_ne!(r.stage, Stage::Answered);
    }

    #[test]
    fn existence_requires_life_state_adjective() {
        // Polar adjective outside the alive/dead vocabulary is not an
        // existence question.
        let r = extended().answer("Is Frank Herbert famous?");
        assert_ne!(r.stage, Stage::Answered);
    }

    #[test]
    fn ascending_superlatives_flip_direction() {
        let r = extended().answer("What is the youngest scientist?");
        // "young" → age; no Person-age data property is declared, so this
        // either declines or (if it ever matches) must use ASC ordering.
        if let Some(ans) = &r.answer {
            assert!(ans.sparql.contains("ASC"), "{}", ans.sparql);
        }
    }

    #[test]
    fn extensions_do_not_fire_for_answered_questions() {
        // A standard question must still go through the normal path.
        let r = extended().answer("Which book is written by Orhan Pamuk?");
        assert_eq!(r.stage, Stage::Answered);
        assert!(r.answer.unwrap().sparql.contains("author"));
    }

    #[test]
    fn extensions_leave_hopeless_questions_unanswered() {
        let r = extended().answer("Which films starring James Cameron were released after 2000?");
        assert_ne!(r.stage, Stage::Answered);
    }
}
