//! End-to-end tests for the extended system (§5/§6 future work) and its
//! interaction with the faithful paper configuration.

use relpat::eval::run_benchmark;
use relpat::kb::{generate, qald_questions, KbConfig, KnowledgeBase};
use relpat::qa::{AnswerValue, Pipeline, Stage};
use std::sync::OnceLock;

fn kb() -> &'static KnowledgeBase {
    static KB: OnceLock<KnowledgeBase> = OnceLock::new();
    KB.get_or_init(|| generate(&KbConfig::tiny()))
}

fn paper() -> &'static Pipeline<'static> {
    static P: OnceLock<Pipeline<'static>> = OnceLock::new();
    P.get_or_init(|| Pipeline::new(kb()))
}

fn extended() -> &'static Pipeline<'static> {
    static P: OnceLock<Pipeline<'static>> = OnceLock::new();
    P.get_or_init(|| Pipeline::extended(kb()))
}

#[test]
fn extended_dominates_paper_on_the_benchmark() {
    let questions = qald_questions(kb());
    let base = run_benchmark(paper(), &questions);
    let ext = run_benchmark(extended(), &questions);
    assert!(
        ext.counts.answered > base.counts.answered,
        "extensions must add coverage: {} vs {}",
        ext.counts.answered,
        base.counts.answered
    );
    assert!(ext.counts.correct > base.counts.correct);
    // And they must not break anything the paper system got right.
    for (b, e) in base.results.iter().zip(ext.results.iter()) {
        assert_eq!(b.id, e.id);
        if b.correct {
            assert!(e.correct, "extension regressed q{} ({})", b.id, b.text);
        }
    }
}

#[test]
fn paper_config_is_unaffected_by_extension_existence() {
    // The default pipeline must behave as if the extension code didn't
    // exist: same stages on the signature questions.
    let r = paper().answer("Is Frank Herbert still alive?");
    assert_eq!(r.stage, Stage::MappingFailed);
    let r = paper().answer("What is the highest mountain?");
    assert_eq!(r.stage, Stage::ExtractionFailed);
    let r = paper().answer("How many books did Orhan Pamuk write?");
    assert_ne!(r.stage, Stage::Answered);
}

#[test]
fn existence_answers_are_consistent_with_kb_facts() {
    let kb = kb();
    // For every writer with/without a death date, the alive answer must
    // invert the deathDate fact.
    for (label, alive) in [("Frank Herbert", false), ("Orhan Pamuk", true)] {
        let r = extended().answer(&format!("Is {label} still alive?"));
        assert_eq!(r.stage, Stage::Answered, "{label}");
        let expected = AnswerValue::Boolean(alive);
        assert_eq!(r.answer.as_ref().unwrap().value, expected, "{label}");
        // Cross-check against the raw fact.
        let entity = kb.graph.term(kb.entities_with_label(label)[0]);
        let has_death = !kb
            .graph
            .objects_of(
                entity,
                &relpat::rdf::Term::iri(relpat::rdf::vocab::dbont::iri("deathDate")),
            )
            .is_empty();
        assert_eq!(has_death, !alive);
    }
}

#[test]
fn superlatives_agree_with_direct_queries() {
    let kb = kb();
    for (question, gold_query) in [
        (
            "What is the highest mountain?",
            "SELECT ?m { ?m rdf:type dbont:Mountain . ?m dbont:elevation ?e } ORDER BY DESC(?e) LIMIT 1",
        ),
        (
            "What is the longest river?",
            "SELECT ?r { ?r rdf:type dbont:River . ?r dbont:length ?l } ORDER BY DESC(?l) LIMIT 1",
        ),
        (
            "What is the deepest lake?",
            "SELECT ?l { ?l rdf:type dbont:Lake . ?l dbont:depth ?d } ORDER BY DESC(?d) LIMIT 1",
        ),
    ] {
        let r = extended().answer(question);
        assert_eq!(r.stage, Stage::Answered, "{question}");
        let gold = kb.query(gold_query).unwrap().into_solutions().unwrap();
        let gold_iri = gold.first().unwrap().as_iri().unwrap().clone();
        match &r.answer.as_ref().unwrap().value {
            AnswerValue::Terms(ts) => {
                assert_eq!(ts[0].as_iri(), Some(&gold_iri), "{question}");
            }
            other => panic!("{question}: unexpected {other:?}"),
        }
    }
}

#[test]
fn count_answers_match_gold_counts() {
    let kb = kb();
    let r = extended().answer("How many books did Orhan Pamuk write?");
    let gold = kb
        .query("SELECT (COUNT(?x) AS ?c) { ?x rdf:type dbont:Book . ?x dbont:author res:Orhan_Pamuk }")
        .unwrap()
        .into_solutions().unwrap();
    let gold_count = gold.first().unwrap().as_literal().unwrap().as_i64().unwrap();
    match &r.answer.as_ref().unwrap().value {
        AnswerValue::Terms(ts) => {
            assert_eq!(ts[0].as_literal().unwrap().as_i64(), Some(gold_count));
        }
        other => panic!("unexpected {other:?}"),
    }
}
