//! Answer extraction: execute candidate queries, type-check, rank (§2.3).
//!
//! Queries arrive sorted by ranking score, and the highest-scored candidate
//! whose type-checked result set is non-empty (for `ASK`: the first `true`)
//! supplies the answer. The paper executes the full cartesian product; this
//! implementation exploits the ranking instead: one sweep on the caller's
//! thread, in rank order, that **terminates early** at the first survivor.
//! Every candidate it skips ranks below the winner, so the selected answer
//! is the one a full sweep would select; only the execution cost (and
//! [`ExecStats`]) differs.

use relpat_kb::KnowledgeBase;
use relpat_obs::QueryPlan;
use relpat_rdf::{Term, TermId};

use crate::queries::BuiltQuery;
use crate::triples::ExpectedType;

/// A produced answer.
#[derive(Debug, Clone, PartialEq)]
pub enum AnswerValue {
    /// Result set of the winning `SELECT` query.
    Terms(Vec<Term>),
    /// Verdict of a polar (`ASK`) question.
    Boolean(bool),
}

/// The chosen answer with its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub value: AnswerValue,
    /// The SPARQL query that produced it.
    pub sparql: String,
    /// Its ranking score (§2.3.1: product of predicate frequencies).
    pub score: f64,
}

/// Table 1 of the paper: does the graph term `id` satisfy the expected
/// answer type? Entity types test the id's class masks, with no interner
/// probe; literal types read the term.
pub fn type_check(kb: &KnowledgeBase, id: TermId, expected: ExpectedType) -> bool {
    fits(kb, id, expected, table1_classes(kb, expected))
}

/// The classes an entity answer of the `expected` type must fall under, as
/// a class mask (0 for the literal types).
fn table1_classes(kb: &KnowledgeBase, expected: ExpectedType) -> u64 {
    let names: &[&str] = match expected {
        ExpectedType::PersonOrOrganization => &["Person", "Organisation", "Company"],
        ExpectedType::Place => &["Place"],
        _ => &[],
    };
    names.iter().filter_map(|n| kb.ontology.class_id(n)).fold(0, |mask, c| mask | c.bit())
}

/// [`type_check`] with the expected type's [`table1_classes`] at hand.
fn fits(kb: &KnowledgeBase, id: TermId, expected: ExpectedType, classes: u64) -> bool {
    match expected {
        ExpectedType::PersonOrOrganization | ExpectedType::Place => {
            matches!(kb.graph.term(id), Term::Iri(_))
                && kb.entity_classes(id).closure & classes != 0
        }
        _ => value_check(kb.graph.term(id), expected),
    }
}

/// The part of Table 1 that reads only the term. A computed result cell (a
/// `COUNT` value) has no graph id and is no entity, so it is checked by
/// this alone.
fn value_check(term: &Term, expected: ExpectedType) -> bool {
    match expected {
        ExpectedType::Unconstrained | ExpectedType::Boolean => true,
        ExpectedType::PersonOrOrganization | ExpectedType::Place => false,
        ExpectedType::Date => term.as_literal().is_some_and(|l| l.is_date()),
        ExpectedType::Numeric => term.as_literal().is_some_and(|l| l.is_numeric()),
    }
}

/// Configuration for answer extraction.
#[derive(Debug, Clone)]
pub struct AnswerConfig {
    /// Apply Table-1 expected-type filtering (ablation A3 switches it off).
    pub use_type_check: bool,
}

impl Default for AnswerConfig {
    fn default() -> Self {
        AnswerConfig { use_type_check: true }
    }
}

/// Execution statistics for one batch of candidate queries (feeds the
/// per-question [`relpat_obs::QuestionTrace`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Queries actually sent to the SPARQL engine (under early termination
    /// this is less than the batch size whenever a survivor is found).
    pub executed: u64,
    /// Queries whose results survived execution + type checking (for `ASK`:
    /// candidates that evaluated to `true`).
    pub survived: u64,
    /// Queries that failed to evaluate, or whose result form (solutions or
    /// boolean) did not match the question's.
    pub failed: u64,
}

/// Runs the candidate queries and picks the answer, plus the execution
/// statistics the trace records.
///
/// `SELECT`: the highest-scored query whose type-checked result set is
/// non-empty supplies the answer set. `ASK`: the highest-scored query that
/// holds answers `true`; if every candidate is false the answer is `false`
/// (the system did find consistent readings, none of which hold). The
/// candidates sent are always a prefix of `queries`.
pub fn extract_answer_traced(
    kb: &KnowledgeBase,
    expected: ExpectedType,
    ask: bool,
    queries: &[BuiltQuery],
    config: &AnswerConfig,
) -> (Option<Answer>, ExecStats) {
    extract_answer_inner(kb, expected, ask, queries, config, None)
}

/// [`extract_answer_traced`] plus EXPLAIN ANALYZE plan traces: every
/// executed candidate appends a [`QueryPlan`] to `plans`, in execution
/// order (candidates whose evaluation fails produce no plan — there is
/// nothing to trace).
pub(crate) fn extract_answer_explained(
    kb: &KnowledgeBase,
    expected: ExpectedType,
    ask: bool,
    queries: &[BuiltQuery],
    config: &AnswerConfig,
    plans: &mut Vec<QueryPlan>,
) -> (Option<Answer>, ExecStats) {
    extract_answer_inner(kb, expected, ask, queries, config, Some(plans))
}

fn extract_answer_inner(
    kb: &KnowledgeBase,
    expected: ExpectedType,
    ask: bool,
    queries: &[BuiltQuery],
    config: &AnswerConfig,
    mut plans: Option<&mut Vec<QueryPlan>>,
) -> (Option<Answer>, ExecStats) {
    let mut stats = ExecStats::default();
    let mut first_false: Option<&BuiltQuery> = None;
    for query in queries {
        stats.executed += 1;
        match evaluate_one(kb, query, expected, ask, config, plans.as_deref_mut()) {
            Eval::Survivor(value) => {
                // Every remaining candidate ranks below the winner — the
                // decision that makes §2.3 sublinear in candidate count.
                stats.survived += 1;
                let answer = Answer { value, sparql: query.sparql.clone(), score: query.score };
                return (Some(answer), stats);
            }
            Eval::False => {
                first_false.get_or_insert(query);
            }
            Eval::Failed => stats.failed += 1,
            Eval::Empty => {}
        }
    }
    // No survivor: for `ASK`, the best-ranked reading that evaluated to
    // false answers `false`.
    let answer = first_false.map(|query| Answer {
        value: AnswerValue::Boolean(false),
        sparql: query.sparql.clone(),
        score: query.score,
    });
    (answer, stats)
}

/// Classified outcome of one executed candidate query.
#[derive(Debug)]
enum Eval {
    /// Non-empty type-checked `SELECT` result / `ASK` `true` — this
    /// candidate can supply the answer.
    Survivor(AnswerValue),
    /// Executed, but nothing survived filtering (or the result form did not
    /// match the question form).
    Empty,
    /// `ASK` executed and evaluated to `false`.
    False,
    /// Evaluation failure, or a result of the wrong form.
    Failed,
}

/// Executes one query and classifies its outcome. `SELECT` result cells are
/// deduplicated on their ids (first-seen order) and type-filtered; only the
/// surviving cells are resolved to terms.
fn evaluate_one(
    kb: &KnowledgeBase,
    query: &BuiltQuery,
    expected: ExpectedType,
    ask: bool,
    config: &AnswerConfig,
    plans: Option<&mut Vec<QueryPlan>>,
) -> Eval {
    let result = match plans {
        Some(plans) => kb.execute_traced(&query.query).map(|(result, trace)| {
            plans.push(QueryPlan { sparql: query.sparql.clone(), trace });
            result
        }),
        None => kb.execute(&query.query),
    };
    match result {
        Ok(relpat_sparql::QueryResult::Solutions(sols)) => {
            if ask {
                // SELECT result for a polar question: a kind mismatch is a
                // malformed candidate, not a no-answer — count it under
                // `ExecStats.failed` like any other execution error.
                return Eval::Failed;
            }
            // Type checks are pure in the term, so checking each distinct
            // cell once keeps the first-seen order of filter-then-dedup.
            let classes = table1_classes(kb, expected);
            let mut terms: Vec<Term> = Vec::new();
            for cell in sols.distinct_cells() {
                let fits = !config.use_type_check
                    || match cell.term_id() {
                        Some(id) => fits(kb, id, expected, classes),
                        None => cell.as_ref().is_some_and(|term| value_check(term, expected)),
                    };
                if fits {
                    terms.extend(cell.as_ref().cloned());
                }
            }
            if terms.is_empty() {
                Eval::Empty
            } else {
                Eval::Survivor(AnswerValue::Terms(terms))
            }
        }
        Ok(relpat_sparql::QueryResult::Boolean(b)) => {
            if !ask {
                Eval::Failed // ASK result for a non-polar question
            } else if b {
                Eval::Survivor(AnswerValue::Boolean(true))
            } else {
                Eval::False
            }
        }
        Err(_) => Eval::Failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relpat_kb::{generate, KbConfig, KnowledgeBase};
    use relpat_rdf::{Iri, Literal};
    use std::sync::OnceLock;

    fn kb() -> &'static KnowledgeBase {
        static KB: OnceLock<KnowledgeBase> = OnceLock::new();
        KB.get_or_init(|| generate(&KbConfig::tiny()))
    }

    fn bq(sparql: &str, score: f64) -> BuiltQuery {
        let query = relpat_sparql::parse_query(sparql).unwrap();
        BuiltQuery { sparql: sparql.to_string(), query, score }
    }

    fn best_answer(
        kb: &KnowledgeBase,
        expected: ExpectedType,
        ask: bool,
        queries: &[BuiltQuery],
        config: &AnswerConfig,
    ) -> Option<Answer> {
        extract_answer_traced(kb, expected, ask, queries, config).0
    }

    #[test]
    fn type_check_person_place_date_numeric() {
        let kb = kb();
        let pamuk = Term::Iri(Iri::new(relpat_rdf::vocab::res::iri("Orhan Pamuk")));
        let ankara = Term::Iri(Iri::new(relpat_rdf::vocab::res::iri("Ankara")));
        let date = Term::Literal(Literal::date(1952, 6, 7));
        let num = Term::Literal(Literal::double(1.98));
        let [pamuk, ankara, date, num] = [pamuk, ankara, date, num]
            .map(|t| kb.graph.term_id(&t).unwrap_or_else(|| panic!("{t} not in the KB")));
        assert!(type_check(kb, pamuk, ExpectedType::PersonOrOrganization));
        assert!(!type_check(kb, pamuk, ExpectedType::Place));
        assert!(type_check(kb, ankara, ExpectedType::Place));
        assert!(!type_check(kb, ankara, ExpectedType::Date));
        assert!(type_check(kb, date, ExpectedType::Date));
        assert!(type_check(kb, num, ExpectedType::Numeric));
        assert!(!type_check(kb, date, ExpectedType::Numeric));
        assert!(!type_check(kb, date, ExpectedType::PersonOrOrganization));
        assert!(type_check(kb, date, ExpectedType::Unconstrained));
    }

    #[test]
    fn picks_highest_scoring_nonempty_query() {
        let kb = kb();
        let queries = vec![
            bq("SELECT ?x { ?x rdf:type dbont:Museum }", 10.0), // empty in tiny KB? maybe
            bq("SELECT ?x { ?x dbont:author res:Orhan_Pamuk }", 5.0),
        ];
        let ans = best_answer(kb, ExpectedType::Unconstrained, false, &queries, &AnswerConfig::default())
            .unwrap();
        // Whichever query produced results, the value must be non-empty and
        // provenance recorded.
        match ans.value {
            AnswerValue::Terms(ts) => assert!(!ts.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        assert!(!ans.sparql.is_empty());
    }

    #[test]
    fn type_filter_rejects_wrong_kind() {
        let kb = kb();
        // Query returns books, but we expect a date → no answer.
        let queries = vec![bq("SELECT ?x { ?x dbont:author res:Orhan_Pamuk }", 5.0)];
        let ans = best_answer(kb, ExpectedType::Date, false, &queries, &AnswerConfig::default());
        assert!(ans.is_none());
        // Without the type check the books come through (ablation A3).
        let loose = AnswerConfig { use_type_check: false };
        assert!(best_answer(kb, ExpectedType::Date, false, &queries, &loose).is_some());
    }

    #[test]
    fn ask_true_and_all_false() {
        let kb = kb();
        let yes = vec![bq("ASK { res:Snow dbont:author res:Orhan_Pamuk }", 2.0)];
        let ans = best_answer(kb, ExpectedType::Boolean, true, &yes, &AnswerConfig::default())
            .unwrap();
        assert_eq!(ans.value, AnswerValue::Boolean(true));

        let no = vec![bq("ASK { res:Dune dbont:author res:Orhan_Pamuk }", 2.0)];
        let ans = best_answer(kb, ExpectedType::Boolean, true, &no, &AnswerConfig::default())
            .unwrap();
        assert_eq!(ans.value, AnswerValue::Boolean(false));
    }

    #[test]
    fn lower_scored_fallback_when_top_is_empty() {
        let kb = kb();
        let queries = vec![
            bq("SELECT ?x { res:Frank_Herbert dbont:birthPlace ?x }", 10.0), // no fact
            bq("SELECT ?x { res:Abraham_Lincoln dbont:deathPlace ?x }", 1.0),
        ];
        let ans = best_answer(kb, ExpectedType::Place, false, &queries, &AnswerConfig::default())
            .unwrap();
        assert!(ans.sparql.contains("Abraham_Lincoln"));
        assert_eq!(ans.score, 1.0);
    }

    #[test]
    fn empty_queries_yield_none() {
        let kb = kb();
        assert!(best_answer(kb, ExpectedType::Unconstrained, false, &[], &AnswerConfig::default())
            .is_none());
    }

    #[test]
    fn malformed_query_is_skipped_not_fatal() {
        let kb = kb();
        // An ASK candidate for a list question cannot supply its answer.
        let queries = vec![
            bq("ASK { res:Turkey dbont:capital res:Ankara }", 10.0),
            bq("SELECT ?x { res:Turkey dbont:capital ?x }", 1.0),
        ];
        let ans = best_answer(kb, ExpectedType::Unconstrained, false, &queries, &AnswerConfig::default())
            .unwrap();
        assert!(ans.sparql.contains("capital"));
    }

    #[test]
    fn result_kind_mismatch_counts_as_failed_not_empty() {
        let kb = kb();
        // A SELECT candidate for a polar question (and vice versa) is a
        // malformed candidate: it must be counted under `failed` and the
        // well-formed fallback must still win — never a panic, never a
        // silent "no answer" bucket.
        let polar = vec![
            bq("SELECT ?x { res:Snow dbont:author ?x }", 10.0),
            bq("ASK { res:Snow dbont:author res:Orhan_Pamuk }", 1.0),
        ];
        let (ans, stats) =
            extract_answer_traced(kb, ExpectedType::Boolean, true, &polar, &AnswerConfig::default());
        assert_eq!(ans.unwrap().value, AnswerValue::Boolean(true));
        assert_eq!(stats.failed, 1, "{stats:?}");

        let list = vec![
            bq("ASK { res:Snow dbont:author res:Orhan_Pamuk }", 10.0),
            bq("SELECT ?x { res:Turkey dbont:capital ?x }", 1.0),
        ];
        let (ans, stats) =
            extract_answer_traced(kb, ExpectedType::Unconstrained, false, &list, &AnswerConfig::default());
        assert!(ans.unwrap().sparql.contains("capital"));
        assert_eq!(stats.failed, 1, "{stats:?}");
    }

    #[test]
    fn early_termination_stops_at_first_survivor() {
        let kb = kb();
        let queries = vec![
            bq("SELECT ?x { ?x dbont:author res:Orhan_Pamuk }", 10.0), // survives
            bq("SELECT ?x { res:Turkey dbont:capital ?x }", 5.0),      // never sent
            bq("SELECT ?x { res:Turkey dbont:capital ?x }", 1.0),      // never sent
        ];
        let (early, stats) = extract_answer_traced(
            kb,
            ExpectedType::Unconstrained,
            false,
            &queries,
            &AnswerConfig::default(),
        );
        assert_eq!(stats.executed, 1, "{stats:?}");
        assert_eq!(stats.survived, 1);
        // The top-ranked candidate answers on its own, as a full sweep
        // would select it.
        let config = AnswerConfig::default();
        let alone = best_answer(kb, ExpectedType::Unconstrained, false, &queries[..1], &config);
        assert_eq!(early, alone);
    }

    #[test]
    fn exhaustive_reports_true_executed_count() {
        let kb = kb();
        // No survivor anywhere → the sweep executes everything.
        let queries = vec![
            bq("SELECT ?x { res:Frank_Herbert dbont:birthPlace ?x }", 2.0),
            bq("SELECT ?x { res:Frank_Herbert dbont:deathPlace ?x }", 1.0),
        ];
        let (ans, stats) =
            extract_answer_traced(kb, ExpectedType::Place, false, &queries, &AnswerConfig::default());
        assert!(ans.is_none());
        assert_eq!(stats.executed, 2);
        assert_eq!(stats.survived, 0);
    }

    #[test]
    fn ask_early_termination_stops_at_first_true() {
        let kb = kb();
        let queries = vec![
            bq("ASK { res:Dune dbont:author res:Orhan_Pamuk }", 9.0), // false
            bq("ASK { res:Snow dbont:author res:Orhan_Pamuk }", 5.0), // true → stop
            bq("ASK { res:Snow dbont:author res:Orhan_Pamuk }", 1.0), // never sent
        ];
        let (ans, stats) = extract_answer_traced(
            kb,
            ExpectedType::Boolean,
            true,
            &queries,
            &AnswerConfig::default(),
        );
        assert_eq!(ans.unwrap().value, AnswerValue::Boolean(true));
        assert_eq!(stats.executed, 2, "{stats:?}");
        assert_eq!(stats.survived, 1);
    }

    #[test]
    fn all_failed_ask_batch_reports_failures() {
        let kb = kb();
        // SELECT candidates for a polar question: both are malformed.
        let queries = vec![
            bq("SELECT ?x { res:Snow dbont:author ?x }", 3.0),
            bq("SELECT ?x { res:Turkey dbont:capital ?x }", 1.0),
        ];
        let (ans, stats) = extract_answer_traced(
            kb,
            ExpectedType::Boolean,
            true,
            &queries,
            &AnswerConfig::default(),
        );
        assert!(ans.is_none());
        assert_eq!(stats.executed, 2);
        assert_eq!(stats.survived, 0);
        assert_eq!(stats.failed, 2, "malformed candidates must be distinguished");
    }

    #[test]
    fn dedup_preserves_first_seen_order_on_large_result_sets() {
        let kb = kb();
        // Every (subject, object) pair in the KB: thousands of rows with
        // heavy duplication across columns.
        let queries = vec![bq("SELECT ?s ?o { ?s ?p ?o }", 1.0)];
        let (ans, _) = extract_answer_traced(
            kb,
            ExpectedType::Unconstrained,
            false,
            &queries,
            &AnswerConfig::default(),
        );
        let AnswerValue::Terms(terms) = ans.unwrap().value else { panic!("expected terms") };
        assert!(terms.len() > 200, "want a large result set, got {}", terms.len());
        // Reference dedup: the old O(n²) Vec::contains approach.
        let mut reference: Vec<Term> = Vec::new();
        let sols = match kb.query("SELECT ?s ?o { ?s ?p ?o }").unwrap() {
            relpat_sparql::QueryResult::Solutions(s) => s,
            other => panic!("unexpected {other:?}"),
        };
        for row in &sols.rows {
            for cell in row.iter().flatten() {
                if !reference.contains(cell) {
                    reference.push(cell.clone());
                }
            }
        }
        assert_eq!(terms, reference);
    }

    #[test]
    fn explained_extraction_collects_one_plan_per_executed_query() {
        let kb = kb();
        // Texts carry a LIMIT marker no other test uses, so the shared
        // cache cannot have warmed them from a concurrently running test.
        let queries = vec![
            // Evaluation failure (?y is not in the pattern): no plan.
            bq("SELECT (COUNT(?y) AS ?n) { ?x dbont:author res:Orhan_Pamuk } LIMIT 9391", 10.0),
            bq("SELECT ?x { res:Frank_Herbert dbont:birthPlace ?x } LIMIT 9391", 5.0), // empty
            bq("SELECT ?x { ?x dbont:author res:Orhan_Pamuk } LIMIT 9391", 2.0), // survives → stop
            bq("SELECT ?x { res:Turkey dbont:capital ?x } LIMIT 9391", 1.0),     // never sent
        ];
        let mut plans = Vec::new();
        let (ans, stats) = extract_answer_explained(
            kb,
            ExpectedType::Unconstrained,
            false,
            &queries,
            &AnswerConfig::default(),
            &mut plans,
        );
        assert!(ans.is_some());
        assert_eq!(stats.executed, 3);
        assert_eq!(stats.failed, 1);
        assert_eq!(plans.len(), 2, "one plan per successfully executed query");
        assert_eq!(plans[0].sparql, queries[1].sparql);
        assert_eq!(plans[1].sparql, queries[2].sparql);
        assert!(plans.iter().all(|p| !p.trace.cache_hit && !p.trace.steps.is_empty()));
        // Identical answer to the unexplained path, and a repeat run sees
        // cache hits instead of fresh executions.
        let (plain, _) = extract_answer_traced(
            kb,
            ExpectedType::Unconstrained,
            false,
            &queries,
            &AnswerConfig::default(),
        );
        assert_eq!(ans, plain);
        let mut replans = Vec::new();
        extract_answer_explained(
            kb,
            ExpectedType::Unconstrained,
            false,
            &queries,
            &AnswerConfig::default(),
            &mut replans,
        );
        assert!(replans.iter().all(|p| p.trace.cache_hit && p.trace.rows_scanned() == 0));
    }
}
