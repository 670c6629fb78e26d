//! The end-to-end question answering pipeline.
//!
//! Wires the paper's three steps — triple pattern extraction (§2.1), entity
//! and property extraction (§2.2), answer extraction (§2.3) — behind one
//! `answer()` call, and records at which stage a question fell out (the
//! paper's "not attempted" bucket).

use relpat_kb::KnowledgeBase;
use relpat_obs::fx::FxHashMap;
use relpat_obs::{QuestionTrace, TraceAnswer, TraceCandidate, TraceTriple};
use relpat_patterns::{mine, CorpusConfig, PatternStore};
use relpat_wordnet::{embedded, WordNet};

use crate::answer::{
    extract_answer_explained, extract_answer_traced, Answer, AnswerConfig, AnswerValue, ExecStats,
};
use crate::extensions::ExtensionConfig;
use crate::mapping::{
    similar_property_pairs, MappedQuestion, MappedSlot, MappedTriple, Mapper, MappingConfig,
};
use crate::queries::{build_queries_planned, BuiltQuery, PlanStats, PlannerStrategy};
use crate::triples::{extract, QuestionAnalysis};

/// Where processing stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// §2.1 produced no triples — question structure not covered.
    ExtractionFailed,
    /// §2.2 could not resolve an entity/class/property slot.
    MappingFailed,
    /// Queries ran but nothing survived execution + type checking.
    NoAnswer,
    /// An answer was produced.
    Answered,
}

/// Full configuration (mapping knobs + answer knobs + query cap +
/// future-work extensions).
#[derive(Debug, Clone, Default)]
pub struct PipelineConfig {
    pub mapping: MappingConfig,
    pub answer: AnswerConfig,
    pub max_queries: usize,
    /// How §2.3 candidate assignments are searched; the beam planner is the
    /// default, [`PlannerStrategy::CartesianExhaustive`] is the differential
    /// reference.
    pub planner: PlannerStrategy,
    /// §5/§6 future-work extensions; all off in the paper configuration.
    pub extensions: ExtensionConfig,
}

impl PipelineConfig {
    /// The default configuration used for the Table-2 reproduction.
    pub fn standard() -> Self {
        PipelineConfig {
            mapping: MappingConfig::default(),
            answer: AnswerConfig::default(),
            max_queries: 50,
            planner: PlannerStrategy::default(),
            extensions: ExtensionConfig::default(),
        }
    }

    /// The extended system: every §5/§6 extension enabled, including the
    /// data-property patterns that close the paper's stated research gap.
    pub fn extended() -> Self {
        PipelineConfig {
            extensions: ExtensionConfig::all(),
            mapping: MappingConfig { use_data_patterns: true, ..MappingConfig::default() },
            ..Self::standard()
        }
    }
}

/// Everything the pipeline did for one question.
#[derive(Debug, Clone)]
pub struct Response {
    pub question: String,
    pub stage: Stage,
    pub analysis: Option<QuestionAnalysis>,
    pub mapped: Option<MappedQuestion>,
    /// Ranked candidate queries (§2.3).
    pub queries: Vec<BuiltQuery>,
    pub answer: Option<Answer>,
    /// Structured record of the run: extracted patterns, candidate counts,
    /// query counts, pattern-store hits/misses, per-stage durations.
    /// Serialize with `trace.to_json()`; `trace.render()` gives the §2
    /// walkthrough.
    pub trace: QuestionTrace,
}

impl Response {
    /// True when the system produced an answer (the paper's "processed"
    /// bucket: 18 of 55).
    pub fn is_answered(&self) -> bool {
        self.stage == Stage::Answered
    }

    /// Human-readable labels/lexical forms of the answer terms (empty when
    /// unanswered; `["true"|"false"]` for polar questions).
    pub fn answer_texts(&self, kb: &KnowledgeBase) -> Vec<String> {
        match &self.answer {
            Some(ans) => answer_value_texts(kb, &ans.value),
            None => Vec::new(),
        }
    }
}

/// Renders answer terms to display text (labels for IRIs, lexical forms for
/// literals, `true`/`false` for booleans).
fn answer_value_texts(kb: &KnowledgeBase, value: &AnswerValue) -> Vec<String> {
    match value {
        AnswerValue::Terms(terms) => terms
            .iter()
            .map(|t| match t {
                relpat_rdf::Term::Iri(iri) => {
                    kb.label_of(iri).unwrap_or(iri.local_name()).to_string()
                }
                relpat_rdf::Term::Literal(l) => l.lexical_form().to_string(),
                other => other.to_string(),
            })
            .collect(),
        AnswerValue::Boolean(b) => vec![b.to_string()],
    }
}

/// Builds the derivable part of a [`QuestionTrace`] from response contents.
/// Callers fill in execution stats, pattern-lookup deltas and stage timings.
pub(crate) fn trace_for(
    kb: &KnowledgeBase,
    question: &str,
    stage: Stage,
    analysis: Option<&QuestionAnalysis>,
    mapped: Option<&MappedQuestion>,
    queries: &[BuiltQuery],
    answer: Option<&Answer>,
) -> QuestionTrace {
    let mut trace = QuestionTrace::new(question);
    trace.stage = format!("{stage:?}");
    if let Some(a) = analysis {
        trace.kind = Some(format!("{:?}", a.kind));
        trace.expected = Some(format!("{:?}", a.expected));
        trace.extraction = Some(a.to_bucket_string());
    }
    if let Some(m) = mapped {
        trace.triples = m
            .triples
            .iter()
            .map(|t| match t {
                MappedTriple::Type { class } => TraceTriple {
                    head: format!("?x rdf:type dbont:{class}"),
                    candidates: Vec::new(),
                },
                MappedTriple::Relation { subject, object, candidates } => {
                    let render = |s: &MappedSlot| match s {
                        MappedSlot::Var => "?x".to_string(),
                        MappedSlot::Entity(e) => format!("{} <{}>", e.label, e.iri.as_str()),
                    };
                    TraceTriple {
                        head: format!("[{}] —?— [{}]", render(subject), render(object)),
                        candidates: candidates
                            .iter()
                            .map(|c| TraceCandidate {
                                property: c.property.clone(),
                                weight: c.weight,
                                source: format!("{:?}", c.source),
                            })
                            .collect(),
                    }
                }
            })
            .collect();
    }
    trace.queries_built = queries.len() as u64;
    trace.top_queries = queries.iter().take(5).map(|q| (q.score, q.sparql.clone())).collect();
    if let Some(ans) = answer {
        trace.answer = Some(TraceAnswer {
            texts: answer_value_texts(kb, &ans.value),
            score: ans.score,
            sparql: ans.sparql.clone(),
        });
    }
    trace
}

/// The question answering system.
pub struct Pipeline<'kb> {
    kb: &'kb KnowledgeBase,
    wordnet: &'static WordNet,
    patterns: PatternStore,
    similar_pairs: FxHashMap<String, Vec<(String, f64)>>,
    config: PipelineConfig,
}

impl<'kb> Pipeline<'kb> {
    /// Builds the pipeline with default configuration: mines relational
    /// patterns from the synthesized corpus and precomputes the WordNet
    /// similar-property list.
    pub fn new(kb: &'kb KnowledgeBase) -> Self {
        Self::with_config(kb, PipelineConfig::standard())
    }

    /// Builds with a custom configuration (ablation entry point). When
    /// extensions are enabled the mined corpus includes data-property
    /// sentences, closing the paper's §5 research gap.
    pub fn with_config(kb: &'kb KnowledgeBase, config: PipelineConfig) -> Self {
        let corpus = if config.extensions.any() {
            CorpusConfig::with_data_properties()
        } else {
            CorpusConfig::default()
        };
        let mined = mine(kb, &corpus);
        Self::with_pattern_store(kb, mined.store, config)
    }

    /// The extended system: paper pipeline + all §5/§6 future-work
    /// extensions (existence, superlative and count questions, data-property
    /// patterns).
    pub fn extended(kb: &'kb KnowledgeBase) -> Self {
        Self::with_config(kb, PipelineConfig::extended())
    }

    /// Builds with a pre-mined pattern store (lets callers reuse mining
    /// output across pipelines/ablations).
    pub fn with_pattern_store(
        kb: &'kb KnowledgeBase,
        patterns: PatternStore,
        config: PipelineConfig,
    ) -> Self {
        let wordnet = embedded();
        let similar_pairs = similar_property_pairs(kb, wordnet);
        Pipeline { kb, wordnet, patterns, similar_pairs, config }
    }

    /// The knowledge base this pipeline answers against.
    pub fn kb(&self) -> &KnowledgeBase {
        self.kb
    }

    /// The mined pattern store.
    pub fn patterns(&self) -> &PatternStore {
        &self.patterns
    }

    /// Current configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Replaces the configuration (for ablation sweeps on a built pipeline).
    pub fn set_config(&mut self, config: PipelineConfig) {
        self.config = config;
    }

    fn mapper(&self) -> Mapper<'_> {
        Mapper {
            kb: self.kb,
            wordnet: self.wordnet,
            patterns: &self.patterns,
            similar_pairs: &self.similar_pairs,
            config: self.config.mapping.clone(),
        }
    }

    /// Answers a natural-language question.
    pub fn answer(&self, question: &str) -> Response {
        self.answer_impl(question, false)
    }

    /// Answers with EXPLAIN ANALYZE: identical to [`answer`](Self::answer)
    /// except the response's `trace.plans` carries one [`QueryPlan`] per
    /// SPARQL query executed for the question (planner estimates vs. actual
    /// rows scanned per join step; cache hits flagged), in execution order.
    /// Answers are unchanged.
    ///
    /// [`QueryPlan`]: relpat_obs::QueryPlan
    pub fn answer_explained(&self, question: &str) -> Response {
        self.answer_impl(question, true)
    }

    fn answer_impl(&self, question: &str, explain: bool) -> Response {
        let _timer = relpat_obs::span!("qa.total");
        let graph = relpat_nlp::parse_sentence(question);
        let response = self.standard_answer(question, &graph, explain);
        if response.stage != Stage::Answered && self.config.extensions.any() {
            if let Some(extended) = crate::extensions::try_answer(
                &self.mapper(),
                self.config.extensions,
                question,
                &graph,
                &response,
            ) {
                return extended;
            }
        }
        response
    }

    /// The paper's three-stage pipeline (no extensions), instrumented: each
    /// stage is timed into the global `qa.*` histograms and recorded in the
    /// response's [`QuestionTrace`], and pattern-store lookups during
    /// mapping are attributed to this question by sampling the store's
    /// counters around the stage (accurate under the sequential
    /// one-question-at-a-time evaluation loop).
    /// With `explain` set, answer extraction also collects per-query plan
    /// traces into the response's `trace.plans`.
    fn standard_answer(
        &self,
        question: &str,
        graph: &relpat_nlp::DepGraph,
        explain: bool,
    ) -> Response {
        let mut timings: Vec<(&'static str, u64)> = Vec::new();
        let lookups_before = self.patterns.lookup_stats();

        let timer = relpat_obs::span!("qa.extract");
        let analysis = extract(graph);
        timings.push(("extract", timer.finish()));
        let Some(analysis) = analysis else {
            return self.finish(
                question,
                Stage::ExtractionFailed,
                None,
                None,
                Vec::new(),
                None,
                ExecStats::default(),
                None,
                &lookups_before,
                timings,
            );
        };

        let timer = relpat_obs::span!("qa.map");
        let mapped = self.mapper().map(&analysis);
        timings.push(("map", timer.finish()));
        let Some(mapped) = mapped else {
            return self.finish(
                question,
                Stage::MappingFailed,
                Some(analysis),
                None,
                Vec::new(),
                None,
                ExecStats::default(),
                None,
                &lookups_before,
                timings,
            );
        };

        let timer = relpat_obs::span!("qa.build");
        let (queries, plan) = build_queries_planned(
            self.kb,
            &analysis,
            &mapped,
            self.config.max_queries.max(1),
            self.config.planner,
        );
        timings.push(("build", timer.finish()));
        if queries.is_empty() {
            return self.finish(
                question,
                Stage::MappingFailed,
                Some(analysis),
                Some(mapped),
                queries,
                None,
                ExecStats::default(),
                Some(plan),
                &lookups_before,
                timings,
            );
        }

        let timer = relpat_obs::span!("qa.answer");
        let mut plans = Vec::new();
        let (answer, exec) = if explain {
            extract_answer_explained(
                self.kb,
                analysis.expected,
                analysis.ask,
                &queries,
                &self.config.answer,
                &mut plans,
            )
        } else {
            extract_answer_traced(
                self.kb,
                analysis.expected,
                analysis.ask,
                &queries,
                &self.config.answer,
            )
        };
        timings.push(("answer", timer.finish()));
        let stage = if answer.is_some() { Stage::Answered } else { Stage::NoAnswer };
        let mut response = self.finish(
            question,
            stage,
            Some(analysis),
            Some(mapped),
            queries,
            answer,
            exec,
            Some(plan),
            &lookups_before,
            timings,
        );
        response.trace.plans = plans;
        response
    }

    /// Assembles the response plus its trace.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        question: &str,
        stage: Stage,
        analysis: Option<QuestionAnalysis>,
        mapped: Option<MappedQuestion>,
        queries: Vec<BuiltQuery>,
        answer: Option<Answer>,
        exec: ExecStats,
        plan: Option<PlanStats>,
        lookups_before: &relpat_obs::PatternLookupStats,
        timings: Vec<(&'static str, u64)>,
    ) -> Response {
        let mut trace = trace_for(
            self.kb,
            question,
            stage,
            analysis.as_ref(),
            mapped.as_ref(),
            &queries,
            answer.as_ref(),
        );
        trace.queries_executed = exec.executed;
        trace.queries_survived = exec.survived;
        trace.queries_failed = exec.failed;
        if let Some(plan) = plan {
            trace.planner = Some(self.config.planner.name().to_string());
            trace.plan_expanded = plan.expanded;
            trace.plan_pruned = plan.pruned;
            trace.plan_emitted = plan.emitted;
        }
        trace.pattern_lookups = self.patterns.lookup_stats().delta_since(lookups_before);
        for (name, nanos) in timings {
            trace.add_stage(name, nanos);
            relpat_obs::jevent!(
                relpat_obs::Level::Debug, "qa.stage",
                "stage" => name, "ns" => nanos,
            );
        }
        relpat_obs::jevent!(
            relpat_obs::Level::Info, "qa.question",
            "stage" => trace.stage,
            "total_ns" => trace.total_nanos(),
            "queries_executed" => trace.queries_executed,
        );
        Response {
            question: question.to_string(),
            stage,
            analysis,
            mapped,
            queries,
            answer,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::AnswerValue;
    use relpat_kb::{generate, KbConfig};
    
    use std::sync::OnceLock;

    fn pipeline() -> &'static Pipeline<'static> {
        static KB: OnceLock<KnowledgeBase> = OnceLock::new();
        static P: OnceLock<Pipeline<'static>> = OnceLock::new();
        P.get_or_init(|| {
            let kb = KB.get_or_init(|| generate(&KbConfig::tiny()));
            Pipeline::new(kb)
        })
    }

    fn answered_iris(r: &Response) -> Vec<String> {
        match &r.answer {
            Some(Answer { value: AnswerValue::Terms(ts), .. }) => ts
                .iter()
                .filter_map(|t| t.as_iri().map(|i| i.as_str().to_string()))
                .collect(),
            _ => Vec::new(),
        }
    }

    #[test]
    fn figure1_question_answers_pamuks_books() {
        let r = pipeline().answer("Which book is written by Orhan Pamuk?");
        assert!(r.is_answered(), "stage {:?}", r.stage);
        let iris = answered_iris(&r);
        assert_eq!(iris.len(), 3, "{iris:?}");
        assert!(iris.iter().any(|i| i.ends_with("Snow")));
    }

    #[test]
    fn how_tall_is_michael_jordan_gives_198() {
        let r = pipeline().answer("How tall is Michael Jordan?");
        assert!(r.is_answered());
        match &r.answer.as_ref().unwrap().value {
            AnswerValue::Terms(ts) => {
                let lit = ts[0].as_literal().unwrap();
                assert_eq!(lit.as_f64(), Some(1.98));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn where_did_lincoln_die_is_washington() {
        let r = pipeline().answer("Where did Abraham Lincoln die?");
        assert!(r.is_answered());
        let iris = answered_iris(&r);
        assert!(iris[0].ends_with("Washington"), "{iris:?}");
    }

    #[test]
    fn when_was_einstein_born_is_a_date() {
        let r = pipeline().answer("When was Albert Einstein born?");
        assert!(r.is_answered(), "stage {:?}", r.stage);
        match &r.answer.as_ref().unwrap().value {
            AnswerValue::Terms(ts) => {
                assert!(ts[0].as_literal().unwrap().is_date());
                assert_eq!(ts[0].as_literal().unwrap().lexical_form(), "1879-03-14");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn who_directed_titanic_is_cameron() {
        let r = pipeline().answer("Who directed Titanic?");
        assert!(r.is_answered());
        assert!(answered_iris(&r)[0].ends_with("James_Cameron"));
    }

    #[test]
    fn wife_of_obama_is_michelle() {
        let r = pipeline().answer("Who is the wife of Barack Obama?");
        assert!(r.is_answered(), "stage {:?}", r.stage);
        assert!(answered_iris(&r)[0].ends_with("Michelle_Obama"));
    }

    #[test]
    fn capital_of_turkey_is_ankara() {
        let r = pipeline().answer("What is the capital of Turkey?");
        assert!(r.is_answered());
        assert!(answered_iris(&r)[0].ends_with("Ankara"));
    }

    #[test]
    fn paper_failure_case_still_alive_unattempted() {
        let r = pipeline().answer("Is Frank Herbert still alive?");
        assert!(!r.is_answered());
        assert_eq!(r.stage, Stage::MappingFailed);
    }

    #[test]
    fn unparseable_question_fails_at_extraction() {
        let r = pipeline().answer("What is the highest mountain?");
        assert_eq!(r.stage, Stage::ExtractionFailed);
    }

    #[test]
    fn polar_question_answers_boolean() {
        let r = pipeline().answer("Was Abraham Lincoln married to Michelle Obama?");
        assert!(r.is_answered(), "stage {:?}", r.stage);
        assert_eq!(
            r.answer.as_ref().unwrap().value,
            AnswerValue::Boolean(false)
        );
    }

    #[test]
    fn give_me_all_films_by_cameron() {
        let r = pipeline().answer("Give me all films directed by James Cameron.");
        assert!(r.is_answered(), "stage {:?}", r.stage);
        assert_eq!(answered_iris(&r).len(), 2); // Titanic + Avatar
    }

    #[test]
    fn explain_traces_every_stage() {
        let r = pipeline().answer("Which book is written by Orhan Pamuk?");
        let trace = r.trace.render();
        assert!(trace.contains("§2.1"));
        assert!(trace.contains("rdf:type"));
        assert!(trace.contains("§2.2"));
        assert!(trace.contains("dbont:author"));
        assert!(trace.contains("§2.3"));
        assert!(trace.contains("Answer"));
        assert!(trace.contains("Snow"));
    }

    #[test]
    fn explain_reports_failures() {
        let r = pipeline().answer("What is the highest mountain?");
        assert!(r.trace.render().contains("FAILED"));
        let r = pipeline().answer("Is Frank Herbert still alive?");
        let trace = r.trace.render();
        assert!(trace.contains("alive"));
        assert!(trace.contains("MappingFailed"));
    }

    #[test]
    fn answer_texts_render_labels_and_literals() {
        let kb = pipeline().kb();
        let r = pipeline().answer("How tall is Michael Jordan?");
        assert_eq!(r.answer_texts(kb), vec!["1.98"]);
        let r = pipeline().answer("Who directed Titanic?");
        assert_eq!(r.answer_texts(kb), vec!["James Cameron"]);
        let r = pipeline().answer("gibberish blargh");
        assert!(r.answer_texts(kb).is_empty());
    }

    #[test]
    fn explained_answer_carries_plan_traces() {
        let p = pipeline();
        let plain = p.answer("Which book is written by Orhan Pamuk?");
        assert!(plain.trace.plans.is_empty(), "plain answers collect no plans");

        let r = p.answer_explained("Which book is written by Orhan Pamuk?");
        assert!(r.is_answered(), "stage {:?}", r.stage);
        assert_eq!(plain.answer.as_ref().map(|a| &a.value), r.answer.as_ref().map(|a| &a.value));
        assert_eq!(r.trace.plans.len() as u64, r.trace.queries_executed - r.trace.queries_failed);
        // Every executed query was answered from the warm cache or ran real
        // join steps whose scan totals the trace can sum.
        for plan in &r.trace.plans {
            assert!(plan.trace.cache_hit || !plan.trace.steps.is_empty(), "{plan:?}");
        }
        let rendered = r.trace.render();
        assert!(rendered.contains("Query plans (EXPLAIN ANALYZE):"), "{rendered}");
        assert!(r.trace.to_json().to_string().contains("\"plans\""));
    }

    #[test]
    fn response_records_queries_and_provenance() {
        let r = pipeline().answer("Which book is written by Orhan Pamuk?");
        assert!(!r.queries.is_empty());
        assert!(r.answer.as_ref().unwrap().score > 0.0);
        assert!(r.answer.as_ref().unwrap().sparql.contains("author"));
        assert!(r.analysis.is_some());
    }
}
