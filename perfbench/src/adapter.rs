//! The one file that calls below the top-level entry points.
//!
//! Timed runs use only `Pipeline::new`/`answer`, `KnowledgeBase::query`,
//! `relpat_serve::spawn` and `App::handle`. The traced run replays the same
//! inputs stage by stage through the layer functions here, timing each call
//! from outside the program. When the program's internal entry points are
//! renamed or merged, only this file changes.

use std::io::Cursor;

use relpat_kb::KnowledgeBase;
use relpat_obs::fx::FxHashMap;
use relpat_obs::global;
use relpat_patterns::{mine, CorpusConfig};
use relpat_qa::{
    build_queries_planned, extract, extract_answer_traced, similar_property_pairs, Answer, Mapper,
    Pipeline, PipelineConfig,
};
use relpat_serve::http::{read_request, Request};
use relpat_sparql::{algebra, execute, parse_query, QueryResult};

use crate::report::timed_us;

/// Mines the relational patterns `Pipeline::new` would, returning the
/// pipeline built from them and the number of pattern occurrences mined.
pub fn mine_then_build(kb: &KnowledgeBase) -> (Pipeline<'_>, usize, f64) {
    let (mined, mine_us) = timed_us(|| mine(kb, &CorpusConfig::default()));
    let occurrences = mined.occurrences;
    let qa = Pipeline::with_pattern_store(kb, mined.store, PipelineConfig::standard());
    (qa, occurrences, mine_us / 1e6)
}

/// Per-stage record of one question replayed through the §2 layers.
#[derive(Debug, Default)]
pub struct QaStages {
    pub parse_us: f64,
    pub extract_us: f64,
    /// `None` for stages the question never reached.
    pub map_us: Option<f64>,
    pub build_us: Option<f64>,
    pub answer_us: Option<f64>,
    pub index_probed: u64,
    pub index_scored: u64,
    pub pattern_hits: u64,
    pub pattern_lookups: u64,
    pub plan_expanded: u64,
    pub plan_emitted: u64,
    pub executed: u64,
    pub survived: u64,
    /// The candidate queries the answer stage sent, in rank order.
    pub executed_queries: Vec<String>,
    pub answer: Option<Answer>,
}

/// Replays questions stage by stage against one pipeline.
pub struct QaStager<'a> {
    qa: &'a Pipeline<'a>,
    similar_pairs: FxHashMap<String, Vec<(String, f64)>>,
}

impl<'a> QaStager<'a> {
    pub fn new(qa: &'a Pipeline<'a>) -> Self {
        let similar_pairs = similar_property_pairs(qa.kb(), relpat_wordnet::embedded());
        QaStager { qa, similar_pairs }
    }

    /// The stages of `Pipeline::answer` for the paper configuration, in
    /// order, stopping where the pipeline would stop.
    pub fn run(&self, question: &str) -> QaStages {
        let kb = self.qa.kb();
        let config = self.qa.config();
        let mut s = QaStages::default();
        let (graph, us) = timed_us(|| relpat_nlp::parse_sentence(question));
        s.parse_us = us;
        let (analysis, us) = timed_us(|| extract(&graph));
        s.extract_us = us;
        let Some(analysis) = analysis else { return s };

        let mapper = Mapper {
            kb,
            wordnet: relpat_wordnet::embedded(),
            patterns: self.qa.patterns(),
            similar_pairs: &self.similar_pairs,
            config: config.mapping.clone(),
        };
        let (index_before, patterns_before) = (
            kb.lexical().lookup_stats(),
            self.qa.patterns().lookup_stats(),
        );
        let (mapped, us) = timed_us(|| mapper.map(&analysis));
        s.map_us = Some(us);
        let index = kb.lexical().lookup_stats().delta_since(&index_before);
        let lookups = self
            .qa
            .patterns()
            .lookup_stats()
            .delta_since(&patterns_before);
        s.index_probed = index.probed;
        s.index_scored = index.scored;
        s.pattern_hits = lookups.phrase_hits + lookups.word_hits;
        s.pattern_lookups = lookups.total();
        let Some(mapped) = mapped else { return s };

        let ((queries, plan), us) = timed_us(|| {
            build_queries_planned(
                kb,
                &analysis,
                &mapped,
                config.max_queries.max(1),
                config.planner,
            )
        });
        s.build_us = Some(us);
        s.plan_expanded = plan.expanded;
        s.plan_emitted = plan.emitted;
        if queries.is_empty() {
            return s;
        }

        let ((answer, exec), us) = timed_us(|| {
            extract_answer_traced(
                kb,
                analysis.expected,
                analysis.ask,
                &queries,
                &config.answer,
            )
        });
        s.answer_us = Some(us);
        s.executed = exec.executed;
        s.survived = exec.survived;
        // The sequential ranked sweep sends a prefix of the ranked list.
        s.executed_queries = queries
            .iter()
            .take(exec.executed as usize)
            .map(|q| q.sparql.clone())
            .collect();
        s.answer = answer;
        s
    }
}

/// Per-layer record of one SPARQL query executed without the cache.
#[derive(Debug, Default)]
pub struct SparqlStages {
    pub parse_us: f64,
    pub lower_us: f64,
    /// `execute` on the parsed query; it lowers again internally.
    pub execute_us: f64,
    pub rows_scanned: u64,
    pub rows_out: u64,
    pub merge: u64,
    pub gallop: u64,
    pub nested: u64,
}

const ENGINE_COUNTERS: [&str; 4] = [
    "sparql.rows_scanned",
    "sparql.join.merge",
    "sparql.join.gallop",
    "sparql.join.nested",
];

fn engine_counters() -> [u64; 4] {
    ENGINE_COUNTERS.map(|name| global().counter_value(name))
}

/// Parses, lowers and executes `text` (uncached), timing each layer and
/// reading the engine's scan and join counters around the execution.
pub fn stage_query(kb: &KnowledgeBase, text: &str) -> Result<SparqlStages, String> {
    let (parsed, parse_us) = timed_us(|| parse_query(text));
    let parsed = parsed.map_err(|e| e.to_string())?;
    let (_, lower_us) = timed_us(|| algebra::lower(&kb.graph, &parsed, None));
    let before = engine_counters();
    let (result, execute_us) = timed_us(|| execute(&kb.graph, &parsed));
    let after = engine_counters();
    let rows_out = match result.map_err(|e| e.to_string())? {
        QueryResult::Solutions(sols) => sols.rows.len() as u64,
        QueryResult::Boolean(_) => 1,
    };
    let d = |i: usize| after[i] - before[i];
    Ok(SparqlStages {
        parse_us,
        lower_us,
        execute_us,
        rows_scanned: d(0),
        rows_out,
        merge: d(1),
        gallop: d(2),
        nested: d(3),
    })
}

/// Parses recorded request bytes with the server's own HTTP reader.
pub fn read_recorded_request(bytes: &[u8]) -> Result<Request, String> {
    read_request(&mut Cursor::new(bytes)).map_err(|_| "recorded request does not parse".to_string())
}
