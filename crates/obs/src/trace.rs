//! Per-question pipeline traces.
//!
//! A [`QuestionTrace`] is the structured record of everything the QA
//! pipeline did for one question: the extracted triple patterns (§2.1 of
//! the paper), the candidate mappings per slot (§2.2), how many SPARQL
//! queries were built / executed / survived (§2.3), pattern-store hit/miss
//! counts, and per-stage wall-clock durations. It serializes to JSON via
//! [`to_json`](QuestionTrace::to_json) and renders the human-readable
//! walkthrough via [`render`](QuestionTrace::render) — the pipeline's
//! `explain()` is defined as exactly that rendering, so the explanation and
//! the trace cannot drift apart.

use std::fmt::Write as _;

use crate::json::Json;
use crate::plan::QueryPlan;

/// One timed pipeline stage (monotonic-clock duration).
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    pub name: String,
    pub nanos: u64,
}

/// Pattern-store lookup outcomes observed while mapping one question.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatternLookupStats {
    pub phrase_hits: u64,
    pub phrase_misses: u64,
    pub word_hits: u64,
    pub word_misses: u64,
}

impl PatternLookupStats {
    pub fn total(&self) -> u64 {
        self.phrase_hits + self.phrase_misses + self.word_hits + self.word_misses
    }

    /// Fieldwise `self - earlier` (saturating) — attributes a shared
    /// store's cumulative counters to one pipeline stage by sampling before
    /// and after it.
    pub fn delta_since(&self, earlier: &PatternLookupStats) -> PatternLookupStats {
        PatternLookupStats {
            phrase_hits: self.phrase_hits.saturating_sub(earlier.phrase_hits),
            phrase_misses: self.phrase_misses.saturating_sub(earlier.phrase_misses),
            word_hits: self.word_hits.saturating_sub(earlier.word_hits),
            word_misses: self.word_misses.saturating_sub(earlier.word_misses),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("phrase_hits", self.phrase_hits)
            .set("phrase_misses", self.phrase_misses)
            .set("word_hits", self.word_hits)
            .set("word_misses", self.word_misses)
    }
}

/// One candidate mapping for a relation slot (§2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCandidate {
    /// Property local name (rendered as `dbont:<property>`).
    pub property: String,
    pub weight: f64,
    /// Which evidence source proposed it (pattern store, WordNet, ...).
    pub source: String,
}

/// One mapped triple pattern. `head` is the rendered pattern head — either
/// a complete line (`?x rdf:type dbont:Book`) when there are no candidates,
/// or the slot rendering (`[?x] —?— [Orhan Pamuk <iri>]`) followed by the
/// candidate list.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceTriple {
    pub head: String,
    pub candidates: Vec<TraceCandidate>,
}

/// The selected answer, pre-rendered to text.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceAnswer {
    pub texts: Vec<String>,
    pub score: f64,
    pub sparql: String,
}

/// Structured record of one pipeline run over one question.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuestionTrace {
    pub question: String,
    /// Terminal stage name (`Answered`, `MappingFailed`, ...).
    pub stage: String,
    /// Question kind from §2.1 analysis (`None` when extraction failed).
    pub kind: Option<String>,
    /// Expected answer type from §2.1 analysis.
    pub expected: Option<String>,
    /// The §2.1 bucket rendering of the extracted triple patterns.
    pub extraction: Option<String>,
    /// Mapped triples with per-slot candidates (§2.2); empty when mapping
    /// failed or was never reached.
    pub triples: Vec<TraceTriple>,
    /// Candidate queries built by the query planner (§2.3).
    pub queries_built: u64,
    /// Planner strategy that built the queries (`beam`, `cartesian`);
    /// `None` when planning was never reached.
    pub planner: Option<String>,
    /// Assignment states the planner branched on (beam: frontier pops;
    /// cartesian: combinations materialized by the fold).
    pub plan_expanded: u64,
    /// Assignment states discarded without exploration (beam: frontier
    /// leftover once the top-k was proved; cartesian: final truncation).
    pub plan_pruned: u64,
    /// Complete ranked assignments emitted as queries (pre-dedup).
    pub plan_emitted: u64,
    /// Queries actually sent to the SPARQL engine.
    pub queries_executed: u64,
    /// Queries whose solutions survived execution + type checking.
    pub queries_survived: u64,
    /// Executed queries that failed to parse or evaluate (a batch where
    /// every candidate fails is distinguishable from one that merely found
    /// nothing).
    pub queries_failed: u64,
    /// Top ranked queries as `(score, sparql)`.
    pub top_queries: Vec<(f64, String)>,
    /// Pattern-store hit/miss counts observed during mapping.
    pub pattern_lookups: PatternLookupStats,
    /// Per-stage durations in pipeline order.
    pub stages: Vec<StageTiming>,
    pub answer: Option<TraceAnswer>,
    /// EXPLAIN ANALYZE plan traces of the queries executed for this
    /// question, in execution order. Populated only when the caller asked
    /// for an explained answer; empty otherwise (and omitted from the
    /// rendering when empty, so plain traces are unchanged).
    pub plans: Vec<QueryPlan>,
}

impl QuestionTrace {
    pub fn new(question: &str) -> Self {
        QuestionTrace { question: question.to_string(), ..Default::default() }
    }

    /// Appends a timed stage.
    pub fn add_stage(&mut self, name: &str, nanos: u64) {
        self.stages.push(StageTiming { name: name.to_string(), nanos });
    }

    /// Duration of a named stage, if it ran.
    pub fn stage_nanos(&self, name: &str) -> Option<u64> {
        self.stages.iter().find(|s| s.name == name).map(|s| s.nanos)
    }

    /// Total traced wall-clock time across all stages.
    pub fn total_nanos(&self) -> u64 {
        self.stages.iter().map(|s| s.nanos).sum()
    }

    /// Serializes the full trace as a JSON object.
    pub fn to_json(&self) -> Json {
        let opt = |v: &Option<String>| match v {
            Some(s) => Json::from(s.as_str()),
            None => Json::Null,
        };
        let triples = self
            .triples
            .iter()
            .map(|t| {
                Json::obj().set("head", t.head.as_str()).set(
                    "candidates",
                    Json::Arr(
                        t.candidates
                            .iter()
                            .map(|c| {
                                Json::obj()
                                    .set("property", c.property.as_str())
                                    .set("weight", Json::Num(c.weight))
                                    .set("source", c.source.as_str())
                            })
                            .collect(),
                    ),
                )
            })
            .collect();
        let top_queries = self
            .top_queries
            .iter()
            .map(|(score, sparql)| {
                Json::obj().set("score", Json::Num(*score)).set("sparql", sparql.as_str())
            })
            .collect();
        let stages = self
            .stages
            .iter()
            .map(|s| Json::obj().set("name", s.name.as_str()).set("nanos", s.nanos))
            .collect();
        let answer = match &self.answer {
            Some(a) => Json::obj()
                .set("texts", Json::Arr(a.texts.iter().map(|t| Json::from(t.as_str())).collect()))
                .set("score", Json::Num(a.score))
                .set("sparql", a.sparql.as_str()),
            None => Json::Null,
        };
        let mut obj = Json::obj()
            .set("question", self.question.as_str())
            .set("stage", self.stage.as_str())
            .set("kind", opt(&self.kind))
            .set("expected", opt(&self.expected))
            .set("extraction", opt(&self.extraction))
            .set("triples", Json::Arr(triples))
            .set("queries_built", self.queries_built)
            .set("planner", opt(&self.planner))
            .set("plan_expanded", self.plan_expanded)
            .set("plan_pruned", self.plan_pruned)
            .set("plan_emitted", self.plan_emitted)
            .set("queries_executed", self.queries_executed)
            .set("queries_survived", self.queries_survived)
            .set("queries_failed", self.queries_failed)
            .set("top_queries", Json::Arr(top_queries))
            .set("pattern_lookups", self.pattern_lookups.to_json())
            .set("stages", Json::Arr(stages))
            .set("answer", answer);
        if !self.plans.is_empty() {
            obj = obj
                .set("plans", Json::Arr(self.plans.iter().map(QueryPlan::to_json).collect()));
        }
        obj
    }

    /// Renders the human-readable §2 walkthrough of the pipeline's run.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Question: {}", self.question);
        match (&self.kind, &self.extraction) {
            (Some(kind), Some(buckets)) => {
                let _ = writeln!(out, "\n§2.1 Triple pattern extraction ({kind}):");
                out.push_str(buckets);
                if let Some(expected) = &self.expected {
                    let _ = writeln!(out, "Expected answer type: {expected}");
                }
            }
            _ => {
                let _ = writeln!(
                    out,
                    "\n§2.1 Triple pattern extraction: FAILED — question structure not covered"
                );
            }
        }
        if !self.triples.is_empty() {
            let _ = writeln!(out, "\n§2.2 Entity & property mapping:");
            for t in &self.triples {
                if t.candidates.is_empty() {
                    let _ = writeln!(out, "  {}", t.head);
                } else {
                    let _ = writeln!(out, "  {}, candidates:", t.head);
                    for c in t.candidates.iter().take(6) {
                        let _ = writeln!(
                            out,
                            "     dbont:{:<18} w={:<7.1} {}",
                            c.property, c.weight, c.source
                        );
                    }
                }
            }
        } else if self.kind.is_some() {
            let _ = writeln!(out, "\n§2.2 Entity & property mapping: FAILED");
        }
        if self.queries_built > 0 {
            let _ = writeln!(out, "\n§2.3 Candidate queries ({}):", self.queries_built);
            if let Some(planner) = &self.planner {
                let _ = writeln!(
                    out,
                    "  planner {planner}: {} expanded, {} pruned, {} emitted",
                    self.plan_expanded, self.plan_pruned, self.plan_emitted
                );
            }
            for (score, sparql) in self.top_queries.iter().take(5) {
                let _ = writeln!(out, "  [{score:>8.1}] {sparql}");
            }
        }
        match &self.answer {
            Some(a) => {
                let _ = writeln!(out, "\nAnswer (score {:.1}):", a.score);
                for text in &a.texts {
                    let _ = writeln!(out, "  • {text}");
                }
                let _ = writeln!(out, "  via {}", a.sparql);
            }
            None => {
                let _ = writeln!(out, "\nNo answer — stage {}", self.stage);
            }
        }
        if !self.plans.is_empty() {
            let _ = writeln!(out, "\nQuery plans (EXPLAIN ANALYZE):");
            for p in &self.plans {
                let _ = writeln!(out, "  {}", p.sparql);
                for line in p.trace.render().lines() {
                    let _ = writeln!(out, "    {line}");
                }
            }
        }
        if !self.stages.is_empty() {
            let _ = writeln!(
                out,
                "\nTimings (queries: {} built, {} executed, {} survived, {} failed; pattern lookups: {}):",
                self.queries_built,
                self.queries_executed,
                self.queries_survived,
                self.queries_failed,
                self.pattern_lookups.total()
            );
            for s in &self.stages {
                let _ = writeln!(out, "  {:<12} {:>9.1} µs", s.name, s.nanos as f64 / 1_000.0);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QuestionTrace {
        let mut t = QuestionTrace::new("Which book is written by Orhan Pamuk?");
        t.stage = "Answered".to_string();
        t.kind = Some("Which".to_string());
        t.expected = Some("Resource".to_string());
        t.extraction = Some("  ?x rdf:type Book\n  ?x writtenBy Orhan_Pamuk\n".to_string());
        t.triples = vec![
            TraceTriple { head: "?x rdf:type dbont:Book".to_string(), candidates: Vec::new() },
            TraceTriple {
                head: "[?x] —?— [Orhan Pamuk <http://ex.org/Orhan_Pamuk>]".to_string(),
                candidates: vec![
                    TraceCandidate {
                        property: "author".to_string(),
                        weight: 120.0,
                        source: "Pattern".to_string(),
                    },
                    TraceCandidate {
                        property: "creator".to_string(),
                        weight: 3.5,
                        source: "WordNet".to_string(),
                    },
                ],
            },
        ];
        t.queries_built = 4;
        t.planner = Some("beam".to_string());
        t.plan_expanded = 3;
        t.plan_pruned = 2;
        t.plan_emitted = 4;
        t.queries_executed = 4;
        t.queries_survived = 1;
        t.queries_failed = 1;
        t.top_queries =
            vec![(120.0, "SELECT ?x WHERE { ?x <author> <Orhan_Pamuk> . }".to_string())];
        t.pattern_lookups = PatternLookupStats { phrase_hits: 1, word_hits: 2, ..Default::default() };
        t.add_stage("extract", 41_000);
        t.add_stage("map", 380_000);
        t.add_stage("answer", 912_000);
        t.answer = Some(TraceAnswer {
            texts: vec!["Snow".to_string()],
            score: 120.0,
            sparql: "SELECT ?x WHERE { ?x <author> <Orhan_Pamuk> . }".to_string(),
        });
        t
    }

    #[test]
    fn render_walks_every_stage() {
        let text = sample().render();
        for marker in [
            "§2.1",
            "rdf:type",
            "§2.2",
            "dbont:author",
            "§2.3",
            "planner beam: 3 expanded, 2 pruned, 4 emitted",
            "Answer",
            "Snow",
            "Timings",
        ] {
            assert!(text.contains(marker), "missing {marker:?} in:\n{text}");
        }
    }

    #[test]
    fn render_reports_failures() {
        let mut t = QuestionTrace::new("What is the highest mountain?");
        t.stage = "ExtractionFailed".to_string();
        let text = t.render();
        assert!(text.contains("FAILED"));
        assert!(text.contains("No answer — stage ExtractionFailed"));

        let mut t = QuestionTrace::new("Is Frank Herbert still alive?");
        t.stage = "MappingFailed".to_string();
        t.kind = Some("Polar".to_string());
        t.extraction = Some("  Frank_Herbert alive ?\n".to_string());
        let text = t.render();
        assert!(text.contains("§2.2 Entity & property mapping: FAILED"));
        assert!(text.contains("MappingFailed"));
    }

    #[test]
    fn json_round_trips_structure() {
        let t = sample();
        let json = t.to_json();
        let parsed = Json::parse(&json.to_pretty()).expect("valid JSON");
        assert_eq!(parsed.get("question").and_then(Json::as_str), Some(t.question.as_str()));
        assert_eq!(parsed.get("stage").and_then(Json::as_str), Some("Answered"));
        assert_eq!(parsed.get("queries_built").and_then(Json::as_u64), Some(4));
        assert_eq!(parsed.get("planner").and_then(Json::as_str), Some("beam"));
        assert_eq!(parsed.get("plan_expanded").and_then(Json::as_u64), Some(3));
        assert_eq!(parsed.get("plan_pruned").and_then(Json::as_u64), Some(2));
        assert_eq!(parsed.get("plan_emitted").and_then(Json::as_u64), Some(4));
        assert_eq!(parsed.get("queries_survived").and_then(Json::as_u64), Some(1));
        assert_eq!(parsed.get("queries_failed").and_then(Json::as_u64), Some(1));
        let triples = parsed.get("triples").and_then(Json::as_array).unwrap();
        assert_eq!(triples.len(), 2);
        let cands = triples[1].get("candidates").and_then(Json::as_array).unwrap();
        assert_eq!(cands[0].get("property").and_then(Json::as_str), Some("author"));
        let lookups = parsed.get("pattern_lookups").unwrap();
        assert_eq!(lookups.get("phrase_hits").and_then(Json::as_u64), Some(1));
        let stages = parsed.get("stages").and_then(Json::as_array).unwrap();
        assert_eq!(stages.len(), 3);
        assert_eq!(stages[1].get("name").and_then(Json::as_str), Some("map"));
        let answer = parsed.get("answer").unwrap();
        assert_eq!(answer.get("texts").and_then(Json::as_array).unwrap().len(), 1);
    }

    #[test]
    fn stage_accessors() {
        let t = sample();
        assert_eq!(t.stage_nanos("map"), Some(380_000));
        assert_eq!(t.stage_nanos("missing"), None);
        assert_eq!(t.total_nanos(), 41_000 + 380_000 + 912_000);
        assert_eq!(t.pattern_lookups.total(), 3);
    }

    #[test]
    fn plans_appear_only_when_collected() {
        use crate::plan::{PlanStep, PlanTrace};
        let plain = sample();
        assert!(!plain.render().contains("Query plans"));
        assert!(!plain.to_json().to_string().contains("\"plans\""));

        let mut explained = sample();
        explained.plans.push(QueryPlan {
            sparql: "SELECT ?x WHERE { ?x <author> <Orhan_Pamuk> . }".to_string(),
            trace: PlanTrace {
                steps: vec![PlanStep {
                    pattern: "?x <author> <Orhan_Pamuk> .".to_string(),
                    pattern_index: 0,
                    position: 0,
                    estimate: 1,
                    score: 1.0,
                    rows_scanned: 1,
                    join_algo: crate::plan::JoinAlgo::Nested,
                    bindings_emitted: 1,
                    nanos: 99,
                    limit_pushdown: false,
                }],
                ..PlanTrace::default()
            },
        });
        let text = explained.render();
        assert!(text.contains("Query plans (EXPLAIN ANALYZE):"), "{text}");
        assert!(text.contains("plan: 1 step, 1 rows scanned"), "{text}");
        let json = explained.to_json().to_string();
        assert!(json.contains("\"plans\""), "{json}");
        assert!(json.contains("\"estimate\":1"), "{json}");
    }

    #[test]
    fn unanswered_trace_serializes_nulls() {
        let mut t = QuestionTrace::new("gibberish");
        t.stage = "ExtractionFailed".to_string();
        let json = t.to_json().to_string();
        assert!(json.contains("\"kind\":null"), "{json}");
        assert!(json.contains("\"answer\":null"), "{json}");
    }
}
