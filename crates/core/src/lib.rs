//! # relpat-qa — semantic question answering with relational patterns
//!
//! The paper's contribution (Hakimov et al., EDBT 2013 workshops): translate
//! natural-language questions into SPARQL over a DBpedia-style knowledge
//! base using the question's dependency graph and relational patterns.
//!
//! The pipeline has the paper's three steps:
//!
//! 1. **Triple pattern extraction** ([`extract`], §2.1) — candidate RDF
//!    triples from the dependency tree + POS tags;
//! 2. **Entity & property extraction** ([`Mapper`], §2.2) — string
//!    similarity (greatest common subsequence), WordNet similar-property
//!    pairs and adjective lists, relational patterns with frequencies, and
//!    page-link-centrality entity disambiguation;
//! 3. **Answer extraction** ([`extract_answer_traced`], §2.3) — candidate
//!    query execution, frequency-product ranking, expected-type checking
//!    (Table 1).
//!
//! ```no_run
//! use relpat_kb::{generate, KbConfig};
//! use relpat_qa::Pipeline;
//!
//! let kb = generate(&KbConfig::default());
//! let qa = Pipeline::new(&kb);
//! let response = qa.answer("Which book is written by Orhan Pamuk?");
//! assert!(response.is_answered());
//! ```

mod answer;
mod baseline;
mod extensions;
mod mapping;
mod pipeline;
mod queries;
mod similarity;
mod triples;

pub use answer::{
    extract_answer_traced, type_check, Answer, AnswerConfig, AnswerValue, ExecStats,
};
pub use baseline::{BaselineAnswer, KeywordBaseline, TemplateBaseline};
pub use extensions::ExtensionConfig;
pub use mapping::{
    similar_property_pairs, CandidateSource, MappedQuestion, MappedSlot, MappedTriple, Mapper,
    MappingConfig, PropertyCandidate, ResolvedEntity,
};
pub use pipeline::{Pipeline, PipelineConfig, Response, Stage};
pub use queries::{build_queries, build_queries_planned, BuiltQuery, PlanStats, PlannerStrategy};
pub use similarity::{
    lcs_len, lcs_len_with, lcs_score, lcs_score_pre, property_name_score,
    property_name_score_pre, split_camel_case, LcsScratch,
};
pub use triples::{
    extract, ExpectedType, PatternTriple, PredKind, PredicateSlot, QuestionAnalysis,
    QuestionKind, SlotTerm,
};
