//! Differential gate for the §2.3 planner's query output: every candidate
//! it emits carries both its SPARQL text and the `Query` the answer stage
//! executes, and the two must agree.
//!
//! 1. For every emitted [`BuiltQuery`], parsing its text yields exactly its
//!    `query` — so executing the AST is executing the text.
//! 2. An order-sensitive FNV-1a fingerprint of every emitted text is pinned:
//!    the bytes `Response`, `Answer.sparql` and traces show are unchanged.
//!
//! 3. On seeded template questions (noun predicates, class words beside a
//!    single-candidate mention, polar questions), a fingerprint of the
//!    emitted texts, every mapped triple's candidates and the resolved
//!    entities is pinned: the §2.2 output, not only the §2.3 text.
//!
//! Scope: every QALD question at ×1 and ×12, under the standard beam
//! planner and under the paper's cartesian product; the template questions
//! at ×1 and ×12 under the standard planner.

mod common;

use relpat_kb::{generate, qald_questions, KbConfig};
use relpat_patterns::{mine, CorpusConfig};
use relpat_qa::{MappedSlot, MappedTriple, Pipeline, PipelineConfig, PlannerStrategy};
use relpat_sparql::parse_query;

/// Pinned fingerprints of the emitted texts, per (scale, planner), in the
/// order of [`SCALES`] × [`planners`].
const EMITTED_FINGERPRINTS: [u64; 4] =
    [0x44b9_b600_1798_dd40, 0x44b9_b600_1798_dd40, 0x8db6_ba67_89c1_2e5f, 0x8db6_ba67_89c1_2e5f];

/// Pinned fingerprints of the template traffic's §2.2/§2.3 output, per
/// scale in the order of [`SCALES`].
const TEMPLATE_FINGERPRINTS: [u64; 2] = [0x21e4_847e_6042_4f7b, 0xb565_b884_edc9_a3c4];

/// Seed of the template questions.
const TEMPLATE_SEED: u64 = 23;

const SCALES: [usize; 2] = [1, 12];

fn planners() -> [PipelineConfig; 2] {
    [
        PipelineConfig::standard(),
        PipelineConfig { planner: PlannerStrategy::CartesianExhaustive, ..PipelineConfig::standard() },
    ]
}

/// FNV-1a over each text followed by a `0xff` byte (which UTF-8 never
/// contains), so text boundaries are part of the hash.
fn fnv(texts: impl Iterator<Item = impl AsRef<str>>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for text in texts {
        for &b in text.as_ref().as_bytes().iter().chain(&[0xff]) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn emitted_queries_parse_to_their_ast_and_keep_their_text() {
    let mut got = Vec::new();
    for scale in SCALES {
        let kb = generate(&KbConfig::scaled(scale));
        let questions = qald_questions(&kb);
        let store = mine(&kb, &CorpusConfig::default()).store;
        let mut pipeline = Pipeline::with_pattern_store(&kb, store, PipelineConfig::standard());
        for config in planners() {
            let planner = config.planner.name();
            pipeline.set_config(config);
            let mut texts = Vec::new();
            for q in &questions {
                for built in pipeline.answer(&q.text).queries {
                    assert_eq!(
                        parse_query(&built.sparql),
                        Ok(built.query.clone()),
                        "x{scale} {planner}: {}",
                        built.sparql
                    );
                    texts.push(built.sparql);
                }
            }
            assert!(texts.len() > 40, "x{scale} {planner}: only {} queries", texts.len());
            got.push(fnv(texts.iter()));
        }
    }
    assert_eq!(got, EMITTED_FINGERPRINTS, "emitted SPARQL text changed: {got:#x?}");
}

/// One line per emitted text, mapped triple and candidate: the class of a
/// type triple, the subject and object of a relation (an entity's IRI or
/// `?x`), and each candidate's property, weight bits and source.
fn mapped_lines(response: &relpat_qa::Response) -> Vec<String> {
    let mut lines: Vec<String> = response.queries.iter().map(|q| q.sparql.clone()).collect();
    let slot = |s: &MappedSlot| match s {
        MappedSlot::Var => "?x".to_string(),
        MappedSlot::Entity(e) => e.iri.as_str().to_string(),
    };
    for triple in response.mapped.iter().flat_map(|m| &m.triples) {
        match triple {
            MappedTriple::Type { class } => lines.push(format!("type {class}")),
            MappedTriple::Relation { subject, object, candidates } => {
                lines.push(format!("relation {} {}", slot(subject), slot(object)));
                for c in candidates {
                    lines.push(format!("{} {:#x} {:?}", c.property, c.weight.to_bits(), c.source));
                }
            }
        }
    }
    lines
}

#[test]
fn template_traffic_keeps_its_mapping_and_queries() {
    let mut got = Vec::new();
    for scale in SCALES {
        let kb = generate(&KbConfig::scaled(scale));
        let questions = common::template_questions(&kb, TEMPLATE_SEED);
        assert!(questions.len() >= 150, "x{scale}: only {} questions", questions.len());
        let store = mine(&kb, &CorpusConfig::default()).store;
        let pipeline = Pipeline::with_pattern_store(&kb, store, PipelineConfig::standard());
        let mut lines = Vec::new();
        let mut answered = 0;
        for q in &questions {
            let response = pipeline.answer(q);
            answered += usize::from(response.is_answered());
            lines.push(q.clone());
            lines.extend(mapped_lines(&response));
        }
        assert!(answered * 5 >= questions.len() * 4, "x{scale}: {answered} answered");
        got.push(fnv(lines.iter()));
    }
    assert_eq!(got, TEMPLATE_FINGERPRINTS, "template mapping or queries changed: {got:#x?}");
}
