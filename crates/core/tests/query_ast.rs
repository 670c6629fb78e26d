//! Differential gate for the §2.3 planner's query output: every candidate
//! it emits carries both its SPARQL text and the `Query` the answer stage
//! executes, and the two must agree.
//!
//! 1. For every emitted [`BuiltQuery`], parsing its text yields exactly its
//!    `query` — so executing the AST is executing the text.
//! 2. An order-sensitive FNV-1a fingerprint of every emitted text is pinned:
//!    the bytes `Response`, `Answer.sparql` and traces show are unchanged.
//!
//! Scope: every QALD question at ×1 and ×12, under the standard beam
//! planner and under the paper's cartesian product.

use relpat_kb::{generate, qald_questions, KbConfig};
use relpat_patterns::{mine, CorpusConfig};
use relpat_qa::{Pipeline, PipelineConfig, PlannerStrategy};
use relpat_sparql::parse_query;

/// Pinned fingerprints of the emitted texts, per (scale, planner), in the
/// order of [`SCALES`] × [`planners`].
const EMITTED_FINGERPRINTS: [u64; 4] =
    [0x44b9_b600_1798_dd40, 0x44b9_b600_1798_dd40, 0x8db6_ba67_89c1_2e5f, 0x8db6_ba67_89c1_2e5f];

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
