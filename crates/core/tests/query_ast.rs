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
//! 4. The §2.1 front end is pinned on its own: each question's tags and
//!    lemmas, root, per-token head slot, each head's children in attachment
//!    order (the order `child_with` returns first) and the extracted triple
//!    bucket.
//!
//! Scope: every QALD question at ×1 and ×12, under the standard beam
//! planner and under the paper's cartesian product; the template questions
//! at ×1 and ×12 under the standard planner; the front end on both, plus
//! the parser's archetype sentences.

mod common;

use relpat_kb::{generate, qald_questions, KbConfig, KnowledgeBase};
use relpat_patterns::{mine, CorpusConfig};
use relpat_qa::{extract, MappedSlot, MappedTriple, Pipeline, PipelineConfig, PlannerStrategy};
use relpat_sparql::parse_query;

/// Pinned fingerprints of the emitted texts, per (scale, planner), in the
/// order of [`SCALES`] × [`planners`].
const EMITTED_FINGERPRINTS: [u64; 4] =
    [0x44b9_b600_1798_dd40, 0x44b9_b600_1798_dd40, 0x8db6_ba67_89c1_2e5f, 0x8db6_ba67_89c1_2e5f];

/// Pinned fingerprints of the template traffic's §2.2/§2.3 output, per
/// scale in the order of [`SCALES`].
const TEMPLATE_FINGERPRINTS: [u64; 2] = [0x21e4_847e_6042_4f7b, 0xb565_b884_edc9_a3c4];

/// Pinned fingerprint of the §2.1 front end over every QALD and template
/// question at ×1 and ×12 and [`ARCHETYPES`].
const FRONT_END_FINGERPRINT: u64 = 0x2073_d58a_7d42_1dff;

/// The sentences of `relpat-nlp`'s archetype sweep.
const ARCHETYPES: [&str; 36] = [
    "Which song is written by Michael Jackson?",
    "Which game was developed by Vertex Systems?",
    "Which album was released by Thriller?",
    "Which city was founded by the Romans?",
    "Who founded Vertex Systems?",
    "Who composed Thriller?",
    "Who produced Avatar?",
    "Who painted the tower?",
    "What is the currency of Turkey?",
    "What is the official language of Germany?",
    "Who is the leader of France?",
    "What is the area of Turkey?",
    "Where did Helen Fischer work?",
    "When did the war start?",
    "Where does Maria Santos live?",
    "When did Viktor Novak die?",
    "Which songs did Michael Jackson write?",
    "Which games did Vertex Systems develop?",
    "Which books did Frank Herbert write?",
    "Give me all songs written by Michael Jackson.",
    "Give me all games developed by Vertex Systems.",
    "Give me all albums released by Thriller.",
    "Is Istanbul the largest city of Turkey?",
    "Was Titanic directed by James Cameron?",
    "Is Michelle Obama still alive?",
    "Who is Obama's wife?",
    "What is Turkey's capital?",
    "Colorless green ideas sleep furiously and quietly together",
    "books books books books",
    "of by with from",
    "Who who who?",
    "",
    "?",
    "12345 67890",
    "Give me all films directed by James Cameron.",
    "In which city was Ludwig van Beethoven born?",
];

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
/// `?x`), and each candidate's property name, weight bits and source.
fn mapped_lines(kb: &KnowledgeBase, response: &relpat_qa::Response) -> Vec<String> {
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
                    let name = kb.ontology.property(c.property).name;
                    lines.push(format!("{name} {:#x} {:?}", c.weight.to_bits(), c.source));
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
            lines.extend(mapped_lines(&kb, &response));
        }
        assert!(answered * 5 >= questions.len() * 4, "x{scale}: {answered} answered");
        got.push(fnv(lines.iter()));
    }
    assert_eq!(got, TEMPLATE_FINGERPRINTS, "template mapping or queries changed: {got:#x?}");
}

/// One line per token (text, lemma, tag, head slot), the root, one line per
/// head listing its children in attachment order, and the triple bucket.
fn front_end_lines(question: &str) -> Vec<String> {
    let graph = relpat_nlp::parse_sentence(question);
    let mut lines = vec![question.to_string(), format!("root {:?}", graph.root)];
    for (i, t) in graph.tokens.iter().enumerate() {
        let head = graph.head_of(i).map(|(h, rel)| format!("{h} {rel}"));
        lines.push(format!("{} {} {} {head:?}", t.text, t.lemma, t.pos.label()));
    }
    for h in 0..graph.tokens.len() {
        let children: Vec<usize> = graph.children(h).map(|(d, _)| d).collect();
        if !children.is_empty() {
            lines.push(format!("children {h} {children:?}"));
        }
    }
    match extract(&graph) {
        Some(analysis) => lines.push(analysis.to_bucket_string()),
        None => lines.push("not attempted".to_string()),
    }
    lines
}

#[test]
fn front_end_keeps_its_tags_graph_and_triples() {
    let mut questions: Vec<String> = ARCHETYPES.iter().map(|q| q.to_string()).collect();
    for scale in SCALES {
        let kb = generate(&KbConfig::scaled(scale));
        questions.extend(qald_questions(&kb).into_iter().map(|q| q.text));
        questions.extend(common::template_questions(&kb, TEMPLATE_SEED));
    }
    assert!(questions.len() >= 500, "only {} questions", questions.len());
    let got = fnv(questions.iter().flat_map(|q| front_end_lines(q)));
    assert_eq!(got, FRONT_END_FINGERPRINT, "front-end output changed: {got:#x}");
}
