//! Seeded template questions over a generated knowledge base, shared by the
//! integration gates that pin or diff the §2.2/§2.3 output on template
//! traffic: noun predicates, class words with single-candidate mentions and
//! polar questions, the shapes a serving load is made of.

#![allow(dead_code)]

use relpat_kb::KnowledgeBase;
use relpat_obs::rng::Rng;
use relpat_rdf::vocab::dbont;
use relpat_rdf::{Iri, Term};

/// Questions per template.
const PER_TEMPLATE: usize = 25;

/// The label of `iri` when it names no other entity, so the mention has a
/// single candidate.
fn unique_label<'k>(kb: &'k KnowledgeBase, iri: &Iri) -> Option<&'k str> {
    let label = kb.label_of(iri)?;
    (kb.entities_with_label(label).len() == 1).then_some(label)
}

/// `(subject, object)` IRI pairs of every `dbont:property` fact, in graph
/// order.
fn facts(kb: &KnowledgeBase, property: &str) -> Vec<(Iri, Term)> {
    let pred = Term::iri(dbont::iri(property));
    kb.graph
        .triples_matching(None, Some(&pred), None)
        .into_iter()
        .filter_map(|t| Some((t.subject.as_iri()?.clone(), t.object)))
        .collect()
}

fn distinct(mut iris: Vec<Iri>) -> Vec<Iri> {
    iris.sort_by(|a, b| a.as_str().cmp(b.as_str()));
    iris.dedup();
    iris
}

fn subjects(kb: &KnowledgeBase, property: &str) -> Vec<Iri> {
    distinct(facts(kb, property).into_iter().map(|(s, _)| s).collect())
}

fn objects(kb: &KnowledgeBase, property: &str) -> Vec<Iri> {
    distinct(
        facts(kb, property)
            .into_iter()
            .filter_map(|(_, o)| o.as_iri().cloned())
            .collect(),
    )
}

/// Fisher–Yates over the seeded stream.
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Up to [`PER_TEMPLATE`] seeded picks of `entities` with a unique label,
/// phrased by `phrase`.
fn pick(
    kb: &KnowledgeBase,
    mut entities: Vec<Iri>,
    phrase: fn(&str) -> String,
    rng: &mut Rng,
) -> Vec<String> {
    shuffle(&mut entities, rng);
    entities
        .iter()
        .filter_map(|e| unique_label(kb, e).map(phrase))
        .take(PER_TEMPLATE)
        .collect()
}

/// The seeded template questions, template by template.
pub fn template_questions(kb: &KnowledgeBase, seed: u64) -> Vec<String> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut out = Vec::new();
    // Noun predicates.
    out.extend(pick(
        kb,
        subjects(kb, "author"),
        |x| format!("Who is the author of {x}?"),
        &mut rng,
    ));
    out.extend(pick(
        kb,
        subjects(kb, "height"),
        |x| format!("What is the height of {x}?"),
        &mut rng,
    ));
    out.extend(pick(
        kb,
        subjects(kb, "capital"),
        |x| format!("What is the capital of {x}?"),
        &mut rng,
    ));
    out.extend(pick(
        kb,
        subjects(kb, "populationTotal"),
        |x| format!("What is the population of {x}?"),
        &mut rng,
    ));
    // Class words beside a single-candidate mention.
    out.extend(pick(
        kb,
        subjects(kb, "birthPlace"),
        |x| format!("In which city was {x} born?"),
        &mut rng,
    ));
    out.extend(pick(
        kb,
        objects(kb, "author"),
        |x| format!("Which books are written by {x}?"),
        &mut rng,
    ));
    out.extend(pick(
        kb,
        objects(kb, "director"),
        |x| format!("Which films did {x} direct?"),
        &mut rng,
    ));
    // Polar: a book's own author, or another writer.
    let writers = objects(kb, "author");
    let mut books = facts(kb, "author");
    shuffle(&mut books, &mut rng);
    let mut polar = 0;
    for (book, own) in &books {
        if polar == PER_TEMPLATE {
            break;
        }
        let (Some(title), Some(own)) = (unique_label(kb, book), own.as_iri()) else {
            continue;
        };
        let writer = if rng.gen_bool(0.5) {
            own
        } else {
            &writers[rng.gen_range(0..writers.len())]
        };
        if let Some(name) = unique_label(kb, writer) {
            out.push(format!("Did {name} write {title}?"));
            polar += 1;
        }
    }
    out
}
