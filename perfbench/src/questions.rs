//! The `qa_unique_100k` question stream: templates over the knowledge
//! base's own entities, following the covered QALD archetypes, with gold
//! answers computed before timing.

use relpat_kb::KnowledgeBase;
use relpat_obs::Rng;
use relpat_qa::{AnswerValue, Response};
use relpat_rdf::vocab::{dbont, rdf};
use relpat_rdf::{Iri, Term};
use relpat_sparql::QueryResult;

/// At most this many questions per template, so the person templates do
/// not swamp the rest of the mix.
const PER_TEMPLATE: usize = 3000;

/// Expected answer of one question.
#[derive(Debug, Clone, PartialEq)]
pub enum Gold {
    Terms(Vec<Term>),
    Boolean(bool),
}

impl Gold {
    /// Set equality for term answers, equality for polar ones; an
    /// unanswered response never matches.
    pub fn matches(&self, response: &Response) -> bool {
        match (self, response.answer.as_ref().map(|a| &a.value)) {
            (Gold::Boolean(g), Some(AnswerValue::Boolean(b))) => g == b,
            (Gold::Terms(gold), Some(AnswerValue::Terms(terms))) => {
                !gold.is_empty()
                    && terms.len() == gold.len()
                    && gold.iter().all(|g| terms.contains(g))
            }
            _ => false,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Question {
    pub text: String,
    pub gold: Gold,
}

fn class_members(kb: &KnowledgeBase, class: &str) -> Vec<Iri> {
    let ty = Term::iri(rdf::TYPE);
    let class = Term::iri(dbont::iri(class));
    kb.graph
        .triples_matching(None, Some(&ty), Some(&class))
        .into_iter()
        .filter_map(|t| t.subject.as_iri().cloned())
        .collect()
}

fn subjects_of(kb: &KnowledgeBase, property: &str) -> Vec<Iri> {
    let p = Term::iri(dbont::iri(property));
    let mut out: Vec<Iri> = kb
        .graph
        .triples_matching(None, Some(&p), None)
        .into_iter()
        .filter_map(|t| t.subject.as_iri().cloned())
        .collect();
    out.sort_by(|a, b| a.as_str().cmp(b.as_str()));
    out.dedup();
    out
}

/// The entity's label when no other entity shares it (an ambiguous
/// mention has no single template gold). Names with a middle initial
/// ("Irene T. Almeida") are skipped: the period ends the sentence for
/// the §2.1 tokenizer, so those questions are outside the covered
/// archetypes.
fn unique_label<'a>(kb: &'a KnowledgeBase, iri: &Iri) -> Option<&'a str> {
    let label = kb.label_of(iri)?;
    (!label.contains('.') && kb.entities_with_label(label).len() == 1).then_some(label)
}

pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

fn gold_of(kb: &KnowledgeBase, sparql: &str) -> Gold {
    // Uncached, so computing gold leaves the query cache cold.
    match kb.query_uncached(sparql).expect("gold query runs") {
        QueryResult::Boolean(b) => Gold::Boolean(b),
        QueryResult::Solutions(sols) => {
            let mut terms: Vec<Term> = Vec::new();
            for cell in sols.rows.iter().flatten().flatten() {
                if !terms.contains(cell) {
                    terms.push(cell.clone());
                }
            }
            Gold::Terms(terms)
        }
    }
}

/// Every distinct templated question (capped per template), in a seeded
/// order, with gold answers. The stream cycles through this pool, so a
/// question repeats only after all the others have been asked.
pub fn question_pool(kb: &KnowledgeBase, seed: u64) -> Vec<Question> {
    let mut rng = Rng::seed_from_u64(seed);
    let writers = class_members(kb, "Writer");
    let books = class_members(kb, "Book");
    type Phrase = fn(&str) -> String;
    let simple: [(Vec<Iri>, Phrase, &str); 12] = [
        (books.clone(), |x| format!("Who wrote {x}?"), "author"),
        (
            books.clone(),
            |x| format!("Who is the author of {x}?"),
            "author",
        ),
        (
            subjects_of(kb, "director"),
            |x| format!("Who directed {x}?"),
            "director",
        ),
        (
            subjects_of(kb, "birthPlace"),
            |x| format!("Where was {x} born?"),
            "birthPlace",
        ),
        (
            subjects_of(kb, "birthPlace"),
            |x| format!("In which city was {x} born?"),
            "birthPlace",
        ),
        (
            subjects_of(kb, "deathPlace"),
            |x| format!("Where did {x} die?"),
            "deathPlace",
        ),
        (
            subjects_of(kb, "birthDate"),
            |x| format!("When was {x} born?"),
            "birthDate",
        ),
        (
            subjects_of(kb, "deathDate"),
            |x| format!("When did {x} die?"),
            "deathDate",
        ),
        (
            subjects_of(kb, "height"),
            |x| format!("How tall is {x}?"),
            "height",
        ),
        (
            subjects_of(kb, "height"),
            |x| format!("What is the height of {x}?"),
            "height",
        ),
        (
            subjects_of(kb, "capital"),
            |x| format!("What is the capital of {x}?"),
            "capital",
        ),
        (
            subjects_of(kb, "populationTotal"),
            |x| format!("What is the population of {x}?"),
            "populationTotal",
        ),
    ];

    // (question, gold SPARQL) pairs, at most PER_TEMPLATE per template.
    let mut specs: Vec<(String, String)> = Vec::new();
    let mut take = |mut items: Vec<(String, String)>, rng: &mut Rng| {
        shuffle(&mut items, rng);
        items.truncate(PER_TEMPLATE);
        specs.extend(items);
    };
    for (entities, phrase, property) in simple {
        let items = entities
            .iter()
            .filter_map(|e| {
                let label = unique_label(kb, e)?;
                Some((
                    phrase(label),
                    format!("SELECT ?x {{ <{}> dbont:{property} ?x }}", e.as_str()),
                ))
            })
            .collect();
        take(items, &mut rng);
    }
    let by_writer = writers
        .iter()
        .filter_map(|w| {
            let label = unique_label(kb, w)?;
            Some((
                format!("Which books are written by {label}?"),
                format!(
                    "SELECT ?x {{ ?x rdf:type dbont:Book . ?x dbont:author <{}> }}",
                    w.as_str()
                ),
            ))
        })
        .collect();
    take(by_writer, &mut rng);
    let directors = subjects_of(kb, "director")
        .iter()
        .flat_map(|f| {
            kb.graph
                .objects_of(&Term::Iri(f.clone()), &Term::iri(dbont::iri("director")))
        })
        .collect::<Vec<_>>();
    let by_director = directors
        .iter()
        .filter_map(|d| {
            let d = d.as_iri()?;
            let label = unique_label(kb, d)?;
            Some((
                format!("Which films did {label} direct?"),
                format!(
                    "SELECT ?x {{ ?x rdf:type dbont:Film . ?x dbont:director <{}> }}",
                    d.as_str()
                ),
            ))
        })
        .collect();
    take(by_director, &mut rng);
    // Polar: half the pairs are the book's own author, half another writer.
    // ("Was <book> written by <writer>?" fails §2.1 extraction, so the
    // active form the pipeline covers is asked instead.)
    let author = Term::iri(dbont::iri("author"));
    let mut polar = Vec::new();
    for book in &books {
        let Some(title) = unique_label(kb, book) else {
            continue;
        };
        let own = kb.graph.objects_of(&Term::Iri(book.clone()), &author);
        let Some(Term::Iri(own)) = own.first() else {
            continue;
        };
        let writer = if rng.gen_bool(0.5) {
            own
        } else {
            &writers[rng.gen_range(0..writers.len())]
        };
        let Some(name) = unique_label(kb, writer) else {
            continue;
        };
        polar.push((
            format!("Did {name} write {title}?"),
            format!(
                "ASK {{ <{}> dbont:author <{}> }}",
                book.as_str(),
                writer.as_str()
            ),
        ));
    }
    take(polar, &mut rng);

    shuffle(&mut specs, &mut rng);
    specs
        .into_iter()
        .map(|(text, sparql)| Question {
            gold: gold_of(kb, &sparql),
            text,
        })
        .collect()
}
