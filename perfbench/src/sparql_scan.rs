//! `sparql_scan_1m`: one client sending a seeded stream of the
//! `store_scaling` scan and join shapes through `KnowledgeBase::query`
//! (the call behind `POST /sparql`) over the ×119 knowledge base
//! (1,009,718 triples). Setup is `generate` only: pattern mining is
//! infeasible at this size.
//!
//! Sampled results are checked against an evaluation written here over
//! `Graph::triples_matching`, independent of the SPARQL engine.

use relpat_kb::{generate, KbConfig, KnowledgeBase};
use relpat_obs::Rng;
use relpat_rdf::vocab::{dbont, rdf};
use relpat_rdf::Term;
use relpat_sparql::QueryResult;

use crate::adapter::stage_query;
use crate::calib::timed_nominal;
use crate::layers::{overhead_share, set_tail, Layers, SparqlAgg};
use crate::load::{closed_loop, ROUNDS};
use crate::questions::shuffle;
use crate::report::{mean, ratio, timed, Call, Metrics, Outcome, Tally};
use crate::Args;

const FACTOR: usize = 119;

/// Queries generated per run. The stream cycles, but a text comes back
/// only long after the cache was last cleared, so every query misses.
const STREAM_LEN: usize = 50_000;

/// The result cache holds up to 4,096 entries whatever their size, and
/// scan results at this tier run to tens of thousands of rows: a full
/// cache would hold gigabytes, and how full it gets would depend on how
/// fast a run goes. Clearing it (between timed calls) every this many
/// queries, fewer than a round sends, keeps peak memory independent of
/// throughput.
const CLEAR_CACHE_EVERY: usize = 32;

/// Every shape is checked on its first occurrences and on about one
/// query in this many.
const FIRST_CHECKED: usize = 3;
const CHECK_ONE_IN: u64 = 32;

const SCAN_CLASSES: [&str; 10] = [
    "Book",
    "Film",
    "City",
    "Writer",
    "Actor",
    "FilmDirector",
    "MusicalArtist",
    "Album",
    "Song",
    "Company",
];
/// `(work property, person property)` pairs joined on the person.
const JOIN_PAIRS: [(&str, &str); 5] = [
    ("author", "birthPlace"),
    ("director", "birthPlace"),
    ("artist", "birthPlace"),
    ("author", "deathPlace"),
    ("director", "deathPlace"),
];
/// `(person class, work property, person property)` chains.
const CHAINS: [(&str, &str, &str); 4] = [
    ("Writer", "author", "birthPlace"),
    ("FilmDirector", "director", "birthPlace"),
    ("MusicalArtist", "artist", "birthPlace"),
    ("Writer", "author", "deathPlace"),
];
const AGG_PROPERTIES: [&str; 3] = ["author", "director", "artist"];

/// The workload's shapes, in equal shares: like `BENCH_store_scaling.json`,
/// which lists each shape once, the stream weighs no shape above another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    ClassScan,
    Filtered,
    MergeJoin,
    ChainJoin,
    AggJoin,
}

const SHAPES: [Shape; 5] = [
    Shape::ClassScan,
    Shape::Filtered,
    Shape::MergeJoin,
    Shape::ChainJoin,
    Shape::AggJoin,
];

/// One generated query: its text, and what the independent evaluation
/// needs to know to check it.
#[derive(Debug, Clone)]
enum Spec {
    ClassScan {
        class: &'static str,
        offset: usize,
    },
    Filtered {
        threshold: i64,
    },
    MergeJoin {
        pair: (&'static str, &'static str),
        offset: usize,
    },
    ChainJoin {
        chain: (&'static str, &'static str, &'static str),
        offset: usize,
    },
    AggJoin {
        property: &'static str,
        year: i32,
    },
}

impl Spec {
    /// The `nth` query of `shape`: classes, thresholds and join pairs are
    /// taken in turn, offsets and years at random.
    fn new(shape: Shape, nth: usize, rng: &mut Rng) -> Spec {
        let offset = rng.gen_range(0..200usize);
        match shape {
            Shape::ClassScan => Spec::ClassScan {
                class: SCAN_CLASSES[nth % SCAN_CLASSES.len()],
                offset,
            },
            Shape::Filtered => {
                // Thresholds in turn over 1M..14M, so result sizes spread evenly.
                let band = (nth % 13) as i64 + 1;
                Spec::Filtered {
                    threshold: band * 1_000_000 + rng.gen_range(0..1_000_000i64),
                }
            }
            Shape::MergeJoin => Spec::MergeJoin {
                pair: JOIN_PAIRS[nth % JOIN_PAIRS.len()],
                offset,
            },
            Shape::ChainJoin => Spec::ChainJoin {
                chain: CHAINS[nth % CHAINS.len()],
                offset,
            },
            Shape::AggJoin => Spec::AggJoin {
                property: AGG_PROPERTIES[nth % AGG_PROPERTIES.len()],
                year: rng.gen_range(1850..1996),
            },
        }
    }

    fn shape(&self) -> Shape {
        match self {
            Spec::ClassScan { .. } => Shape::ClassScan,
            Spec::Filtered { .. } => Shape::Filtered,
            Spec::MergeJoin { .. } => Shape::MergeJoin,
            Spec::ChainJoin { .. } => Shape::ChainJoin,
            Spec::AggJoin { .. } => Shape::AggJoin,
        }
    }

    fn sparql(&self) -> String {
        match self {
            Spec::ClassScan { class, offset } => {
                format!("SELECT ?x {{ ?x rdf:type dbont:{class} }} OFFSET {offset}")
            }
            Spec::Filtered { threshold } => format!(
                "SELECT ?c {{ ?c rdf:type dbont:City . ?c dbont:populationTotal ?p \
                 FILTER(?p > {threshold}) }}"
            ),
            Spec::MergeJoin {
                pair: (work, person),
                offset,
            } => {
                format!(
                    "SELECT ?b ?c {{ ?b dbont:{work} ?a . ?a dbont:{person} ?c }} OFFSET {offset}"
                )
            }
            Spec::ChainJoin {
                chain: (class, work, person),
                offset,
            } => format!(
                "SELECT ?b ?c {{ ?a rdf:type dbont:{class} . ?b dbont:{work} ?a . \
                 ?a dbont:{person} ?c }} OFFSET {offset}"
            ),
            Spec::AggJoin { property, year } => format!(
                "SELECT (COUNT(?c) AS ?n) {{ ?b dbont:{property} ?a . ?a dbont:birthDate ?c \
                 FILTER(?c > \"{year}-01-01\"^^xsd:date) }}"
            ),
        }
    }
}

struct Query {
    spec: Spec,
    text: String,
    checked: bool,
}

/// The stream is made of cycles holding one query of each shape, each
/// cycle in a seeded order, so every run sends the same mix.
fn query_stream(seed: u64) -> Vec<Query> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut seen = [0usize; SHAPES.len()];
    let mut stream = Vec::with_capacity(STREAM_LEN);
    while stream.len() < STREAM_LEN {
        let mut order: Vec<usize> = (0..SHAPES.len()).collect();
        shuffle(&mut order, &mut rng);
        for slot in order {
            let nth = seen[slot];
            seen[slot] += 1;
            let spec = Spec::new(SHAPES[slot], nth, &mut rng);
            let checked = nth < FIRST_CHECKED || rng.gen_range(0..CHECK_ONE_IN) == 0;
            stream.push(Query {
                text: spec.sparql(),
                spec,
                checked,
            });
        }
    }
    stream
}

// ---------------------------------------------------------------------------
// Independent evaluation over `Graph::triples_matching`.

fn prop(name: &str) -> Term {
    Term::iri(dbont::iri(name))
}

fn objects(kb: &KnowledgeBase, subject: &Term, predicate: &Term) -> Vec<Term> {
    kb.graph
        .triples_matching(Some(subject), Some(predicate), None)
        .into_iter()
        .map(|t| t.object)
        .collect()
}

fn subjects(kb: &KnowledgeBase, predicate: &Term, object: Option<&Term>) -> Vec<(Term, Term)> {
    kb.graph
        .triples_matching(None, Some(predicate), object)
        .into_iter()
        .map(|t| (t.subject, t.object))
        .collect()
}

fn has_type(kb: &KnowledgeBase, subject: &Term, class: &str) -> bool {
    !kb.graph
        .triples_matching(
            Some(subject),
            Some(&Term::iri(rdf::TYPE)),
            Some(&Term::iri(dbont::iri(class))),
        )
        .is_empty()
}

/// `(b, c)` rows of `?b work ?a . ?a person ?c`, optionally with `?a` of a class.
fn join_rows(kb: &KnowledgeBase, work: &str, person: &str, class: Option<&str>) -> Vec<Vec<Term>> {
    let person = prop(person);
    let mut rows = Vec::new();
    for (b, a) in subjects(kb, &prop(work), None) {
        if class.is_some_and(|c| !has_type(kb, &a, c)) {
            continue;
        }
        for c in objects(kb, &a, &person) {
            rows.push(vec![b.clone(), c]);
        }
    }
    rows
}

/// What the engine must return: every row of `rows`, after skipping
/// `offset` of them in an order the engine chooses.
struct Expected {
    rows: Vec<Vec<Term>>,
    offset: usize,
}

fn expected(kb: &KnowledgeBase, spec: &Spec) -> Expected {
    let all = |rows| Expected { rows, offset: 0 };
    match spec {
        Spec::ClassScan { class, offset } => Expected {
            rows: subjects(
                kb,
                &Term::iri(rdf::TYPE),
                Some(&Term::iri(dbont::iri(class))),
            )
            .into_iter()
            .map(|(x, _)| vec![x])
            .collect(),
            offset: *offset,
        },
        Spec::Filtered { threshold } => all(subjects(
            kb,
            &Term::iri(rdf::TYPE),
            Some(&Term::iri(dbont::iri("City"))),
        )
        .into_iter()
        .filter(|(c, _)| {
            objects(kb, c, &prop("populationTotal")).iter().any(|p| {
                p.as_literal()
                    .and_then(|l| l.as_i64())
                    .is_some_and(|p| p > *threshold)
            })
        })
        .map(|(c, _)| vec![c])
        .collect()),
        Spec::MergeJoin {
            pair: (work, person),
            offset,
        } => Expected {
            rows: join_rows(kb, work, person, None),
            offset: *offset,
        },
        Spec::ChainJoin {
            chain: (class, work, person),
            offset,
        } => Expected {
            rows: join_rows(kb, work, person, Some(class)),
            offset: *offset,
        },
        Spec::AggJoin { property, year } => {
            let floor = format!("{year}-01-01");
            let n = join_rows(kb, property, "birthDate", None)
                .iter()
                .filter(|row| {
                    row[1]
                        .as_literal()
                        .is_some_and(|l| l.lexical_form() > floor.as_str())
                })
                .count();
            all(vec![vec![Term::Literal(relpat_rdf::Literal::integer(
                n as i64,
            ))]])
        }
    }
}

fn render(rows: impl Iterator<Item = String>) -> Vec<String> {
    let mut rows: Vec<String> = rows.collect();
    rows.sort_unstable();
    rows
}

/// Checks one engine result against the independent evaluation.
fn verify(kb: &KnowledgeBase, spec: &Spec, result: &QueryResult) -> bool {
    let QueryResult::Solutions(sols) = result else {
        return false;
    };
    let Expected { rows, offset } = expected(kb, spec);
    let got = render(sols.rows.iter().map(|row| {
        row.iter()
            .map(|t| t.as_ref().map_or(String::new(), Term::to_string))
            .collect::<Vec<_>>()
            .join("\t")
    }));
    let want = render(rows.iter().map(|row| {
        row.iter()
            .map(Term::to_string)
            .collect::<Vec<_>>()
            .join("\t")
    }));
    if got.len() != want.len().saturating_sub(offset) {
        return false;
    }
    // Multiset inclusion of the (offset-trimmed) result in the gold.
    let mut w = want.iter();
    got.iter().all(|row| loop {
        match w.next() {
            Some(x) if x == row => break true,
            Some(x) if x < row => continue,
            _ => break false,
        }
    })
}

fn send<'a>(
    kb: &'a KnowledgeBase,
    stream: &'a [Query],
) -> impl FnMut(usize) -> Option<QueryResult> + 'a {
    move |i| kb.query(&stream[i % stream.len()].text).ok()
}

/// Keeps sampled results for checking after the timed loop, and clears
/// the result cache every [`CLEAR_CACHE_EVERY`] queries.
fn keep_sampled<'a>(
    kb: &'a KnowledgeBase,
    stream: &'a [Query],
    kept: &'a mut Vec<(usize, QueryResult)>,
) -> impl FnMut(usize, Option<QueryResult>) -> Call + 'a {
    move |i, result| {
        if i % CLEAR_CACHE_EVERY == CLEAR_CACHE_EVERY - 1 {
            kb.invalidate_query_cache();
        }
        match result {
            None => Call::Error,
            Some(result) => {
                if stream[i % stream.len()].checked {
                    kept.push((i, result));
                }
                Call::Correct
            }
        }
    }
}

/// Verifies the kept results; a mismatch turns a `Correct` into `Wrong`.
fn verify_kept(
    kb: &KnowledgeBase,
    stream: &[Query],
    kept: &[(usize, QueryResult)],
    tally: &mut Tally,
) -> bool {
    let mut all_ok = true;
    for (i, result) in kept {
        let query = &stream[i % stream.len()];
        if !verify(kb, &query.spec, result) {
            eprintln!(
                "error: {:?} returned a wrong result for {}",
                query.spec.shape(),
                query.text
            );
            tally.correct = tally.correct.saturating_sub(1);
            all_ok = false;
        }
    }
    all_ok && !kept.is_empty()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return traced(args);
    }
    let per_round = args.seconds / ROUNDS as f64;
    let stream = query_stream(args.seed);
    let (mut setup_s, mut rounds, mut next, mut verified) = (Vec::new(), Vec::new(), 0, true);
    for _ in 0..ROUNDS {
        let (kb, s) = timed_nominal(|| generate(&KbConfig::scaled(FACTOR)));
        setup_s.push(s);
        let mut kept = Vec::new();
        let (mut round_tally, after) = closed_loop(
            next,
            per_round,
            send(&kb, &stream),
            keep_sampled(&kb, &stream, &mut kept),
        );
        verified &= verify_kept(&kb, &stream, &kept, &mut round_tally);
        rounds.push(round_tally);
        next = after;
    }
    let all = Tally::sum(&rounds);
    Ok(Outcome {
        correct: verified && all.failed == 0,
        attempted: all.attempted,
        failed: all.failed,
        metrics: Metrics::closed_loop(&setup_s, &rounds),
    })
}

fn traced(args: &Args) -> Result<Outcome, String> {
    let mut layers = Layers::default();
    let (kb, generate_s) = timed(|| generate(&KbConfig::scaled(FACTOR)));
    layers.set("kb.generate_s", generate_s);
    let stream = query_stream(args.seed);

    let cache_before = kb.cache_stats();
    let mut kept = Vec::new();
    let (mut untraced, next) = closed_loop(
        0,
        args.seconds / 2.0,
        send(&kb, &stream),
        keep_sampled(&kb, &stream, &mut kept),
    );
    layers.set(
        "sparql.cache.hit_ratio",
        kb.cache_stats().delta_since(&cache_before).hit_rate(),
    );
    let verified = verify_kept(&kb, &stream, &kept, &mut untraced);

    let mut sparql = SparqlAgg::default();
    let mut staged_us = Vec::new();
    closed_loop(
        next,
        args.seconds / 2.0,
        |i| stage_query(&kb, &stream[i % stream.len()].text),
        |_, stages| match stages {
            Ok(s) => {
                staged_us.push(s.parse_us + s.execute_us);
                sparql.add(&s);
                Call::Correct
            }
            Err(_) => Call::Error,
        },
    );
    sparql.fill(&mut layers);
    set_tail(&mut layers, &untraced);
    layers.set(
        "obs.trace_overhead_share",
        overhead_share(&staged_us, untraced.percentile_us(50.0)),
    );
    layers.set(
        "trace.coverage",
        ratio(sparql.mean_us(), mean(&untraced.latencies_us)),
    );
    Ok(Outcome {
        correct: verified && untraced.failed == 0,
        attempted: untraced.attempted,
        failed: untraced.failed,
        metrics: layers.into_metrics(),
    })
}
