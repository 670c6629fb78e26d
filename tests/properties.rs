//! Randomized invariant tests over the core data structures: triple-store
//! index coherence, SPARQL-vs-naive-scan agreement, Turtle round-trips, LCS
//! metric properties, tokenizer and lemmatizer stability, and
//! similarity-metric bounds.
//!
//! Formerly proptest-based; now driven by the in-tree deterministic PRNG
//! (`relpat::obs::Rng`) so the workspace carries no external dependencies.
//! Each test sweeps a fixed number of seeded cases — failures are perfectly
//! reproducible because every input derives from the case index.

use relpat::nlp::{lemmatize, tokenize, PosTag};
use relpat::obs::Rng;
use relpat::qa::{lcs_len, lcs_score};
use relpat::rdf::{load_turtle, to_turtle, Graph, GraphBuilder, Literal, Term, Triple};
use relpat::sparql::query;
use relpat::wordnet::{embedded, WnPos};

const CASES: u64 = 64;

// ---------------------------------------------------------------- generators

fn arb_lower_word(rng: &mut Rng, min: usize, max: usize) -> String {
    let len = rng.gen_range(min..=max);
    (0..len).map(|_| (b'a' + rng.gen_range(0u32..26) as u8) as char).collect()
}

fn arb_string(rng: &mut Rng, alphabet: &[u8], min: usize, max: usize) -> String {
    let len = rng.gen_range(min..=max);
    (0..len).map(|_| alphabet[rng.gen_range(0usize..alphabet.len())] as char).collect()
}

fn arb_iri(rng: &mut Rng) -> Term {
    Term::iri(format!("http://example.org/{}", arb_lower_word(rng, 1, 6)))
}

fn arb_literal(rng: &mut Rng) -> Term {
    match rng.gen_range(0u32..3) {
        0 => Term::literal(arb_string(
            rng,
            b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ",
            0,
            12,
        )),
        1 => Term::Literal(Literal::integer(rng.gen_range(-1_000_000i64..1_000_000))),
        _ => Term::Literal(Literal::date(
            rng.gen_range(1900i32..2100),
            rng.gen_range(1u32..13),
            rng.gen_range(1u32..29),
        )),
    }
}

fn arb_triple(rng: &mut Rng) -> Triple {
    let object = if rng.gen_bool(0.5) { arb_iri(rng) } else { arb_literal(rng) };
    Triple::new(arb_iri(rng), arb_iri(rng), object)
}

fn arb_triples(rng: &mut Rng, min: usize, max: usize) -> Vec<Triple> {
    let n = rng.gen_range(min..=max);
    (0..n).map(|_| arb_triple(rng)).collect()
}

fn build(triples: &[Triple]) -> Graph {
    let mut b = GraphBuilder::new();
    for t in triples {
        b.insert(t);
    }
    b.build()
}

/// Runs `body` for `CASES` seeded cases, each with its own derived generator.
fn sweep(test_tag: u64, body: impl Fn(&mut Rng)) {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(test_tag.wrapping_mul(0x9E37_79B9) + case);
        body(&mut rng);
    }
}

// ------------------------------------------------------------------ rdf store

#[test]
fn store_membership_matches_inserted_set() {
    sweep(1, |rng| {
        let triples = arb_triples(rng, 0, 40);
        let g = build(&triples);
        // Set semantics: length equals the number of distinct triples.
        let mut distinct = triples.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(g.len(), distinct.len());
        for t in &distinct {
            assert!(g.contains(t));
        }
        // Full iteration returns exactly the distinct set.
        let mut iterated: Vec<Triple> = g.iter().collect();
        iterated.sort();
        assert_eq!(iterated, distinct);
    });
}

#[test]
fn store_pattern_scans_agree_with_naive_filter() {
    sweep(2, |rng| {
        let triples = arb_triples(rng, 1, 30);
        let probe_idx = rng.gen_range(0usize..triples.len());
        let g = build(&triples);
        let probe = &triples[probe_idx];
        let all: Vec<Triple> = g.iter().collect();

        // Every one of the 8 bound/unbound shapes must equal a naive filter.
        for mask in 0..8u8 {
            let s = (mask & 1 != 0).then_some(&probe.subject);
            let p = (mask & 2 != 0).then_some(&probe.predicate);
            let o = (mask & 4 != 0).then_some(&probe.object);
            let mut expected: Vec<Triple> = all
                .iter()
                .filter(|t| {
                    s.is_none_or(|x| &t.subject == x)
                        && p.is_none_or(|x| &t.predicate == x)
                        && o.is_none_or(|x| &t.object == x)
                })
                .cloned()
                .collect();
            expected.sort();
            let mut got = g.triples_matching(s, p, o);
            got.sort();
            assert_eq!(got, expected, "mask {mask}");
        }
    });
}

// ------------------------------------------------------------------ sparql

#[test]
fn sparql_spo_query_agrees_with_store() {
    sweep(4, |rng| {
        let triples = arb_triples(rng, 1, 25);
        let g = build(&triples);
        let sols = query(&g, "SELECT ?s ?p ?o { ?s ?p ?o }").unwrap().into_solutions().unwrap();
        assert_eq!(sols.len(), g.len());
        // A bound-subject query returns exactly that subject's triples.
        let subject = &triples[0].subject;
        let q = format!("SELECT ?p ?o {{ <{}> ?p ?o }}", subject.as_iri().unwrap().as_str());
        let bound = query(&g, &q).unwrap().into_solutions().unwrap();
        assert_eq!(bound.len(), g.triples_matching(Some(subject), None, None).len());
    });
}

#[test]
fn sparql_limit_caps_results() {
    sweep(5, |rng| {
        let triples = arb_triples(rng, 1, 25);
        let limit = rng.gen_range(0usize..10);
        let g = build(&triples);
        let sols = query(&g, &format!("SELECT ?s {{ ?s ?p ?o }} LIMIT {limit}"))
            .unwrap()
            .into_solutions().unwrap();
        assert!(sols.len() <= limit);
        assert_eq!(sols.len(), limit.min(g.len()));
    });
}

// ------------------------------------------------------------------ turtle

#[test]
fn turtle_round_trip_preserves_graph() {
    sweep(6, |rng| {
        let triples = arb_triples(rng, 0, 25);
        let g = build(&triples);
        let ttl = to_turtle(&g);
        let mut b2 = GraphBuilder::new();
        load_turtle(&mut b2, &ttl).unwrap();
        let g2 = b2.build();
        assert_eq!(g.len(), g2.len());
        for t in g.iter() {
            assert!(g2.contains(&t), "lost {t}");
        }
    });
}

// ------------------------------------------------------------- similarity

#[test]
fn lcs_is_symmetric_and_bounded() {
    let alpha = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    sweep(7, |rng| {
        let a = arb_string(rng, alpha, 0, 14);
        let b = arb_string(rng, alpha, 0, 14);
        let ab = lcs_score(&a, &b);
        let ba = lcs_score(&b, &a);
        assert!((ab - ba).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&ab));
        assert!(lcs_len(&a, &b) <= a.len().min(b.len()));
    });
}

#[test]
fn lcs_identity_scores_one() {
    sweep(8, |rng| {
        let a = arb_lower_word(rng, 1, 14);
        assert_eq!(lcs_score(&a, &a), 1.0);
        assert_eq!(lcs_len(&a, &a), a.len());
    });
}

#[test]
fn lcs_monotone_under_concatenation() {
    sweep(9, |rng| {
        let a = arb_lower_word(rng, 1, 8);
        let b = arb_lower_word(rng, 1, 8);
        // A common subsequence can only grow when one side gains characters.
        let base = lcs_len(&a, &b);
        let extended = lcs_len(&a, &format!("{b}{a}"));
        assert!(extended >= base);
        assert!(extended >= a.len()); // a is a subsequence of b+a
    });
}

// ---------------------------------------------------------------- parser

/// The SPARQL parser must be total: random input either parses or returns
/// an error, never panics — and parsed queries re-render and re-parse to
/// the same AST (serializer round trip).
#[test]
fn sparql_parser_total_and_round_trips() {
    sweep(10, |rng| {
        let s = arb_string(
            rng,
            b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789?{}<>.:/ \"=",
            0,
            80,
        );
        if let Ok(q) = relpat::sparql::parse_query(&s) {
            let rendered = q.to_string();
            let reparsed = relpat::sparql::parse_query(&rendered)
                .unwrap_or_else(|e| panic!("reparse of {rendered:?} failed: {e}"));
            assert_eq!(q, reparsed);
        }
    });
    // Regression inputs that previously tripped the parser (from the old
    // proptest regression corpus): well-formed-looking fragments.
    for s in ["SELECT ?s { ?s ?p ?o }", "ASK { <a:b> <a:c> \"x\" }", "SELECT {", "?"] {
        let _ = relpat::sparql::parse_query(s);
    }
}

/// Turtle parser totality on arbitrary input.
#[test]
fn turtle_parser_total() {
    sweep(11, |rng| {
        let s = arb_string(
            rng,
            b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789@<>.;, \"",
            0,
            80,
        );
        let _ = relpat::rdf::parse_turtle(&s); // must not panic
    });
}

// ----------------------------------------------------------------- nlp

#[test]
fn tokenizer_never_loses_alphanumerics() {
    sweep(12, |rng| {
        let s = arb_string(
            rng,
            b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ,.?!'",
            0,
            60,
        );
        let tokens = tokenize(&s);
        let kept: String = tokens.join("").chars().filter(|c| c.is_alphanumeric()).collect();
        let original: String = s.chars().filter(|c| c.is_alphanumeric()).collect();
        assert_eq!(kept, original);
    });
}

#[test]
fn lemmatizer_is_idempotent_for_nouns() {
    sweep(13, |rng| {
        let w = arb_lower_word(rng, 2, 12);
        let once = lemmatize(&w, PosTag::Nn);
        let twice = lemmatize(&once, PosTag::Nn);
        assert_eq!(once, twice);
    });
}

#[test]
fn lemmas_are_lowercase_and_nonempty() {
    let alpha = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    sweep(14, |rng| {
        let w = arb_string(rng, alpha, 1, 12);
        for pos in [PosTag::Nn, PosTag::Nns, PosTag::Vb, PosTag::Vbd, PosTag::Jj, PosTag::In] {
            let lemma = lemmatize(&w, pos);
            assert!(!lemma.is_empty());
            assert_eq!(lemma.clone(), lemma.to_lowercase());
        }
    });
}

// --------------------------------------------------------------- wordnet

#[test]
fn wordnet_metrics_bounded_and_reflexive() {
    let words = ["writer", "author", "city", "person", "height", "book", "film", "place"];
    let wn = embedded();
    for w in words {
        assert_eq!(wn.lin(w, w, WnPos::Noun), Some(1.0));
        assert_eq!(wn.wup(w, w, WnPos::Noun), Some(1.0));
        for other in words {
            if let (Some(lin), Some(wup)) =
                (wn.lin(w, other, WnPos::Noun), wn.wup(w, other, WnPos::Noun))
            {
                assert!((0.0..=1.0).contains(&lin));
                assert!((0.0..=1.0).contains(&wup));
                // Symmetry.
                assert_eq!(wn.lin(other, w, WnPos::Noun), Some(lin));
                assert_eq!(wn.wup(other, w, WnPos::Noun), Some(wup));
            }
        }
    }
}
