//! Differential gate for FILTER and ORDER BY over typed values.
//!
//! The executor binds each expression once per query and reads each row's
//! value from the graph's typed value column (numbers, booleans and
//! fixed-width `xsd:date`s resolved at build). This file holds the
//! term-level semantics that column replaces — every row resolves its term
//! and parses it, every comparison falls back to lexical forms — as a
//! test-local oracle, and asserts identical solution sequences for all six
//! comparison operators (variable–constant, constant–variable and
//! variable–variable) and for ORDER BY ASC/DESC, over literals of every
//! kind the value column distinguishes and the ones it must leave alone.

use std::cmp::Ordering;

use relpat_rdf::vocab::{rdf, xsd};
use relpat_rdf::{Graph, GraphBuilder, Iri, Literal, Term};
use relpat_sparql::query;

const OPS: [&str; 6] = ["=", "!=", "<", "<=", ">", ">="];

fn typed(lexical: &str, datatype: &str) -> Term {
    Term::Literal(Literal::typed(lexical, Iri::new(datatype)))
}

/// One value of every kind, in no particular order.
fn values() -> Vec<Term> {
    let mut v = Vec::new();
    for n in ["-7", "0", "42", "5300000", "0042"] {
        v.push(typed(n, xsd::INTEGER));
    }
    for n in ["1.5", "-0.25", "42.0"] {
        v.push(typed(n, xsd::DECIMAL));
    }
    for n in ["1e3", "-2.5E-1", "NaN", "INF"] {
        v.push(typed(n, xsd::DOUBLE));
    }
    for b in ["true", "false", "1"] {
        v.push(typed(b, xsd::BOOLEAN));
    }
    // Day, month and year disagree in order across these, so a packing that
    // is not year-major would reorder them.
    for d in [
        "1900-01-01",
        "1923-04-05",
        "2001-12-31",
        "0999-01-01",
        "1923-04-06",
        "1923-04-25",
        "1950-01-20",
        "1800-12-01",
    ] {
        v.push(typed(d, xsd::DATE));
    }
    // Not fixed-width `DDDD-DD-DD`, or not a calendar date: compared as
    // lexical forms either way.
    for d in ["-0044-03-15", "1923-4-5", "1923-04-05Z", "2001-13-45"] {
        v.push(typed(d, xsd::DATE));
    }
    for d in ["1923-04-05T10:00:00", "1900-01-01T00:00:00Z"] {
        v.push(typed(d, xsd::DATE_TIME));
    }
    v.push(typed("1923", xsd::G_YEAR));
    for s in ["1923-04-05", "abc", "", "42", "true"] {
        v.push(Term::literal(s));
    }
    v.push(Term::Literal(Literal::lang("abc", "en")));
    v.push(Term::Literal(Literal::lang("Ankara", "tr")));
    for iri in ["http://example.org/A", "http://example.org/b", "urn:x"] {
        v.push(Term::iri(iri));
    }
    v
}

/// `<e{i}> ex:v value_i` for every value.
fn graph(values: &[Term]) -> Graph {
    let mut b = GraphBuilder::new();
    for (i, v) in values.iter().enumerate() {
        b.add(
            Term::iri(format!("http://example.org/e{i}")),
            Term::iri("http://example.org/v"),
            v.clone(),
        );
    }
    // A second predicate so `?s ex:v ?a` is not the whole graph.
    b.add(
        Term::iri("http://example.org/e0"),
        Term::iri(rdf::TYPE),
        Term::iri("http://example.org/T"),
    );
    b.build()
}

// ---- the oracle: term-level values, parsed on every use ----

enum V<'a> {
    Bool(bool),
    Num(f64),
    Term(&'a Term),
}

fn term_value(term: &Term) -> V<'_> {
    if let Term::Literal(l) = term {
        if let Some(n) = l.as_f64() {
            return V::Num(n);
        }
        if l.datatype_str() == xsd::BOOLEAN {
            return V::Bool(l.lexical_form() == "true");
        }
    }
    V::Term(term)
}

fn as_str(v: &V<'_>) -> String {
    match v {
        V::Bool(b) => b.to_string(),
        V::Num(n) => n.to_string(),
        V::Term(Term::Literal(l)) => l.lexical_form().to_string(),
        V::Term(Term::Iri(iri)) => iri.as_str().to_string(),
        V::Term(t) => t.to_string(),
    }
}

/// ORDER BY's total order: numbers by value with NaN last, then everything
/// else by [`compare_raw`].
fn order(l: &Term, r: &Term) -> Ordering {
    match (term_value(l), term_value(r)) {
        (V::Num(a), V::Num(b)) => {
            a.is_nan().cmp(&b.is_nan()).then(a.partial_cmp(&b).unwrap_or(Ordering::Equal))
        }
        (V::Num(_), _) => Ordering::Less,
        (_, V::Num(_)) => Ordering::Greater,
        _ => compare_raw(l, r).unwrap(),
    }
}

/// `None` when a numeric comparison meets NaN.
fn compare_raw(l: &Term, r: &Term) -> Option<Ordering> {
    let (l, r) = (term_value(l), term_value(r));
    match (&l, &r) {
        (V::Num(a), V::Num(b)) => a.partial_cmp(b),
        (V::Term(Term::Iri(a)), V::Term(Term::Iri(b))) => Some(a.cmp(b)),
        _ => Some(as_str(&l).cmp(&as_str(&r))),
    }
}

fn holds(l: &Term, op: &str, r: &Term) -> bool {
    let Some(ord) = compare_raw(l, r) else {
        return op == "!=";
    };
    match op {
        "=" => ord == Ordering::Equal,
        "!=" => ord != Ordering::Equal,
        "<" => ord == Ordering::Less,
        "<=" => ord != Ordering::Greater,
        ">" => ord == Ordering::Greater,
        ">=" => ord != Ordering::Less,
        _ => unreachable!("{op}"),
    }
}

// ---- harness ----

type Row = Vec<Option<Term>>;

fn rows(g: &Graph, text: &str) -> Vec<Row> {
    let sols = query(g, text).unwrap_or_else(|e| panic!("{text}: {e}")).into_solutions().unwrap();
    sols.rows.iter().map(|r| r.to_vec()).collect()
}

const EX: &str = "PREFIX ex: <http://example.org/>";

#[test]
fn var_const_and_const_var_comparisons_match_the_oracle() {
    let values = values();
    let g = graph(&values);
    // Unfiltered solutions (?s, ?a) in executor order; the oracle filters
    // this sequence.
    let all = rows(&g, &format!("{EX} SELECT ?s ?a {{ ?s ex:v ?a }}"));
    assert_eq!(all.len(), values.len());
    let mut checked = 0;
    for c in &values {
        for op in OPS {
            for const_first in [false, true] {
                let filter =
                    if const_first { format!("{c} {op} ?a") } else { format!("?a {op} {c}") };
                let got = rows(&g, &format!("{EX} SELECT ?s ?a {{ ?s ex:v ?a FILTER({filter}) }}"));
                let want: Vec<Row> = all
                    .iter()
                    .filter(|r| {
                        let a = r[1].as_ref().expect("?a is bound");
                        if const_first {
                            holds(c, op, a)
                        } else {
                            holds(a, op, c)
                        }
                    })
                    .cloned()
                    .collect();
                assert_eq!(got, want, "FILTER({filter})");
                checked += 1;
            }
        }
    }
    assert_eq!(checked, values.len() * OPS.len() * 2);
}

#[test]
fn var_var_comparisons_match_the_oracle() {
    let values = values();
    let g = graph(&values);
    let pattern = "?s ex:v ?a . ?t ex:v ?b";
    let all = rows(&g, &format!("{EX} SELECT ?s ?a ?t ?b {{ {pattern} }}"));
    assert_eq!(all.len(), values.len() * values.len());
    for op in OPS {
        let got = rows(&g, &format!("{EX} SELECT ?s ?a ?t ?b {{ {pattern} FILTER(?a {op} ?b) }}"));
        let want: Vec<Row> = all
            .iter()
            .filter(|r| holds(r[1].as_ref().unwrap(), op, r[3].as_ref().unwrap()))
            .cloned()
            .collect();
        assert_eq!(got, want, "FILTER(?a {op} ?b)");
    }
}

#[test]
fn order_by_matches_the_oracle() {
    // Each kind on its own, where ORDER BY must order exactly as the FILTER
    // comparison does, and all kinds together (numbers with NaN, strings,
    // dates, IRIs), which a comparison that is not a total order would
    // scramble or crash on. The sort is stable, so ties keep the unordered
    // solution order.
    type Kind = (&'static str, fn(&Term) -> bool);
    let kinds: [Kind; 5] = [
        ("all", |_| true),
        ("dates", |t| matches!(t, Term::Literal(l) if l.datatype_str() == xsd::DATE)),
        ("numbers", |t| matches!(t, Term::Literal(l) if l.as_f64().is_some_and(|n| !n.is_nan()))),
        ("numbers and NaN", |t| matches!(t, Term::Literal(l) if l.as_f64().is_some())),
        ("non-numbers", |t| !matches!(t, Term::Literal(l) if l.as_f64().is_some())),
    ];
    for (kind, member) in kinds {
        let subset: Vec<Term> = values().into_iter().filter(member).collect();
        let g = graph(&subset);
        let all = rows(&g, &format!("{EX} SELECT ?s ?a {{ ?s ex:v ?a }}"));
        for dir in ["ASC", "DESC"] {
            let got = rows(&g, &format!("{EX} SELECT ?s ?a {{ ?s ex:v ?a }} ORDER BY {dir}(?a)"));
            let mut want = all.clone();
            want.sort_by(|x, y| {
                let ord = order(x[1].as_ref().unwrap(), y[1].as_ref().unwrap());
                if dir == "DESC" {
                    ord.reverse()
                } else {
                    ord
                }
            });
            assert_eq!(got, want, "{kind}: ORDER BY {dir}(?a)");
        }
    }
}
