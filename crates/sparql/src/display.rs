//! Serialization of parsed queries back to SPARQL text.
//!
//! `Display` for [`Query`] produces text that re-parses to an equal AST
//! (round-trip property), which the test suite exploits and which lets
//! callers log/persist planned queries canonically.

use std::fmt;

use crate::ast::{
    ArithOp, CmpOp, Expr, GraphPattern, OrderKey, Projection, Query, SelectQuery,
};

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Select(q) => q.fmt(f),
            Query::Ask(q) => {
                write!(f, "ASK ")?;
                write_group(f, &q.pattern)
            }
        }
    }
}

impl fmt::Display for SelectQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        match &self.projection {
            Projection::All => write!(f, "*")?,
            Projection::Vars(vars) => {
                let names: Vec<String> = vars.iter().map(|v| format!("?{v}")).collect();
                write!(f, "{}", names.join(" "))?;
            }
            Projection::Count { var, distinct, alias } => {
                write!(f, "(COUNT(")?;
                if *distinct {
                    write!(f, "DISTINCT ")?;
                }
                match var {
                    Some(v) => write!(f, "?{v}")?,
                    None => write!(f, "*")?,
                }
                write!(f, ") AS ?{alias})")?;
            }
        }
        write!(f, " WHERE ")?;
        write_group(f, &self.pattern)?;
        for (i, key) in self.order_by.iter().enumerate() {
            if i == 0 {
                write!(f, " ORDER BY")?;
            }
            write!(f, " ")?;
            key.fmt(f)?;
        }
        if let Some(limit) = self.limit {
            write!(f, " LIMIT {limit}")?;
        }
        if let Some(offset) = self.offset {
            write!(f, " OFFSET {offset}")?;
        }
        Ok(())
    }
}

impl fmt::Display for OrderKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.descending {
            write!(f, "DESC({})", self.expr)
        } else {
            write!(f, "ASC({})", self.expr)
        }
    }
}

fn write_group(f: &mut fmt::Formatter<'_>, pattern: &GraphPattern) -> fmt::Result {
    write!(f, "{{ ")?;
    for t in &pattern.triples {
        write!(f, "{t} ")?;
    }
    for alternatives in &pattern.unions {
        for (i, alt) in alternatives.iter().enumerate() {
            if i > 0 {
                write!(f, "UNION ")?;
            }
            write_group(f, alt)?;
            write!(f, " ")?;
        }
    }
    for opt in &pattern.optionals {
        write!(f, "OPTIONAL ")?;
        write_group(f, opt)?;
        write!(f, " ")?;
    }
    for filter in &pattern.filters {
        write!(f, "FILTER({filter}) ")?;
    }
    write!(f, "}}")
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Var(v) => write!(f, "?{v}"),
            Expr::Const(t) => write!(f, "{}", relpat_rdf::render_term(t)),
            Expr::Cmp(l, op, r) => write!(f, "({l} {op} {r})"),
            Expr::And(l, r) => write!(f, "({l} && {r})"),
            Expr::Or(l, r) => write!(f, "({l} || {r})"),
            Expr::Not(e) => write!(f, "!({e})"),
            Expr::Arith(l, op, r) => write!(f, "({l} {op} {r})"),
            Expr::Regex { value, pattern, case_insensitive } => {
                if *case_insensitive {
                    write!(f, "regex({value}, \"{pattern}\", \"i\")")
                } else {
                    write!(f, "regex({value}, \"{pattern}\")")
                }
            }
            Expr::Lang(e) => write!(f, "lang({e})"),
            Expr::Datatype(e) => write!(f, "datatype({e})"),
            Expr::Str(e) => write!(f, "str({e})"),
            Expr::Bound(v) => write!(f, "bound(?{v})"),
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::parse_query;

    /// Round trip: parse → display → parse must preserve the AST.
    fn round_trips(q: &str) {
        let first = parse_query(q).unwrap_or_else(|e| panic!("parse {q}: {e}"));
        let rendered = first.to_string();
        let second =
            parse_query(&rendered).unwrap_or_else(|e| panic!("reparse {rendered}: {e}"));
        assert_eq!(first, second, "round trip changed AST:\n{q}\n→ {rendered}");
    }

    #[test]
    fn round_trip_basic_select() {
        round_trips("SELECT ?x WHERE { ?x rdf:type dbont:Book . ?x dbont:author res:Orhan_Pamuk }");
    }

    #[test]
    fn round_trip_distinct_star_modifiers() {
        round_trips("SELECT DISTINCT * { ?s ?p ?o } ORDER BY DESC(?s) ?p LIMIT 5 OFFSET 2");
    }

    #[test]
    fn round_trip_filters() {
        round_trips(
            "SELECT ?x { ?x dbont:height ?h FILTER(?h > 1.5 && ?h < 2.2) \
             FILTER(regex(str(?x), \"jordan\", \"i\")) }",
        );
        round_trips("ASK { ?x ?p ?o FILTER(!bound(?x) || lang(?o) = \"en\") }");
        round_trips("SELECT ?x { ?x dbont:numberOfPages ?p FILTER(?p * 2 - 10 > 800 / 2) }");
    }

    #[test]
    fn round_trip_union_and_optional() {
        round_trips(
            "SELECT ?x { { ?x dbont:writer res:A } UNION { ?x dbont:author res:A } \
             OPTIONAL { ?x rdfs:label ?l } }",
        );
        round_trips("ASK { ?x ?p ?o OPTIONAL { ?o ?q ?z OPTIONAL { ?z ?r ?w } } }");
    }

    #[test]
    fn round_trip_count() {
        round_trips("SELECT (COUNT(DISTINCT ?x) AS ?n) { ?x rdf:type dbont:Book }");
        round_trips("SELECT (COUNT(*) AS ?c) { ?s ?p ?o }");
    }

    #[test]
    fn round_trip_literals() {
        round_trips(
            "ASK { ?x dbont:birthDate \"1952-06-07\"^^xsd:date . ?x rdfs:label \"Kar\"@tr . \
             ?x dbont:pages 432 . ?x dbont:height 1.98 }",
        );
    }

    /// The queries of the parser's and this module's tests, plus spelling
    /// variants of some of them (equal ASTs from different text) and near
    /// misses (one modifier apart).
    const CORPUS: &[&str] = &[
        "SELECT ?x WHERE { ?x rdf:type dbont:Book . ?x dbont:writer res:Orhan_Pamuk . }",
        "SELECT ?x { ?x a dbont:Book . ?x dbont:writer res:Orhan_Pamuk }",
        "SELECT ?x { ?x a dbont:Book ; dbont:writer res:Orhan_Pamuk . }",
        "SELECT DISTINCT ?x { ?x a dbont:Book ; dbont:writer res:Orhan_Pamuk . }",
        "SELECT ?x { ?x a dbont:Book ; dbont:writer res:Orhan_Pamuk . } LIMIT 1",
        "SELECT ?x WHERE { ?x rdf:type dbont:Book . ?x dbont:author res:Orhan_Pamuk }",
        "SELECT DISTINCT * WHERE { ?s ?p ?o }",
        "SELECT DISTINCT * { ?s ?p ?o }",
        "SELECT * { ?s ?p ?o }",
        "SELECT DISTINCT * { ?s ?p ?o } ORDER BY DESC(?s) ?p LIMIT 5 OFFSET 2",
        "SELECT ?x { ?x a dbont:Book ; dbont:writer ?w . }",
        "ASK { res:X dbont:knows res:A, res:B }",
        "ASK { res:X dbont:knows res:A . res:X dbont:knows res:B }",
        "ASK { res:X dbont:knows res:B . res:X dbont:knows res:A }",
        "SELECT ?x { ?x dbont:height ?h FILTER(?h > 2.0) }",
        "SELECT ?x { ?x dbont:height ?h FILTER(?h > 2.00) }",
        "SELECT ?x { ?x dbont:height ?h FILTER(?h >= 2.0) }",
        "SELECT ?x { ?x rdfs:label ?l FILTER(regex(str(?l), \"snow\", \"i\")) }",
        "SELECT ?x { ?x rdfs:label ?l FILTER(regex(str(?l), \"snow\")) }",
        "ASK { ?x ?p ?o FILTER(?o > 1 && ?o < 5 || !bound(?x)) }",
        "ASK { ?x ?p ?o FILTER((?o > 1 && ?o < 5) || !bound(?x)) }",
        "ASK { ?x ?p ?o FILTER(?o > 1 && (?o < 5 || !bound(?x))) }",
        "SELECT ?x { ?x dbont:height ?h } ORDER BY DESC(?h) ?x LIMIT 5 OFFSET 2",
        "SELECT ?x { ?x dbont:height ?h } ORDER BY DESC(?h) ASC(?x) LIMIT 5 OFFSET 2",
        "ASK { ?x dbont:birthDate \"1952-06-07\"^^xsd:date . ?x rdfs:label \"Kar\"@tr }",
        "ASK { ?x dbont:birthDate \"1952-06-07\" . ?x rdfs:label \"Kar\"@tr }",
        "SELECT ?x { ?x dbont:delta ?d FILTER(?d < -5) }",
        "SELECT ?x { ?x <http://e/p> ?h FILTER(?h < 5) }",
        "SELECT ?x { ?x dbont:height ?h FILTER(?h > 1.5 && ?h < 2.2) \
         FILTER(regex(str(?x), \"jordan\", \"i\")) }",
        "ASK { ?x ?p ?o FILTER(!bound(?x) || lang(?o) = \"en\") }",
        "SELECT ?x { ?x dbont:numberOfPages ?p FILTER(?p * 2 - 10 > 800 / 2) }",
        "SELECT ?x { { ?x dbont:writer res:A } UNION { ?x dbont:author res:A } \
         OPTIONAL { ?x rdfs:label ?l } }",
        "SELECT ?x { { ?x dbont:author res:A } UNION { ?x dbont:writer res:A } \
         OPTIONAL { ?x rdfs:label ?l } }",
        "ASK { ?x ?p ?o OPTIONAL { ?o ?q ?z OPTIONAL { ?z ?r ?w } } }",
        "SELECT (COUNT(DISTINCT ?x) AS ?n) { ?x rdf:type dbont:Book }",
        "SELECT (COUNT(?x) AS ?n) { ?x rdf:type dbont:Book }",
        "SELECT (COUNT(*) AS ?c) { ?s ?p ?o }",
        "ASK { ?x dbont:pages 432 . ?x dbont:height 1.98 }",
        "ASK { ?x <http://dbpedia.org/ontology/pages> 432 . ?x dbont:height 1.98 }",
    ];

    /// Equal ASTs are exactly equal renderings, and equal ASTs hash alike:
    /// what lets the query cache key on the AST instead of its text.
    #[test]
    fn ast_equality_is_rendering_equality_over_the_corpus() {
        use std::hash::{BuildHasher, RandomState};
        let parsed: Vec<_> = CORPUS
            .iter()
            .map(|q| parse_query(q).unwrap_or_else(|e| panic!("parse {q}: {e}")))
            .collect();
        let hasher = RandomState::new();
        let (mut equal_pairs, mut unequal_pairs) = (0, 0);
        for (i, a) in parsed.iter().enumerate() {
            round_trips(CORPUS[i]);
            for (j, b) in parsed.iter().enumerate() {
                let same_text = a.to_string() == b.to_string();
                assert_eq!(a == b, same_text, "{} vs {}", CORPUS[i], CORPUS[j]);
                if a == b {
                    assert_eq!(hasher.hash_one(a), hasher.hash_one(b));
                    equal_pairs += usize::from(i != j);
                } else {
                    unequal_pairs += 1;
                }
            }
        }
        assert!(equal_pairs >= 10, "{equal_pairs} equal pairs of distinct spellings");
        assert!(unequal_pairs > 1000);
    }

    #[test]
    fn rendered_text_is_single_line_sparql() {
        let q = parse_query("SELECT ?x { ?x a dbont:Book }").unwrap();
        let text = q.to_string();
        assert!(text.starts_with("SELECT ?x WHERE {"));
        assert!(!text.contains('\n'));
    }
}
