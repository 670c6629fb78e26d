//! SPARQL engine integration against a realistic store: the full algebra
//! (joins, FILTER, OPTIONAL, UNION, COUNT, ORDER BY) over the generated
//! knowledge base rather than toy fixtures.
//!
//! The `pin` cases at the end fix FILTER and ORDER BY semantics to recorded
//! rendered results. The nested-join oracle shares the expression evaluator,
//! so the join-equivalence suite cannot catch a change there.

use relpat_kb::{generate, KbConfig, KnowledgeBase};
use relpat_rdf::vocab::{shorten, xsd};
use relpat_rdf::{render_term, Term};
use relpat_sparql::{query, QueryResult};
use std::sync::OnceLock;

fn kb() -> &'static KnowledgeBase {
    static KB: OnceLock<KnowledgeBase> = OnceLock::new();
    KB.get_or_init(|| generate(&KbConfig::tiny()))
}

fn rows(q: &str) -> usize {
    match query(&kb().graph, q).unwrap_or_else(|e| panic!("{q}: {e}")) {
        QueryResult::Solutions(s) => s.len(),
        QueryResult::Boolean(_) => panic!("{q}: expected solutions"),
    }
}

#[test]
fn three_way_join_over_generated_facts() {
    // Books → authors → birth places: every row is fully bound.
    let q = "SELECT ?b ?w ?p { ?b rdf:type dbont:Book . ?b dbont:author ?w . \
             ?w dbont:birthPlace ?p }";
    let n = rows(q);
    assert!(n > 0);
    // Adding an unsatisfiable constraint empties it.
    let q2 = "SELECT ?b { ?b rdf:type dbont:Book . ?b dbont:author ?w . \
              ?w dbont:birthPlace res:Nowhere_City }";
    assert_eq!(rows(q2), 0);
}

#[test]
fn optional_preserves_join_cardinality() {
    let base = rows("SELECT ?b { ?b rdf:type dbont:Book }");
    let with_optional =
        rows("SELECT ?b ?pub { ?b rdf:type dbont:Book OPTIONAL { ?b dbont:publisher ?pub } }");
    // Left join never loses rows (and each book has ≤1 publisher here).
    assert!(with_optional >= base);
}

#[test]
fn union_counts_add_up() {
    let writers = rows("SELECT DISTINCT ?x { ?x rdf:type dbont:Writer }");
    let actors = rows("SELECT DISTINCT ?x { ?x rdf:type dbont:Actor }");
    let both = rows(
        "SELECT DISTINCT ?x { { ?x rdf:type dbont:Writer } UNION { ?x rdf:type dbont:Actor } }",
    );
    // Classes are disjoint in the generator, so the union is the sum.
    assert_eq!(both, writers + actors);
}

#[test]
fn count_agrees_with_materialized_rows() {
    let n = rows("SELECT ?x { ?x rdf:type dbont:City }");
    let counted = match query(
        &kb().graph,
        "SELECT (COUNT(?x) AS ?n) { ?x rdf:type dbont:City }",
    )
    .unwrap()
    {
        QueryResult::Solutions(s) => {
            s.first().unwrap().as_literal().unwrap().as_i64().unwrap() as usize
        }
        _ => unreachable!(),
    };
    assert_eq!(n, counted);
}

#[test]
fn order_by_returns_extremes_first() {
    let result = query(
        &kb().graph,
        "SELECT ?c ?p { ?c rdf:type dbont:Country . ?c dbont:populationTotal ?p } \
         ORDER BY DESC(?p) LIMIT 3",
    )
    .unwrap()
    .into_solutions().unwrap();
    let pops: Vec<i64> = result
        .rows
        .iter()
        .map(|r| r.get(1).unwrap().as_ref().unwrap().as_literal().unwrap().as_i64().unwrap())
        .collect();
    assert!(pops.windows(2).all(|w| w[0] >= w[1]), "{pops:?}");
}

#[test]
fn filters_compose_with_joins() {
    let q = "SELECT ?c { ?c rdf:type dbont:City . ?c dbont:country res:Turkey . \
             ?c dbont:populationTotal ?p FILTER(?p > 1000000) }";
    let big_turkish = rows(q);
    let all_turkish = rows("SELECT ?c { ?c rdf:type dbont:City . ?c dbont:country res:Turkey }");
    assert!(big_turkish <= all_turkish);
    assert!(big_turkish >= 1); // Istanbul qualifies
}

#[test]
fn ask_over_optional_union() {
    let t = query(
        &kb().graph,
        "ASK { { res:Snow dbont:author ?w } UNION { res:Snow dbont:writer ?w } }",
    )
    .unwrap()
    .into_boolean().unwrap();
    assert!(t);
    let f = query(
        &kb().graph,
        "ASK { res:Snow dbont:director ?d }",
    )
    .unwrap()
    .into_boolean().unwrap();
    assert!(!f);
}

#[test]
fn distinct_interacts_with_union_and_projection() {
    let raw = rows(
        "SELECT ?w { { ?b dbont:author ?w } UNION { ?b dbont:author ?w } }",
    );
    let distinct = rows(
        "SELECT DISTINCT ?w { { ?b dbont:author ?w } UNION { ?b dbont:author ?w } }",
    );
    assert_eq!(raw % 2, 0, "duplicated union must double rows");
    assert!(distinct <= raw / 2);
}

/// One result cell: IRIs and datatypes shortened to their prefixed names,
/// `-` for unbound.
fn cell(term: Option<&Term>) -> String {
    match term {
        None => "-".to_string(),
        Some(Term::Literal(l)) if l.language().is_none() && l.datatype_str() != xsd::STRING => {
            format!("\"{}\"^^{}", l.lexical_form(), shorten(l.datatype_str()))
        }
        Some(t) => render_term(t),
    }
}

/// Asserts the rendered rows of `q`: in result order under ORDER BY,
/// sorted otherwise (unordered row order is the join's business).
fn pin(q: &str, want: &[&str]) {
    let sols = query(&kb().graph, q)
        .unwrap_or_else(|e| panic!("{q}: {e}"))
        .into_solutions()
        .unwrap();
    let mut got: Vec<String> = sols
        .rows
        .iter()
        .map(|row| row.iter().map(|c| cell(c.as_ref())).collect::<Vec<_>>().join(" "))
        .collect();
    if !q.contains("ORDER BY") {
        got.sort();
    }
    assert_eq!(got, want, "{q}");
}

/// Numeric comparisons over `xsd:integer` and `xsd:double` literals.
#[test]
fn numeric_filters() {
    pin(
        r#"SELECT ?c ?p { ?c dbont:populationTotal ?p FILTER(?p > 50000000 && ?p <= 316128839) }"#,
        &[
            r#"res:Germany "80716000"^^xsd:integer"#,
            r#"res:Spain "58163498"^^xsd:integer"#,
            r#"res:Turkey "74724269"^^xsd:integer"#,
            r#"res:United_States "316128839"^^xsd:integer"#,
        ],
    );
    pin(
        r#"SELECT ?x ?h { ?x dbont:height ?h FILTER(?h >= 2.04) }"#,
        &[
            r#"res:Carla_Marino "2.05"^^xsd:double"#,
            r#"res:Clara_Lehmann "2.16"^^xsd:double"#,
            r#"res:Daniel_Dimitrov "2.1"^^xsd:double"#,
            r#"res:Deniz_Kovacs "2.04"^^xsd:double"#,
            r#"res:Paula_Kovacs "2.05"^^xsd:double"#,
            r#"res:Tomas_Nielsen "2.04"^^xsd:double"#,
        ],
    );
    pin(
        r#"SELECT ?x ?h { ?x dbont:height ?h FILTER(?h < 1.6 || ?h = 1.78) }"#,
        &[
            r#"res:Adam_Vasquez "1.51"^^xsd:double"#,
            r#"res:Ayse_Silva "1.59"^^xsd:double"#,
            r#"res:Kemal_Vasquez "1.54"^^xsd:double"#,
            r#"res:Leyla_Zhukov "1.78"^^xsd:double"#,
            r#"res:Mehmet_Rossi "1.51"^^xsd:double"#,
            r#"res:Michael_Jordan "1.78"^^xsd:double"#,
            r#"res:Omer_Kovacs "1.55"^^xsd:double"#,
            r#"res:Selim_Marino "1.56"^^xsd:double"#,
        ],
    );
}

/// `xsd:date` literals compare by lexical form against plain and typed literals.
#[test]
fn date_filters() {
    pin(
        r#"SELECT ?x ?d { ?x dbont:birthDate ?d FILTER(?d < "1860-01-01") }"#,
        &[
            r#"res:Abraham_Lincoln "1809-02-12"^^xsd:date"#,
            r#"res:Alice_Fontaine "1855-05-08"^^xsd:date"#,
            r#"res:Ivan_Becker "1854-01-26"^^xsd:date"#,
            r#"res:Laura_Jansen "1856-05-21"^^xsd:date"#,
            r#"res:Ludwig_van_Beethoven "1770-12-17"^^xsd:date"#,
            r#"res:Maria_Eriksen "1855-01-17"^^xsd:date"#,
        ],
    );
    pin(
        r#"SELECT ?x ?d { ?x dbont:birthDate ?d FILTER(?d >= "1950-01-01"^^xsd:date && ?d < "1960-01-01"^^xsd:date) }"#,
        &[
            r#"res:Erik_Castro "1955-10-26"^^xsd:date"#,
            r#"res:Erik_Sorensen "1951-02-05"^^xsd:date"#,
            r#"res:Kemal_Lopez "1959-03-20"^^xsd:date"#,
            r#"res:Michael_Jackson "1958-08-29"^^xsd:date"#,
            r#"res:Orhan_Pamuk "1952-06-07"^^xsd:date"#,
            r#"res:Vera_Larsen "1950-06-25"^^xsd:date"#,
            r#"res:Viktor_Schmidt "1959-04-12"^^xsd:date"#,
        ],
    );
    pin(
        r#"SELECT ?x ?d { ?x dbont:deathDate ?d FILTER(?d = "1986-02-11"^^xsd:date) }"#,
        &[
            r#"res:Frank_Herbert "1986-02-11"^^xsd:date"#,
        ],
    );
}

/// `lang()` errors on IRIs and on numeric literals (which evaluate to numbers), dropping the row.
#[test]
fn lang_and_datatype_filters() {
    pin(
        r#"SELECT ?l { res:Snow rdfs:label ?l FILTER(lang(?l) = "en") }"#,
        &[
            r#""Snow"@en"#,
        ],
    );
    pin(
        r#"SELECT ?l { res:Snow rdfs:label ?l FILTER(lang(?l) != "en") }"#,
        &[],
    );
    pin(
        r#"SELECT ?x { ?x rdf:type dbont:Book FILTER(lang(?x) = "") }"#,
        &[],
    );
    pin(
        r#"SELECT ?p { res:Snow dbont:numberOfPages ?p FILTER(lang(?p) = "") }"#,
        &[],
    );
    pin(
        r#"SELECT ?l { res:Snow rdfs:label ?l FILTER(datatype(?l) = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString") }"#,
        &[
            r#""Snow"@en"#,
        ],
    );
}

/// `regex` over labels, `str()` of IRIs and of numbers.
#[test]
fn regex_and_str_filters() {
    pin(
        r#"SELECT ?x { ?x rdf:type dbont:Writer . ?x rdfs:label ?l FILTER(regex(str(?l), "^Orhan")) }"#,
        &[
            r#"res:Orhan_Pamuk"#,
        ],
    );
    pin(
        r#"SELECT ?x { ?x rdf:type dbont:Writer . ?x rdfs:label ?l FILTER(regex(?l, "PAMUK", "i")) }"#,
        &[
            r#"res:Orhan_Pamuk"#,
        ],
    );
    pin(
        r#"SELECT ?x { ?x rdf:type dbont:Book FILTER(regex(str(?x), "Snow$")) }"#,
        &[
            r#"res:Snow"#,
        ],
    );
    pin(
        r#"SELECT ?b ?p { ?b dbont:numberOfPages ?p FILTER(str(?p) = "412") }"#,
        &[
            r#"res:Dune "412"^^xsd:integer"#,
        ],
    );
    pin(
        r#"SELECT ?x ?h { ?x dbont:height ?h FILTER(regex(str(?h), "^1.9")) }"#,
        &[
            r#"<http://dbpedia.org/resource/Michael_Jordan_(2)> "1.98"^^xsd:double"#,
            r#"res:Boris_Silva "1.98"^^xsd:double"#,
            r#"res:Carla_Schmidt "1.96"^^xsd:double"#,
            r#"res:Helen_Moreau "1.95"^^xsd:double"#,
            r#"res:Ivan_Becker "1.96"^^xsd:double"#,
            r#"res:Kemal_Moreau "1.9"^^xsd:double"#,
            r#"res:Kemal_Vasquez "1.96"^^xsd:double"#,
            r#"res:Lucas_Weber "1.93"^^xsd:double"#,
        ],
    );
}

/// `bound()` over an OPTIONAL variable, in a group-level filter.
#[test]
fn bound_filters() {
    pin(
        r#"SELECT ?b ?pub { ?b rdf:type dbont:Book OPTIONAL { ?b dbont:publisher ?pub } FILTER(!bound(?pub)) }"#,
        &[
            r#"res:Dune -"#,
            r#"res:Golden_Island -"#,
            r#"res:My_Name_is_Red -"#,
            r#"res:Red_Harbor -"#,
            r#"res:Secret_Harbor -"#,
            r#"res:Snow -"#,
            r#"res:The_Burning_Station -"#,
            r#"res:The_Lost_Compass -"#,
            r#"res:The_Museum_of_Innocence -"#,
        ],
    );
    pin(
        r#"SELECT ?b { ?b rdf:type dbont:Book OPTIONAL { ?b dbont:publisher ?pub } FILTER(bound(?pub) && regex(str(?pub), "Vertex")) }"#,
        &[
            r#"res:Broken_Painter"#,
            r#"res:Frozen_Library"#,
            r#"res:The_Endless_River"#,
            r#"res:The_Golden_Orchard"#,
            r#"res:Wandering_Shadow"#,
        ],
    );
}

/// Arithmetic in filters; a division by zero errors the whole expression, dropping the row even under `||`.
#[test]
fn arithmetic_filters() {
    pin(
        r#"SELECT ?c { ?c dbont:populationTotal ?p FILTER(?p / 1000000 > 75) }"#,
        &[
            r#"res:Germany"#,
            r#"res:United_States"#,
        ],
    );
    pin(
        r#"SELECT ?x { ?x dbont:height ?h FILTER(?h * 100 - 204 >= 0) }"#,
        &[
            r#"res:Carla_Marino"#,
            r#"res:Clara_Lehmann"#,
            r#"res:Daniel_Dimitrov"#,
            r#"res:Deniz_Kovacs"#,
            r#"res:Paula_Kovacs"#,
            r#"res:Tomas_Nielsen"#,
        ],
    );
    pin(
        r#"SELECT ?b { ?b dbont:numberOfPages ?p FILTER(?p + 1 = 413) }"#,
        &[
            r#"res:Dune"#,
        ],
    );
    pin(
        r#"SELECT ?b { ?b dbont:numberOfPages ?p FILTER(?p / 0 > 1 || ?p = 412) }"#,
        &[],
    );
}

/// IRIs compare to IRIs by identity order and to literals by string form.
#[test]
fn iri_and_literal_comparisons() {
    pin(
        r#"SELECT ?x { ?x rdf:type dbont:Book FILTER(?x = "http://dbpedia.org/resource/Snow") }"#,
        &[
            r#"res:Snow"#,
        ],
    );
    pin(
        r#"SELECT ?x { ?x rdf:type dbont:Book FILTER(?x = res:Snow) }"#,
        &[
            r#"res:Snow"#,
        ],
    );
    pin(
        r#"SELECT ?l { res:Snow rdfs:label ?l FILTER(?l = res:Snow) }"#,
        &[],
    );
    pin(
        r#"SELECT ?l { res:Snow rdfs:label ?l FILTER(?l = "Snow") }"#,
        &[
            r#""Snow"@en"#,
        ],
    );
    pin(
        r#"SELECT ?x { ?x rdf:type dbont:Country FILTER(?x < "http://dbpedia.org/resource/G") }"#,
        &[
            r#"res:France"#,
        ],
    );
    pin(
        r#"SELECT ?x { ?x rdf:type dbont:Country FILTER(?x > res:Turkey) }"#,
        &[
            r#"res:United_States"#,
        ],
    );
    pin(
        r#"SELECT ?p { res:Snow dbont:numberOfPages ?p FILTER(?p > "1") }"#,
        &[
            r#""432"^^xsd:integer"#,
        ],
    );
}

/// ORDER BY numeric keys, ascending and descending, with OFFSET and LIMIT.
#[test]
fn order_by_numbers() {
    pin(
        r#"SELECT ?c ?p { ?c rdf:type dbont:Country . ?c dbont:populationTotal ?p } ORDER BY ?p OFFSET 1 LIMIT 3"#,
        &[
            r#"res:Italy "48715808"^^xsd:integer"#,
            r#"res:Spain "58163498"^^xsd:integer"#,
            r#"res:Turkey "74724269"^^xsd:integer"#,
        ],
    );
    pin(
        r#"SELECT ?c ?p { ?c rdf:type dbont:Country . ?c dbont:populationTotal ?p } ORDER BY DESC(?p) LIMIT 3"#,
        &[
            r#"res:United_States "316128839"^^xsd:integer"#,
            r#"res:Germany "80716000"^^xsd:integer"#,
            r#"res:Turkey "74724269"^^xsd:integer"#,
        ],
    );
    pin(
        r#"SELECT ?x ?h { ?x dbont:height ?h } ORDER BY DESC(?h) ?x LIMIT 4 OFFSET 2"#,
        &[
            r#"res:Carla_Marino "2.05"^^xsd:double"#,
            r#"res:Paula_Kovacs "2.05"^^xsd:double"#,
            r#"res:Deniz_Kovacs "2.04"^^xsd:double"#,
            r#"res:Tomas_Nielsen "2.04"^^xsd:double"#,
        ],
    );
}

/// ORDER BY `xsd:date` keys, with a tie-breaking second key.
#[test]
fn order_by_dates() {
    pin(
        r#"SELECT ?x ?d { ?x dbont:birthDate ?d } ORDER BY ?d ?x LIMIT 4"#,
        &[
            r#"res:Ludwig_van_Beethoven "1770-12-17"^^xsd:date"#,
            r#"res:Abraham_Lincoln "1809-02-12"^^xsd:date"#,
            r#"res:Ivan_Becker "1854-01-26"^^xsd:date"#,
            r#"res:Maria_Eriksen "1855-01-17"^^xsd:date"#,
        ],
    );
    pin(
        r#"SELECT ?x ?d { ?x dbont:birthDate ?d } ORDER BY DESC(?d) ?x LIMIT 4"#,
        &[
            r#"res:Kemal_Moreau "1995-06-27"^^xsd:date"#,
            r#"res:Clara_Petrov "1993-10-12"^^xsd:date"#,
            r#"res:Jana_Sorensen "1986-12-07"^^xsd:date"#,
            r#"res:Anton_Rossi "1982-08-03"^^xsd:date"#,
        ],
    );
}

/// Unbound keys sort first ascending and last descending.
#[test]
fn order_by_unbound_keys() {
    pin(
        r#"SELECT ?b ?pub { ?b rdf:type dbont:Book OPTIONAL { ?b dbont:publisher ?pub } } ORDER BY ?pub ?b LIMIT 4"#,
        &[
            r#"res:Dune -"#,
            r#"res:Golden_Island -"#,
            r#"res:My_Name_is_Red -"#,
            r#"res:Red_Harbor -"#,
        ],
    );
    pin(
        r#"SELECT ?b ?pub { ?b rdf:type dbont:Book OPTIONAL { ?b dbont:publisher ?pub } } ORDER BY DESC(?pub) ?b LIMIT 4"#,
        &[
            r#"res:Broken_Painter res:Vertex_Systems"#,
            r#"res:Frozen_Library res:Vertex_Systems"#,
            r#"res:The_Endless_River res:Vertex_Systems"#,
            r#"res:The_Golden_Orchard res:Vertex_Systems"#,
        ],
    );
}

/// DISTINCT after ORDER BY keeps the first occurrence of each projected row, then the window applies.
#[test]
fn order_by_with_distinct() {
    pin(
        r#"SELECT DISTINCT ?w { ?b dbont:author ?w . ?b dbont:numberOfPages ?n } ORDER BY DESC(?n) ?w LIMIT 5"#,
        &[
            r#"res:Daniel_Borisov"#,
            r#"res:Sofia_Andersen"#,
            r#"res:Helen_Moreau"#,
            r#"res:Carla_Borisov"#,
            r#"res:Ivan_Koch"#,
        ],
    );
    pin(
        r#"SELECT DISTINCT ?w { ?b dbont:author ?w . ?b dbont:numberOfPages ?n } ORDER BY ?n ?w OFFSET 2 LIMIT 3"#,
        &[
            r#"res:Sofia_Andersen"#,
            r#"res:Ayse_Silva"#,
            r#"res:Frank_Herbert"#,
        ],
    );
    pin(
        r#"SELECT DISTINCT ?t { ?x rdf:type ?t } ORDER BY ?t OFFSET 3 LIMIT 4"#,
        &[
            r#"dbont:BasketballPlayer"#,
            r#"dbont:Book"#,
            r#"dbont:Bridge"#,
            r#"dbont:City"#,
        ],
    );
}

/// Expression keys, and windows past the end or of size zero.
#[test]
fn order_by_expressions_and_windows() {
    pin(
        r#"SELECT ?c { ?c dbont:populationTotal ?p } ORDER BY DESC(?p / 1000) LIMIT 3"#,
        &[
            r#"res:United_States"#,
            r#"res:Germany"#,
            r#"res:Turkey"#,
        ],
    );
    pin(
        r#"SELECT ?x ?l { ?x rdf:type dbont:Country . ?x rdfs:label ?l } ORDER BY DESC(str(?l)) LIMIT 3"#,
        &[
            r#"res:United_States "United States"@en"#,
            r#"res:Turkey "Turkey"@en"#,
            r#"res:Spain "Spain"@en"#,
        ],
    );
    pin(
        r#"SELECT ?x ?h { ?x dbont:height ?h } ORDER BY ?h ?x OFFSET 1000"#,
        &[],
    );
    pin(
        r#"SELECT ?x ?h { ?x dbont:height ?h } ORDER BY ?h ?x LIMIT 0"#,
        &[],
    );
}
