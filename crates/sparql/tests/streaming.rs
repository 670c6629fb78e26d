//! Streaming-execution observability test.
//!
//! `sparql.rows_scanned` lives on the process-global metrics registry, which
//! every test thread shares — so all counter-delta assertions sit in ONE test
//! function in their own integration-test binary, where no concurrent query
//! can perturb the deltas.

use relpat_rdf::{Graph, GraphBuilder, Term};
use relpat_rdf::vocab::{dbont, rdf, res};
use relpat_sparql::query;

fn scanned() -> u64 {
    relpat_obs::global().counter_value("sparql.rows_scanned")
}

/// Runs a query and returns (rows produced, rows scanned by its joins).
fn run(g: &Graph, q: &str) -> (usize, u64) {
    let before = scanned();
    let rows = query(g, q).unwrap().into_solutions().unwrap().rows.len();
    (rows, scanned() - before)
}

#[test]
fn bare_limit_stops_the_scan_early() {
    let mut g = GraphBuilder::new();
    let ty = Term::iri(rdf::TYPE);
    let book = Term::iri(dbont::iri("Book"));
    let writer = Term::iri(dbont::iri("writer"));
    let pamuk = Term::iri(res::iri("Orhan Pamuk"));
    const BOOKS: usize = 500;
    for i in 0..BOOKS {
        let b = Term::iri(res::iri(&format!("Book {i}")));
        g.add(b.clone(), ty.clone(), book.clone());
        g.add(b, writer.clone(), pamuk.clone());
    }
    let g = g.build();

    // Unlimited: the single-pattern scan must walk every matching triple.
    let (rows_all, scanned_all) = run(&g, "SELECT ?x { ?x rdf:type dbont:Book }");
    assert_eq!(rows_all, BOOKS);
    assert_eq!(scanned_all, BOOKS as u64);

    // Bare LIMIT 1: the limit is pushed into the join loop, so the scan
    // stops after the first match instead of walking all 500.
    let (rows_one, scanned_one) = run(&g, "SELECT ?x { ?x rdf:type dbont:Book } LIMIT 1");
    assert_eq!(rows_one, 1);
    assert!(
        scanned_one < scanned_all,
        "LIMIT 1 must scan strictly fewer rows ({scanned_one} vs {scanned_all})"
    );
    assert_eq!(scanned_one, 1, "a selective first pattern should stop immediately");

    // Multi-pattern join: intermediate steps still run to completion; only
    // the final step may stop early, so the total stays below the unlimited
    // two-pattern cost (500 type rows + 500 writer probes).
    let (rows_join, scanned_join) = run(
        &g,
        "SELECT ?x { ?x rdf:type dbont:Book . ?x dbont:writer res:Orhan_Pamuk } LIMIT 1",
    );
    assert_eq!(rows_join, 1);
    let (rows_join_all, scanned_join_all) = run(
        &g,
        "SELECT ?x { ?x rdf:type dbont:Book . ?x dbont:writer res:Orhan_Pamuk }",
    );
    assert_eq!(rows_join_all, BOOKS);
    assert!(
        scanned_join < scanned_join_all,
        "join under LIMIT must scan strictly fewer rows ({scanned_join} vs {scanned_join_all})"
    );

    // ASK uses the same early-stop path (limit 1).
    let before = scanned();
    assert!(query(&g, "ASK { ?x rdf:type dbont:Book }").unwrap().into_boolean().unwrap());
    assert_eq!(scanned() - before, 1, "ASK should stop at the first match");

    // A filter blocks pushdown: the limit must not starve the filter of
    // candidate rows, so the full scan runs and the result is still correct.
    let (rows_f, scanned_f) = run(
        &g,
        "SELECT ?x { ?x rdf:type dbont:Book FILTER(regex(str(?x), \"Book\")) } LIMIT 1",
    );
    assert_eq!(rows_f, 1);
    assert_eq!(
        scanned_f, BOOKS as u64,
        "filtered LIMIT must not push down into the scan"
    );

    // LIMIT larger than the result set changes nothing.
    let (rows_big, scanned_big) = run(&g, "SELECT ?x { ?x rdf:type dbont:Book } LIMIT 9999");
    assert_eq!(rows_big, BOOKS);
    assert_eq!(scanned_big, BOOKS as u64);
}
