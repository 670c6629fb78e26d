//! Differential suite: the sorted join operators (merge + gallop) against
//! the nested-loop oracle.
//!
//! Every test runs the same parsed query through [`execute_traced`] (planner
//! picks merge/gallop where the sortedness argument allows) and
//! [`execute_nested_traced`] (identical join order, every step pinned to the
//! nested fallback), then asserts:
//!
//! 1. **bit-identical solutions** — not just equal multisets: both executors
//!    emit rows in the probe stream's original order, so the full solution
//!    *sequences* must match;
//! 2. **`rows_scanned` never grows** — merge/gallop locate each distinct
//!    probe key's range once, so their per-query scan total is ≤ the nested
//!    loop's per-row rescans.
//!
//! Coverage: all 8 triple-pattern shapes, every shared-variable orientation
//! of two-pattern joins, chains/stars, repeated variables, empty and
//! singleton slices, LIMIT pushdown, UNION/OPTIONAL/FILTER interaction, and
//! a seeded random-query fuzz over a seeded random graph.

use relpat_obs::Rng;
use relpat_rdf::{Graph, GraphBuilder, Term};
use relpat_sparql::{execute_nested_traced, execute_traced, parse_query, JoinAlgo};

/// Seeded random graph: `entities` node IRIs `<e0>..`, `preds` predicate
/// IRIs `<p0>..`, `triples` random edges plus a handful of guaranteed
/// self-loops (repeated-variable fodder).
fn random_graph(seed: u64, entities: usize, preds: usize, triples: usize) -> Graph {
    let mut rng = Rng::seed_from_u64(seed);
    let mut g = GraphBuilder::new();
    for _ in 0..triples {
        let s = rng.gen_range(0..entities);
        let p = rng.gen_range(0..preds);
        let o = rng.gen_range(0..entities);
        g.add(
            Term::iri(format!("e{s}")),
            Term::iri(format!("p{p}")),
            Term::iri(format!("e{o}")),
        );
    }
    for i in 0..entities.min(4) {
        g.add(Term::iri(format!("e{i}")), Term::iri("p0"), Term::iri(format!("e{i}")));
    }
    g.build()
}

/// Runs `q` through both executors; asserts identical solution sequences
/// and a non-increasing scan total. Returns the operators the fast plan
/// actually executed, so callers can assert a sorted operator really ran.
fn assert_equivalent(g: &Graph, q: &str) -> Vec<JoinAlgo> {
    let parsed = parse_query(q).unwrap_or_else(|e| panic!("parse {q}: {e}"));
    let (fast, fast_trace) = execute_traced(g, &parsed).expect("fast execution");
    let (slow, slow_trace) = execute_nested_traced(g, &parsed).expect("oracle execution");
    assert_eq!(fast, slow, "solutions diverge for {q}");
    assert!(
        fast_trace.rows_scanned() <= slow_trace.rows_scanned(),
        "sorted operators scanned more than nested ({} > {}) for {q}",
        fast_trace.rows_scanned(),
        slow_trace.rows_scanned(),
    );
    assert!(
        slow_trace.steps.iter().all(|s| s.join_algo == JoinAlgo::Nested),
        "oracle must be pinned to nested for {q}"
    );
    fast_trace.steps.iter().map(|s| s.join_algo).collect()
}

#[test]
fn all_eight_pattern_shapes_match() {
    let g = random_graph(7, 12, 3, 60);
    // One concrete triple that definitely exists: random_graph guarantees
    // the <e0> <p0> <e0> self-loop.
    let (s, p, o) = ("<e0>", "<p0>", "<e0>");
    for q in [
        format!("SELECT * {{ {s} {p} {o} }}"),
        format!("SELECT ?o {{ {s} {p} ?o }}"),
        format!("SELECT ?pp {{ {s} ?pp {o} }}"),
        format!("SELECT ?p ?o {{ {s} ?p ?o }}"),
        format!("SELECT ?s {{ ?s {p} {o} }}"),
        format!("SELECT ?s ?o {{ ?s {p} ?o }}"),
        format!("SELECT ?s ?p {{ ?s ?p {o} }}"),
        "SELECT ?s ?p ?o { ?s ?p ?o }".to_string(),
    ] {
        assert_equivalent(&g, &q);
    }
}

#[test]
fn two_pattern_joins_in_every_orientation() {
    let g = random_graph(11, 10, 4, 80);
    // The shared variable sits at each (position-in-first, position-in-second)
    // combination; subject/object orientations exercise merge and gallop,
    // predicate joins exercise the rarely-sorted POS cases.
    let queries = [
        "SELECT * { ?x <p0> ?a . ?x <p1> ?b }",  // s-s
        "SELECT * { ?x <p0> ?a . ?b <p1> ?x }",  // s-o
        "SELECT * { ?a <p0> ?x . ?x <p1> ?b }",  // o-s
        "SELECT * { ?a <p0> ?x . ?b <p1> ?x }",  // o-o
        "SELECT * { ?x ?p ?a . ?x <p1> ?b }",    // s-s with open predicate
        "SELECT * { <e0> ?p ?a . ?b ?p <e1> }",  // p-p
        "SELECT * { ?x <p0> ?y . ?y <p1> ?x }",  // both vars shared (cycle)
    ];
    let mut sorted_operator_ran = false;
    for q in queries {
        let algos = assert_equivalent(&g, q);
        sorted_operator_ran |= algos.iter().any(|a| *a != JoinAlgo::Nested);
    }
    assert!(sorted_operator_ran, "at least one orientation must use merge/gallop");
}

#[test]
fn chains_and_stars_use_sorted_operators() {
    let g = random_graph(23, 16, 4, 160);
    let chain = "SELECT * { ?a <p0> ?b . ?b <p1> ?c . ?c <p2> ?d }";
    // A predicate-only scan sorts by *object* (POS order), so a star on the
    // subject galops; anchoring the first step with a concrete object makes
    // its POS slice sorted by subject ?x, and the remaining steps merge.
    let star_gallop = "SELECT * { ?x <p0> ?a . ?x <p1> ?b . ?x <p2> ?c }";
    let star_merge = "SELECT * { ?x <p0> <e0> . ?x <p1> ?b . ?x <p2> ?c }";
    let algos_chain = assert_equivalent(&g, chain);
    let algos_gallop = assert_equivalent(&g, star_gallop);
    let algos_merge = assert_equivalent(&g, star_merge);
    assert_eq!(algos_chain[0], JoinAlgo::Nested, "first step is always a scan");
    assert!(
        algos_chain[1..]
            .iter()
            .chain(&algos_gallop[1..])
            .chain(&algos_merge[1..])
            .all(|a| *a != JoinAlgo::Nested),
        "later steps of single-shared-var joins run batched: \
         {algos_chain:?} {algos_gallop:?} {algos_merge:?}"
    );
    assert!(
        algos_gallop[1..].iter().all(|a| *a == JoinAlgo::Gallop),
        "subject joins over an object-sorted stream gallop: {algos_gallop:?}"
    );
    assert_eq!(
        algos_merge[1..],
        [JoinAlgo::Merge, JoinAlgo::Merge],
        "subject joins over a subject-sorted stream merge"
    );
}

#[test]
fn repeated_variables_within_a_pattern() {
    let g = random_graph(31, 8, 3, 50);
    for q in [
        "SELECT ?x { ?x <p0> ?x }",
        "SELECT * { ?x <p0> ?x . ?x <p1> ?y }",
        "SELECT * { ?y <p1> ?x . ?x <p0> ?x }",
        "SELECT * { ?x ?p ?x . ?x <p0> ?y }",
    ] {
        assert_equivalent(&g, q);
    }
}

#[test]
fn repeated_free_variable_in_a_batched_step() {
    // `?y ?q ?q` runs after ?y is bound, as a merge (the stream is sorted
    // by ?y) or a gallop (sorted by ?x): ?q is free at two positions, so the
    // batched step must keep only entries whose predicate is their object.
    let mut g = GraphBuilder::new();
    let mut rng = Rng::seed_from_u64(61);
    for _ in 0..120 {
        let [s, o] = [rng.gen_range(0..12), rng.gen_range(0..12)].map(|e| format!("e{e}"));
        let p = format!("p{}", rng.gen_range(0..3));
        g.add(Term::iri(s), Term::iri(p), Term::iri(o));
    }
    for i in 0..12 {
        let p = Term::iri(format!("p{}", i % 3));
        g.add(Term::iri(format!("e{i}")), p.clone(), p);
    }
    let g = g.build();
    // The oracle shares the row emission, so the count is also checked
    // against the graph: one row per `<p0>` edge and per predicate its
    // ?y end carries as its own object.
    let loops = |y: &Term| {
        g.triples_matching(Some(y), None, None).iter().filter(|t| t.predicate == t.object).count()
    };
    let edges = g.triples_matching(None, Some(&Term::iri("p0")), None);
    for (q, algo, y_is_object) in [
        ("SELECT * { ?x <p0> ?y . ?y ?q ?q }", JoinAlgo::Merge, true),
        ("SELECT * { ?y <p0> ?x . ?y ?q ?q }", JoinAlgo::Gallop, false),
    ] {
        let algos = assert_equivalent(&g, q);
        assert_eq!(algos, [JoinAlgo::Nested, algo], "{q}");
        let parsed = parse_query(q).unwrap();
        let rows = execute_traced(&g, &parsed).unwrap().0.into_solutions().unwrap().len();
        let want: usize =
            edges.iter().map(|t| loops(if y_is_object { &t.object } else { &t.subject })).sum();
        assert_eq!(rows, want, "{q}");
        assert!(rows > 0, "{q} must match some self-labelled entries");
    }
}

#[test]
fn empty_and_singleton_slices() {
    let mut g = GraphBuilder::new();
    g.add(Term::iri("only-s"), Term::iri("only-p"), Term::iri("only-o"));
    g.add(Term::iri("a"), Term::iri("q"), Term::iri("b"));
    let g = g.build();
    for q in [
        // Dead concrete term (never interned): everything downstream empty.
        "SELECT ?x { ?x <only-p> <missing> . ?x <q> ?y }",
        "SELECT * { ?x <q> ?y . ?x <nope> ?z }",
        // Singleton slice joined both ways.
        "SELECT * { ?s <only-p> ?o . ?s <q> ?y }",
        "SELECT * { ?s <q> ?o . ?s <only-p> ?y }",
        "SELECT ?s { ?s <only-p> <only-o> }",
    ] {
        assert_equivalent(&g, q);
    }
}

#[test]
fn limit_pushdown_interaction() {
    let g = random_graph(43, 14, 3, 120);
    for q in [
        // Capped final step downgrades to nested in both executors — the
        // truncated prefix must still agree because every earlier step
        // produced bit-identical streams.
        "SELECT * { ?a <p0> ?b . ?b <p1> ?c } LIMIT 3",
        "SELECT * { ?x <p0> ?a . ?x <p1> ?b } LIMIT 1",
        "SELECT ?s { ?s <p0> ?o } LIMIT 2",
        // Non-pushdown limits (DISTINCT / ORDER BY / OFFSET) for contrast.
        "SELECT DISTINCT ?a { ?a <p0> ?b . ?b <p1> ?c } LIMIT 4",
        "SELECT ?a { ?a <p0> ?b . ?b <p1> ?c } ORDER BY ?a LIMIT 4",
        "SELECT ?a { ?a <p0> ?b . ?b <p1> ?c } LIMIT 4 OFFSET 2",
    ] {
        assert_equivalent(&g, q);
    }
    let parsed = parse_query("SELECT * { ?a <p0> ?b . ?b <p1> ?c } LIMIT 3").unwrap();
    let (_, trace) = execute_traced(&g, &parsed).unwrap();
    let last = trace.steps.last().unwrap();
    assert!(last.limit_pushdown, "bare LIMIT arms the final step");
    assert_eq!(last.join_algo, JoinAlgo::Nested, "a capped step must run nested");
}

#[test]
fn union_optional_filter_groups_match() {
    let g = random_graph(53, 12, 4, 100);
    for q in [
        "SELECT * { ?x <p0> ?a . { ?x <p1> ?b } UNION { ?x <p2> ?b } }",
        "SELECT * { ?x <p0> ?a OPTIONAL { ?x <p1> ?b } }",
        "SELECT * { ?x <p0> ?a . ?a <p1> ?b FILTER(bound(?b)) }",
        "SELECT * { ?x <p0> ?a OPTIONAL { ?a <p1> ?b . ?b <p2> ?c } }",
        "ASK { ?x <p0> ?a . ?a <p1> ?b }",
        "ASK { ?x <p0> <missing> }",
    ] {
        assert_equivalent(&g, q);
    }
}

#[test]
fn seeded_query_fuzz_against_the_oracle() {
    let g = random_graph(97, 20, 5, 260);
    let mut rng = Rng::seed_from_u64(0xD1FF);
    let vars = ["a", "b", "c", "x", "y"];
    for case in 0..60 {
        let n_patterns = rng.gen_range(1..=4usize);
        let mut body = String::new();
        for i in 0..n_patterns {
            // Bias toward shared variables so joins actually connect; mix in
            // concrete entities and open predicates.
            let subj = if rng.gen_bool(0.7) {
                format!("?{}", vars[rng.gen_range(0..vars.len())])
            } else {
                format!("<e{}>", rng.gen_range(0..20))
            };
            let pred = if rng.gen_bool(0.8) {
                format!("<p{}>", rng.gen_range(0..5))
            } else {
                format!("?q{i}")
            };
            let obj = if rng.gen_bool(0.7) {
                format!("?{}", vars[rng.gen_range(0..vars.len())])
            } else {
                format!("<e{}>", rng.gen_range(0..20))
            };
            body.push_str(&format!("{subj} {pred} {obj} . "));
        }
        let q = format!("SELECT * {{ {body}}}");
        assert_equivalent(&g, &q);
        let _ = case;
    }
}
