//! EXPLAIN ANALYZE integration tests: golden rendering of a fixed plan,
//! planner-estimate fidelity, counter consistency, and the allocation cost
//! of the explain-off path.
//!
//! The binary installs a counting global allocator so the overhead test can
//! assert that threading `trace: None` through the executor adds no
//! allocations per join step. All tests that execute queries serialize on
//! [`exec_lock`] — the allocation counter and the `sparql.rows_scanned`
//! counter are process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, OnceLock};

use relpat_rdf::vocab::{dbont, rdf, res};
use relpat_rdf::{Graph, GraphBuilder, IdPattern, Term};
use relpat_sparql::{execute, execute_traced, parse_query, QueryCache};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Serializes tests that read process-global state (allocation counter,
/// `sparql.rows_scanned`).
fn exec_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    // A failed assertion elsewhere shouldn't cascade: poison is harmless
    // here (the guard protects no data).
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}

/// A fixed library graph: 3 typed books by one author, plus unrelated
/// noise.
fn library() -> Graph {
    let mut g = GraphBuilder::new();
    let pamuk = Term::iri(res::iri("Orhan Pamuk"));
    for title in ["Snow", "My Name Is Red", "The White Castle"] {
        let book = Term::iri(res::iri(title));
        g.add(book.clone(), Term::iri(rdf::TYPE), Term::iri(dbont::iri("Book")));
        g.add(book, Term::iri(dbont::iri("author")), pamuk.clone());
    }
    g.add(
        Term::iri(res::iri("Ankara")),
        Term::iri(rdf::TYPE),
        Term::iri(dbont::iri("City")),
    );
    g.build()
}

const QUERY: &str = "SELECT ?x { ?x rdf:type dbont:Book . ?x dbont:author res:Orhan_Pamuk }";

#[test]
fn golden_explain_rendering_is_stable() {
    let _guard = exec_lock();
    let g = library();
    let parsed = parse_query(QUERY).expect("query parses");
    let (result, trace) = execute_traced(&g, &parsed).expect("query runs");
    assert_eq!(result, execute(&g, &parsed).expect("query runs"), "explain changed the result");
    assert_eq!(result.clone().into_solutions().unwrap().len(), 3);
    // Both patterns estimate 3 rows (3 typed books, 3 authored books); the
    // tie keeps the type pattern first, and once ?x is bound the author
    // pattern's score drops to 0.30 (one bound variable → ×0.1). Step 0's
    // POS scan leaves the binding stream sorted by ?x, so step 1 — joining
    // on ?x alone — runs as a sort-merge intersection: 3 distinct probe
    // keys, each point slice (1 row) counted once.
    assert_eq!(
        trace.render(),
        "plan: 2 steps, 6 rows scanned, 0 misestimates\n\
         \x20 #0 ?x rdf:type dbont:Book .  est=3 score=3.00 scanned=3 emitted=3 algo=nested\n\
         \x20 #1 ?x dbont:author res:Orhan_Pamuk .  est=3 score=0.30 scanned=3 emitted=3 algo=merge\n"
    );
    // Step timing is measured but deliberately excluded from the stable
    // rendering; it still reaches the JSON view.
    assert!(trace.steps.iter().all(|s| s.nanos > 0));
    assert!(trace.to_json().to_string().contains("\"nanos\""));
}

#[test]
fn step_estimates_match_graph_estimate_and_scan_sum_matches_counter() {
    let _guard = exec_lock();
    let g = library();
    let query = parse_query(QUERY).expect("parse");
    let before = relpat_obs::global().counter_value("sparql.rows_scanned");
    let (_, trace) = execute_traced(&g, &query).expect("execute");
    let delta = relpat_obs::global().counter_value("sparql.rows_scanned") - before;
    assert_eq!(trace.rows_scanned(), delta, "summed step scans must equal the counter delta");

    // Recompute each step's estimate straight from the index: it is
    // `graph.estimate()` over the pattern's concrete positions (variables
    // contribute nothing to the id-pattern, bound or not).
    let relpat_sparql::ast::Query::Select(sel) = &query else { panic!("SELECT expected") };
    let patterns = &sel.pattern.triples;
    assert_eq!(trace.steps.len(), patterns.len());
    for step in &trace.steps {
        let tp = &patterns[step.pattern_index];
        let id = |term: &Term| match term {
            Term::Variable(_) => None,
            concrete => Some(g.term_id(concrete).expect("term interned")),
        };
        let expected = g.estimate(IdPattern {
            subject: id(&tp.subject),
            predicate: id(&tp.predicate),
            object: id(&tp.object),
        });
        assert_eq!(step.estimate, expected, "step {} ({})", step.position, step.pattern);
        assert_eq!(step.pattern, tp.to_string());
    }
}

#[test]
fn filter_and_projection_are_traced() {
    let _guard = exec_lock();
    // The store-scaling `filtered` shape: the FILTER sees every row the
    // last join step emitted and keeps exactly the result's rows.
    let mut g = GraphBuilder::new();
    let populations = [800_000, 3_500_000, 1_200_000, 9_000_000, 4_100_000];
    for (i, population) in populations.iter().enumerate() {
        let city = Term::iri(res::iri(&format!("City {i}")));
        g.add(city.clone(), Term::iri(rdf::TYPE), Term::iri(dbont::iri("City")));
        let population = Term::Literal(relpat_rdf::Literal::integer(*population));
        g.add(city, Term::iri(dbont::iri("populationTotal")), population);
    }
    g.add(Term::iri(res::iri("Nowhere")), Term::iri(rdf::TYPE), Term::iri(dbont::iri("City")));
    let g = g.build();
    let query = parse_query(
        "SELECT ?c { ?c rdf:type dbont:City . ?c dbont:populationTotal ?p \
         FILTER(?p > 3000000) }",
    )
    .unwrap();
    let (result, trace) = execute_traced(&g, &query).unwrap();
    let rows = result.into_solutions().unwrap().len();
    let filter = trace.filter.expect("a FILTER ran");
    let last = trace.steps.last().expect("the BGP ran");
    assert_eq!((filter.rows_in, filter.rows_out, rows), (5, 3, 3), "{}", trace.render());
    assert_eq!(filter.rows_in, last.bindings_emitted, "{}", trace.render());
    assert_eq!(filter.rows_out, rows, "{}", trace.render());
    assert!(filter.nanos > 0 && trace.projection_nanos > 0);
    assert!(trace.render().ends_with("  filter: in=5 out=3\n"), "{}", trace.render());
    let json = trace.to_json().to_string();
    assert!(json.contains("\"filter\":{\"rows_in\":5,\"rows_out\":3,"), "{json}");
    assert!(json.contains("\"projection_nanos\""), "{json}");

    // Without a FILTER there is no filter entry, and ASK projects nothing.
    let (_, plain) = execute_traced(&g, &parse_query("SELECT ?c { ?c a dbont:City }").unwrap())
        .unwrap();
    assert_eq!(plain.filter, None);
    assert!(plain.to_json().to_string().contains("\"filter\":null"));
    let ask = parse_query("ASK { ?c rdf:type dbont:City }").unwrap();
    assert_eq!(execute_traced(&g, &ask).unwrap().1.projection_nanos, 0);
}

#[test]
fn cache_hits_trace_zero_scans_and_zero_counter_delta() {
    let _guard = exec_lock();
    let g = library();
    let cache = QueryCache::new(8);
    let query = parse_query(QUERY).expect("query parses");
    let (first, cold) = cache.execute_traced(&g, &query).expect("cold query");
    assert!(!cold.cache_hit);
    let before = relpat_obs::global().counter_value("sparql.rows_scanned");
    let (second, hot) = cache.execute_traced(&g, &query).expect("warm query");
    let delta = relpat_obs::global().counter_value("sparql.rows_scanned") - before;
    assert_eq!(first, second);
    assert!(hot.cache_hit);
    assert_eq!(hot.rows_scanned(), 0);
    assert_eq!(delta, 0, "a cache hit must not run the executor");
    assert_eq!(hot.render(), "plan: cache hit (0 rows scanned)\n");
}

/// Allocations of one call after `warmup` identical calls.
fn allocations_of(warmup: usize, f: impl Fn()) -> u64 {
    for _ in 0..warmup {
        f();
    }
    let before = ALLOCATIONS.load(Relaxed);
    f();
    ALLOCATIONS.load(Relaxed) - before
}

#[test]
fn explain_off_path_allocates_nothing_for_tracing() {
    let _guard = exec_lock();
    let g = library();
    let one_step = parse_query("SELECT ?x { ?x rdf:type dbont:Book }").unwrap();
    let two_step = parse_query(QUERY).unwrap();

    // Steady state: the untraced path allocates a deterministic amount
    // (bindings and result rows only) — run-to-run equality means nothing
    // trace-related leaks into it.
    let off_a = allocations_of(3, || {
        let _ = std::hint::black_box(execute(&g, &two_step).unwrap());
    });
    let off_b = allocations_of(0, || {
        let _ = std::hint::black_box(execute(&g, &two_step).unwrap());
    });
    assert_eq!(off_a, off_b, "untraced execution must allocate deterministically");

    // The extra join step's untraced cost is bindings work only. If the
    // trace machinery allocated on the None path (clock boxes, step
    // buffers, pattern strings), this delta would jump by several
    // allocations per step; the real per-step overhead is zero.
    let off_one = allocations_of(3, || {
        let _ = std::hint::black_box(execute(&g, &one_step).unwrap());
    });
    let bindings_cost = off_b.saturating_sub(off_one);
    assert!(
        bindings_cost <= 16,
        "untraced per-step cost exploded: 1-step run {off_one}, 2-step run {off_b}"
    );

    // Tracing pays only on the traced path: strictly more allocations, at
    // least one per step (the PlanStep pattern string alone).
    let on = allocations_of(3, || {
        let _ = std::hint::black_box(execute_traced(&g, &two_step).unwrap());
    });
    assert!(
        on > off_b,
        "traced execution should allocate for its steps: on {on} <= off {off_b}"
    );
}

#[test]
fn nested_join_clones_only_surviving_rows() {
    let _guard = exec_lock();
    // `?x <p> ?x` scans every <p> row but only the self-loop survives the
    // repeated-variable check. The nested loop must validate *before*
    // cloning the probe binding, so doubling the rejected rows must not
    // change the allocation count — only emitted rows pay for a clone.
    let graph_with_noise = |noise: usize| {
        let mut g = GraphBuilder::new();
        let p = Term::iri("p");
        g.add(Term::iri("loop"), p.clone(), Term::iri("loop"));
        for i in 0..noise {
            g.add(Term::iri(format!("s{i}")), p.clone(), Term::iri(format!("o{i}")));
        }
        g.build()
    };
    let small = graph_with_noise(64);
    let large = graph_with_noise(128);
    let q = parse_query("SELECT ?x { ?x <p> ?x }").unwrap();
    let small_allocs = allocations_of(3, || {
        let _ = std::hint::black_box(execute(&small, &q).unwrap());
    });
    let large_allocs = allocations_of(3, || {
        let _ = std::hint::black_box(execute(&large, &q).unwrap());
    });
    assert_eq!(
        small_allocs, large_allocs,
        "rejected scan rows must not allocate (64-noise vs 128-noise run)"
    );
}
