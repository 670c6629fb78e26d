//! Allocation gate for the result path: FILTER, ORDER BY, materialization
//! and result cloning must cost a number of allocations that does not grow
//! with the number of rows.
//!
//! Term payloads are `Arc<str>` and `Rows` is one shared cell table, so an
//! emitted cell costs a refcount bump, a filtered or ordered row costs
//! nothing, and cloning a result (as the query cache does on every hit) is
//! O(1). The binary installs a counting global allocator and compares each
//! operation's count at N and 4N rows; every test serializes on
//! [`exec_lock`] because the counter is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, OnceLock};

use relpat_rdf::vocab::{dbont, rdf, rdfs, res};
use relpat_rdf::{Graph, Literal, Term};
use relpat_sparql::{execute, parse_query, QueryCache, QueryResult};

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

fn exec_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}

/// Row counts every gate compares: N and 4N.
const SIZES: [usize; 2] = [100, 400];

/// `n` books, each with a page count, an English label and a release date,
/// frozen so joins run over sorted slices.
fn books(n: usize) -> Graph {
    let mut g = Graph::new();
    for i in 0..n {
        let book = Term::iri(res::iri(&format!("Book {i}")));
        g.add(book.clone(), Term::iri(rdf::TYPE), Term::iri(dbont::iri("Book")));
        g.add(
            book.clone(),
            Term::iri(dbont::iri("numberOfPages")),
            Term::Literal(Literal::integer(100 + i as i64)),
        );
        g.add(
            book.clone(),
            Term::iri(rdfs::LABEL),
            Term::Literal(Literal::lang(format!("Book {i}"), "en")),
        );
        let (y, m, d) = (1900 + (i % 100) as i32, 1 + (i % 12) as u32, 1 + (i % 28) as u32);
        g.add(book, Term::iri(dbont::iri("releaseDate")), Term::Literal(Literal::date(y, m, d)));
    }
    g.freeze();
    g
}

const PATTERN: &str = "?b rdf:type dbont:Book . ?b dbont:numberOfPages ?p . \
                       ?b rdfs:label ?l . ?b dbont:releaseDate ?d";

/// Allocations of one call after `warmup` identical calls.
fn allocations_of(warmup: usize, f: impl Fn()) -> u64 {
    for _ in 0..warmup {
        f();
    }
    let before = ALLOCATIONS.load(Relaxed);
    f();
    ALLOCATIONS.load(Relaxed) - before
}

/// Allocations of one warm execution of `text` over `g`.
fn execution_allocs(g: &Graph, text: &str) -> u64 {
    let parsed = parse_query(text).unwrap();
    allocations_of(3, || {
        black_box(execute(g, &parsed).unwrap());
    })
}

/// What `text` allocates beyond `baseline` — the same pattern without the
/// operation under test — at each of [`SIZES`]. Subtracting the baseline
/// cancels the join's own buffer growth, which is logarithmic in N and not
/// part of the result path.
fn extra_allocs(text: &str, baseline: &str) -> Vec<u64> {
    SIZES
        .iter()
        .map(|&n| {
            let g = books(n);
            execution_allocs(&g, text).saturating_sub(execution_allocs(&g, baseline))
        })
        .collect()
}

fn assert_flat(what: &str, counts: &[u64]) {
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "{what}: allocations grow with rows ({SIZES:?} rows -> {counts:?} allocations)"
    );
}

#[test]
fn filter_allocations_do_not_grow_with_rows() {
    let _guard = exec_lock();
    // Every row passes, so both queries count the same rows; the
    // difference is the filter's own cost. It touches numbers, dates,
    // language tags, `str()`/`regex`, `bound()`, arithmetic and an IRI
    // comparison.
    let filter = "FILTER(?p > 0 && ?d >= \"1800-01-01\"^^xsd:date && lang(?l) = \"en\" \
                  && regex(str(?l), \"^Book\") && bound(?p) && ?p * 2 - 1 > 0 \
                  && ?b != res:Nothing)";
    let counts = extra_allocs(
        &format!("SELECT (COUNT(*) AS ?n) {{ {PATTERN} {filter} }}"),
        &format!("SELECT (COUNT(*) AS ?n) {{ {PATTERN} }}"),
    );
    assert_flat("FILTER", &counts);
}

#[test]
fn order_by_allocations_do_not_grow_with_rows() {
    let _guard = exec_lock();
    // OFFSET keeps the unordered baseline from stopping its scan early.
    let counts = extra_allocs(
        &format!("SELECT ?b {{ {PATTERN} }} ORDER BY DESC(?d) ?l ?p OFFSET 0 LIMIT 1"),
        &format!("SELECT ?b {{ {PATTERN} }} OFFSET 0 LIMIT 1"),
    );
    assert_flat("ORDER BY", &counts);
}

#[test]
fn materialization_allocations_do_not_grow_with_rows() {
    let _guard = exec_lock();
    let counts = extra_allocs(
        &format!("SELECT ?b ?p ?l ?d {{ {PATTERN} }}"),
        &format!("SELECT (COUNT(*) AS ?n) {{ {PATTERN} }}"),
    );
    assert_flat("materialization", &counts);
}

#[test]
fn cloning_results_and_cache_hits_do_not_grow_with_rows() {
    let _guard = exec_lock();
    let text = format!("SELECT ?b ?p ?l ?d {{ {PATTERN} }}");
    let mut clones = Vec::new();
    let mut hits = Vec::new();
    for n in SIZES {
        let g = books(n);
        let cache = QueryCache::new(8);
        let result = cache.query(&g, &text).unwrap();
        assert_eq!(result.as_solutions().map(|s| s.len()), Some(n));
        clones.push(allocations_of(3, || {
            black_box(result.clone());
        }));
        hits.push(allocations_of(3, || {
            let hit: QueryResult = cache.query(&g, &text).unwrap();
            black_box(hit);
        }));
    }
    assert_flat("Solutions clone", &clones);
    assert_flat("QueryCache hit", &hits);
}
