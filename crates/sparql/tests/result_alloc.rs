//! Allocation gate for the result path: FILTER, ORDER BY, materialization
//! and result cloning must cost a number of allocations that does not grow
//! with the number of rows, and materialization at most 4 requested bytes
//! per emitted cell.
//!
//! `Rows` is one shared table of 4-byte cell ids beside a handle on the
//! graph's term table, so an emitted cell costs its id and no term clone, a
//! filtered or ordered row costs nothing, and cloning a result (as the query
//! cache does on every hit) is O(1). Join steps size their output before
//! writing it, so a join's own allocations do not grow with rows either.
//! The binary installs a global allocator that counts each thread's
//! allocations, and the bytes they request, in thread-local cells and
//! compares each operation's counts on the measuring thread at N and 4N
//! rows, so the test harness and other test threads allocating meanwhile
//! do not leak into a count. Tests still serialize on [`exec_lock`], so no
//! other test grows state they share (metric registries, the event
//! journal) mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::{Mutex, MutexGuard, OnceLock};

use relpat_rdf::vocab::{dbont, rdf, rdfs, res};
use relpat_rdf::{Graph, GraphBuilder, Literal, Term};
use relpat_sparql::{execute, execute_traced, parse_query, JoinAlgo, QueryCache, QueryResult};

struct CountingAllocator;

thread_local! {
    // `const`-initialized with no destructor: reading them never allocates
    // and never fails, even while the thread is being torn down.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes` requested bytes (a reallocation counts
/// its new size).
fn count_one(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes as u64));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

// SAFETY: every call forwards to `System` unchanged; the counter only
// observes that a call was made.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn exec_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}

/// Bytes a two-step merge join requests per added row.
const BYTES_PER_ROW: u64 = 32;

/// Row counts every gate compares: N and 4N.
const SIZES: [usize; 2] = [100, 400];

/// `n` books, each with a page count, an English label and a release date.
fn books(n: usize) -> Graph {
    let mut g = GraphBuilder::new();
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
    g.build()
}

const PATTERN: &str = "?b rdf:type dbont:Book . ?b dbont:numberOfPages ?p . \
                       ?b rdfs:label ?l . ?b dbont:releaseDate ?d";

/// Allocations and requested bytes of one call after `warmup` identical
/// calls.
fn allocs_and_bytes_of(warmup: usize, f: impl Fn()) -> (u64, u64) {
    for _ in 0..warmup {
        f();
    }
    let before = (allocations(), bytes());
    f();
    (allocations() - before.0, bytes() - before.1)
}

/// Allocations of one call after `warmup` identical calls.
fn allocations_of(warmup: usize, f: impl Fn()) -> u64 {
    allocs_and_bytes_of(warmup, f).0
}

/// Allocations and requested bytes of one warm execution of `text` over `g`.
fn execution_costs(g: &Graph, text: &str) -> (u64, u64) {
    let parsed = parse_query(text).unwrap();
    allocs_and_bytes_of(3, || {
        black_box(execute(g, &parsed).unwrap());
    })
}

/// Allocations of one warm execution of `text` over `g`.
fn execution_allocs(g: &Graph, text: &str) -> u64 {
    execution_costs(g, text).0
}

/// What `text` allocates beyond `baseline` — the same pattern without the
/// operation under test — at each of [`SIZES`], as (allocations, requested
/// bytes). Subtracting the baseline cancels the join's own buffer growth,
/// which is logarithmic in N and not part of the result path.
fn extra_costs(text: &str, baseline: &str) -> Vec<(u64, u64)> {
    SIZES
        .iter()
        .map(|&n| {
            let g = books(n);
            let ((allocs, bytes), (base_allocs, base_bytes)) =
                (execution_costs(&g, text), execution_costs(&g, baseline));
            (allocs.saturating_sub(base_allocs), bytes.saturating_sub(base_bytes))
        })
        .collect()
}

/// The allocation counts of [`extra_costs`].
fn extra_allocs(text: &str, baseline: &str) -> Vec<u64> {
    extra_costs(text, baseline).into_iter().map(|(allocs, _)| allocs).collect()
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
    let costs = extra_costs(
        &format!("SELECT ?b ?p ?l ?d {{ {PATTERN} }}"),
        &format!("SELECT (COUNT(*) AS ?n) {{ {PATTERN} }}"),
    );
    let counts: Vec<u64> = costs.iter().map(|&(allocs, _)| allocs).collect();
    assert_flat("materialization", &counts);
    // Bytes: at most a 4-byte id per emitted cell beyond a constant. Four
    // cells per row; the growth from N to 4N rows bounds the per-cell cost,
    // and a term-valued cell (56 bytes as `Option<Term>`) fails it.
    let cells = |rows: usize| 4 * rows as u64;
    let (grown, added) = (costs[1].1.saturating_sub(costs[0].1), cells(SIZES[1]) - cells(SIZES[0]));
    assert!(
        grown <= 4 * added,
        "materialization requests {grown} more bytes for {added} more cells \
         ({SIZES:?} rows -> {costs:?} (allocations, bytes)): over 4 bytes per cell"
    );
}

#[test]
fn merge_join_allocations_do_not_grow_with_rows() {
    let _guard = exec_lock();
    // The type scan sorts the stream by ?b, so the page-count step is a
    // merge join; COUNT keeps materialization out of the count.
    let text = "SELECT (COUNT(*) AS ?n) { ?b rdf:type dbont:Book . ?b dbont:numberOfPages ?p }";
    let parsed = parse_query(text).unwrap();
    let counts: Vec<u64> = SIZES
        .iter()
        .map(|&n| {
            let g = books(n);
            let (_, trace) = execute_traced(&g, &parsed).unwrap();
            let algos: Vec<JoinAlgo> = trace.steps.iter().map(|s| s.join_algo).collect();
            assert_eq!(algos, [JoinAlgo::Nested, JoinAlgo::Merge], "{n} books");
            execution_allocs(&g, text)
        })
        .collect();
    assert_flat("two-pattern merge join", &counts);
}

#[test]
fn merge_join_requests_pinned_bytes_per_row() {
    let _guard = exec_lock();
    // Per added book the two steps request one 2-cell row each (4-byte
    // cells: 8 bytes a row) and the merge step one 16-byte probe range.
    // 8-byte `Option<TermId>` cells and a 12-byte probe key per row request
    // 60 bytes a row.
    let text = "SELECT (COUNT(*) AS ?n) { ?b rdf:type dbont:Book . ?b dbont:numberOfPages ?p }";
    let bytes: Vec<u64> = SIZES.iter().map(|&n| execution_costs(&books(n), text).1).collect();
    let added = (SIZES[1] - SIZES[0]) as u64;
    assert_eq!(
        bytes[1] - bytes[0],
        BYTES_PER_ROW * added,
        "{SIZES:?} rows -> {bytes:?} requested bytes"
    );
}

#[test]
fn cloning_results_and_cache_hits_do_not_grow_with_rows() {
    let _guard = exec_lock();
    let query = parse_query(&format!("SELECT ?b ?p ?l ?d {{ {PATTERN} }}")).unwrap();
    let mut clones = Vec::new();
    let mut hits = Vec::new();
    for n in SIZES {
        let g = books(n);
        let cache = QueryCache::new(8);
        let result = cache.execute(&g, &query).unwrap();
        assert_eq!(result.as_solutions().map(|s| s.len()), Some(n));
        clones.push(allocations_of(3, || {
            black_box(result.clone());
        }));
        hits.push(allocations_of(3, || {
            let hit: QueryResult = cache.execute(&g, &query).unwrap();
            black_box(hit);
        }));
    }
    assert_flat("Solutions clone", &clones);
    assert_flat("QueryCache hit", &hits);
}
