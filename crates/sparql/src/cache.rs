//! Thread-safe, bounded LRU cache for query execution, keyed on the
//! query's AST.
//!
//! Entries are keyed by the [`Query`] itself: its `Eq`/`Hash` are
//! structural and its `Display` round-trips to an equal AST, so two
//! spellings of one query — whitespace, `WHERE` keyword, trailing dots —
//! parse to one key, and a query the QA planner built shares the entry of
//! its parsed text. The cache never parses. A hit returns a clone of the
//! stored [`QueryResult`] without touching the executor — O(1), since
//! result rows share one immutable cell table; a miss executes. Failures
//! are never cached — a failing query re-reports its error on every
//! attempt.
//!
//! Admission: a query is stored on its second successful miss, not its
//! first. A direct-mapped table of `capacity` slots (the doorkeeper)
//! holds the FxHash fingerprint of the last query that missed in each
//! slot; a miss whose fingerprint is already in its slot is stored, any
//! other miss only writes its fingerprint there. A query seen once costs
//! no AST clone, no insert and no eviction, and cannot evict the queries
//! that do repeat. Most candidate queries of a new question are one-offs.
//! Measured shares of lookups that hit (perfbench `--trace 1`, 15 s, on
//! a 2-vCPU x86-64 VM), storing every miss → storing on the second:
//! `qa_unique_100k` (fresh template questions) 12.0% → 23.9%, since the
//! one-offs no longer evict the queries that repeat; `qald_http` (the
//! Table-2 questions, asked again and again) 98.6% → 97.2%;
//! `sparql_scan_1m` (query shapes with fresh constants) 0.15% → 0%. The
//! map stays keyed by the full `Query`, so a fingerprint collision
//! changes only when a query is admitted, never which result a lookup
//! returns.
//!
//! The cache assumes the graph it serves is immutable for its lifetime
//! (the knowledge-base graphs are built once and then only read). Callers
//! that do mutate the graph must [`clear`](QueryCache::clear) afterwards.
//!
//! Concurrency: a single mutex guards the map and the doorkeeper, but it
//! is held only for the lookup/insert bookkeeping — execution runs outside
//! the lock, and so does dropping the entries an eviction removes.
//! Concurrent misses for the same query may race and both execute; the
//! second to finish may store it, and the results are identical on an
//! immutable graph.

use std::hash::{BuildHasher, BuildHasherDefault};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

use relpat_obs::fx::{FxHashMap, FxHasher};
use relpat_rdf::Graph;

use relpat_obs::PlanTrace;

use crate::ast::Query;
use crate::error::SparqlError;
use crate::exec::{execute, execute_traced, QueryResult};

/// Default entry bound: comfortably holds the working set of a full QALD
/// run (a few thousand distinct candidate queries) in a few MB.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Point-in-time hit/miss totals of a [`QueryCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when it never served).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fieldwise `self - earlier` (saturating) — attributes a shared
    /// cache's cumulative counters to one run by sampling before and after.
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

#[derive(Debug)]
struct Entry {
    result: QueryResult,
    /// Monotonic recency stamp (higher = more recently used).
    last_used: u64,
}

#[derive(Debug)]
struct Inner {
    map: FxHashMap<Query, Entry>,
    /// The doorkeeper: slot `fingerprint % capacity` holds the fingerprint
    /// of the last query that missed there (0 = none yet).
    sighted: Box<[u64]>,
    tick: u64,
}

/// Bounded query → result cache. See the module docs for the concurrency
/// and invalidation contract.
#[derive(Debug)]
pub struct QueryCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for QueryCache {
    fn default() -> Self {
        Self::new(DEFAULT_CACHE_CAPACITY)
    }
}

impl QueryCache {
    /// A cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let inner = Inner { map: FxHashMap::default(), sighted: vec![0; capacity].into(), tick: 0 };
        QueryCache {
            inner: Mutex::new(inner),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Executes `query` against `graph`, serving repeats from the cache
    /// (a query is stored on its second miss; see the module docs).
    /// Increments `sparql.cache.hits` / `sparql.cache.misses` on the global
    /// [`relpat_obs`] registry as well as the local stats.
    pub fn execute(&self, graph: &Graph, query: &Query) -> Result<QueryResult, SparqlError> {
        if let Some(result) = self.lookup(query) {
            return Ok(result);
        }
        let result = execute(graph, query)?;
        self.insert(query, &result);
        Ok(result)
    }

    /// Like [`execute`](Self::execute) but also returns the plan trace of
    /// the execution. A cache hit never re-executes: it returns an
    /// empty-steps trace flagged `cache_hit` (zero rows scanned, matching
    /// the unchanged `sparql.rows_scanned` counter). Cache accounting is
    /// identical to the untraced path, so explained and plain queries share
    /// warm state.
    pub fn execute_traced(
        &self,
        graph: &Graph,
        query: &Query,
    ) -> Result<(QueryResult, PlanTrace), SparqlError> {
        if let Some(result) = self.lookup(query) {
            return Ok((result, PlanTrace { cache_hit: true, ..PlanTrace::default() }));
        }
        let (result, trace) = execute_traced(graph, query)?;
        self.insert(query, &result);
        Ok((result, trace))
    }

    /// Cumulative hit/miss totals.
    pub fn stats(&self) -> CacheStats {
        CacheStats { hits: self.hits.load(Relaxed), misses: self.misses.load(Relaxed) }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").map.len()
    }

    /// The entry bound this cache was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry and every sighting, so the cache behaves like a
    /// new one (hit/miss totals are kept). Required after any mutation of
    /// the graph this cache serves.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.map.clear();
        inner.sighted.fill(0);
    }

    /// The cached result for `query`, refreshing its recency stamp, and
    /// the hit or miss it counts.
    fn lookup(&self, query: &Query) -> Option<QueryResult> {
        let hit = {
            let mut inner = self.inner.lock().expect("cache lock");
            inner.tick += 1;
            let tick = inner.tick;
            inner.map.get_mut(query).map(|entry| {
                entry.last_used = tick;
                entry.result.clone()
            })
        };
        if hit.is_some() {
            self.hits.fetch_add(1, Relaxed);
            relpat_obs::counter!("sparql.cache.hits");
        } else {
            self.misses.fetch_add(1, Relaxed);
            relpat_obs::counter!("sparql.cache.misses");
        }
        hit
    }

    /// Stores the result of a successful miss if `query` missed before
    /// (its fingerprint is in its doorkeeper slot); otherwise only records
    /// the sighting.
    fn insert(&self, query: &Query, result: &QueryResult) {
        let fingerprint = BuildHasherDefault::<FxHasher>::default().hash_one(query);
        let slot = (fingerprint % self.capacity as u64) as usize;
        let mut evicted = Vec::new();
        let mut inner = self.inner.lock().expect("cache lock");
        if inner.sighted[slot] != fingerprint {
            inner.sighted[slot] = fingerprint;
            return;
        }
        inner.tick += 1;
        let tick = inner.tick;
        let capacity = self.capacity;
        let map = &mut inner.map;
        if map.len() >= capacity && !map.contains_key(query) {
            // Batch-evict the least-recently-used eighth so eviction cost
            // amortizes instead of paying a full scan per insert.
            let mut stamps: Vec<u64> = map.values().map(|e| e.last_used).collect();
            stamps.sort_unstable();
            let cutoff = stamps[(capacity / 8).max(1) - 1];
            evicted.extend(map.extract_if(|_, e| e.last_used <= cutoff));
            relpat_obs::jevent!(
                relpat_obs::Level::Info, "sparql.cache.evict",
                "evicted" => evicted.len(),
                "held" => map.len(),
                "capacity" => capacity,
            );
        }
        map.insert(query.clone(), Entry { result: result.clone(), last_used: tick });
        // The evicted keys and results are freed after unlocking, so
        // concurrent lookups never wait on the deallocations.
        drop(inner);
        drop(evicted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use relpat_rdf::vocab::{dbont, rdf, res};
    use relpat_rdf::{GraphBuilder, Term};

    fn graph() -> Graph {
        let mut g = GraphBuilder::new();
        g.add(
            Term::iri(res::iri("Snow")),
            Term::iri(rdf::TYPE),
            Term::iri(dbont::iri("Book")),
        );
        g.add(
            Term::iri(res::iri("Snow")),
            Term::iri(dbont::iri("author")),
            Term::iri(res::iri("Orhan Pamuk")),
        );
        g.build()
    }

    fn q(text: &str) -> Query {
        parse_query(text).unwrap()
    }

    /// `SELECT ?x WHERE { ?x rdf:type dbont:Book . } LIMIT n`, one distinct
    /// query per `n`.
    fn limited(n: usize) -> Query {
        q(&format!("SELECT ?x WHERE {{ ?x rdf:type dbont:Book . }} LIMIT {n}"))
    }

    #[test]
    fn hit_returns_identical_result() {
        let g = graph();
        let cache = QueryCache::new(8);
        let query = q("SELECT ?x WHERE { ?x rdf:type dbont:Book . }");
        let first = cache.execute(&g, &query).unwrap();
        // The second miss stores the result.
        assert_eq!(cache.execute(&g, &query).unwrap(), first);
        let second = cache.execute(&g, &query).unwrap();
        assert_eq!(first, second);
        assert_eq!(cache.execute(&g, &query).unwrap(), execute(&g, &query).unwrap());
        for _ in 0..2 {
            assert_eq!(cache.execute(&g, &query).unwrap(), first);
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (4, 2));
        assert!(stats.hit_rate() > 0.6);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_query_is_stored_on_its_second_miss() {
        let g = graph();
        let cache = QueryCache::new(8);
        let query = q("SELECT ?x WHERE { ?x rdf:type dbont:Book . }");
        let want = execute(&g, &query).unwrap();
        assert_eq!(cache.execute(&g, &query).unwrap(), want);
        assert_eq!(cache.len(), 0, "a first miss only sights the query");
        assert_eq!(cache.execute(&g, &query).unwrap(), want);
        assert_eq!(cache.len(), 1, "a second miss stores it");
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
        assert_eq!(cache.execute(&g, &query).unwrap(), want);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 2 });
    }

    #[test]
    fn ask_results_are_cached_too() {
        let g = graph();
        let cache = QueryCache::new(8);
        let query = q("ASK { res:Snow dbont:author res:Orhan_Pamuk . }");
        for _ in 0..3 {
            assert_eq!(cache.execute(&g, &query).unwrap(), QueryResult::Boolean(true));
        }
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 2 });
    }

    #[test]
    fn errors_are_not_cached() {
        let g = graph();
        let cache = QueryCache::new(8);
        // Parses, but fails to evaluate: ?y never occurs in the pattern.
        let query = q("SELECT (COUNT(?y) AS ?n) { ?x rdf:type dbont:Book }");
        assert!(cache.execute(&g, &query).is_err());
        assert!(cache.execute(&g, &query).is_err());
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
        assert!(cache.is_empty());
    }

    #[test]
    fn errors_are_never_sighted() {
        let g = graph();
        // One slot: every fingerprint shares it, so a sighted error would
        // overwrite the good query's sighting and keep it out of the cache.
        let cache = QueryCache::new(1);
        let good = q("SELECT ?x WHERE { ?x rdf:type dbont:Book . }");
        let bad = q("SELECT (COUNT(?y) AS ?n) { ?x rdf:type dbont:Book }");
        cache.execute(&g, &good).unwrap();
        assert!(cache.execute(&g, &bad).is_err());
        cache.execute(&g, &good).unwrap();
        assert_eq!(cache.len(), 1, "the failed query displaced the good one's sighting");
    }

    #[test]
    fn one_slot_alternating_queries_return_their_own_results() {
        let g = graph();
        // A single doorkeeper slot, so every fingerprint collides.
        let cache = QueryCache::new(1);
        let queries = [
            limited(1),
            q("ASK { res:Snow dbont:author res:Orhan_Pamuk . }"),
            q("SELECT ?a { res:Snow dbont:author ?a }"),
        ];
        let reference: Vec<QueryResult> =
            queries.iter().map(|query| execute(&g, query).unwrap()).collect();
        for _ in 0..4 {
            for (query, want) in queries.iter().zip(&reference) {
                assert_eq!(&cache.execute(&g, query).unwrap(), want);
            }
        }
        // Each miss overwrote the previous query's sighting: nothing stored.
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().hits, 0);
        // Back to back, each query is stored in turn and evicts the last.
        for (query, want) in queries.iter().zip(&reference) {
            for _ in 0..3 {
                assert_eq!(&cache.execute(&g, query).unwrap(), want);
            }
            assert_eq!(cache.len(), 1);
        }
        assert_eq!(cache.stats().hits, 3);
    }

    #[test]
    fn lru_eviction_keeps_recently_used_entries() {
        let g = graph();
        let cache = QueryCache::new(8);
        let queries: Vec<Query> = (1..=8).map(limited).collect();
        // Twice each: a query is stored on its second miss.
        for query in &queries {
            cache.execute(&g, query).unwrap();
            cache.execute(&g, query).unwrap();
        }
        assert_eq!(cache.len(), 8);
        // Touch the newest entry, then overflow: the hot entry must survive.
        cache.execute(&g, &queries[7]).unwrap();
        cache.execute(&g, &limited(100)).unwrap();
        cache.execute(&g, &limited(100)).unwrap();
        assert!(cache.len() <= 8);
        let before = cache.stats();
        cache.execute(&g, &queries[7]).unwrap();
        assert_eq!(cache.stats().hits, before.hits + 1, "hot entry was evicted");
    }

    #[test]
    fn eviction_keeps_held_entries_and_totals() {
        let g = graph();
        let cache = QueryCache::new(16);
        let queries: Vec<Query> = (1..=16).map(limited).collect();
        let reference: Vec<QueryResult> =
            queries.iter().map(|query| execute(&g, query).unwrap()).collect();
        for query in &queries {
            cache.execute(&g, query).unwrap();
            cache.execute(&g, query).unwrap();
        }
        // Refresh all but the two oldest, which an overflow then evicts
        // (capacity / 8 = 2 entries).
        for query in &queries[2..] {
            cache.execute(&g, query).unwrap();
        }
        let before = cache.stats();
        // The first miss only sights the query; the second stores it.
        cache.execute(&g, &limited(100)).unwrap();
        assert_eq!(cache.len(), 16);
        cache.execute(&g, &limited(100)).unwrap();
        assert_eq!(cache.stats(), CacheStats { hits: before.hits, misses: before.misses + 2 });
        assert_eq!(cache.len(), 15);
        // Every entry still held answers from the cache, unchanged.
        for (query, want) in queries[2..].iter().zip(&reference[2..]) {
            assert_eq!(&cache.execute(&g, query).unwrap(), want);
        }
        assert_eq!(cache.stats(), CacheStats { hits: before.hits + 14, misses: before.misses + 2 });
        // The evicted pair executes again.
        for (query, want) in queries[..2].iter().zip(&reference[..2]) {
            assert_eq!(&cache.execute(&g, query).unwrap(), want);
        }
        assert_eq!(cache.stats().misses, before.misses + 4);
    }

    #[test]
    fn clear_drops_entries_but_keeps_totals() {
        let g = graph();
        let cache = QueryCache::new(8);
        let query = q("SELECT ?x WHERE { ?x rdf:type dbont:Book . }");
        cache.execute(&g, &query).unwrap();
        cache.execute(&g, &query).unwrap();
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        // Sightings are forgotten too: the next miss is a first sighting.
        cache.execute(&g, &query).unwrap();
        assert!(cache.is_empty());
        cache.execute(&g, &query).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 4 });
    }

    #[test]
    fn concurrent_lookups_agree() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 50;
        let g = graph();
        let cache = QueryCache::new(16);
        // Every thread races on the shared queries, and on queries of its
        // own: each round one fresh query, run twice so that it is
        // admitted, which keeps evictions running beside the shared hits.
        let shared: Vec<Query> = (1..=8).map(limited).collect();
        let own = |thread: usize, round: usize| limited(100 + thread * ROUNDS + round);
        let reference = |query: &Query| execute(&g, query).unwrap();
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for thread in 0..THREADS {
                let (cache, g, shared, start) = (&cache, &g, &shared, &start);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..ROUNDS {
                        for query in shared {
                            assert_eq!(cache.execute(g, query).unwrap(), reference(query));
                        }
                        let query = own(thread, round);
                        for _ in 0..2 {
                            assert_eq!(cache.execute(g, &query).unwrap(), reference(&query));
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, (THREADS * ROUNDS * (shared.len() + 2)) as u64);
        assert!(stats.hits > stats.misses);
        assert!(cache.len() <= cache.capacity());
    }

    #[test]
    fn traced_queries_share_cache_state_and_flag_hits() {
        let g = graph();
        let cache = QueryCache::new(8);
        assert_eq!(cache.capacity(), 8);
        let query = q("SELECT ?x WHERE { ?x rdf:type dbont:Book . }");
        let (first, miss_trace) = cache.execute_traced(&g, &query).unwrap();
        assert!(!miss_trace.cache_hit);
        assert!(!miss_trace.steps.is_empty(), "a cold execution records join steps");
        assert!(miss_trace.rows_scanned() > 0);
        // The second miss stores the result; later lookups — including
        // via the untraced path — hit.
        let (stored, store_trace) = cache.execute_traced(&g, &query).unwrap();
        assert_eq!(stored, first);
        assert!(!store_trace.cache_hit);
        let (second, hit_trace) = cache.execute_traced(&g, &query).unwrap();
        assert_eq!(first, second);
        assert!(hit_trace.cache_hit);
        assert!(hit_trace.steps.is_empty());
        assert_eq!(hit_trace.rows_scanned(), 0);
        assert_eq!(cache.execute(&g, &query).unwrap(), first);
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 2 });
    }

    #[test]
    fn plain_and_traced_runs_share_sightings() {
        let g = graph();
        let cache = QueryCache::new(8);
        let query = q("SELECT ?x WHERE { ?x rdf:type dbont:Book . }");
        cache.execute(&g, &query).unwrap();
        let (_, trace) = cache.execute_traced(&g, &query).unwrap();
        assert!(!trace.cache_hit);
        assert_eq!(cache.len(), 1, "the traced miss saw the plain run's sighting");
        let other = limited(1);
        cache.execute_traced(&g, &other).unwrap();
        cache.execute(&g, &other).unwrap();
        assert_eq!(cache.len(), 2, "the plain miss saw the traced run's sighting");
        assert!(cache.execute_traced(&g, &query).unwrap().1.cache_hit);
    }

    #[test]
    fn stats_delta_attribution() {
        let a = CacheStats { hits: 10, misses: 4 };
        let b = CacheStats { hits: 25, misses: 5 };
        assert_eq!(b.delta_since(&a), CacheStats { hits: 15, misses: 1 });
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
