//! Thread-safe, bounded LRU cache for query execution, keyed on the
//! canonical rendering of the parsed algebra.
//!
//! Candidate sets across questions repeat many type-constraint and label
//! sub-queries, so caching is a real hot-path win, not a micro-cache.
//! Entries are keyed by the parsed [`Query`]'s canonical `Display` form
//! (which round-trips to an equal AST), so syntactic variants of one query —
//! whitespace, `WHERE` keyword, trailing dots — share a single entry and a
//! single execution. A side table maps each raw text spelling to its
//! canonical key, so repeat lookups of a known spelling skip the parser
//! entirely. A hit returns a clone of the stored [`QueryResult`] without
//! touching the executor — O(1), since result rows share one immutable cell
//! table; a miss parses, executes, and (on success only)
//! stores the parsed [`Query`] AST alongside the result. Failures are never
//! cached — a malformed query re-reports its error on every attempt.
//!
//! The cache assumes the graph it serves is immutable for its lifetime
//! (the knowledge-base graphs are built once and then only read). Callers
//! that do mutate the graph must [`clear`](QueryCache::clear) afterwards.
//!
//! Concurrency: a single mutex guards the map, but it is held only for the
//! lookup/insert bookkeeping — parsing and execution run outside the lock,
//! so concurrent misses for the same text may race and both execute; the
//! last insert wins and the results are identical on an immutable graph.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

use relpat_obs::fx::FxHashMap;
use relpat_rdf::Graph;

use relpat_obs::PlanTrace;

use crate::ast::Query;
use crate::error::SparqlError;
use crate::exec::{execute, execute_traced, QueryResult};
use crate::parser::parse_query;

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
    /// The parsed AST — kept so a future re-execution (e.g. after
    /// [`QueryCache::clear`]) can skip the parser, and so the cache is the
    /// single place that owns the text → AST association.
    parsed: Query,
    result: QueryResult,
    /// Monotonic recency stamp (higher = more recently used).
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    /// Canonical query rendering → entry.
    map: FxHashMap<String, Entry>,
    /// Raw text spelling → canonical key, so known spellings skip the
    /// parser. Every value is a key of `map` (pruned on eviction/clear).
    alias: FxHashMap<String, String>,
    tick: u64,
}

/// Bounded query-text → result cache. See the module docs for the
/// concurrency and invalidation contract.
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
        QueryCache {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Parses and executes `text` against `graph`, serving repeats from the
    /// cache. Increments `sparql.cache.hits` / `sparql.cache.misses` on the
    /// global [`relpat_obs`] registry as well as the local stats.
    pub fn query(&self, graph: &Graph, text: &str) -> Result<QueryResult, SparqlError> {
        match self.lookup(text) {
            Ok(Lookup::Hit(result)) => {
                self.hits.fetch_add(1, Relaxed);
                relpat_obs::counter!("sparql.cache.hits");
                Ok(result)
            }
            Ok(Lookup::Miss { canon, parsed }) => {
                self.miss();
                let result = execute(graph, &parsed)?;
                self.insert(text, canon, parsed, result.clone());
                Ok(result)
            }
            Err(e) => {
                // Unparseable text is a miss every time (never cached).
                self.miss();
                Err(e)
            }
        }
    }

    /// Like [`query`](Self::query) but also returns the plan trace of the
    /// execution. A cache hit never re-executes: it returns an empty-steps
    /// trace flagged `cache_hit` (zero rows scanned, matching the unchanged
    /// `sparql.rows_scanned` counter). Cache accounting is identical to the
    /// untraced path, so explained and plain queries share warm state.
    pub fn query_traced(
        &self,
        graph: &Graph,
        text: &str,
    ) -> Result<(QueryResult, PlanTrace), SparqlError> {
        match self.lookup(text) {
            Ok(Lookup::Hit(result)) => {
                self.hits.fetch_add(1, Relaxed);
                relpat_obs::counter!("sparql.cache.hits");
                Ok((result, PlanTrace { cache_hit: true, ..PlanTrace::default() }))
            }
            Ok(Lookup::Miss { canon, parsed }) => {
                self.miss();
                let (result, trace) = execute_traced(graph, &parsed)?;
                self.insert(text, canon, parsed, result.clone());
                Ok((result, trace))
            }
            Err(e) => {
                self.miss();
                Err(e)
            }
        }
    }

    /// The cached parsed AST for `text` (any known spelling), if present.
    /// Does not touch the LRU recency stamp or the hit/miss totals.
    pub fn parsed(&self, text: &str) -> Option<Query> {
        let inner = self.inner.lock().expect("cache lock");
        let canon = inner.alias.get(text)?;
        inner.map.get(canon.as_str()).map(|e| e.parsed.clone())
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

    /// Drops every entry and spelling alias (hit/miss totals are kept).
    /// Required after any mutation of the graph this cache serves.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.map.clear();
        inner.alias.clear();
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Relaxed);
        relpat_obs::counter!("sparql.cache.misses");
    }

    /// Two-stage lookup: a known spelling resolves through the alias table
    /// without parsing; an unknown spelling is parsed and probed by its
    /// canonical rendering (a hit there registers the new spelling). Only a
    /// query absent under its canonical key is a true miss — the caller
    /// executes it and hands the parts back to [`insert`](Self::insert).
    fn lookup(&self, text: &str) -> Result<Lookup, SparqlError> {
        {
            let mut inner = self.inner.lock().expect("cache lock");
            inner.tick += 1;
            let tick = inner.tick;
            let Inner { map, alias, .. } = &mut *inner;
            if let Some(canon) = alias.get(text) {
                if let Some(entry) = map.get_mut(canon.as_str()) {
                    entry.last_used = tick;
                    return Ok(Lookup::Hit(entry.result.clone()));
                }
            }
        }
        // Parse outside the lock; a hit under the canonical key is still a
        // hit (the executor never ran), it just paid one parse to learn the
        // spelling.
        let parsed = parse_query(text)?;
        let canon = parsed.to_string();
        let mut inner = self.inner.lock().expect("cache lock");
        let tick = inner.tick;
        let Inner { map, alias, .. } = &mut *inner;
        if let Some(entry) = map.get_mut(canon.as_str()) {
            entry.last_used = tick;
            let result = entry.result.clone();
            Self::register_alias(alias, self.capacity, text, &canon);
            return Ok(Lookup::Hit(result));
        }
        Ok(Lookup::Miss { canon, parsed })
    }

    fn insert(&self, text: &str, canon: String, parsed: Query, result: QueryResult) {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        let capacity = self.capacity;
        let Inner { map, alias, .. } = &mut *inner;
        if map.len() >= capacity && !map.contains_key(&canon) {
            // Batch-evict the least-recently-used eighth so eviction cost
            // amortizes instead of paying a full scan per insert.
            let mut stamps: Vec<u64> = map.values().map(|e| e.last_used).collect();
            stamps.sort_unstable();
            let cutoff = stamps[(capacity / 8).max(1) - 1];
            let before = map.len();
            map.retain(|_, e| e.last_used > cutoff);
            alias.retain(|_, c| map.contains_key(c));
            relpat_obs::jevent!(
                relpat_obs::Level::Info, "sparql.cache.evict",
                "evicted" => before - map.len(),
                "held" => map.len(),
                "capacity" => capacity,
            );
        }
        Self::register_alias(alias, capacity, text, &canon);
        map.insert(canon, Entry { parsed, result, last_used: tick });
    }

    /// Records `text` as a spelling of `canon`. The alias table is bounded
    /// independently of the entry map (spellings are unbounded in principle);
    /// on overflow it is simply dropped — aliases re-register on demand at
    /// the cost of one parse each.
    fn register_alias(
        alias: &mut FxHashMap<String, String>,
        capacity: usize,
        text: &str,
        canon: &str,
    ) {
        if alias.len() >= capacity.saturating_mul(8) && !alias.contains_key(text) {
            alias.clear();
        }
        if alias.get(text).map(String::as_str) != Some(canon) {
            alias.insert(text.to_string(), canon.to_string());
        }
    }
}

/// Outcome of [`QueryCache::lookup`]: a cached result, or the parsed parts
/// the caller needs to execute and insert.
enum Lookup {
    Hit(QueryResult),
    Miss { canon: String, parsed: Query },
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn hit_returns_identical_result() {
        let g = graph();
        let cache = QueryCache::new(8);
        let text = "SELECT ?x WHERE { ?x rdf:type dbont:Book . }";
        let first = cache.query(&g, text).unwrap();
        let second = cache.query(&g, text).unwrap();
        assert_eq!(first, second);
        assert_eq!(cache.query(&g, text).unwrap(), crate::exec::query(&g, text).unwrap());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert!(stats.hit_rate() > 0.6);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn ask_results_are_cached_too() {
        let g = graph();
        let cache = QueryCache::new(8);
        let text = "ASK { res:Snow dbont:author res:Orhan_Pamuk . }";
        assert_eq!(cache.query(&g, text).unwrap(), QueryResult::Boolean(true));
        assert_eq!(cache.query(&g, text).unwrap(), QueryResult::Boolean(true));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn errors_are_not_cached() {
        let g = graph();
        let cache = QueryCache::new(8);
        assert!(cache.query(&g, "SELECT ?x { broken").is_err());
        assert!(cache.query(&g, "SELECT ?x { broken").is_err());
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
        assert!(cache.is_empty());
    }

    #[test]
    fn lru_eviction_keeps_recently_used_entries() {
        let g = graph();
        let cache = QueryCache::new(8);
        let texts: Vec<String> = (0..8)
            .map(|i| format!("SELECT ?x WHERE {{ ?x rdf:type dbont:Book . }} LIMIT {}", i + 1))
            .collect();
        for t in &texts {
            cache.query(&g, t).unwrap();
        }
        assert_eq!(cache.len(), 8);
        // Touch the newest entry, then overflow: the hot entry must survive.
        cache.query(&g, &texts[7]).unwrap();
        cache.query(&g, "SELECT ?x WHERE { ?x rdf:type dbont:Book . } LIMIT 100").unwrap();
        assert!(cache.len() <= 8);
        let before = cache.stats();
        cache.query(&g, &texts[7]).unwrap();
        assert_eq!(cache.stats().hits, before.hits + 1, "hot entry was evicted");
    }

    #[test]
    fn clear_drops_entries_but_keeps_totals() {
        let g = graph();
        let cache = QueryCache::new(8);
        let text = "SELECT ?x WHERE { ?x rdf:type dbont:Book . }";
        cache.query(&g, text).unwrap();
        cache.clear();
        assert!(cache.is_empty());
        cache.query(&g, text).unwrap();
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
    }

    #[test]
    fn concurrent_lookups_agree() {
        let g = graph();
        let cache = QueryCache::new(64);
        let texts: Vec<String> = (0..16)
            .map(|i| format!("SELECT ?x WHERE {{ ?x rdf:type dbont:Book . }} LIMIT {}", i + 1))
            .collect();
        let reference: Vec<QueryResult> =
            texts.iter().map(|t| crate::exec::query(&g, t).unwrap()).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        for (t, want) in texts.iter().zip(reference.iter()) {
                            assert_eq!(&cache.query(&g, t).unwrap(), want);
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 4 * 50 * 16);
        assert!(stats.hits > stats.misses);
    }

    #[test]
    fn stores_the_parsed_ast_alongside_the_result() {
        let g = graph();
        let cache = QueryCache::new(8);
        let text = "SELECT ?x WHERE { ?x rdf:type dbont:Book . }";
        assert!(cache.parsed(text).is_none());
        cache.query(&g, text).unwrap();
        assert_eq!(cache.parsed(text), Some(crate::parser::parse_query(text).unwrap()));
    }

    #[test]
    fn traced_queries_share_cache_state_and_flag_hits() {
        let g = graph();
        let cache = QueryCache::new(8);
        assert_eq!(cache.capacity(), 8);
        let text = "SELECT ?x WHERE { ?x rdf:type dbont:Book . }";
        let (first, miss_trace) = cache.query_traced(&g, text).unwrap();
        assert!(!miss_trace.cache_hit);
        assert!(!miss_trace.steps.is_empty(), "a cold execution records join steps");
        assert!(miss_trace.rows_scanned() > 0);
        // Second lookup — including via the untraced path — hits.
        let (second, hit_trace) = cache.query_traced(&g, text).unwrap();
        assert_eq!(first, second);
        assert!(hit_trace.cache_hit);
        assert!(hit_trace.steps.is_empty());
        assert_eq!(hit_trace.rows_scanned(), 0);
        assert_eq!(cache.query(&g, text).unwrap(), first);
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 1 });
    }

    #[test]
    fn syntactic_variants_share_one_entry() {
        let g = graph();
        let cache = QueryCache::new(8);
        // Same query, three spellings: whitespace, WHERE keyword, trailing
        // dot. All reduce to one canonical AST rendering.
        let a = "SELECT ?x WHERE { ?x rdf:type dbont:Book . }";
        let b = "SELECT ?x { ?x rdf:type dbont:Book }";
        let c = "SELECT  ?x  WHERE  {  ?x  rdf:type  dbont:Book  }";
        let first = cache.query(&g, a).unwrap();
        assert_eq!(cache.query(&g, b).unwrap(), first);
        assert_eq!(cache.query(&g, c).unwrap(), first);
        assert_eq!(cache.len(), 1, "variants must share one canonical entry");
        assert_eq!(
            cache.stats(),
            CacheStats { hits: 2, misses: 1 },
            "only the first spelling executes; the others hit via the canonical key"
        );
        // Each spelling now resolves its AST without a fresh parse.
        assert_eq!(cache.parsed(b), cache.parsed(a));
        assert!(cache.parsed(b).is_some());
    }

    #[test]
    fn stats_delta_attribution() {
        let a = CacheStats { hits: 10, misses: 4 };
        let b = CacheStats { hits: 25, misses: 5 };
        assert_eq!(b.delta_since(&a), CacheStats { hits: 15, misses: 1 });
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
