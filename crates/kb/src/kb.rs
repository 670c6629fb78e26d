//! The knowledge base: graph + ontology + derived indexes.

use relpat_rdf::vocab::{self, rdf, rdfs, res};
use relpat_rdf::{Graph, Iri, Term};
use relpat_sparql::{query, CacheStats, PlanTrace, QueryCache, QueryResult, SparqlError};
use relpat_obs::fx::{FxHashMap, FxHashSet};

use crate::lexical::LexicalIndex;
use crate::ontology::Ontology;

/// Normalizes a label for indexing: lower-case, article-stripped,
/// whitespace-collapsed.
pub fn normalize_label(label: &str) -> String {
    let lower = label.to_lowercase();
    let trimmed = lower
        .strip_prefix("the ")
        .or_else(|| lower.strip_prefix("a "))
        .or_else(|| lower.strip_prefix("an "))
        .unwrap_or(&lower);
    trimmed.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// A DBpedia-style knowledge base with the lookup structures the QA pipeline
/// needs: label → entity index, entity → class resolution with subclass
/// reasoning, and the page-link graph for disambiguation.
#[derive(Debug)]
pub struct KnowledgeBase {
    pub graph: Graph,
    pub ontology: Ontology,
    label_index: FxHashMap<String, Vec<Iri>>,
    labels: FxHashMap<Iri, String>,
    class_by_label: FxHashMap<String, &'static str>,
    page_links: FxHashMap<Iri, FxHashSet<Iri>>,
    /// Shared result cache for [`query`](Self::query). The graph is
    /// immutable, so cached results never go stale.
    query_cache: QueryCache,
    /// Sublinear candidate index over entity labels and ontology
    /// properties, built once here (see [`crate::lexical`]).
    lexical: LexicalIndex,
}

impl KnowledgeBase {
    /// Wraps a built graph, building all indexes. The ontology must
    /// already be materialized into the graph (labels, class tree).
    pub fn from_graph(graph: Graph, ontology: Ontology) -> Self {
        let mut label_index: FxHashMap<String, Vec<Iri>> = FxHashMap::default();
        let mut labels: FxHashMap<Iri, String> = FxHashMap::default();
        let mut page_links: FxHashMap<Iri, FxHashSet<Iri>> = FxHashMap::default();

        let label_pred = Term::iri(rdfs::LABEL);
        for t in graph.triples_matching(None, Some(&label_pred), None) {
            let (Term::Iri(subject), Term::Literal(lit)) = (&t.subject, &t.object) else {
                continue;
            };
            if !subject.as_str().starts_with(res::NS) {
                continue; // class/property labels are indexed separately
            }
            let norm = normalize_label(lit.lexical_form());
            let entry = label_index.entry(norm).or_default();
            if !entry.contains(subject) {
                entry.push(subject.clone());
            }
            labels.entry(subject.clone()).or_insert_with(|| lit.lexical_form().to_string());
        }

        let link_pred = Term::iri(vocab::WIKI_PAGE_LINK);
        for t in graph.triples_matching(None, Some(&link_pred), None) {
            if let (Term::Iri(s), Term::Iri(o)) = (&t.subject, &t.object) {
                page_links.entry(s.clone()).or_default().insert(o.clone());
                page_links.entry(o.clone()).or_default().insert(s.clone());
            }
        }

        let mut class_by_label = FxHashMap::default();
        for c in &ontology.classes {
            class_by_label.insert(normalize_label(c.label), c.name);
        }

        let lexical = LexicalIndex::build(&label_index, &ontology);
        KnowledgeBase {
            graph,
            ontology,
            label_index,
            labels,
            class_by_label,
            page_links,
            query_cache: QueryCache::default(),
            lexical,
        }
    }

    /// The lexical candidate index over entity labels and ontology
    /// properties (built once at construction).
    pub fn lexical(&self) -> &LexicalIndex {
        &self.lexical
    }

    /// Entities whose label normalizes to exactly `text`.
    pub fn entities_with_label(&self, text: &str) -> &[Iri] {
        self.label_index
            .get(&normalize_label(text))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All `(normalized label, entities)` pairs — the mention detector's raw
    /// material.
    pub fn labels_iter(&self) -> impl Iterator<Item = (&str, &[Iri])> {
        self.label_index.iter().map(|(l, v)| (l.as_str(), v.as_slice()))
    }

    /// The primary (first-seen) label of an entity.
    pub fn label_of(&self, iri: &Iri) -> Option<&str> {
        self.labels.get(iri).map(String::as_str)
    }

    /// The ontology class whose label normalizes to `text`
    /// ("book" → `Book`, "films" must be singularized by the caller).
    pub fn class_with_label(&self, text: &str) -> Option<&'static str> {
        self.class_by_label.get(&normalize_label(text)).copied()
    }

    /// Direct classes of an entity (local names).
    pub fn classes_of(&self, iri: &Iri) -> Vec<String> {
        self.graph
            .objects_of(&Term::Iri(iri.clone()), &Term::iri(rdf::TYPE))
            .into_iter()
            .filter_map(|t| match t {
                Term::Iri(c) if c.as_str().starts_with(vocab::dbont::NS) => {
                    Some(c.local_name().to_string())
                }
                _ => None,
            })
            .collect()
    }

    /// True if the entity is an instance of `class_name` directly or via the
    /// subclass tree.
    pub fn is_instance_of(&self, iri: &Iri, class_name: &str) -> bool {
        self.classes_of(iri)
            .iter()
            .any(|c| self.ontology.is_subclass_of(c, class_name))
    }

    /// Number of page links touching an entity.
    pub fn page_degree(&self, iri: &Iri) -> usize {
        self.page_links.get(iri).map_or(0, FxHashSet::len)
    }

    /// True if two entities are connected by a page link (either direction).
    pub fn are_linked(&self, a: &Iri, b: &Iri) -> bool {
        self.page_links.get(a).is_some_and(|s| s.contains(b))
    }

    /// Runs a SPARQL query against the store, serving repeated query texts
    /// from the shared result cache.
    pub fn query(&self, text: &str) -> Result<QueryResult, SparqlError> {
        self.query_cache.query(&self.graph, text)
    }

    /// Runs a SPARQL query bypassing the result cache (equivalence testing
    /// and one-shot diagnostics).
    pub fn query_uncached(&self, text: &str) -> Result<QueryResult, SparqlError> {
        query(&self.graph, text)
    }

    /// Like [`query`](Self::query) but also returns the EXPLAIN ANALYZE
    /// plan trace. Cache hits return a trace flagged `cache_hit` with no
    /// steps (the executor never ran).
    pub fn query_traced(&self, text: &str) -> Result<(QueryResult, PlanTrace), SparqlError> {
        self.query_cache.query_traced(&self.graph, text)
    }

    /// Cumulative hit/miss totals of the query cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.query_cache.stats()
    }

    /// `(entries held, entry capacity)` of the query cache — the occupancy
    /// pair the serving gauges export.
    pub fn cache_occupancy(&self) -> (usize, usize) {
        (self.query_cache.len(), self.query_cache.capacity())
    }

    /// Drops every cached query result. The graph never changes, so this
    /// exists only to give profiling and benchmark runs a cold cache.
    pub fn invalidate_query_cache(&self) {
        self.query_cache.clear();
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// Number of distinct labeled entities.
    pub fn entity_count(&self) -> usize {
        self.labels.len()
    }

    /// Order-sensitive FNV-1a hash over every triple's rendered form. The
    /// graph iterates in a deterministic (SPO-sorted) order, so two
    /// byte-identical knowledge bases — same triples, same interning — hash
    /// equal. Guards generator refactors: the default-scale KB's fingerprint
    /// is pinned in `relpat_kb::generate` and checked by the scaling smoke
    /// gate.
    pub fn fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let mut buf = String::new();
        for t in self.graph.iter() {
            buf.clear();
            use std::fmt::Write;
            let _ = writeln!(buf, "{} {} {}", t.subject, t.predicate, t.object);
            eat(buf.as_bytes());
        }
        hash
    }

    /// Persists the knowledge base as N-Triples (deterministic ordering).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        relpat_rdf::save_ntriples(&self.graph, path)
    }

    /// Loads a knowledge base from a Turtle/N-Triples file, rebuilding all
    /// indexes against the standard ontology.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, relpat_rdf::RdfError> {
        let graph = relpat_rdf::load_path(path)?;
        Ok(Self::from_graph(graph, Ontology::dbpedia()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relpat_rdf::vocab::dbont;
    use relpat_rdf::{GraphBuilder, Literal};

    fn mini_kb() -> KnowledgeBase {
        let ontology = Ontology::dbpedia();
        let mut g = GraphBuilder::new();
        ontology.materialize(&mut g);
        let pamuk = Term::iri(res::iri("Orhan Pamuk"));
        let snow = Term::iri(res::iri("Snow"));
        g.add(pamuk.clone(), Term::iri(rdf::TYPE), Term::iri(dbont::iri("Writer")));
        g.add(
            pamuk.clone(),
            Term::iri(rdfs::LABEL),
            Term::Literal(Literal::lang("Orhan Pamuk", "en")),
        );
        g.add(snow.clone(), Term::iri(rdf::TYPE), Term::iri(dbont::iri("Book")));
        g.add(snow.clone(), Term::iri(rdfs::LABEL), Term::Literal(Literal::lang("Snow", "en")));
        g.add(snow.clone(), Term::iri(dbont::iri("author")), pamuk.clone());
        g.add(snow, Term::iri(vocab::WIKI_PAGE_LINK), pamuk);
        KnowledgeBase::from_graph(g.build(), ontology)
    }

    #[test]
    fn normalize_strips_articles_and_case() {
        assert_eq!(normalize_label("The Museum of  Innocence"), "museum of innocence");
        assert_eq!(normalize_label("a Book"), "book");
        assert_eq!(normalize_label("Ankara"), "ankara");
        // "an" only strips as a word
        assert_eq!(normalize_label("Antwerp"), "antwerp");
    }

    #[test]
    fn label_lookup_round_trip() {
        let kb = mini_kb();
        let hits = kb.entities_with_label("orhan pamuk");
        assert_eq!(hits.len(), 1);
        assert_eq!(kb.label_of(&hits[0]), Some("Orhan Pamuk"));
        assert!(kb.entities_with_label("nobody").is_empty());
    }

    #[test]
    fn class_labels_resolve() {
        let kb = mini_kb();
        assert_eq!(kb.class_with_label("book"), Some("Book"));
        assert_eq!(kb.class_with_label("basketball player"), Some("BasketballPlayer"));
        assert_eq!(kb.class_with_label("spaceship"), None);
    }

    #[test]
    fn instance_reasoning_uses_taxonomy() {
        let kb = mini_kb();
        let pamuk = Iri::new(res::iri("Orhan Pamuk"));
        assert!(kb.is_instance_of(&pamuk, "Writer"));
        assert!(kb.is_instance_of(&pamuk, "Person"));
        assert!(!kb.is_instance_of(&pamuk, "Place"));
    }

    #[test]
    fn page_links_are_symmetric() {
        let kb = mini_kb();
        let pamuk = Iri::new(res::iri("Orhan Pamuk"));
        let snow = Iri::new(res::iri("Snow"));
        assert!(kb.are_linked(&pamuk, &snow));
        assert!(kb.are_linked(&snow, &pamuk));
        assert_eq!(kb.page_degree(&pamuk), 1);
    }

    #[test]
    fn sparql_round_trip() {
        let kb = mini_kb();
        let sols = kb
            .query("SELECT ?x { ?x dbont:author res:Orhan_Pamuk }")
            .unwrap()
            .into_solutions().unwrap();
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn save_load_round_trip_preserves_indexes() {
        let kb = mini_kb();
        let path = std::env::temp_dir().join("relpat_kb_roundtrip.nt");
        kb.save(&path).unwrap();
        let loaded = KnowledgeBase::load(&path).unwrap();
        assert_eq!(loaded.len(), kb.len());
        assert_eq!(loaded.entity_count(), kb.entity_count());
        assert_eq!(
            loaded.entities_with_label("orhan pamuk"),
            kb.entities_with_label("orhan pamuk")
        );
        let pamuk = Iri::new(res::iri("Orhan Pamuk"));
        assert!(loaded.is_instance_of(&pamuk, "Person"));
        assert!(loaded.are_linked(&pamuk, &Iri::new(res::iri("Snow"))));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn class_labels_not_in_entity_index() {
        let kb = mini_kb();
        // "book" is a class label; entity index must not return it.
        assert!(kb.entities_with_label("book").is_empty());
    }

    #[test]
    fn query_cache_serves_repeats_and_matches_uncached() {
        let kb = mini_kb();
        let text = "SELECT ?x WHERE { ?x rdf:type dbont:Book . }";
        let first = kb.query(text).unwrap();
        let second = kb.query(text).unwrap();
        assert_eq!(first, second);
        assert_eq!(first, kb.query_uncached(text).unwrap());
        let stats = kb.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // Uncached queries never touch the cache counters.
        kb.query_uncached(text).unwrap();
        assert_eq!(kb.cache_stats(), stats);
        kb.invalidate_query_cache();
        kb.query(text).unwrap();
        assert_eq!(kb.cache_stats().misses, 2);
    }
}
