//! The knowledge base: graph + ontology + id-space views of the graph.

use relpat_obs::fx::FxHashMap;
use relpat_rdf::vocab::{self, dbont, rdf, rdfs, res};
use relpat_rdf::{Graph, IdPattern, Iri, Term, TermId};
use relpat_sparql::ast::Query;
use relpat_sparql::{
    parse_query, query, CacheStats, PlanTrace, QueryCache, QueryResult, SparqlError,
};

use crate::labels::LabelTable;
use crate::lexical::LexicalIndex;
use crate::ontology::{ClassId, ClassSet, Ontology};

/// Normalizes a label for indexing: lower-case, article-stripped,
/// whitespace-collapsed.
pub fn normalize_label(label: &str) -> String {
    let lower = label.to_lowercase();
    let trimmed = lower
        .strip_prefix("the ")
        .or_else(|| lower.strip_prefix("a "))
        .or_else(|| lower.strip_prefix("an "))
        .unwrap_or(&lower);
    let mut out = String::with_capacity(trimmed.len());
    for word in trimmed.split_whitespace() {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(word);
    }
    out
}

/// An entity the knowledge base can look up: a [`TermId`] as is, or an
/// `&Iri` through one interner probe.
pub trait EntityRef {
    /// The entity's id in `graph`, if the graph holds it.
    fn id_in(self, graph: &Graph) -> Option<TermId>;
}

impl EntityRef for TermId {
    fn id_in(self, _: &Graph) -> Option<TermId> {
        Some(self)
    }
}

impl EntityRef for &Iri {
    fn id_in(self, graph: &Graph) -> Option<TermId> {
        graph.term_id(&Term::Iri(self.clone()))
    }
}

/// Heap bytes of the knowledge base's derived structures (see
/// [`KnowledgeBase::heap_bytes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KbBytes {
    pub label_table: usize,
    pub degree_column: usize,
    pub lexical_index: usize,
}

/// A DBpedia-style knowledge base with the lookup structures the QA pipeline
/// needs: label → entity table, entity → class resolution with subclass
/// reasoning, and page-link centrality for disambiguation. Every structure
/// is keyed by the graph's [`TermId`]s and built once from the immutable
/// graph; facts the graph already answers by a probe (an entity's label,
/// whether two pages link) are not copied.
#[derive(Debug)]
pub struct KnowledgeBase {
    pub graph: Graph,
    pub ontology: Ontology,
    labels: LabelTable,
    /// `|out ∪ in|` over page-link neighbours, indexed by term id.
    page_degree: Vec<u32>,
    /// `(term id, class id)` of every ontology class the graph holds,
    /// sorted by term id.
    class_terms: Box<[(TermId, ClassId)]>,
    class_by_label: FxHashMap<String, &'static str>,
    /// Predicate ids the probes bind (`None`: the graph has no such fact).
    label_pred: Option<TermId>,
    link_pred: Option<TermId>,
    type_pred: Option<TermId>,
    /// Shared result cache for [`execute`](Self::execute). The graph is
    /// immutable, so cached results never go stale.
    query_cache: QueryCache,
    /// Sublinear candidate index over the label table's rows and ontology
    /// properties, built once here (see [`crate::lexical`]).
    lexical: LexicalIndex,
}

impl KnowledgeBase {
    /// Wraps a built graph, building all views. The ontology must already
    /// be materialized into the graph (labels, class tree).
    pub fn from_graph(graph: Graph, ontology: Ontology) -> Self {
        let id = |iri: &str| graph.term_id(&Term::iri(iri));
        let (label_pred, link_pred, type_pred) =
            (id(rdfs::LABEL), id(vocab::WIKI_PAGE_LINK), id(rdf::TYPE));
        let labels = LabelTable::from_graph(&graph);
        let page_degree = link_pred.map_or_else(Vec::new, |link| page_degrees(&graph, link));
        let mut class_terms: Vec<(TermId, ClassId)> = ontology
            .classes
            .iter()
            .enumerate()
            .filter_map(|(i, c)| Some((id(&dbont::iri(c.name))?, ClassId(i as u8))))
            .collect();
        class_terms.sort_unstable();
        let class_by_label =
            ontology.classes.iter().map(|c| (normalize_label(c.label), c.name)).collect();
        let lexical = LexicalIndex::build(&labels, &ontology);
        KnowledgeBase {
            graph,
            ontology,
            labels,
            page_degree,
            class_terms: class_terms.into_boxed_slice(),
            class_by_label,
            label_pred,
            link_pred,
            type_pred,
            query_cache: QueryCache::default(),
            lexical,
        }
    }

    /// The lexical candidate index over entity labels and ontology
    /// properties (built once at construction).
    pub fn lexical(&self) -> &LexicalIndex {
        &self.lexical
    }

    /// The entity label table the exact lookup, the lexical index and the
    /// mention detector share.
    pub fn labels(&self) -> &LabelTable {
        &self.labels
    }

    /// Entities whose label normalizes to exactly `text`.
    pub fn entities_with_label(&self, text: &str) -> &[TermId] {
        self.labels.find(&normalize_label(text)).map_or(&[], |row| self.labels.entities(row))
    }

    /// All `(normalized label, entities)` rows in label order — the mention
    /// detector's raw material.
    pub fn labels_iter(&self) -> impl Iterator<Item = (&str, &[TermId])> {
        self.labels.iter()
    }

    /// The primary label of a `res:` entity: the first literal of its
    /// `(entity, rdfs:label, ?)` slice, i.e. the one interned first.
    pub fn label_of(&self, entity: impl EntityRef) -> Option<&str> {
        let id = entity.id_in(&self.graph)?;
        let Term::Iri(iri) = self.graph.term(id) else { return None };
        if !iri.as_str().starts_with(res::NS) {
            return None;
        }
        let pattern = IdPattern { subject: Some(id), predicate: Some(self.label_pred?), object: None };
        self.graph.scan_iter(pattern).find_map(|(_, _, o)| match self.graph.term(o) {
            Term::Literal(lit) => Some(lit.lexical_form()),
            _ => None,
        })
    }

    /// The ontology class whose label normalizes to `text`
    /// ("book" → `Book`, "films" must be singularized by the caller).
    pub fn class_with_label(&self, text: &str) -> Option<&'static str> {
        self.class_by_label.get(&normalize_label(text)).copied()
    }

    /// The ids of an entity's direct `rdf:type` objects, in id order.
    fn type_ids(&self, entity: Option<TermId>) -> impl Iterator<Item = TermId> + '_ {
        let pattern = entity.zip(self.type_pred).map(|(s, ty)| IdPattern {
            subject: Some(s),
            predicate: Some(ty),
            object: None,
        });
        pattern.into_iter().flat_map(|p| self.graph.scan_iter(p)).map(|(_, _, o)| o)
    }

    /// Direct ontology classes of an entity (local names).
    pub fn classes_of(&self, entity: impl EntityRef) -> impl Iterator<Item = &str> {
        self.type_ids(entity.id_in(&self.graph)).filter_map(|c| match self.graph.term(c) {
            Term::Iri(c) if c.as_str().starts_with(dbont::NS) => Some(c.local_name()),
            _ => None,
        })
    }

    /// The entity's ontology classes as masks: one scan of its `rdf:type`
    /// ids, each looked up among the class term ids.
    pub fn entity_classes(&self, entity: impl EntityRef) -> ClassSet {
        let in_dbont =
            |ty| matches!(self.graph.term(ty), Term::Iri(c) if c.as_str().starts_with(dbont::NS));
        let mut set = ClassSet::default();
        for ty in self.type_ids(entity.id_in(&self.graph)) {
            let class = match self.class_terms.binary_search_by_key(&ty, |&(t, _)| t) {
                Ok(i) => Some(self.class_terms[i].1),
                Err(_) if in_dbont(ty) => None,
                Err(_) => continue,
            };
            set = set.union(self.ontology.class_set(class));
        }
        set
    }

    /// True if the entity is an instance of `class` directly or via the
    /// subclass tree.
    pub fn is_instance_of(&self, entity: impl EntityRef, class: ClassId) -> bool {
        self.entity_classes(entity).is_a(class)
    }

    /// Number of distinct pages linked to or from an entity.
    pub fn page_degree(&self, entity: TermId) -> usize {
        self.page_degree.get(entity.index()).map_or(0, |&d| d as usize)
    }

    /// True if two entities are connected by a page link (either direction).
    pub fn are_linked(&self, a: TermId, b: TermId) -> bool {
        self.link_pred.is_some_and(|link| {
            self.graph.contains_ids((a, link, b)) || self.graph.contains_ids((b, link, a))
        })
    }

    /// Heap bytes of the derived structures (the graph reports its own via
    /// [`Graph::heap_bytes`]).
    pub fn heap_bytes(&self) -> KbBytes {
        KbBytes {
            label_table: self.labels.heap_bytes(),
            degree_column: self.page_degree.capacity() * std::mem::size_of::<u32>(),
            lexical_index: self.lexical.heap_bytes(),
        }
    }

    /// Parses `text` and [`execute`](Self::execute)s it. Text that does not
    /// parse never reaches the cache, so it counts neither a hit nor a miss.
    pub fn query(&self, text: &str) -> Result<QueryResult, SparqlError> {
        self.execute(&parse_query(text)?)
    }

    /// Runs a query against the store, serving repeated queries from the
    /// shared result cache, which stores a query on its second miss.
    pub fn execute(&self, query: &Query) -> Result<QueryResult, SparqlError> {
        self.query_cache.execute(&self.graph, query)
    }

    /// Runs a SPARQL query bypassing the result cache (equivalence testing
    /// and one-shot diagnostics).
    pub fn query_uncached(&self, text: &str) -> Result<QueryResult, SparqlError> {
        query(&self.graph, text)
    }

    /// Like [`execute`](Self::execute) but also returns the EXPLAIN ANALYZE
    /// plan trace. Cache hits return a trace flagged `cache_hit` with no
    /// steps (the executor never ran).
    pub fn execute_traced(&self, query: &Query) -> Result<(QueryResult, PlanTrace), SparqlError> {
        self.query_cache.execute_traced(&self.graph, query)
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

    /// Drops every cached query result and every sighting the cache's
    /// admission rule keeps (a query is stored on its second miss), so the
    /// next run starts as cold as a new knowledge base: each query misses
    /// twice before it hits. The graph never changes, so this exists only
    /// to give profiling and benchmark runs a cold cache.
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
        self.labels.entity_count()
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

/// `|out ∪ in|` page-link neighbours per term id, from one pass over the
/// link predicate's POS slice: each fact adds one to both ends, and a pair
/// linked both ways (or a page linking itself) gives one back per end, found
/// by a point probe for the reverse fact.
fn page_degrees(graph: &Graph, link: TermId) -> Vec<u32> {
    let mut degree = vec![0u32; graph.interner().len()];
    let pattern = IdPattern { subject: None, predicate: Some(link), object: None };
    for (s, _, o) in graph.scan_iter(pattern) {
        degree[s.index()] += 1;
        degree[o.index()] += 1;
        if s == o {
            degree[s.index()] -= 1;
        } else if s < o && graph.contains_ids((o, link, s)) {
            degree[s.index()] -= 1;
            degree[o.index()] -= 1;
        }
    }
    degree
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(kb.label_of(hits[0]), Some("Orhan Pamuk"));
        // Only `res:` entities have labels here; class labels do not.
        assert_eq!(kb.label_of(&Iri::new(dbont::iri("Book"))), None);
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
        let class = |name| kb.ontology.class_id(name).unwrap();
        assert!(kb.is_instance_of(&pamuk, class("Writer")));
        assert!(kb.is_instance_of(&pamuk, class("Person")));
        assert!(!kb.is_instance_of(&pamuk, class("Place")));
        let writer = class("Writer");
        assert_eq!(kb.entity_classes(&pamuk).direct, writer.bit());
        assert_eq!(kb.entity_classes(&pamuk).closure, kb.ontology.ancestor_mask(writer));
    }

    #[test]
    fn page_links_are_symmetric() {
        let kb = mini_kb();
        let pamuk = kb.entities_with_label("Orhan Pamuk")[0];
        let snow = kb.entities_with_label("Snow")[0];
        assert!(kb.are_linked(pamuk, snow));
        assert!(kb.are_linked(snow, pamuk));
        assert!(!kb.are_linked(pamuk, pamuk));
        assert_eq!(kb.page_degree(pamuk), 1);
        assert_eq!(kb.page_degree(snow), 1);
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
        assert!(loaded.is_instance_of(&pamuk, loaded.ontology.class_id("Person").unwrap()));
        let (pamuk, snow) =
            (loaded.entities_with_label("Orhan Pamuk")[0], loaded.entities_with_label("Snow")[0]);
        assert!(loaded.are_linked(pamuk, snow));
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
        // A query is stored on its second miss.
        assert_eq!(kb.query(text).unwrap(), first);
        let second = kb.query(text).unwrap();
        assert_eq!(first, second);
        assert_eq!(first, kb.query_uncached(text).unwrap());
        let stats = kb.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        // Uncached queries never touch the cache counters.
        kb.query_uncached(text).unwrap();
        assert_eq!(kb.cache_stats(), stats);
        kb.invalidate_query_cache();
        kb.query(text).unwrap();
        assert_eq!(kb.cache_stats().misses, 3);
        // Text that does not parse never reaches the cache.
        assert!(kb.query("SELECT ?x { broken").is_err());
        assert_eq!(kb.cache_stats(), CacheStats { hits: 1, misses: 3 });
    }

    #[test]
    fn syntactic_variants_share_one_entry() {
        let kb = mini_kb();
        // Same query, three spellings: whitespace, WHERE keyword, trailing
        // dot. All parse to one AST, the cache key.
        let a = "SELECT ?x WHERE { ?x rdf:type dbont:Book . }";
        let b = "SELECT ?x { ?x rdf:type dbont:Book }";
        let c = "SELECT  ?x  WHERE  {  ?x  rdf:type  dbont:Book  }";
        let first = kb.query(a).unwrap();
        // The second spelling's miss stores the entry the first sighted.
        assert_eq!(kb.query(b).unwrap(), first);
        assert_eq!(kb.query(c).unwrap(), first);
        assert_eq!(kb.query(a).unwrap(), first);
        assert_eq!(kb.cache_occupancy().0, 1, "variants must share one entry");
        assert_eq!(
            kb.cache_stats(),
            CacheStats { hits: 2, misses: 2 },
            "only the first two spellings execute"
        );
    }

    /// The `Query` a caller builds for `?x author Orhan_Pamuk`, term by
    /// term, as the QA planner does.
    fn built_author_query() -> Query {
        use relpat_sparql::ast::{GraphPattern, Projection, SelectQuery, TriplePattern};
        Query::Select(SelectQuery {
            distinct: true,
            projection: Projection::Vars(vec!["x".into()]),
            pattern: GraphPattern {
                triples: vec![TriplePattern::new(
                    Term::var("x"),
                    Term::iri(dbont::iri("author")),
                    Term::iri(res::iri("Orhan Pamuk")),
                )],
                ..GraphPattern::default()
            },
            order_by: Vec::new(),
            limit: None,
            offset: None,
        })
    }

    const AUTHOR_TEXT: &str = "SELECT DISTINCT ?x { ?x dbont:author res:Orhan_Pamuk }";

    #[test]
    fn text_then_built_query_share_one_entry() {
        let kb = mini_kb();
        let from_text = kb.query(AUTHOR_TEXT).unwrap();
        // The built query's miss stores the entry the text sighted.
        assert_eq!(kb.execute(&built_author_query()).unwrap(), from_text);
        assert_eq!(kb.execute(&built_author_query()).unwrap(), from_text);
        assert_eq!(kb.cache_occupancy().0, 1);
        assert_eq!(kb.cache_stats(), CacheStats { hits: 1, misses: 2 });
    }

    #[test]
    fn built_query_then_text_share_one_entry() {
        let kb = mini_kb();
        let (built, trace) = kb.execute_traced(&built_author_query()).unwrap();
        assert!(!trace.cache_hit);
        // The text's miss stores the entry the built query sighted.
        assert_eq!(kb.query(AUTHOR_TEXT).unwrap(), built);
        assert_eq!(kb.query(AUTHOR_TEXT).unwrap(), built);
        assert_eq!(kb.cache_occupancy().0, 1);
        assert_eq!(kb.cache_stats(), CacheStats { hits: 1, misses: 2 });
        assert!(kb.execute_traced(&built_author_query()).unwrap().1.cache_hit);
    }
}
