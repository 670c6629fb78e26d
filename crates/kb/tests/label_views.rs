//! Differential gate for the knowledge base's id-space views (CI-enforced
//! through the workspace test). A term-level oracle rebuilds the hash-map
//! side tables the views replaced — `label → entities`, `entity → first
//! label` and the symmetric page-link graph — from `triples_matching`, and
//! every view must agree with it exactly: each label's entity sequence in
//! order, `label_of` for every term, `page_degree` for every term,
//! `are_linked` for every linked pair plus seeded random pairs, and
//! `entity_count`. Runs at ×1 and ×12, and on a hand-built graph with
//! self-links, mutual links and colliding labels.

use relpat_kb::{generate, normalize_label, KbConfig, KnowledgeBase, Ontology};
use relpat_obs::fx::{FxHashMap, FxHashSet};
use relpat_obs::Rng;
use relpat_rdf::vocab::{self, dbont, rdfs, res};
use relpat_rdf::{GraphBuilder, Iri, Literal, Term, TermId};

/// The side tables as the knowledge base used to build them.
struct Oracle {
    label_index: FxHashMap<String, Vec<Iri>>,
    labels: FxHashMap<Iri, String>,
    page_links: FxHashMap<Iri, FxHashSet<Iri>>,
}

impl Oracle {
    fn build(kb: &KnowledgeBase) -> Self {
        let mut label_index: FxHashMap<String, Vec<Iri>> = FxHashMap::default();
        let mut labels: FxHashMap<Iri, String> = FxHashMap::default();
        let mut page_links: FxHashMap<Iri, FxHashSet<Iri>> = FxHashMap::default();
        let label_pred = Term::iri(rdfs::LABEL);
        for t in kb.graph.triples_matching(None, Some(&label_pred), None) {
            let (Term::Iri(subject), Term::Literal(lit)) = (&t.subject, &t.object) else {
                continue;
            };
            if !subject.as_str().starts_with(res::NS) {
                continue;
            }
            let entry = label_index.entry(normalize_label(lit.lexical_form())).or_default();
            if !entry.contains(subject) {
                entry.push(subject.clone());
            }
            labels.entry(subject.clone()).or_insert_with(|| lit.lexical_form().to_string());
        }
        let link_pred = Term::iri(vocab::WIKI_PAGE_LINK);
        for t in kb.graph.triples_matching(None, Some(&link_pred), None) {
            if let (Term::Iri(s), Term::Iri(o)) = (&t.subject, &t.object) {
                page_links.entry(s.clone()).or_default().insert(o.clone());
                page_links.entry(o.clone()).or_default().insert(s.clone());
            }
        }
        Oracle { label_index, labels, page_links }
    }

    fn linked(&self, a: &Iri, b: &Iri) -> bool {
        self.page_links.get(a).is_some_and(|s| s.contains(b))
    }
}

/// Asserts every view equals the oracle; returns the number of self-links
/// seen so callers can tell the check was not vacuous.
fn assert_views_match(kb: &KnowledgeBase, random_pairs: usize) -> usize {
    let oracle = Oracle::build(kb);
    let iri = |id: TermId| kb.graph.term(id).as_iri().expect("entities are IRIs").clone();
    let id = |iri: &Iri| kb.graph.term_id(&Term::Iri(iri.clone())).expect("oracle IRIs are interned");

    // Label rows: same keys, strictly ascending, same entity sequences.
    assert_eq!(kb.labels_iter().count(), oracle.label_index.len());
    let mut previous: Option<&str> = None;
    for (label, ids) in kb.labels_iter() {
        assert!(previous.is_none_or(|p| p < label), "rows out of order at {label:?}");
        previous = Some(label);
        let got: Vec<Iri> = ids.iter().map(|&e| iri(e)).collect();
        assert_eq!(&got, &oracle.label_index[label], "entities of {label:?}");
        assert_eq!(kb.entities_with_label(label), ids, "exact lookup of {label:?}");
    }

    // `label_of` and `page_degree` for every term, labelled or not.
    for (term_id, term) in kb.graph.interner().iter() {
        let as_iri = term.as_iri();
        let label = as_iri.and_then(|i| oracle.labels.get(i)).map(String::as_str);
        assert_eq!(kb.label_of(term_id), label, "label of {term}");
        let degree = as_iri.and_then(|i| oracle.page_links.get(i)).map_or(0, FxHashSet::len);
        assert_eq!(kb.page_degree(term_id), degree, "page degree of {term}");
    }

    // `are_linked` for every linked pair, both directions.
    let mut self_links = 0;
    for (a, neighbours) in &oracle.page_links {
        for b in neighbours {
            assert!(kb.are_linked(id(a), id(b)), "{a} — {b}");
            self_links += usize::from(a == b);
        }
    }

    // ... and for seeded random entity pairs, mostly unlinked.
    let entities: Vec<TermId> = kb.labels_iter().flat_map(|(_, ids)| ids.iter().copied()).collect();
    let mut rng = Rng::seed_from_u64(0x001A_B315);
    for _ in 0..random_pairs {
        let a = entities[rng.gen_range(0..entities.len())];
        let b = entities[rng.gen_range(0..entities.len())];
        assert_eq!(kb.are_linked(a, b), oracle.linked(&iri(a), &iri(b)), "{a:?} — {b:?}");
    }

    assert_eq!(kb.entity_count(), oracle.labels.len());
    self_links
}

#[test]
fn views_match_the_oracle_at_x1() {
    let kb = generate(&KbConfig::scaled(1));
    assert_views_match(&kb, 20_000);
}

#[test]
fn views_match_the_oracle_at_x12() {
    let kb = generate(&KbConfig::scaled(12));
    assert_views_match(&kb, 50_000);
}

#[test]
fn self_links_mutual_links_and_label_collisions() {
    let ontology = Ontology::dbpedia();
    let mut g = GraphBuilder::new();
    ontology.materialize(&mut g);
    let entity = |name: &str| Term::iri(res::iri(name));
    let (a, b, c, d) = (entity("A"), entity("B"), entity("C"), entity("D"));
    let (link, label) = (Term::iri(vocab::WIKI_PAGE_LINK), Term::iri(rdfs::LABEL));
    let lit = |s: &str| Term::Literal(Literal::lang(s, "en"));
    for (s, o) in [(&a, &a), (&a, &b), (&b, &a), (&a, &c), (&c, &d), (&d, &d), (&a, &b)] {
        g.add(s.clone(), link.clone(), o.clone());
    }
    // D's label is interned before C's equal-normalizing one, so D leads
    // the "twin" row; C keeps "Twin" as its first label.
    g.add(d.clone(), label.clone(), lit("The Twin"));
    g.add(c.clone(), label.clone(), lit("Twin"));
    g.add(c.clone(), label.clone(), lit("twin"));
    g.add(a.clone(), label.clone(), lit("Alpha"));
    g.add(b.clone(), label.clone(), Term::iri(res::iri("NotALiteral")));
    g.add(Term::iri(dbont::iri("Thing")), label, lit("Alpha"));
    let kb = KnowledgeBase::from_graph(g.build(), ontology);
    assert_eq!(assert_views_match(&kb, 200), 2);
    let id = |t: &Term| kb.graph.term_id(t).unwrap();
    assert_eq!(kb.page_degree(id(&a)), 3); // itself, B (both ways), C
    assert_eq!(kb.page_degree(id(&d)), 2); // itself, C
    assert_eq!(kb.entities_with_label("twin"), [id(&d), id(&c)]);
    assert_eq!(kb.label_of(id(&c)), Some("Twin"));
    assert_eq!(kb.label_of(id(&b)), None);
    assert_eq!(kb.entity_count(), 3);
}
