//! Cross-crate substrate integration: RDF ⇄ Turtle ⇄ SPARQL ⇄ KB ⇄ patterns.

use relpat::kb::{generate, normalize_label, KbConfig, Ontology};
use relpat::patterns::{mine, CorpusConfig};
use relpat::rdf::{load_turtle, parse_ntriples, to_ntriples, to_turtle, GraphBuilder, Term};
use relpat::sparql::{query, QueryResult};

#[test]
fn turtle_to_sparql_round_trip() {
    let doc = r#"
        res:Snow a dbont:Book ;
            dbont:author res:Orhan_Pamuk ;
            rdfs:label "Snow"@en ;
            dbont:numberOfPages 432 .
        res:Orhan_Pamuk a dbont:Writer ;
            rdfs:label "Orhan Pamuk"@en .
    "#;
    let mut b = GraphBuilder::new();
    assert_eq!(load_turtle(&mut b, doc).unwrap(), 6);
    let g = b.build();

    let result = query(&g, "SELECT ?x { ?x dbont:author res:Orhan_Pamuk }").unwrap();
    let sols = result.into_solutions().unwrap();
    assert_eq!(sols.len(), 1);

    // Serialize → reparse → same answers.
    let ttl = to_turtle(&g);
    let mut b2 = GraphBuilder::new();
    load_turtle(&mut b2, &ttl).unwrap();
    let g2 = b2.build();
    let sols2 = query(&g2, "SELECT ?x { ?x dbont:author res:Orhan_Pamuk }")
        .unwrap()
        .into_solutions().unwrap();
    assert_eq!(sols.rows, sols2.rows);
}

#[test]
fn ntriples_preserves_generated_kb() {
    let kb = generate(&KbConfig::tiny());
    let nt = to_ntriples(&kb.graph);
    let triples = parse_ntriples(&nt).unwrap();
    assert_eq!(triples.len(), kb.len());
    let mut b2 = GraphBuilder::new();
    for t in &triples {
        b2.insert(t);
    }
    let g2 = b2.build();
    // The reloaded graph answers the paper query identically.
    let q = "SELECT ?x { ?x rdf:type dbont:Book . ?x dbont:author res:Orhan_Pamuk }";
    let a = kb.query(q).unwrap().into_solutions().unwrap();
    let b = query(&g2, q).unwrap().into_solutions().unwrap();
    assert_eq!(a.len(), b.len());
}

#[test]
fn generated_kb_satisfies_ontology_domains() {
    // Every object-property fact in the generated KB must respect the
    // declared domain/range up to taxonomy (the generator and the query
    // builder both rely on this).
    let kb = generate(&KbConfig::tiny());
    let onto = Ontology::dbpedia();
    for (i, p) in onto.object_properties.iter().enumerate() {
        let (domain, range) = onto.object_property_classes(i);
        let pred = Term::iri(relpat::rdf::vocab::dbont::iri(p.name));
        for t in kb.graph.triples_matching(None, Some(&pred), None) {
            let (Term::Iri(s), Term::Iri(o)) = (&t.subject, &t.object) else {
                continue;
            };
            assert!(
                kb.is_instance_of(s, domain),
                "{} violates domain of {}",
                s.as_str(),
                p.name
            );
            assert!(
                kb.is_instance_of(o, range),
                "{} violates range of {}",
                o.as_str(),
                p.name
            );
        }
    }
}

#[test]
fn mined_patterns_are_grounded_in_kb_facts() {
    // Distant supervision soundness: every mined phrase candidate must be a
    // property that actually occurs in the KB.
    let kb = generate(&KbConfig::tiny());
    let mined = mine(&kb, &CorpusConfig::default());
    let existing: Vec<&str> =
        kb.ontology.object_properties.iter().map(|p| p.name).collect();
    for (pattern, candidates) in mined.store.patterns() {
        for c in candidates {
            assert!(
                existing.contains(&c.property.as_str()),
                "pattern {pattern:?} maps to unknown property {}",
                c.property
            );
            assert!(c.freq > 0);
        }
    }
}

#[test]
fn label_index_and_normalization_agree() {
    let kb = generate(&KbConfig::tiny());
    for (label, iris) in kb.labels_iter() {
        assert!(!iris.is_empty());
        assert_eq!(label, normalize_label(label), "index key must be normalized");
        // Every indexed entity resolves back through the same key.
        assert_eq!(kb.entities_with_label(label), iris);
    }
}

#[test]
fn ask_and_select_agree_on_facts() {
    let kb = generate(&KbConfig::tiny());
    let sols = kb
        .query("SELECT ?x { ?x dbont:author res:Orhan_Pamuk }")
        .unwrap()
        .into_solutions().unwrap();
    for row in &sols.rows {
        let iri = row.get(0).unwrap().as_ref().unwrap().as_iri().unwrap();
        let ask = kb
            .query(&format!("ASK {{ <{}> dbont:author res:Orhan_Pamuk }}", iri.as_str()))
            .unwrap();
        assert_eq!(ask, QueryResult::Boolean(true));
    }
}

#[test]
fn nlp_handles_every_generated_label() {
    // The tokenizer/tagger must at minimum round-trip every entity label
    // (mention detection depends on it).
    let kb = generate(&KbConfig::tiny());
    for (label, _) in kb.labels_iter() {
        let tokens = relpat::nlp::tokenize(label);
        assert!(!tokens.is_empty(), "label {label:?} tokenizes to nothing");
        let rejoined = tokens.join(" ");
        assert_eq!(
            normalize_label(&rejoined),
            normalize_label(label),
            "label {label:?} does not survive tokenization"
        );
    }
}
