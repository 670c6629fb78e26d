//! Explore the synthetic DBpedia: ontology, entities, facts, raw SPARQL.
//!
//! ```sh
//! cargo run --release --example explore_kb
//! cargo run --release --example explore_kb -- "SELECT ?x { ?x rdf:type dbont:Country } LIMIT 5"
//! ```

use relpat::kb::{generate, KbConfig};
use relpat::rdf::{to_turtle, GraphBuilder, Term};
use relpat::sparql::QueryResult;

fn main() {
    let kb = generate(&KbConfig::default());

    // Ad-hoc query mode: pass a SPARQL string as the first argument.
    if let Some(query) = std::env::args().nth(1) {
        match kb.query(&query) {
            Ok(QueryResult::Solutions(sols)) => print!("{}", sols.to_table()),
            Ok(QueryResult::Boolean(b)) => println!("{b}"),
            Err(e) => eprintln!("error: {e}"),
        }
        return;
    }

    println!("=== Synthetic DBpedia overview ===\n");
    let stats = relpat::kb::KbStats::compute(&kb);
    println!("{}", stats.summary());

    println!("Ontology: {} classes, {} object properties, {} data properties",
        kb.ontology.classes.len(),
        kb.ontology.object_properties.len(),
        kb.ontology.data_properties.len());

    println!("\nInstances per top-level class (taxonomy-aware):");
    for class in ["Person", "Place", "Work", "Organisation"] {
        let count = relpat::kb::KbStats::instances_under(&kb, class);
        println!("  {class:<14} {count}");
    }

    println!("\nEverything about Orhan Pamuk (Turtle):");
    let pamuk = Term::iri(relpat::rdf::vocab::res::iri("Orhan Pamuk"));
    let mut subgraph = GraphBuilder::new();
    for t in kb.graph.triples_matching(Some(&pamuk), None, None) {
        subgraph.insert(&t);
    }
    for t in kb.graph.triples_matching(None, None, Some(&pamuk)) {
        if !t.predicate.as_iri().is_some_and(|i| i.as_str().contains("wikiPageWikiLink")) {
            subgraph.insert(&t);
        }
    }
    println!("{}", to_turtle(&subgraph.build()));

    println!("Sample SPARQL — the paper's Query2:");
    let sols = kb
        .query("SELECT ?x WHERE { ?x rdf:type dbont:Book . ?x dbont:author res:Orhan_Pamuk . }")
        .unwrap()
        .into_solutions().unwrap();
    print!("{}", sols.to_table());

    println!("\nAmbiguous labels (disambiguation test cases):");
    for label in ["Michael Jordan", "Springfield"] {
        let entities = kb.entities_with_label(label);
        println!("  \"{label}\" → {} readings:", entities.len());
        for &id in entities {
            println!(
                "     {} (classes: {}, page degree {})",
                kb.graph.term(id),
                kb.classes_of(id).collect::<Vec<_>>().join(", "),
                kb.page_degree(id)
            );
        }
    }
}
