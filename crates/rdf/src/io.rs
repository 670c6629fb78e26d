//! File persistence for graphs (N-Triples and Turtle).
//!
//! The store is in-memory; these helpers let examples and tools persist a
//! generated knowledge base and reload it without regenerating, and let
//! users bring their own data.

use std::fs;
use std::io::Write as _;
use std::path::Path;

use crate::error::RdfError;
use crate::graph::{Graph, GraphBuilder};
use crate::ntriples::{parse_ntriples, to_ntriples};
use crate::turtle::{parse_turtle, to_turtle};

/// Saves a graph as N-Triples (sorted, deterministic).
pub fn save_ntriples(graph: &Graph, path: impl AsRef<Path>) -> std::io::Result<()> {
    let mut file = fs::File::create(path)?;
    file.write_all(to_ntriples(graph).as_bytes())
}

/// Saves a graph as Turtle with the default prefixes.
pub fn save_turtle(graph: &Graph, path: impl AsRef<Path>) -> std::io::Result<()> {
    let mut file = fs::File::create(path)?;
    file.write_all(to_turtle(graph).as_bytes())
}

/// Loads a graph from a file; the format is chosen by extension
/// (`.nt` → N-Triples, anything else → Turtle, which is a superset).
pub fn load_path(path: impl AsRef<Path>) -> Result<Graph, RdfError> {
    let path = path.as_ref();
    let text = fs::read_to_string(path)
        .map_err(|e| RdfError::Invalid(format!("cannot read {}: {e}", path.display())))?;
    let triples = if path.extension().is_some_and(|e| e == "nt") {
        parse_ntriples(&text)?
    } else {
        parse_turtle(&text)?
    };
    let mut builder = GraphBuilder::new();
    for t in &triples {
        builder.insert(t);
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn sample() -> Graph {
        let mut b = GraphBuilder::new();
        b.add(Term::iri("http://e/s"), Term::iri("http://e/p"), Term::literal("v"));
        b.add(Term::iri("http://e/s"), Term::iri("http://e/q"), Term::iri("http://e/o"));
        b.build()
    }

    #[test]
    fn ntriples_file_round_trip() {
        let g = sample();
        let path = std::env::temp_dir().join("relpat_io_test.nt");
        save_ntriples(&g, &path).unwrap();
        let loaded = load_path(&path).unwrap();
        assert_eq!(loaded.len(), g.len());
        for t in g.iter() {
            assert!(loaded.contains(&t));
        }
        let _ = fs::remove_file(path);
    }

    #[test]
    fn turtle_file_round_trip() {
        let g = sample();
        let path = std::env::temp_dir().join("relpat_io_test.ttl");
        save_turtle(&g, &path).unwrap();
        let loaded = load_path(&path).unwrap();
        assert_eq!(loaded.len(), g.len());
        let _ = fs::remove_file(path);
    }

    #[test]
    fn missing_file_is_reported() {
        let err = load_path("/nonexistent/relpat.nt").unwrap_err();
        assert!(err.to_string().contains("cannot read"));
    }
}
