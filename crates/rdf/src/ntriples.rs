//! N-Triples import/export.
//!
//! N-Triples is a line-oriented subset of Turtle with only absolute IRIs, so
//! we reuse the Turtle parser per line (it accepts a superset) and provide a
//! strict serializer. Used for round-trip tests and data interchange.

use std::fmt::Write as _;

use crate::error::RdfError;
use crate::graph::{Graph, Triple};
use crate::turtle::parse_turtle;

/// Parses an N-Triples document (one triple per non-empty, non-comment line).
pub fn parse_ntriples(input: &str) -> Result<Vec<Triple>, RdfError> {
    let mut out = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut triples = parse_turtle(trimmed).map_err(|e| match e {
            RdfError::Parse { message, .. } => {
                RdfError::Parse { line: lineno + 1, message }
            }
            other => other,
        })?;
        if triples.len() != 1 {
            return Err(RdfError::Parse {
                line: lineno + 1,
                message: format!("expected exactly one triple per line, got {}", triples.len()),
            });
        }
        out.push(triples.pop().unwrap());
    }
    Ok(out)
}

/// Serializes a graph as N-Triples (absolute IRIs, one triple per line,
/// sorted for determinism).
pub fn to_ntriples(graph: &Graph) -> String {
    let mut triples: Vec<Triple> = graph.iter().collect();
    triples.sort();
    let mut out = String::new();
    for t in triples {
        let _ = writeln!(out, "{t}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::term::Term;

    #[test]
    fn parse_skips_comments_and_blanks() {
        let doc = "\n# header\n<http://e/s> <http://e/p> \"v\" .\n\n";
        let triples = parse_ntriples(doc).unwrap();
        assert_eq!(triples.len(), 1);
    }

    #[test]
    fn rejects_multi_triple_lines() {
        let doc = "<http://e/s> <http://e/p> <http://e/o> . <http://e/s2> <http://e/p> <http://e/o> .";
        assert!(parse_ntriples(doc).is_err());
    }

    #[test]
    fn error_line_is_document_relative() {
        let doc = "<http://e/s> <http://e/p> <http://e/o> .\n<http://bad";
        match parse_ntriples(doc) {
            Err(RdfError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn round_trip() {
        let mut b = GraphBuilder::new();
        b.add(Term::iri("http://e/s"), Term::iri("http://e/p"), Term::literal("hello\nworld"));
        b.add(Term::iri("http://e/s"), Term::iri("http://e/q"), Term::iri("http://e/o"));
        let g = b.build();
        let nt = to_ntriples(&g);
        let parsed = parse_ntriples(&nt).unwrap();
        assert_eq!(parsed.len(), 2);
        for t in parsed {
            assert!(g.contains(&t));
        }
    }
}
