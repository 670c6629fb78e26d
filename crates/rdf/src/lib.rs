//! # relpat-rdf — RDF data model and in-memory triple store
//!
//! The storage substrate of the `relpat` question-answering system. It
//! provides:
//!
//! - an RDF 1.1-style term model ([`Iri`], [`Literal`], [`Term`]);
//! - a term [`Interner`] mapping terms to dense `u32` ids, whose id → term
//!   array ([`TermTable`]) a built graph shares with query results;
//! - an indexed, immutable in-memory [`Graph`], built once by a
//!   [`GraphBuilder`], whose flat SPO/POS/OSP/PSO permutation indexes make any
//!   partially bound triple pattern a contiguous slice scan located in
//!   O(log n), and a typed value column resolving each term's FILTER value
//!   ([`TermValue`]) once at build;
//! - Turtle and N-Triples parsing/serialization for fixtures and interchange;
//! - the vocabulary constants (`rdf:`, `rdfs:`, `xsd:`, `dbont:`, `res:`) that
//!   the paper's examples use.
//!
//! ```
//! use relpat_rdf::{GraphBuilder, Term, vocab::{dbont, res}};
//!
//! let mut b = GraphBuilder::new();
//! b.add(
//!     Term::iri(res::iri("Snow")),
//!     Term::iri(dbont::iri("writer")),
//!     Term::iri(res::iri("Orhan Pamuk")),
//! );
//! let g = b.build();
//! let hits = g.subjects_with(
//!     &Term::iri(dbont::iri("writer")),
//!     &Term::iri(res::iri("Orhan Pamuk")),
//! );
//! assert_eq!(hits.len(), 1);
//! ```

mod error;
mod graph;
mod io;
mod interner;
mod ntriples;
mod term;
mod turtle;
mod value;

pub mod vocab;

pub use error::RdfError;
pub use graph::{
    sort_major_position, FrozenProbe, Graph, GraphBuilder, GraphBytes, IdPattern, IdTriple,
    ScanIter, Triple,
};
pub use interner::{Interner, TermId, TermTable};
pub use io::{load_path, save_ntriples, save_turtle};
pub use ntriples::{parse_ntriples, to_ntriples};
pub use term::{BlankNode, Iri, Literal, Term};
pub use turtle::{load_turtle, parse_turtle, render_term, to_turtle};
pub use value::TermValue;
