//! # relpat-sparql — SPARQL subset engine over `relpat-rdf`
//!
//! Parses and executes the SPARQL fragment the question-answering pipeline
//! generates and the benchmark's gold queries require: `SELECT`/`ASK`, basic
//! graph patterns, `FILTER` expressions (comparisons, boolean connectives,
//! arithmetic, `regex`/`lang`/`datatype`/`str`/`bound`), `DISTINCT`,
//! `ORDER BY`, `LIMIT` and `OFFSET`.
//!
//! ```
//! use relpat_rdf::{Graph, Term, vocab::{dbont, res, rdf}};
//! use relpat_sparql::query;
//!
//! let mut g = Graph::new();
//! g.add(Term::iri(res::iri("Snow")), Term::iri(rdf::TYPE), Term::iri(dbont::iri("Book")));
//! g.add(Term::iri(res::iri("Snow")), Term::iri(dbont::iri("writer")),
//!       Term::iri(res::iri("Orhan Pamuk")));
//!
//! let result = query(&g, "SELECT ?x WHERE { ?x rdf:type dbont:Book . \
//!                         ?x dbont:writer res:Orhan_Pamuk . }").unwrap();
//! assert_eq!(result.into_solutions().unwrap().len(), 1);
//! ```

pub mod algebra;
pub mod ast;
mod cache;
mod display;
mod error;
mod exec;
mod parser;
mod results;

pub use cache::{CacheStats, QueryCache, DEFAULT_CACHE_CAPACITY};
pub use error::SparqlError;
pub use exec::{
    execute, execute_nested, execute_nested_traced, execute_traced, query, query_nested,
    query_traced, QueryResult,
};
pub use parser::parse_query;
// Plan-trace types are defined in `relpat-obs` (so traces can embed them)
// but this crate is their only writer — re-export them as part of our API.
pub use relpat_obs::{JoinAlgo, PlanStep, PlanTrace, QueryPlan};
pub use results::{RowIter, Rows, Solutions};
