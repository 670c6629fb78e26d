//! # relpat-kb — synthetic DBpedia and QALD-2-style benchmark
//!
//! The data substrate the paper ran against: a deterministic, seeded
//! DBpedia-style knowledge base (ontology + entities + facts + page links)
//! and a 100-question QALD-2-style benchmark with gold SPARQL queries, of
//! which 55 survive the paper's YAGO/`dbprop:` exclusion filter (§3).
//!
//! ```
//! use relpat_kb::{generate, KbConfig};
//!
//! let kb = generate(&KbConfig::tiny());
//! let sols = kb.query(
//!     "SELECT ?x { ?x rdf:type dbont:Book . ?x dbont:author res:Orhan_Pamuk }"
//! ).unwrap().into_solutions().unwrap();
//! assert_eq!(sols.len(), 3);
//! ```

mod generate;
mod kb;
mod labels;
pub mod lexical;
mod names;
mod ontology;
mod qald;
mod stats;

pub use generate::{generate, KbConfig, DEFAULT_KB_FINGERPRINT};
pub use kb::{normalize_label, EntityRef, KbBytes, KnowledgeBase};
pub use labels::LabelTable;
pub use lexical::{IndexLookupStats, LexStats, LexicalIndex};
pub use names::AMBIGUOUS_CITY;
pub use ontology::{
    split_camel_case, ClassDef, ClassId, ClassSet, DataPropertyDef, DataRange, ObjectPropertyDef,
    Ontology, Property, PropertyId,
};
pub use qald::{evaluated_subset, qald_questions, Exclusion, QaldQuestion};
pub use stats::KbStats;
