//! # relpat-nlp — NLP substrate for interrogative English
//!
//! The stand-in for Stanford CoreNLP used by the paper: a tokenizer,
//! rule-based lemmatizer, lexicon + morphology POS tagger, and a
//! deterministic rule-cascade dependency parser that emits collapsed
//! Stanford-style typed dependencies (`nsubjpass`, `agent`, `prep_of`, ...).
//!
//! The parser intentionally covers the question archetypes the paper's
//! examples exercise; sentences outside that coverage get no committed root,
//! which downstream triple extraction reports as "not attempted" — the same
//! behaviour (and recall profile) the paper describes.
//!
//! ```
//! use relpat_nlp::parse_sentence;
//!
//! let graph = parse_sentence("Which book is written by Orhan Pamuk?");
//! let root = graph.root.unwrap();
//! assert_eq!(graph.token(root).text, "written");
//! println!("{}", graph.to_tree_string());
//! ```

mod depparse;
mod graph;
mod lemma;
mod lexicon;
mod tagger;
mod tokenize;
mod tokens;

pub use depparse::{parse, parse_sentence};
pub use graph::{DepGraph, DepRel};
pub use lemma::lemmatize;
pub use lexicon::{is_be_form, is_do_form, is_have_form, lookup as lexicon_lookup};
pub use tagger::{tag, tag_sentence};
pub use tokenize::tokenize;
pub use tokens::{PosTag, Token};
