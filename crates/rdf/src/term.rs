//! RDF term model: IRIs, literals, blank nodes and variables.
//!
//! The model follows the RDF 1.1 abstract syntax closely enough for a
//! DBpedia-style knowledge base: IRIs identify resources, literals carry an
//! optional datatype IRI or language tag, and blank nodes are scoped,
//! label-identified existentials. Variables are not RDF terms proper but are
//! included so that query layers (SPARQL triple patterns) can reuse the same
//! enum without a parallel hierarchy.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use crate::vocab::xsd;

/// An IRI (we do not distinguish IRI from URI; DBpedia identifiers are ASCII).
///
/// Stored as a shared `Arc<str>`: a clone is a refcount bump, so the
/// interner's two copies of a term and every query result cell that names it
/// share one allocation. Equality, ordering and hashing are those of the
/// string, which matches RDF semantics (IRIs are compared codepoint-wise).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Iri(Arc<str>);

impl Iri {
    /// Creates an IRI from any string-like value, copying it once into the
    /// shared payload. No validation beyond non-emptiness is performed:
    /// knowledge-base generation controls its own identifier space, and the
    /// Turtle parser validates syntax separately.
    pub fn new(value: impl AsRef<str>) -> Self {
        let s = value.as_ref();
        debug_assert!(!s.is_empty(), "IRI must not be empty");
        Iri(Arc::from(s))
    }

    /// The full IRI string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The part after the last `/` or `#`, commonly the "local name".
    ///
    /// `http://dbpedia.org/ontology/birthPlace` → `birthPlace`.
    pub fn local_name(&self) -> &str {
        match self.0.rfind(['/', '#']) {
            Some(idx) => &self.0[idx + 1..],
            None => &self.0,
        }
    }

    /// The namespace part including the trailing separator, complement of
    /// [`Iri::local_name`].
    pub fn namespace(&self) -> &str {
        let local = self.local_name();
        &self.0[..self.0.len() - local.len()]
    }
}

impl fmt::Display for Iri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}>", self.0)
    }
}

impl From<&str> for Iri {
    fn from(value: &str) -> Self {
        Iri::new(value)
    }
}

impl From<String> for Iri {
    fn from(value: String) -> Self {
        Iri::new(value)
    }
}

/// An RDF literal: a lexical form plus either a datatype IRI or a language tag.
///
/// Plain literals are represented with datatype `xsd:string` and no language
/// tag, per RDF 1.1. Like [`Iri`], the strings are shared `Arc<str>`
/// payloads, so cloning a literal never copies text.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Literal {
    lexical: Arc<str>,
    /// `None` means `xsd:string` (the overwhelmingly common case, so we avoid
    /// storing the datatype IRI for it).
    datatype: Option<Iri>,
    language: Option<Arc<str>>,
}

impl Literal {
    /// A plain (`xsd:string`) literal.
    pub fn plain(lexical: impl AsRef<str>) -> Self {
        Literal { lexical: Arc::from(lexical.as_ref()), datatype: None, language: None }
    }

    /// A language-tagged literal (`"Ankara"@en`). Tags are lower-cased.
    pub fn lang(lexical: impl AsRef<str>, tag: impl AsRef<str>) -> Self {
        let tag = tag.as_ref();
        let language = if tag.bytes().any(|b| b.is_ascii_uppercase()) {
            Arc::from(tag.to_ascii_lowercase())
        } else {
            Arc::from(tag)
        };
        Literal { lexical: Arc::from(lexical.as_ref()), datatype: None, language: Some(language) }
    }

    /// A typed literal with an explicit datatype IRI.
    pub fn typed(lexical: impl AsRef<str>, datatype: Iri) -> Self {
        if datatype.as_str() == xsd::STRING {
            return Literal::plain(lexical);
        }
        Literal { lexical: Arc::from(lexical.as_ref()), datatype: Some(datatype), language: None }
    }

    /// An `xsd:integer` literal.
    pub fn integer(value: i64) -> Self {
        Literal::typed(value.to_string(), Iri::new(xsd::INTEGER))
    }

    /// An `xsd:double` literal. The lexical form uses Rust's shortest
    /// round-trippable representation.
    pub fn double(value: f64) -> Self {
        Literal::typed(value.to_string(), Iri::new(xsd::DOUBLE))
    }

    /// An `xsd:boolean` literal.
    pub fn boolean(value: bool) -> Self {
        Literal::typed(value.to_string(), Iri::new(xsd::BOOLEAN))
    }

    /// An `xsd:date` literal from year/month/day (no validation of calendars;
    /// generation code is trusted to produce valid dates).
    pub fn date(year: i32, month: u32, day: u32) -> Self {
        Literal::typed(format!("{year:04}-{month:02}-{day:02}"), Iri::new(xsd::DATE))
    }

    /// The lexical form (the quoted part).
    pub fn lexical_form(&self) -> &str {
        &self.lexical
    }

    /// The datatype IRI as a string; `xsd:string` for plain literals and
    /// `rdf:langString` for language-tagged ones.
    pub fn datatype_str(&self) -> &str {
        if self.language.is_some() {
            crate::vocab::rdf::LANG_STRING
        } else {
            self.datatype.as_ref().map_or(xsd::STRING, |d| d.as_str())
        }
    }

    /// The language tag, if any.
    pub fn language(&self) -> Option<&str> {
        self.language.as_deref()
    }

    /// True if the datatype is one of the XSD numeric types we support.
    pub fn is_numeric(&self) -> bool {
        matches!(
            self.datatype_str(),
            xsd::INTEGER | xsd::DOUBLE | xsd::DECIMAL | xsd::FLOAT | xsd::NON_NEGATIVE_INTEGER
        )
    }

    /// Parses the lexical form as a double if the literal is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        if self.is_numeric() {
            self.lexical.parse().ok()
        } else {
            None
        }
    }

    /// Parses the lexical form as an integer if the datatype is integral.
    pub fn as_i64(&self) -> Option<i64> {
        match self.datatype_str() {
            xsd::INTEGER | xsd::NON_NEGATIVE_INTEGER => self.lexical.parse().ok(),
            _ => None,
        }
    }

    /// True if the datatype is `xsd:date` or `xsd:dateTime`.
    pub fn is_date(&self) -> bool {
        matches!(self.datatype_str(), xsd::DATE | xsd::DATE_TIME | xsd::G_YEAR)
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{}\"", escape_literal(&self.lexical))?;
        if let Some(tag) = &self.language {
            write!(f, "@{tag}")
        } else if let Some(dt) = &self.datatype {
            write!(f, "^^{dt}")
        } else {
            Ok(())
        }
    }
}

/// Escapes a literal's lexical form for Turtle/N-Triples output.
pub(crate) fn escape_literal(s: &str) -> Cow<'_, str> {
    if s.chars().any(|c| matches!(c, '"' | '\\' | '\n' | '\r' | '\t')) {
        let mut out = String::with_capacity(s.len() + 4);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                other => out.push(other),
            }
        }
        Cow::Owned(out)
    } else {
        Cow::Borrowed(s)
    }
}

/// A blank node, identified by label within a single graph/document.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlankNode(pub String);

impl fmt::Display for BlankNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_:{}", self.0)
    }
}

/// An RDF term (or a query variable, for the benefit of pattern layers).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    Iri(Iri),
    Literal(Literal),
    Blank(BlankNode),
    /// Query variable; never stored in a [`crate::Graph`].
    Variable(String),
}

impl Term {
    /// Convenience constructor for an IRI term.
    pub fn iri(value: impl AsRef<str>) -> Self {
        Term::Iri(Iri::new(value))
    }

    /// Convenience constructor for a plain literal term.
    pub fn literal(value: impl AsRef<str>) -> Self {
        Term::Literal(Literal::plain(value))
    }

    /// Convenience constructor for a variable term (no leading `?`).
    pub fn var(name: impl Into<String>) -> Self {
        Term::Variable(name.into())
    }

    pub fn as_iri(&self) -> Option<&Iri> {
        match self {
            Term::Iri(iri) => Some(iri),
            _ => None,
        }
    }

    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(lit) => Some(lit),
            _ => None,
        }
    }

    pub fn is_variable(&self) -> bool {
        matches!(self, Term::Variable(_))
    }

    /// True for terms that may appear in a stored triple (not variables).
    pub fn is_concrete(&self) -> bool {
        !self.is_variable()
    }

    /// Heap bytes of the term's string payloads: each `Arc<str>` is its
    /// two reference counts plus the text. A payload shared with other
    /// terms (a cloned datatype IRI) counts once per term.
    pub(crate) fn payload_bytes(&self) -> usize {
        let arc = |s: &str| 2 * std::mem::size_of::<usize>() + s.len();
        match self {
            Term::Iri(iri) => arc(iri.as_str()),
            Term::Literal(lit) => {
                arc(&lit.lexical)
                    + lit.datatype.as_ref().map_or(0, |d| arc(d.as_str()))
                    + lit.language.as_deref().map_or(0, arc)
            }
            Term::Blank(b) => b.0.capacity(),
            Term::Variable(v) => v.capacity(),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(iri) => iri.fmt(f),
            Term::Literal(lit) => lit.fmt(f),
            Term::Blank(b) => b.fmt(f),
            Term::Variable(v) => write!(f, "?{v}"),
        }
    }
}

impl From<Iri> for Term {
    fn from(value: Iri) -> Self {
        Term::Iri(value)
    }
}

impl From<Literal> for Term {
    fn from(value: Literal) -> Self {
        Term::Literal(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iri_local_name_splits_on_slash_and_hash() {
        assert_eq!(Iri::new("http://dbpedia.org/ontology/birthPlace").local_name(), "birthPlace");
        assert_eq!(
            Iri::new("http://www.w3.org/1999/02/22-rdf-syntax-ns#type").local_name(),
            "type"
        );
        assert_eq!(Iri::new("urn:nothing").local_name(), "urn:nothing");
    }

    #[test]
    fn iri_namespace_is_complement_of_local_name() {
        let iri = Iri::new("http://dbpedia.org/resource/Orhan_Pamuk");
        assert_eq!(iri.namespace(), "http://dbpedia.org/resource/");
        assert_eq!(format!("{}{}", iri.namespace(), iri.local_name()), iri.as_str());
    }

    #[test]
    fn plain_literal_has_string_datatype() {
        let lit = Literal::plain("hello");
        assert_eq!(lit.datatype_str(), xsd::STRING);
        assert_eq!(lit.language(), None);
        assert!(!lit.is_numeric());
    }

    #[test]
    fn typed_string_literal_collapses_to_plain() {
        let lit = Literal::typed("x", Iri::new(xsd::STRING));
        assert_eq!(lit, Literal::plain("x"));
    }

    #[test]
    fn lang_literal_reports_rdf_langstring() {
        let lit = Literal::lang("Ankara", "EN");
        assert_eq!(lit.language(), Some("en"));
        assert_eq!(lit.datatype_str(), crate::vocab::rdf::LANG_STRING);
    }

    #[test]
    fn numeric_literals_parse() {
        assert_eq!(Literal::integer(42).as_i64(), Some(42));
        assert_eq!(Literal::integer(42).as_f64(), Some(42.0));
        assert_eq!(Literal::double(1.98).as_f64(), Some(1.98));
        assert_eq!(Literal::plain("42").as_i64(), None);
    }

    #[test]
    fn date_literal_formats_iso() {
        let lit = Literal::date(1952, 6, 7);
        assert_eq!(lit.lexical_form(), "1952-06-07");
        assert!(lit.is_date());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Term::iri("http://e/x").to_string(), "<http://e/x>");
        assert_eq!(Term::literal("a\"b").to_string(), "\"a\\\"b\"");
        assert_eq!(Term::var("x").to_string(), "?x");
        assert_eq!(Term::Blank(BlankNode("b0".into())).to_string(), "_:b0");
        assert_eq!(
            Literal::lang("Roman", "de").to_string(),
            "\"Roman\"@de"
        );
        assert_eq!(
            Literal::integer(5).to_string(),
            format!("\"5\"^^<{}>", xsd::INTEGER)
        );
    }

    #[test]
    fn escape_round_trip_characters() {
        let escaped = escape_literal("line1\nline2\t\"q\"\\end");
        assert_eq!(escaped, "line1\\nline2\\t\\\"q\\\"\\\\end");
    }

    #[test]
    fn term_accessors() {
        let t = Term::iri("http://e/x");
        assert!(t.as_iri().is_some());
        assert!(t.as_literal().is_none());
        assert!(t.is_concrete());
        assert!(Term::var("v").is_variable());
    }
}
