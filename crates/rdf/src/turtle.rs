//! Turtle (subset) parser and serializer.
//!
//! Supported syntax — enough for ontology files and test fixtures:
//! `@prefix` directives, prefixed names, absolute IRIs, the `a` keyword,
//! `;` and `,` abbreviations, string literals with `@lang` / `^^datatype`,
//! numeric and boolean shorthand literals, blank node labels (`_:b0`) and
//! `#` comments. Not supported: collections, anonymous blank nodes `[]`,
//! multi-line strings.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::error::RdfError;
use crate::graph::{Graph, GraphBuilder, Triple};
use crate::term::{BlankNode, Iri, Literal, Term};
use crate::vocab::{self, rdf, xsd};

/// Parses a Turtle document into a list of triples.
pub fn parse_turtle(input: &str) -> Result<Vec<Triple>, RdfError> {
    Parser::new(input).parse_document()
}

/// Parses a Turtle document and pushes its triples into a builder,
/// returning the number of triples parsed (duplicates collapse on build).
pub fn load_turtle(builder: &mut GraphBuilder, input: &str) -> Result<usize, RdfError> {
    let triples = parse_turtle(input)?;
    for t in &triples {
        builder.insert(t);
    }
    Ok(triples.len())
}

/// Serializes a graph to Turtle using the default prefix table, grouping
/// triples by subject with `;` abbreviations.
pub fn to_turtle(graph: &Graph) -> String {
    let mut out = String::new();
    for (prefix, ns) in vocab::default_prefixes() {
        let _ = writeln!(out, "@prefix {prefix}: <{ns}> .");
    }
    out.push('\n');
    let mut triples: Vec<Triple> = graph.iter().collect();
    triples.sort();
    let mut i = 0;
    while i < triples.len() {
        let subject = triples[i].subject.clone();
        let _ = write!(out, "{} ", render_term(&subject));
        let mut first = true;
        while i < triples.len() && triples[i].subject == subject {
            if !first {
                out.push_str(" ;\n    ");
            }
            first = false;
            let t = &triples[i];
            let pred = if t.predicate == Term::iri(rdf::TYPE) {
                "a".to_string()
            } else {
                render_term(&t.predicate)
            };
            let _ = write!(out, "{pred} {}", render_term(&t.object));
            i += 1;
        }
        out.push_str(" .\n");
    }
    out
}

/// Renders one term in Turtle syntax (prefixed where possible).
pub fn render_term(term: &Term) -> String {
    match term {
        Term::Iri(iri) => vocab::shorten(iri.as_str()),
        other => other.to_string(),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    prefixes: HashMap<String, String>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        let mut prefixes = HashMap::new();
        for (p, ns) in vocab::default_prefixes() {
            prefixes.insert(p.to_string(), ns.to_string());
        }
        Parser { bytes: input.as_bytes(), pos: 0, line: 1, prefixes }
    }

    fn err(&self, msg: impl Into<String>) -> RdfError {
        RdfError::Parse { line: self.line, message: msg.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'#') => {
                    while let Some(b) = self.bump() {
                        if b == b'\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
    }

    fn eat(&mut self, expected: u8) -> Result<(), RdfError> {
        self.skip_ws();
        match self.bump() {
            Some(b) if b == expected => Ok(()),
            other => Err(self.err(format!(
                "expected '{}', found {:?}",
                expected as char,
                other.map(|b| b as char)
            ))),
        }
    }

    fn parse_document(&mut self) -> Result<Vec<Triple>, RdfError> {
        let mut triples = Vec::new();
        loop {
            self.skip_ws();
            if self.peek().is_none() {
                return Ok(triples);
            }
            if self.starts_with("@prefix") {
                self.parse_prefix()?;
                continue;
            }
            self.parse_statement(&mut triples)?;
        }
    }

    fn starts_with(&self, kw: &str) -> bool {
        self.bytes[self.pos..].starts_with(kw.as_bytes())
    }

    fn parse_prefix(&mut self) -> Result<(), RdfError> {
        self.pos += "@prefix".len();
        self.skip_ws();
        let mut name = String::new();
        while let Some(b) = self.peek() {
            if b == b':' {
                break;
            }
            if b.is_ascii_whitespace() {
                return Err(self.err("whitespace in prefix name"));
            }
            name.push(self.bump().unwrap() as char);
        }
        self.eat(b':')?;
        self.skip_ws();
        let iri = self.parse_iri_ref()?;
        self.eat(b'.')?;
        self.prefixes.insert(name, iri);
        Ok(())
    }

    fn parse_statement(&mut self, triples: &mut Vec<Triple>) -> Result<(), RdfError> {
        let subject = self.parse_term()?;
        if matches!(subject, Term::Literal(_)) {
            return Err(self.err("literal cannot be a subject"));
        }
        loop {
            // predicate-object list
            let predicate = self.parse_predicate()?;
            loop {
                let object = self.parse_term()?;
                triples.push(Triple {
                    subject: subject.clone(),
                    predicate: predicate.clone(),
                    object,
                });
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.bump();
                    }
                    _ => break,
                }
            }
            self.skip_ws();
            match self.peek() {
                Some(b';') => {
                    self.bump();
                    self.skip_ws();
                    // Trailing `;` before `.` is legal Turtle.
                    if self.peek() == Some(b'.') {
                        self.bump();
                        return Ok(());
                    }
                }
                Some(b'.') => {
                    self.bump();
                    return Ok(());
                }
                other => {
                    return Err(self.err(format!(
                        "expected ';' or '.', found {:?}",
                        other.map(|b| b as char)
                    )))
                }
            }
        }
    }

    fn parse_predicate(&mut self) -> Result<Term, RdfError> {
        self.skip_ws();
        // The `a` keyword must be followed by whitespace to avoid eating
        // prefixed names starting with "a".
        if self.peek() == Some(b'a') {
            let next = self.bytes.get(self.pos + 1).copied();
            if next.is_none() || next.is_some_and(|b| b.is_ascii_whitespace()) {
                self.bump();
                return Ok(Term::iri(rdf::TYPE));
            }
        }
        let t = self.parse_term()?;
        match t {
            Term::Iri(_) => Ok(t),
            _ => Err(self.err("predicate must be an IRI")),
        }
    }

    fn parse_term(&mut self) -> Result<Term, RdfError> {
        self.skip_ws();
        match self.peek() {
            Some(b'<') => Ok(Term::Iri(Iri::new(self.parse_iri_ref()?))),
            Some(b'"') => self.parse_literal(),
            Some(b'_') => self.parse_blank(),
            Some(b) if b.is_ascii_digit() || b == b'-' || b == b'+' => self.parse_number(),
            Some(_) => {
                if self.starts_with("true") && !ident_continues(self.bytes, self.pos + 4) {
                    self.pos += 4;
                    return Ok(Term::Literal(Literal::boolean(true)));
                }
                if self.starts_with("false") && !ident_continues(self.bytes, self.pos + 5) {
                    self.pos += 5;
                    return Ok(Term::Literal(Literal::boolean(false)));
                }
                self.parse_prefixed_name()
            }
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_iri_ref(&mut self) -> Result<String, RdfError> {
        self.eat(b'<')?;
        let mut iri = String::new();
        loop {
            match self.bump() {
                Some(b'>') => return Ok(iri),
                Some(b'\n') | None => return Err(self.err("unterminated IRI")),
                Some(b) => iri.push(b as char),
            }
        }
    }

    fn parse_literal(&mut self) -> Result<Term, RdfError> {
        self.eat(b'"')?;
        let mut value = String::new();
        loop {
            match self.bump() {
                Some(b'"') => break,
                Some(b'\\') => match self.bump() {
                    Some(b'n') => value.push('\n'),
                    Some(b'r') => value.push('\r'),
                    Some(b't') => value.push('\t'),
                    Some(b'"') => value.push('"'),
                    Some(b'\\') => value.push('\\'),
                    other => {
                        return Err(
                            self.err(format!("bad escape {:?}", other.map(|b| b as char)))
                        )
                    }
                },
                Some(b) => {
                    // Re-assemble UTF-8 multibyte sequences byte-by-byte.
                    if b < 0x80 {
                        value.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let len = utf8_len(b);
                        let end = start + len;
                        let slice = self
                            .bytes
                            .get(start..end)
                            .ok_or_else(|| self.err("truncated UTF-8 sequence"))?;
                        let s = std::str::from_utf8(slice)
                            .map_err(|_| self.err("invalid UTF-8 in literal"))?;
                        value.push_str(s);
                        self.pos = end;
                    }
                }
                None => return Err(self.err("unterminated literal")),
            }
        }
        match self.peek() {
            Some(b'@') => {
                self.bump();
                let mut tag = String::new();
                while let Some(b) = self.peek() {
                    if b.is_ascii_alphanumeric() || b == b'-' {
                        tag.push(self.bump().unwrap() as char);
                    } else {
                        break;
                    }
                }
                if tag.is_empty() {
                    return Err(self.err("empty language tag"));
                }
                Ok(Term::Literal(Literal::lang(value, tag)))
            }
            Some(b'^') => {
                self.bump();
                self.eat(b'^')?;
                self.skip_ws();
                let dt = match self.peek() {
                    Some(b'<') => Iri::new(self.parse_iri_ref()?),
                    _ => match self.parse_prefixed_name()? {
                        Term::Iri(iri) => iri,
                        _ => return Err(self.err("datatype must be an IRI")),
                    },
                };
                Ok(Term::Literal(Literal::typed(value, dt)))
            }
            _ => Ok(Term::Literal(Literal::plain(value))),
        }
    }

    fn parse_blank(&mut self) -> Result<Term, RdfError> {
        self.eat(b'_')?;
        self.eat(b':')?;
        let mut label = String::new();
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' {
                label.push(self.bump().unwrap() as char);
            } else {
                break;
            }
        }
        if label.is_empty() {
            return Err(self.err("empty blank node label"));
        }
        Ok(Term::Blank(BlankNode(label)))
    }

    fn parse_number(&mut self) -> Result<Term, RdfError> {
        let mut text = String::new();
        if matches!(self.peek(), Some(b'-') | Some(b'+')) {
            text.push(self.bump().unwrap() as char);
        }
        let mut is_double = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => text.push(self.bump().unwrap() as char),
                b'.' => {
                    // A '.' only continues the number if a digit follows;
                    // otherwise it terminates the statement.
                    if self.bytes.get(self.pos + 1).is_some_and(u8::is_ascii_digit) {
                        is_double = true;
                        text.push(self.bump().unwrap() as char);
                    } else {
                        break;
                    }
                }
                b'e' | b'E' => {
                    is_double = true;
                    text.push(self.bump().unwrap() as char);
                    if matches!(self.peek(), Some(b'-') | Some(b'+')) {
                        text.push(self.bump().unwrap() as char);
                    }
                }
                _ => break,
            }
        }
        let dt = if is_double { xsd::DOUBLE } else { xsd::INTEGER };
        // Validate the lexical form eagerly so malformed numbers fail at
        // parse time rather than at query time.
        if is_double {
            text.parse::<f64>().map_err(|_| self.err("invalid double"))?;
        } else {
            text.parse::<i64>().map_err(|_| self.err("invalid integer"))?;
        }
        Ok(Term::Literal(Literal::typed(text, Iri::new(dt))))
    }

    fn parse_prefixed_name(&mut self) -> Result<Term, RdfError> {
        let mut prefix = String::new();
        while let Some(b) = self.peek() {
            if b == b':' {
                break;
            }
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' {
                prefix.push(self.bump().unwrap() as char);
            } else {
                return Err(self.err(format!("unexpected character '{}'", b as char)));
            }
        }
        self.eat(b':')?;
        let mut local = String::new();
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' {
                local.push(self.bump().unwrap() as char);
            } else {
                break;
            }
        }
        let ns = self
            .prefixes
            .get(&prefix)
            .ok_or_else(|| self.err(format!("unknown prefix '{prefix}:'")))?;
        Ok(Term::iri(format!("{ns}{local}")))
    }
}

fn ident_continues(bytes: &[u8], pos: usize) -> bool {
    bytes
        .get(pos)
        .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_triple() {
        let triples =
            parse_turtle("<http://e/s> <http://e/p> <http://e/o> .").unwrap();
        assert_eq!(triples.len(), 1);
        assert_eq!(triples[0].subject, Term::iri("http://e/s"));
    }

    #[test]
    fn parses_prefixed_names_and_a_keyword() {
        let doc = r#"
            @prefix ex: <http://example.org/> .
            ex:snow a dbont:Book ;
                dbont:writer res:Orhan_Pamuk .
        "#;
        let triples = parse_turtle(doc).unwrap();
        assert_eq!(triples.len(), 2);
        assert_eq!(triples[0].predicate, Term::iri(rdf::TYPE));
        assert_eq!(
            triples[1].object,
            Term::iri("http://dbpedia.org/resource/Orhan_Pamuk")
        );
    }

    #[test]
    fn parses_object_lists_and_literals() {
        let doc = r#"
            res:X rdfs:label "Snow"@en, "Kar"@tr ;
                dbont:height 1.98 ;
                dbont:pages 432 ;
                dbont:extinct false .
        "#;
        let triples = parse_turtle(doc).unwrap();
        assert_eq!(triples.len(), 5);
        let lits: Vec<_> = triples.iter().filter_map(|t| t.object.as_literal()).collect();
        assert!(lits.iter().any(|l| l.language() == Some("tr")));
        assert!(lits.iter().any(|l| l.as_f64() == Some(1.98)));
        assert!(lits.iter().any(|l| l.as_i64() == Some(432)));
        assert!(lits.iter().any(|l| l.lexical_form() == "false"));
    }

    #[test]
    fn parses_typed_literal_with_datatype() {
        let doc = r#"res:X dbont:birthDate "1952-06-07"^^xsd:date ."#;
        let triples = parse_turtle(doc).unwrap();
        let lit = triples[0].object.as_literal().unwrap();
        assert!(lit.is_date());
    }

    #[test]
    fn parses_escapes_and_comments() {
        let doc = "# comment line\nres:X rdfs:label \"a \\\"quoted\\\" name\" . # trailing\n";
        let triples = parse_turtle(doc).unwrap();
        assert_eq!(
            triples[0].object.as_literal().unwrap().lexical_form(),
            "a \"quoted\" name"
        );
    }

    #[test]
    fn parses_unicode_literals() {
        let doc = "res:X rdfs:label \"Kar — роман\" .";
        let triples = parse_turtle(doc).unwrap();
        assert_eq!(
            triples[0].object.as_literal().unwrap().lexical_form(),
            "Kar — роман"
        );
    }

    #[test]
    fn parses_blank_nodes() {
        let doc = "_:b0 dbont:writer res:X .";
        let triples = parse_turtle(doc).unwrap();
        assert!(matches!(triples[0].subject, Term::Blank(_)));
    }

    #[test]
    fn rejects_unknown_prefix() {
        let err = parse_turtle("zzz:a zzz:b zzz:c .").unwrap_err();
        assert!(err.to_string().contains("unknown prefix"));
    }

    #[test]
    fn rejects_literal_subject() {
        assert!(parse_turtle("\"lit\" dbont:p res:X .").is_err());
    }

    #[test]
    fn rejects_unterminated_literal() {
        assert!(parse_turtle("res:X rdfs:label \"oops .").is_err());
    }

    #[test]
    fn error_carries_line_number() {
        let doc = "res:A dbont:p res:B .\nres:C dbont:p \"bad\\q\" .";
        match parse_turtle(doc) {
            Err(RdfError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn round_trip_through_serializer() {
        let doc = r#"
            res:Snow a dbont:Book ;
                dbont:writer res:Orhan_Pamuk ;
                rdfs:label "Snow"@en ;
                dbont:pages 432 .
        "#;
        let mut b = GraphBuilder::new();
        load_turtle(&mut b, doc).unwrap();
        let g = b.build();
        let serialized = to_turtle(&g);
        let mut b2 = GraphBuilder::new();
        load_turtle(&mut b2, &serialized).unwrap();
        let g2 = b2.build();
        assert_eq!(g.len(), g2.len());
        for t in g.iter() {
            assert!(g2.contains(&t), "missing {t}");
        }
    }

    #[test]
    fn trailing_semicolon_before_dot_is_legal() {
        let doc = "res:X a dbont:Book ; .";
        assert_eq!(parse_turtle(doc).unwrap().len(), 1);
    }

    #[test]
    fn reloading_a_document_collapses_on_build() {
        let mut b = GraphBuilder::new();
        let doc = "res:X a dbont:Book .";
        assert_eq!(load_turtle(&mut b, doc).unwrap(), 1);
        assert_eq!(load_turtle(&mut b, doc).unwrap(), 1);
        assert_eq!(b.build().len(), 1);
    }

    #[test]
    fn negative_and_exponent_numbers() {
        let doc = "res:X dbont:delta -12 ; dbont:eps 1.5e-3 .";
        let triples = parse_turtle(doc).unwrap();
        assert!(triples.iter().any(|t| t.object.as_literal().unwrap().as_i64() == Some(-12)));
        assert!(triples
            .iter()
            .any(|t| t.object.as_literal().unwrap().as_f64() == Some(0.0015)));
    }
}
