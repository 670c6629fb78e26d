//! Lexer and recursive-descent parser for the SPARQL subset.

use std::collections::HashMap;

use relpat_rdf::{vocab, Iri, Literal, Term};

use crate::ast::{
    ArithOp, AskQuery, CmpOp, Expr, GraphPattern, OrderKey, Projection, Query, SelectQuery,
    TriplePattern,
};
use crate::error::SparqlError;

/// How deep groups and expressions may nest. Every `{`, every
/// parenthesised or function-call expression, every `!` and every binary
/// operator in a chain counts one level, so this also bounds the height of
/// the expression tree the evaluator recurses over.
pub(crate) const MAX_NESTING: usize = 128;

/// Parses a SPARQL query string.
pub fn parse_query(input: &str) -> Result<Query, SparqlError> {
    let tokens = lex(input)?;
    let mut parser = Parser { tokens, pos: 0, depth: 0, prefixes: default_prefix_map() };
    let query = parser.parse_query()?;
    parser.expect_eof()?;
    Ok(query)
}

fn default_prefix_map() -> HashMap<String, String> {
    vocab::default_prefixes()
        .into_iter()
        .map(|(p, ns)| (p.to_string(), ns.to_string()))
        .collect()
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Keyword(String),  // uppercased
    Var(String),      // without '?'
    IriRef(String),   // without <>
    PName(String, String),
    String(String, Option<String>, Option<String>), // value, lang, datatype-marker "^^" consumed separately
    Integer(i64),
    Double(f64),
    Boolean(bool),
    A,
    Star,
    LBrace,
    RBrace,
    LParen,
    RParen,
    Dot,
    Comma,
    Semicolon,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
    Bang,
    Plus,
    Minus,
    Slash,
    DoubleCaret,
}

const KEYWORDS: &[&str] = &[
    "SELECT", "ASK", "WHERE", "DISTINCT", "FILTER", "ORDER", "BY", "ASC", "DESC", "LIMIT",
    "OFFSET", "PREFIX", "REGEX", "LANG", "DATATYPE", "STR", "BOUND", "COUNT", "AS",
    "OPTIONAL", "UNION",
];

fn lex(input: &str) -> Result<Vec<Token>, SparqlError> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let mut out = Vec::new();
    while pos < bytes.len() {
        let b = bytes[pos];
        match b {
            b if b.is_ascii_whitespace() => pos += 1,
            b'#' => {
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
            }
            b'{' => {
                out.push(Token::LBrace);
                pos += 1;
            }
            b'}' => {
                out.push(Token::RBrace);
                pos += 1;
            }
            b'(' => {
                out.push(Token::LParen);
                pos += 1;
            }
            b')' => {
                out.push(Token::RParen);
                pos += 1;
            }
            b'.' => {
                out.push(Token::Dot);
                pos += 1;
            }
            b',' => {
                out.push(Token::Comma);
                pos += 1;
            }
            b';' => {
                out.push(Token::Semicolon);
                pos += 1;
            }
            b'*' => {
                out.push(Token::Star);
                pos += 1;
            }
            b'/' => {
                out.push(Token::Slash);
                pos += 1;
            }
            b'=' => {
                out.push(Token::Eq);
                pos += 1;
            }
            b'!' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    out.push(Token::Ne);
                    pos += 2;
                } else {
                    out.push(Token::Bang);
                    pos += 1;
                }
            }
            b'<' => {
                // Either an IRI ref or a comparison operator. An IRI ref's
                // first char is never whitespace/'=' and must eventually hit '>'.
                if let Some(end) = try_iri_ref(bytes, pos) {
                    let iri = std::str::from_utf8(&bytes[pos + 1..end])
                        .map_err(|_| SparqlError::parse("invalid UTF-8 in IRI"))?;
                    out.push(Token::IriRef(iri.to_string()));
                    pos = end + 1;
                } else if bytes.get(pos + 1) == Some(&b'=') {
                    out.push(Token::Le);
                    pos += 2;
                } else {
                    out.push(Token::Lt);
                    pos += 1;
                }
            }
            b'>' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    out.push(Token::Ge);
                    pos += 2;
                } else {
                    out.push(Token::Gt);
                    pos += 1;
                }
            }
            b'&' => {
                if bytes.get(pos + 1) == Some(&b'&') {
                    out.push(Token::AndAnd);
                    pos += 2;
                } else {
                    return Err(SparqlError::parse("lone '&'"));
                }
            }
            b'|' => {
                if bytes.get(pos + 1) == Some(&b'|') {
                    out.push(Token::OrOr);
                    pos += 2;
                } else {
                    return Err(SparqlError::parse("lone '|'"));
                }
            }
            b'+' => {
                out.push(Token::Plus);
                pos += 1;
            }
            b'-' => {
                // Negative numeric literal or arithmetic minus; decide by
                // the following byte.
                if bytes.get(pos + 1).is_some_and(u8::is_ascii_digit) {
                    let (tok, next) = lex_number(bytes, pos)?;
                    out.push(tok);
                    pos = next;
                } else {
                    out.push(Token::Minus);
                    pos += 1;
                }
            }
            b'^' => {
                if bytes.get(pos + 1) == Some(&b'^') {
                    out.push(Token::DoubleCaret);
                    pos += 2;
                } else {
                    return Err(SparqlError::parse("lone '^'"));
                }
            }
            b'?' | b'$' => {
                pos += 1;
                let start = pos;
                while pos < bytes.len()
                    && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_')
                {
                    pos += 1;
                }
                if start == pos {
                    return Err(SparqlError::parse("empty variable name"));
                }
                out.push(Token::Var(
                    std::str::from_utf8(&bytes[start..pos]).unwrap().to_string(),
                ));
            }
            b'"' => {
                pos += 1;
                let mut value = String::new();
                loop {
                    if pos >= bytes.len() {
                        return Err(SparqlError::parse("unterminated string"));
                    }
                    match bytes[pos] {
                        b'"' => {
                            pos += 1;
                            break;
                        }
                        b'\\' => {
                            pos += 1;
                            match bytes.get(pos) {
                                Some(b'n') => value.push('\n'),
                                Some(b't') => value.push('\t'),
                                Some(b'"') => value.push('"'),
                                Some(b'\\') => value.push('\\'),
                                _ => return Err(SparqlError::parse("bad escape in string")),
                            }
                            pos += 1;
                        }
                        b if b < 0x80 => {
                            value.push(b as char);
                            pos += 1;
                        }
                        b => {
                            let len = match b {
                                0xC0..=0xDF => 2,
                                0xE0..=0xEF => 3,
                                _ => 4,
                            };
                            let slice = bytes
                                .get(pos..pos + len)
                                .ok_or_else(|| SparqlError::parse("truncated UTF-8"))?;
                            value.push_str(
                                std::str::from_utf8(slice)
                                    .map_err(|_| SparqlError::parse("invalid UTF-8"))?,
                            );
                            pos += len;
                        }
                    }
                }
                // Optional language tag.
                let mut lang = None;
                if bytes.get(pos) == Some(&b'@') {
                    pos += 1;
                    let start = pos;
                    while pos < bytes.len()
                        && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'-')
                    {
                        pos += 1;
                    }
                    if start == pos {
                        return Err(SparqlError::parse("empty language tag"));
                    }
                    lang = Some(std::str::from_utf8(&bytes[start..pos]).unwrap().to_string());
                }
                out.push(Token::String(value, lang, None));
            }
            b if b.is_ascii_digit() => {
                let (tok, next) = lex_number(bytes, pos)?;
                out.push(tok);
                pos = next;
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let start = pos;
                while pos < bytes.len()
                    && (bytes[pos].is_ascii_alphanumeric()
                        || bytes[pos] == b'_'
                        || bytes[pos] == b'-')
                {
                    pos += 1;
                }
                let word = std::str::from_utf8(&bytes[start..pos]).unwrap();
                if bytes.get(pos) == Some(&b':') {
                    // Prefixed name.
                    pos += 1;
                    let lstart = pos;
                    while pos < bytes.len()
                        && (bytes[pos].is_ascii_alphanumeric()
                            || bytes[pos] == b'_'
                            || bytes[pos] == b'-')
                    {
                        pos += 1;
                    }
                    let local = std::str::from_utf8(&bytes[lstart..pos]).unwrap();
                    out.push(Token::PName(word.to_string(), local.to_string()));
                } else if word == "a" {
                    out.push(Token::A);
                } else if word == "true" {
                    out.push(Token::Boolean(true));
                } else if word == "false" {
                    out.push(Token::Boolean(false));
                } else {
                    let upper = word.to_ascii_uppercase();
                    if KEYWORDS.contains(&upper.as_str()) {
                        out.push(Token::Keyword(upper));
                    } else {
                        return Err(SparqlError::parse(format!("unexpected word '{word}'")));
                    }
                }
            }
            b':' => {
                // Default (empty) prefix name.
                pos += 1;
                let lstart = pos;
                while pos < bytes.len()
                    && (bytes[pos].is_ascii_alphanumeric()
                        || bytes[pos] == b'_'
                        || bytes[pos] == b'-')
                {
                    pos += 1;
                }
                let local = std::str::from_utf8(&bytes[lstart..pos]).unwrap();
                out.push(Token::PName(String::new(), local.to_string()));
            }
            other => {
                return Err(SparqlError::parse(format!(
                    "unexpected character '{}'",
                    other as char
                )))
            }
        }
    }
    Ok(out)
}

/// Scans forward from a `<` to decide whether it opens an IRI reference.
/// Returns the index of the closing `>` if so.
fn try_iri_ref(bytes: &[u8], start: usize) -> Option<usize> {
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'>' => return if i > start + 1 { Some(i) } else { None },
            b if b.is_ascii_whitespace() => return None,
            b'"' | b'{' | b'}' => return None,
            _ => i += 1,
        }
    }
    None
}

fn lex_number(bytes: &[u8], start: usize) -> Result<(Token, usize), SparqlError> {
    let mut pos = start;
    if bytes[pos] == b'-' || bytes[pos] == b'+' {
        pos += 1;
    }
    let mut is_double = false;
    while pos < bytes.len() {
        match bytes[pos] {
            b'0'..=b'9' => pos += 1,
            b'.' if bytes.get(pos + 1).is_some_and(u8::is_ascii_digit) => {
                is_double = true;
                pos += 1;
            }
            b'e' | b'E' => {
                is_double = true;
                pos += 1;
                if matches!(bytes.get(pos), Some(b'-') | Some(b'+')) {
                    pos += 1;
                }
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..pos]).unwrap();
    if is_double {
        let v = text.parse().map_err(|_| SparqlError::parse("invalid double"))?;
        Ok((Token::Double(v), pos))
    } else {
        let v = text.parse().map_err(|_| SparqlError::parse("invalid integer"))?;
        Ok((Token::Integer(v), pos))
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current nesting level, checked against [`MAX_NESTING`].
    depth: usize,
    prefixes: HashMap<String, String>,
}

impl Parser {
    /// Enters one nesting level and returns the level to restore on the
    /// way out.
    fn enter(&mut self) -> Result<usize, SparqlError> {
        if self.depth == MAX_NESTING {
            return Err(SparqlError::NestingTooDeep { limit: MAX_NESTING });
        }
        self.depth += 1;
        Ok(self.depth - 1)
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, token: Token) -> Result<(), SparqlError> {
        match self.bump() {
            Some(t) if t == token => Ok(()),
            other => Err(SparqlError::parse(format!("expected {token:?}, found {other:?}"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), SparqlError> {
        match self.bump() {
            Some(Token::Keyword(k)) if k == kw => Ok(()),
            other => Err(SparqlError::parse(format!("expected {kw}, found {other:?}"))),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Keyword(k)) if k == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_eof(&self) -> Result<(), SparqlError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(SparqlError::parse(format!(
                "trailing input starting at {:?}",
                self.tokens[self.pos]
            )))
        }
    }

    fn parse_query(&mut self) -> Result<Query, SparqlError> {
        // PREFIX declarations.
        while self.eat_keyword("PREFIX") {
            let (name, local) = match self.bump() {
                Some(Token::PName(p, l)) => (p, l),
                other => {
                    return Err(SparqlError::parse(format!(
                        "expected prefix name, found {other:?}"
                    )))
                }
            };
            if !local.is_empty() {
                return Err(SparqlError::parse("prefix declaration must end with ':'"));
            }
            let iri = match self.bump() {
                Some(Token::IriRef(iri)) => iri,
                other => {
                    return Err(SparqlError::parse(format!("expected IRI, found {other:?}")))
                }
            };
            self.prefixes.insert(name, iri);
        }
        match self.bump() {
            Some(Token::Keyword(k)) if k == "SELECT" => self.parse_select().map(Query::Select),
            Some(Token::Keyword(k)) if k == "ASK" => {
                let pattern = self.parse_group()?;
                Ok(Query::Ask(AskQuery { pattern }))
            }
            other => Err(SparqlError::parse(format!(
                "expected SELECT or ASK, found {other:?}"
            ))),
        }
    }

    fn parse_select(&mut self) -> Result<SelectQuery, SparqlError> {
        let distinct = self.eat_keyword("DISTINCT");
        let projection = match self.peek() {
            Some(Token::Star) => {
                self.bump();
                Projection::All
            }
            Some(Token::Var(_)) => {
                let mut vars = Vec::new();
                while let Some(Token::Var(v)) = self.peek() {
                    vars.push(v.clone());
                    self.bump();
                }
                Projection::Vars(vars)
            }
            // `( COUNT ( DISTINCT? ?x|* ) AS ?alias )` or bare `COUNT(...)`.
            Some(Token::LParen) | Some(Token::Keyword(_)) => self.parse_count_projection()?,
            other => {
                return Err(SparqlError::parse(format!(
                    "expected '*', variables or COUNT, found {other:?}"
                )))
            }
        };
        // WHERE is optional in SPARQL.
        self.eat_keyword("WHERE");
        let pattern = self.parse_group()?;

        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                match self.peek() {
                    Some(Token::Keyword(k)) if k == "ASC" || k == "DESC" => {
                        let descending = k == "DESC";
                        self.bump();
                        self.expect(Token::LParen)?;
                        let expr = self.parse_expr()?;
                        self.expect(Token::RParen)?;
                        order_by.push(OrderKey { expr, descending });
                    }
                    Some(Token::Var(v)) => {
                        let v = v.clone();
                        self.bump();
                        order_by.push(OrderKey { expr: Expr::Var(v), descending: false });
                    }
                    _ => break,
                }
            }
            if order_by.is_empty() {
                return Err(SparqlError::parse("empty ORDER BY"));
            }
        }

        let mut limit = None;
        let mut offset = None;
        loop {
            if self.eat_keyword("LIMIT") {
                match self.bump() {
                    Some(Token::Integer(n)) if n >= 0 => limit = Some(n as usize),
                    other => {
                        return Err(SparqlError::parse(format!(
                            "expected LIMIT count, found {other:?}"
                        )))
                    }
                }
            } else if self.eat_keyword("OFFSET") {
                match self.bump() {
                    Some(Token::Integer(n)) if n >= 0 => offset = Some(n as usize),
                    other => {
                        return Err(SparqlError::parse(format!(
                            "expected OFFSET count, found {other:?}"
                        )))
                    }
                }
            } else {
                break;
            }
        }

        Ok(SelectQuery { distinct, projection, pattern, order_by, limit, offset })
    }

    /// `( COUNT ( DISTINCT? ?x|* ) AS ?alias )`, with the surrounding
    /// parentheses and the `AS ?alias` part optional (bare `COUNT(?x)`
    /// defaults the output column to `count`).
    fn parse_count_projection(&mut self) -> Result<Projection, SparqlError> {
        let wrapped = self.peek() == Some(&Token::LParen);
        if wrapped {
            self.bump();
        }
        self.expect_keyword("COUNT")?;
        self.expect(Token::LParen)?;
        let distinct = self.eat_keyword("DISTINCT");
        let var = match self.bump() {
            Some(Token::Star) => None,
            Some(Token::Var(v)) => Some(v),
            other => {
                return Err(SparqlError::parse(format!(
                    "COUNT takes '*' or a variable, found {other:?}"
                )))
            }
        };
        self.expect(Token::RParen)?;
        let mut alias = "count".to_string();
        if self.eat_keyword("AS") {
            match self.bump() {
                Some(Token::Var(v)) => alias = v,
                other => {
                    return Err(SparqlError::parse(format!(
                        "AS takes a variable, found {other:?}"
                    )))
                }
            }
        }
        if wrapped {
            self.expect(Token::RParen)?;
        }
        Ok(Projection::Count { var, distinct, alias })
    }

    fn parse_group(&mut self) -> Result<GraphPattern, SparqlError> {
        self.expect(Token::LBrace)?;
        let outer = self.enter()?;
        let mut pattern = GraphPattern::default();
        loop {
            match self.peek() {
                Some(Token::RBrace) => {
                    self.bump();
                    self.depth = outer;
                    return Ok(pattern);
                }
                Some(Token::Keyword(k)) if k == "FILTER" => {
                    self.bump();
                    self.expect(Token::LParen)?;
                    let expr = self.parse_expr()?;
                    self.expect(Token::RParen)?;
                    pattern.filters.push(expr);
                    // Optional '.' after a filter.
                    if self.peek() == Some(&Token::Dot) {
                        self.bump();
                    }
                }
                Some(Token::Keyword(k)) if k == "OPTIONAL" => {
                    self.bump();
                    let inner = self.parse_group()?;
                    pattern.optionals.push(inner);
                    if self.peek() == Some(&Token::Dot) {
                        self.bump();
                    }
                }
                Some(Token::LBrace) => {
                    // `{ A } UNION { B } ...` — or a plain nested group,
                    // which merges into the parent.
                    let first = self.parse_group()?;
                    let mut alternatives = vec![first];
                    while matches!(self.peek(), Some(Token::Keyword(k)) if k == "UNION") {
                        self.bump();
                        alternatives.push(self.parse_group()?);
                    }
                    if alternatives.len() >= 2 {
                        pattern.unions.push(alternatives);
                    } else {
                        let only = alternatives.pop().expect("one alternative");
                        pattern.triples.extend(only.triples);
                        pattern.filters.extend(only.filters);
                        pattern.optionals.extend(only.optionals);
                        pattern.unions.extend(only.unions);
                    }
                    if self.peek() == Some(&Token::Dot) {
                        self.bump();
                    }
                }
                Some(_) => {
                    self.parse_triples_block(&mut pattern)?;
                }
                None => return Err(SparqlError::parse("unterminated group pattern")),
            }
        }
    }

    /// Parses `subject pred obj (, obj)* (; pred obj ...)* .?`
    fn parse_triples_block(&mut self, pattern: &mut GraphPattern) -> Result<(), SparqlError> {
        let subject = self.parse_term()?;
        loop {
            let predicate = self.parse_verb()?;
            loop {
                let object = self.parse_term()?;
                pattern.triples.push(TriplePattern::new(
                    subject.clone(),
                    predicate.clone(),
                    object,
                ));
                if self.peek() == Some(&Token::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
            match self.peek() {
                Some(Token::Semicolon) => {
                    self.bump();
                    // Allow dangling ';' before '.' or '}'.
                    if matches!(self.peek(), Some(Token::Dot) | Some(Token::RBrace)) {
                        break;
                    }
                }
                _ => break,
            }
        }
        if self.peek() == Some(&Token::Dot) {
            self.bump();
        }
        Ok(())
    }

    fn parse_verb(&mut self) -> Result<Term, SparqlError> {
        if self.peek() == Some(&Token::A) {
            self.bump();
            return Ok(Term::iri(vocab::rdf::TYPE));
        }
        let t = self.parse_term()?;
        match &t {
            Term::Iri(_) | Term::Variable(_) => Ok(t),
            other => Err(SparqlError::parse(format!("invalid predicate {other}"))),
        }
    }

    fn parse_term(&mut self) -> Result<Term, SparqlError> {
        match self.bump() {
            Some(Token::Var(v)) => Ok(Term::var(v)),
            Some(Token::IriRef(iri)) => Ok(Term::iri(iri)),
            Some(Token::PName(prefix, local)) => {
                let ns = self
                    .prefixes
                    .get(&prefix)
                    .ok_or_else(|| SparqlError::parse(format!("unknown prefix '{prefix}:'")))?;
                Ok(Term::iri(format!("{ns}{local}")))
            }
            Some(Token::String(value, lang, _)) => {
                if self.peek() == Some(&Token::DoubleCaret) {
                    self.bump();
                    let dt = match self.bump() {
                        Some(Token::IriRef(iri)) => Iri::new(iri),
                        Some(Token::PName(prefix, local)) => {
                            let ns = self.prefixes.get(&prefix).ok_or_else(|| {
                                SparqlError::parse(format!("unknown prefix '{prefix}:'"))
                            })?;
                            Iri::new(format!("{ns}{local}"))
                        }
                        other => {
                            return Err(SparqlError::parse(format!(
                                "expected datatype IRI, found {other:?}"
                            )))
                        }
                    };
                    Ok(Term::Literal(Literal::typed(value, dt)))
                } else if let Some(tag) = lang {
                    Ok(Term::Literal(Literal::lang(value, tag)))
                } else {
                    Ok(Term::Literal(Literal::plain(value)))
                }
            }
            Some(Token::Integer(n)) => Ok(Term::Literal(Literal::integer(n))),
            Some(Token::Double(v)) => Ok(Term::Literal(Literal::double(v))),
            Some(Token::Boolean(b)) => Ok(Term::Literal(Literal::boolean(b))),
            other => Err(SparqlError::parse(format!("expected term, found {other:?}"))),
        }
    }

    // Expression grammar: or > and > cmp > add > mul > unary > primary.
    // Every nested expression starts here, so this is where parentheses
    // and function arguments count a level; each operator of a chain
    // (`||`, `&&`, `+ -`, `* /`) counts one more until the chain ends.
    fn parse_expr(&mut self) -> Result<Expr, SparqlError> {
        let outer = self.enter()?;
        let mut lhs = self.parse_and()?;
        while self.peek() == Some(&Token::OrOr) {
            self.bump();
            self.enter()?;
            let rhs = self.parse_and()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, SparqlError> {
        let outer = self.depth;
        let mut lhs = self.parse_cmp()?;
        while self.peek() == Some(&Token::AndAnd) {
            self.bump();
            self.enter()?;
            let rhs = self.parse_cmp()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> Result<Expr, SparqlError> {
        let lhs = self.parse_add()?;
        let op = match self.peek() {
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.parse_add()?;
        Ok(Expr::Cmp(Box::new(lhs), op, Box::new(rhs)))
    }

    fn parse_add(&mut self) -> Result<Expr, SparqlError> {
        let outer = self.depth;
        let mut lhs = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => ArithOp::Add,
                Some(Token::Minus) => ArithOp::Sub,
                _ => break,
            };
            self.bump();
            self.enter()?;
            let rhs = self.parse_mul()?;
            lhs = Expr::Arith(Box::new(lhs), op, Box::new(rhs));
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn parse_mul(&mut self) -> Result<Expr, SparqlError> {
        let outer = self.depth;
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => ArithOp::Mul,
                Some(Token::Slash) => ArithOp::Div,
                _ => break,
            };
            self.bump();
            self.enter()?;
            let rhs = self.parse_unary()?;
            lhs = Expr::Arith(Box::new(lhs), op, Box::new(rhs));
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, SparqlError> {
        if self.peek() == Some(&Token::Bang) {
            self.bump();
            let outer = self.enter()?;
            let inner = self.parse_unary()?;
            self.depth = outer;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, SparqlError> {
        match self.peek().cloned() {
            Some(Token::LParen) => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect(Token::RParen)?;
                Ok(e)
            }
            Some(Token::Keyword(k)) if k == "REGEX" => {
                self.bump();
                self.expect(Token::LParen)?;
                let value = self.parse_expr()?;
                self.expect(Token::Comma)?;
                let pattern = match self.bump() {
                    Some(Token::String(s, None, _)) => s,
                    other => {
                        return Err(SparqlError::parse(format!(
                            "regex pattern must be a plain string, found {other:?}"
                        )))
                    }
                };
                let mut case_insensitive = false;
                if self.peek() == Some(&Token::Comma) {
                    self.bump();
                    match self.bump() {
                        Some(Token::String(flags, None, _)) => {
                            case_insensitive = flags.contains('i');
                        }
                        other => {
                            return Err(SparqlError::parse(format!(
                                "regex flags must be a string, found {other:?}"
                            )))
                        }
                    }
                }
                self.expect(Token::RParen)?;
                Ok(Expr::Regex { value: Box::new(value), pattern, case_insensitive })
            }
            Some(Token::Keyword(k)) if k == "LANG" || k == "DATATYPE" || k == "STR" => {
                self.bump();
                self.expect(Token::LParen)?;
                let inner = self.parse_expr()?;
                self.expect(Token::RParen)?;
                Ok(match k.as_str() {
                    "LANG" => Expr::Lang(Box::new(inner)),
                    "DATATYPE" => Expr::Datatype(Box::new(inner)),
                    _ => Expr::Str(Box::new(inner)),
                })
            }
            Some(Token::Keyword(k)) if k == "BOUND" => {
                self.bump();
                self.expect(Token::LParen)?;
                let var = match self.bump() {
                    Some(Token::Var(v)) => v,
                    other => {
                        return Err(SparqlError::parse(format!(
                            "BOUND takes a variable, found {other:?}"
                        )))
                    }
                };
                self.expect(Token::RParen)?;
                Ok(Expr::Bound(var))
            }
            Some(Token::Var(v)) => {
                self.bump();
                Ok(Expr::Var(v))
            }
            _ => {
                let term = self.parse_term()?;
                Ok(Expr::Const(term))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_query1() {
        let q = parse_query(
            "SELECT ?x WHERE { ?x rdf:type dbont:Book . ?x dbont:writer res:Orhan_Pamuk . }",
        )
        .unwrap();
        let Query::Select(sel) = q else { panic!("expected SELECT") };
        assert_eq!(sel.pattern.triples.len(), 2);
        assert_eq!(sel.projection, Projection::Vars(vec!["x".into()]));
        assert!(!sel.distinct);
    }

    #[test]
    fn parses_select_star_distinct() {
        let q = parse_query("SELECT DISTINCT * WHERE { ?s ?p ?o }").unwrap();
        let Query::Select(sel) = q else { panic!() };
        assert!(sel.distinct);
        assert_eq!(sel.projection, Projection::All);
    }

    #[test]
    fn parses_a_keyword_and_semicolons() {
        let q = parse_query("SELECT ?x { ?x a dbont:Book ; dbont:writer ?w . }").unwrap();
        let pattern = q.pattern();
        assert_eq!(pattern.triples.len(), 2);
        assert_eq!(pattern.triples[0].predicate, Term::iri(vocab::rdf::TYPE));
        assert_eq!(pattern.triples[0].subject, pattern.triples[1].subject);
    }

    #[test]
    fn parses_object_list() {
        let q = parse_query("ASK { res:X dbont:knows res:A, res:B }").unwrap();
        assert_eq!(q.pattern().triples.len(), 2);
    }

    #[test]
    fn parses_filter_comparison() {
        let q = parse_query("SELECT ?x { ?x dbont:height ?h FILTER(?h > 2.0) }").unwrap();
        assert_eq!(q.pattern().filters.len(), 1);
        match &q.pattern().filters[0] {
            Expr::Cmp(_, CmpOp::Gt, _) => {}
            other => panic!("unexpected filter {other:?}"),
        }
    }

    #[test]
    fn parses_filter_regex_with_flags() {
        let q =
            parse_query("SELECT ?x { ?x rdfs:label ?l FILTER(regex(str(?l), \"snow\", \"i\")) }")
                .unwrap();
        match &q.pattern().filters[0] {
            Expr::Regex { case_insensitive: true, pattern, .. } => {
                assert_eq!(pattern, "snow");
            }
            other => panic!("unexpected filter {other:?}"),
        }
    }

    #[test]
    fn parses_boolean_connectives_precedence() {
        let q = parse_query("ASK { ?x ?p ?o FILTER(?o > 1 && ?o < 5 || !bound(?x)) }").unwrap();
        // Expect Or(And(..,..), Not(Bound))
        match &q.pattern().filters[0] {
            Expr::Or(lhs, rhs) => {
                assert!(matches!(**lhs, Expr::And(_, _)));
                assert!(matches!(**rhs, Expr::Not(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_order_limit_offset() {
        let q = parse_query(
            "SELECT ?x { ?x dbont:height ?h } ORDER BY DESC(?h) ?x LIMIT 5 OFFSET 2",
        )
        .unwrap();
        let Query::Select(sel) = q else { panic!() };
        assert_eq!(sel.order_by.len(), 2);
        assert!(sel.order_by[0].descending);
        assert_eq!(sel.limit, Some(5));
        assert_eq!(sel.offset, Some(2));
    }

    #[test]
    fn parses_custom_prefix() {
        let q = parse_query(
            "PREFIX ex: <http://example.org/> SELECT ?x { ?x ex:p ex:o }",
        )
        .unwrap();
        assert_eq!(
            q.pattern().triples[0].predicate,
            Term::iri("http://example.org/p")
        );
    }

    #[test]
    fn parses_typed_and_lang_literals() {
        let q = parse_query(
            "ASK { ?x dbont:birthDate \"1952-06-07\"^^xsd:date . ?x rdfs:label \"Kar\"@tr }",
        )
        .unwrap();
        let lits: Vec<_> = q
            .pattern()
            .triples
            .iter()
            .filter_map(|t| t.object.as_literal())
            .collect();
        assert!(lits[0].is_date());
        assert_eq!(lits[1].language(), Some("tr"));
    }

    #[test]
    fn parses_negative_numbers_in_filters() {
        let q = parse_query("SELECT ?x { ?x dbont:delta ?d FILTER(?d < -5) }").unwrap();
        match &q.pattern().filters[0] {
            Expr::Cmp(_, CmpOp::Lt, rhs) => match rhs.as_ref() {
                Expr::Const(Term::Literal(l)) => assert_eq!(l.as_i64(), Some(-5)),
                other => panic!("unexpected rhs {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_query("ASK { ?s ?p ?o } nonsense").is_err());
    }

    #[test]
    fn rejects_unknown_prefix() {
        assert!(parse_query("SELECT ?x { ?x zzz:p ?o }").is_err());
    }

    #[test]
    fn rejects_literal_predicate() {
        assert!(parse_query("ASK { ?s \"p\" ?o }").is_err());
    }

    #[test]
    fn lt_operator_vs_iri_disambiguation() {
        // '<' followed by a space is a comparison, '<http...>' is an IRI.
        let q = parse_query("SELECT ?x { ?x <http://e/p> ?h FILTER(?h < 5) }").unwrap();
        assert_eq!(q.pattern().triples[0].predicate, Term::iri("http://e/p"));
        assert_eq!(q.pattern().filters.len(), 1);
    }

    fn nested_groups(levels: usize) -> String {
        format!("ASK {}{}", "{".repeat(levels), "}".repeat(levels))
    }

    /// The group and the `FILTER(...)` take two levels; `parens` more
    /// follow.
    fn nested_parens(parens: usize) -> String {
        format!("ASK {{ FILTER({}1{}) }}", "(".repeat(parens), ")".repeat(parens))
    }

    const TOO_DEEP: Result<(), SparqlError> =
        Err(SparqlError::NestingTooDeep { limit: MAX_NESTING });

    fn outcome(query: &str) -> Result<(), SparqlError> {
        parse_query(query).map(drop)
    }

    #[test]
    fn group_nesting_is_capped() {
        assert_eq!(outcome(&nested_groups(MAX_NESTING)), Ok(()));
        assert_eq!(outcome(&nested_groups(MAX_NESTING + 1)), TOO_DEEP);
    }

    #[test]
    fn expression_nesting_is_capped() {
        assert_eq!(outcome(&nested_parens(MAX_NESTING - 2)), Ok(()));
        assert_eq!(outcome(&nested_parens(MAX_NESTING - 1)), TOO_DEEP);
        let nots = |n: usize| format!("ASK {{ FILTER({}true) }}", "!".repeat(n));
        assert_eq!(outcome(&nots(MAX_NESTING - 2)), Ok(()));
        assert_eq!(outcome(&nots(MAX_NESTING - 1)), TOO_DEEP);
    }

    #[test]
    fn operator_chains_count_toward_the_cap() {
        // `1 + 1 + ... + 1` builds a left-deep tree without parser
        // recursion; each operator is one level of that tree.
        let sum = |ops: usize| format!("ASK {{ FILTER(1{} = 0) }}", " + 1".repeat(ops));
        assert_eq!(outcome(&sum(MAX_NESTING - 2)), Ok(()));
        assert_eq!(outcome(&sum(MAX_NESTING - 1)), TOO_DEEP);
        // Sibling groups and a closed chain give their levels back.
        let groups = "{ } ".repeat(4 * MAX_NESTING);
        let siblings = format!("ASK {{ {groups} FILTER(1{} = 2) }}", " + 1".repeat(8));
        assert_eq!(outcome(&siblings), Ok(()));
    }

    #[test]
    fn a_megabyte_of_nesting_is_an_error_not_a_stack_overflow() {
        let braces = format!("ASK {}", "{".repeat(1 << 20));
        assert_eq!(outcome(&braces), TOO_DEEP);
        let parens = format!("ASK {{ FILTER({}", "(".repeat(1 << 20));
        assert_eq!(outcome(&parens), TOO_DEEP);
        let err = parse_query(&braces).unwrap_err().to_string();
        assert!(err.contains(&MAX_NESTING.to_string()), "{err}");
    }
}
