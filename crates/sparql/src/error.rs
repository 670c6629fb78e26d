//! Error type for the SPARQL layer.

use std::fmt;

/// Errors from parsing or evaluating a SPARQL query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparqlError {
    /// Syntax error in the query text.
    Parse(String),
    /// Runtime evaluation error (type errors, unbound variables in
    /// expressions, division by zero). Inside `FILTER` these remove the row
    /// rather than failing the query, per SPARQL error semantics.
    Eval(String),
    /// A [`QueryResult`](crate::QueryResult) of the wrong kind was consumed
    /// — an `ASK` result read as solutions, or a `SELECT` result read as a
    /// boolean.
    ResultKind { expected: &'static str, got: &'static str },
    /// The query nests groups and expressions deeper than `limit` levels.
    /// The parser refuses it rather than recurse without bound: one
    /// request of a megabyte of `{` must not overflow the stack.
    NestingTooDeep { limit: usize },
}

impl SparqlError {
    pub(crate) fn parse(message: impl Into<String>) -> Self {
        SparqlError::Parse(message.into())
    }

    pub(crate) fn eval(message: impl Into<String>) -> Self {
        SparqlError::Eval(message.into())
    }
}

impl fmt::Display for SparqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparqlError::Parse(m) => write!(f, "SPARQL parse error: {m}"),
            SparqlError::Eval(m) => write!(f, "SPARQL evaluation error: {m}"),
            SparqlError::ResultKind { expected, got } => {
                write!(f, "SPARQL result kind mismatch: expected {expected}, got {got}")
            }
            SparqlError::NestingTooDeep { limit } => {
                write!(f, "SPARQL parse error: groups and expressions nest deeper than {limit}")
            }
        }
    }
}

impl std::error::Error for SparqlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert!(SparqlError::parse("x").to_string().contains("parse"));
        assert!(SparqlError::eval("y").to_string().contains("evaluation"));
    }
}
