//! Abstract syntax tree for the SPARQL subset.
//!
//! The subset covers what the paper's pipeline generates and what the
//! benchmark's gold queries need: `SELECT` / `ASK`, basic graph patterns,
//! `FILTER` expressions, `DISTINCT`, `ORDER BY`, `LIMIT`/`OFFSET`.

use relpat_rdf::Term;

/// A query, as the parser returns it and as the QA planner builds it.
///
/// `Eq` and `Hash` are structural. `Display` renders text that parses back
/// to an equal AST, so two queries are equal exactly when their renderings
/// are: the query cache keys on this type directly.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Query {
    Select(SelectQuery),
    Ask(AskQuery),
}

impl Query {
    /// The query's graph pattern, independent of form.
    pub fn pattern(&self) -> &GraphPattern {
        match self {
            Query::Select(q) => &q.pattern,
            Query::Ask(q) => &q.pattern,
        }
    }
}

/// `SELECT (DISTINCT)? (*|vars) WHERE { ... } (ORDER BY ...)? (LIMIT n)? (OFFSET n)?`
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SelectQuery {
    pub distinct: bool,
    pub projection: Projection,
    pub pattern: GraphPattern,
    pub order_by: Vec<OrderKey>,
    pub limit: Option<usize>,
    pub offset: Option<usize>,
}

/// `ASK { ... }`
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AskQuery {
    pub pattern: GraphPattern,
}

/// The projected variables of a `SELECT`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Projection {
    /// `SELECT *` — all variables in the pattern, in first-occurrence order.
    All,
    /// `SELECT ?a ?b`
    Vars(Vec<String>),
    /// `SELECT (COUNT(?x) AS ?c)` — the one aggregate the QA extensions
    /// need (count questions).
    Count {
        /// Counted variable; `None` for `COUNT(*)`.
        var: Option<String>,
        distinct: bool,
        /// Output column name.
        alias: String,
    },
}

/// A group graph pattern: a basic graph pattern plus filters, `OPTIONAL`
/// sub-groups and `UNION` blocks.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct GraphPattern {
    pub triples: Vec<TriplePattern>,
    pub filters: Vec<Expr>,
    /// `OPTIONAL { ... }` sub-patterns (left-joined after the BGP).
    pub optionals: Vec<GraphPattern>,
    /// `{ A } UNION { B } (UNION { C })*` blocks: each entry lists ≥ 2
    /// alternatives whose solutions are concatenated.
    pub unions: Vec<Vec<GraphPattern>>,
}

impl GraphPattern {
    /// All variable names in first-occurrence order, recursing into unions
    /// and optionals (triples first, depth-first).
    pub fn variables(&self) -> Vec<String> {
        let mut vars = Vec::new();
        self.collect_variables(&mut vars);
        vars
    }

    fn collect_variables(&self, vars: &mut Vec<String>) {
        let mut push = |term: &Term| {
            if let Term::Variable(name) = term {
                if !vars.iter().any(|v| v == name) {
                    vars.push(name.clone());
                }
            }
        };
        for t in &self.triples {
            push(&t.subject);
            push(&t.predicate);
            push(&t.object);
        }
        for alternatives in &self.unions {
            for alt in alternatives {
                alt.collect_variables(vars);
            }
        }
        for opt in &self.optionals {
            opt.collect_variables(vars);
        }
    }

    /// True when the pattern is a plain BGP + filters (no algebra).
    pub fn is_flat(&self) -> bool {
        self.optionals.is_empty() && self.unions.is_empty()
    }
}

/// A triple pattern: any position may be a variable (`Term::Variable`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TriplePattern {
    pub subject: Term,
    pub predicate: Term,
    pub object: Term,
}

impl TriplePattern {
    pub fn new(subject: Term, predicate: Term, object: Term) -> Self {
        TriplePattern { subject, predicate, object }
    }
}

impl std::fmt::Display for TriplePattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} {} .",
            relpat_rdf::render_term(&self.subject),
            relpat_rdf::render_term(&self.predicate),
            relpat_rdf::render_term(&self.object)
        )
    }
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OrderKey {
    pub expr: Expr,
    pub descending: bool,
}

/// Filter/order expressions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    Var(String),
    Const(Term),
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    Arith(Box<Expr>, ArithOp, Box<Expr>),
    /// `regex(expr, "pattern" (, "i")?)` — see executor docs for the
    /// supported pattern subset.
    Regex { value: Box<Expr>, pattern: String, case_insensitive: bool },
    /// `lang(expr)`
    Lang(Box<Expr>),
    /// `datatype(expr)`
    Datatype(Box<Expr>),
    /// `str(expr)`
    Str(Box<Expr>),
    /// `bound(?v)`
    Bound(String),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variables_in_first_occurrence_order() {
        let gp = GraphPattern {
            triples: vec![
                TriplePattern::new(Term::var("x"), Term::iri("p"), Term::var("y")),
                TriplePattern::new(Term::var("y"), Term::iri("q"), Term::var("x")),
            ],
            ..GraphPattern::default()
        };
        assert_eq!(gp.variables(), vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn triple_pattern_display_uses_prefixes() {
        let tp = TriplePattern::new(
            Term::var("x"),
            Term::iri(relpat_rdf::vocab::rdf::TYPE),
            Term::iri(relpat_rdf::vocab::dbont::iri("Book")),
        );
        assert_eq!(tp.to_string(), "?x rdf:type dbont:Book .");
    }

    #[test]
    fn query_pattern_accessor() {
        let gp = GraphPattern::default();
        let q = Query::Ask(AskQuery { pattern: gp.clone() });
        assert_eq!(q.pattern(), &gp);
    }
}
