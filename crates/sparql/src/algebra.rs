//! Query algebra: the lowered, planner-annotated form of a parsed query.
//!
//! [`crate::ast`] stays the pure parse tree; this module lowers a
//! [`GraphPattern`] against a concrete [`Graph`] into an [`Algebra`] tree
//! (spargebra-style separation: Bgp / Union / LeftJoin / Filter / Slice)
//! whose BGP leaves carry the planner's decisions — join order, index
//! estimates, selectivity scores and the join operator per step — and each
//! step resolved once: its concrete terms as graph ids, each variable
//! position's binding-row column, and whether a concrete term is missing
//! from the graph (a dead step). The planner resolves and estimates every
//! pattern once; a greedy round only recounts its bound variables. The
//! executor ([`crate::execute`]) interprets this tree; it never re-plans,
//! and never looks a term or a variable name up again.
//!
//! ## Operator selection
//!
//! The greedy planner orders each BGP by ascending selectivity score
//! exactly as before; what is new is the per-step [`JoinAlgo`] annotation:
//!
//! - **Merge** — chosen when exactly one of the step's variables is already
//!   bound by earlier steps *and* the binding stream is sorted on that
//!   variable. The first step of the top-level BGP emits rows in its routed
//!   permutation's order, i.e. sorted by the scan's sort-major free position
//!   ([`relpat_rdf::sort_major_position`]); every operator preserves input
//!   row order, so that sortedness survives the whole join pipeline. With
//!   one varying component, consecutive permuted probe keys are
//!   monotonically non-decreasing, and one forward cursor over the sorted
//!   permutation slice finds every key's range without restarting the
//!   search.
//! - **Gallop** — chosen for any other step with at least one bound
//!   variable (and for bound-variable-free cartesian steps, which collapse
//!   to a single probe key): probe keys are deduplicated + sorted, then
//!   each distinct key's slice is located once by an exponential search
//!   forward from the previous key's slice.
//! - **Nested** — everything else, and the hard fallback: the first step,
//!   dead patterns (a concrete term missing from the graph), any BGP below
//!   a UNION/OPTIONAL (whose runtime bindings may bind variables this
//!   lowering did not model, or bind them non-uniformly after a left join),
//!   and — downgraded at run time — the final step of a LIMIT/ASK pushdown,
//!   which must stop mid-slice.
//!
//! Merge and gallop both count each distinct key's range once toward
//! `sparql.rows_scanned`, which is exactly the probe work they do — and
//! never more than the nested loop's per-row rescans.
//!
//! ## Bound expressions
//!
//! Lowering also binds every FILTER expression to the binding-row layout
//! ([`BoundExpr`]): a variable becomes its column, a variable the pattern
//! never binds becomes a constant evaluation error, and a constant carries
//! its [`TermValue`] resolved once. Rows then evaluate against column
//! indexes and the graph's value column, never against variable names.

use std::cmp::Ordering;

use relpat_obs::JoinAlgo;
use relpat_rdf::{sort_major_position, Graph, IdPattern, Term, TermValue};

use crate::ast::{ArithOp, CmpOp, Expr, GraphPattern, Query, TriplePattern};

/// One planner-annotated join step of a BGP, in execution order, resolved
/// against the graph and the binding-row layout once: the executor reads
/// its ids and columns and never looks a term or a variable name up.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedStep {
    /// Index of the pattern in the source BGP (source order).
    pub pattern_index: usize,
    /// The triple pattern itself.
    pub pattern: TriplePattern,
    /// The pattern's concrete positions as graph ids; variables stay `None`.
    pub ids: IdPattern,
    /// The binding-row column of each variable position (subject,
    /// predicate, object); `None` at a concrete position.
    pub columns: [Option<usize>; 3],
    /// A concrete term does not occur in the graph: the step matches
    /// nothing.
    pub dead: bool,
    /// Exact index estimate at choice time (`graph.estimate()` over the
    /// pattern's concrete positions).
    pub estimate: usize,
    /// Selectivity-adjusted score the planner ranked by:
    /// `estimate / 10^(bound variable positions)`.
    pub score: f64,
    /// Join operator selected for this step (the executor may still
    /// downgrade to nested at run time).
    pub algo: JoinAlgo,
}

/// Algebra nodes, lowered from [`GraphPattern`]. `input` edges point at the
/// upstream producer: the tree is executed bottom-up from its BGP leaf.
#[derive(Debug, Clone, PartialEq)]
pub enum Algebra {
    /// Basic graph pattern join, steps in planned execution order.
    Bgp(Vec<PlannedStep>),
    /// One `UNION` block: `input`'s rows joined against each alternative,
    /// solutions concatenated in alternative order.
    Union { input: Box<Algebra>, alternatives: Vec<Algebra> },
    /// One `OPTIONAL`: left join of `input`'s rows against `right` — rows
    /// without a match survive unextended.
    LeftJoin { input: Box<Algebra>, right: Box<Algebra> },
    /// Group filters applied to `input`'s rows (erroring filters drop the
    /// row, per SPARQL error semantics).
    Filter { input: Box<Algebra>, exprs: Vec<BoundExpr> },
    /// Bare-LIMIT / ASK early-stop cap. Only ever wraps the root; the
    /// executor pushes the cap into the join loop when `input` is a bare
    /// [`Algebra::Bgp`] and truncates after evaluation otherwise.
    Slice { input: Box<Algebra>, limit: usize },
}

/// An [`Expr`] bound to one query's binding-row layout, once per query.
/// Evaluating it over a row reads columns and the graph's value column; the
/// operators mirror [`Expr`]'s.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// A variable: the binding-row column it lives in.
    Col(usize),
    /// A constant term with its FILTER value resolved once.
    Const(Term, TermValue),
    /// A variable the pattern never binds: an evaluation error on every row.
    Unbindable,
    Cmp(Box<BoundExpr>, CmpOp, Box<BoundExpr>),
    And(Box<BoundExpr>, Box<BoundExpr>),
    Or(Box<BoundExpr>, Box<BoundExpr>),
    Not(Box<BoundExpr>),
    Arith(Box<BoundExpr>, ArithOp, Box<BoundExpr>),
    Regex { value: Box<BoundExpr>, pattern: String, case_insensitive: bool },
    Lang(Box<BoundExpr>),
    Datatype(Box<BoundExpr>),
    Str(Box<BoundExpr>),
    /// `bound(?v)` over the variable's column.
    Bound(usize),
}

impl BoundExpr {
    /// Binds `expr` to the row layout `variables` (column `i` holds
    /// `variables[i]`).
    pub fn bind(expr: &Expr, variables: &[String]) -> BoundExpr {
        let bind = |e: &Expr| Box::new(BoundExpr::bind(e, variables));
        let column = |v: &String| column(variables, v);
        match expr {
            Expr::Var(v) => column(v).map_or(BoundExpr::Unbindable, BoundExpr::Col),
            Expr::Const(term) => BoundExpr::Const(term.clone(), TermValue::of(term)),
            Expr::Cmp(l, op, r) => BoundExpr::Cmp(bind(l), *op, bind(r)),
            Expr::And(l, r) => BoundExpr::And(bind(l), bind(r)),
            Expr::Or(l, r) => BoundExpr::Or(bind(l), bind(r)),
            Expr::Not(inner) => BoundExpr::Not(bind(inner)),
            Expr::Arith(l, op, r) => BoundExpr::Arith(bind(l), *op, bind(r)),
            Expr::Regex { value, pattern, case_insensitive } => BoundExpr::Regex {
                value: bind(value),
                pattern: pattern.clone(),
                case_insensitive: *case_insensitive,
            },
            Expr::Lang(inner) => BoundExpr::Lang(bind(inner)),
            Expr::Datatype(inner) => BoundExpr::Datatype(bind(inner)),
            Expr::Str(inner) => BoundExpr::Str(bind(inner)),
            Expr::Bound(v) => column(v).map_or(BoundExpr::Unbindable, BoundExpr::Bound),
        }
    }
}

/// Lowering options. `force_nested` pins every step to the nested-loop
/// operator — the differential oracle (`execute_nested`, the nested-loop
/// twin of [`crate::execute`]) and the benchmark baselines use it to compare
/// operators on identical join orders.
#[derive(Debug, Clone, Copy, Default)]
pub struct LowerOpts {
    pub force_nested: bool,
}

/// A graph pattern lowered against a specific graph: the algebra tree plus
/// the variable universe its binding rows are indexed by.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedPattern {
    pub root: Algebra,
    /// All pattern variables in first-occurrence order — the column layout
    /// of every binding row the tree's operators produce.
    pub variables: Vec<String>,
}

/// Lowers a query's pattern with default options (sorted-aware operators
/// enabled). `limit` is the bare-LIMIT/ASK early-stop request, which
/// becomes a root [`Algebra::Slice`].
pub fn lower(graph: &Graph, query: &Query, limit: Option<usize>) -> PlannedPattern {
    lower_pattern(graph, query.pattern(), limit, LowerOpts::default())
}

/// Lowers a graph pattern against `graph`. See [`LowerOpts`].
pub fn lower_pattern(
    graph: &Graph,
    pattern: &GraphPattern,
    limit: Option<usize>,
    opts: LowerOpts,
) -> PlannedPattern {
    let variables = pattern.variables();
    let mut root = lower_group(graph, pattern, &variables, true, opts);
    if let Some(limit) = limit {
        root = Algebra::Slice { input: Box::new(root), limit };
    }
    PlannedPattern { root, variables }
}

/// The column of variable `v` in the row layout `variables`.
fn column(variables: &[String], v: &str) -> Option<usize> {
    variables.iter().position(|x| x == v)
}

fn lower_group(
    graph: &Graph,
    gp: &GraphPattern,
    variables: &[String],
    top_level: bool,
    opts: LowerOpts,
) -> Algebra {
    // Sorted-aware operators are only sound for the top-level BGP: it alone
    // starts from the single all-unbound row, so the planner's bound-variable
    // progression matches the runtime binding shape exactly. Sub-group BGPs
    // (UNION alternatives, OPTIONAL bodies) receive correlated bindings the
    // lowering does not model — possibly non-uniform after a left join —
    // and stay on the nested fallback.
    let sorted_aware = top_level && !opts.force_nested;
    let mut node = Algebra::Bgp(plan_bgp(graph, &gp.triples, variables, sorted_aware));
    for alternatives in &gp.unions {
        node = Algebra::Union {
            input: Box::new(node),
            alternatives: alternatives
                .iter()
                .map(|alt| lower_group(graph, alt, variables, false, opts))
                .collect(),
        };
    }
    for opt in &gp.optionals {
        node = Algebra::LeftJoin {
            input: Box::new(node),
            right: Box::new(lower_group(graph, opt, variables, false, opts)),
        };
    }
    if !gp.filters.is_empty() {
        let exprs = gp.filters.iter().map(|f| BoundExpr::bind(f, variables)).collect();
        node = Algebra::Filter { input: Box::new(node), exprs };
    }
    node
}

/// Resolves a pattern against the graph and the row layout: its concrete
/// ids, each variable position's column, and whether it is dead.
fn resolve(
    graph: &Graph,
    tp: &TriplePattern,
    variables: &[String],
) -> (IdPattern, [Option<usize>; 3], bool) {
    let mut ids = [None; 3];
    let mut columns = [None; 3];
    let mut dead = false;
    for (pos, term) in [&tp.subject, &tp.predicate, &tp.object].into_iter().enumerate() {
        match term {
            Term::Variable(v) => columns[pos] = column(variables, v),
            concrete => match graph.term_id(concrete) {
                Some(id) => ids[pos] = Some(id),
                None => dead = true,
            },
        }
    }
    let [subject, predicate, object] = ids;
    (IdPattern { subject, predicate, object }, columns, dead)
}

/// Greedy join ordering: repeatedly pick the pattern with the fewest
/// estimated matches, treating variables already bound by chosen patterns
/// as bound positions. Each pattern is resolved and estimated once; a
/// round only recounts its bound positions. When `sorted_aware`, annotate
/// each step with the merge/gallop operator per the module-level selection
/// rule; otherwise every step stays nested.
pub(crate) fn plan_bgp(
    graph: &Graph,
    triples: &[TriplePattern],
    variables: &[String],
    sorted_aware: bool,
) -> Vec<PlannedStep> {
    let mut candidates: Vec<PlannedStep> = triples
        .iter()
        .enumerate()
        .map(|(pattern_index, tp)| {
            let (ids, columns, dead) = resolve(graph, tp, variables);
            PlannedStep {
                pattern_index,
                pattern: tp.clone(),
                ids,
                columns,
                dead,
                // A dead pattern matches nothing: it scores 0 and runs first
                // to prune immediately.
                estimate: if dead { 0 } else { graph.estimate(ids) },
                score: 0.0,
                algo: JoinAlgo::Nested,
            }
        })
        .collect();
    let mut chosen: Vec<PlannedStep> = Vec::with_capacity(candidates.len());
    let mut bound_vars = vec![false; variables.len()];
    // The variable the binding stream is sorted by (established by the
    // first step's scan order, preserved by every order-preserving step).
    let mut sorted_var: Option<usize> = None;

    while !candidates.is_empty() {
        // Bound variables divide the estimate, each roughly one order of
        // magnitude; unbound variables keep it unchanged.
        let score = |step: &PlannedStep| {
            let bound = step.columns.iter().flatten().filter(|&&c| bound_vars[c]).count();
            step.estimate as f64 / 10f64.powi(bound as i32)
        };
        let (best_pos, best_score) = candidates
            .iter()
            .map(score)
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(Ordering::Equal))
            .expect("candidates is non-empty");
        let mut step = candidates.swap_remove(best_pos);
        step.score = best_score;

        step.algo = if !sorted_aware || step.dead {
            JoinAlgo::Nested
        } else if chosen.is_empty() {
            // First step: one scan for the single initial row. Record what
            // the emitted rows will be sorted by.
            if let Some(pos) = sort_major_position(step.ids) {
                sorted_var = step.columns[pos];
            }
            JoinAlgo::Nested
        } else {
            let mut bound_in_binding: Vec<usize> = Vec::new();
            for &c in step.columns.iter().flatten() {
                if bound_vars[c] && !bound_in_binding.contains(&c) {
                    bound_in_binding.push(c);
                }
            }
            match bound_in_binding.as_slice() {
                [only] if sorted_var == Some(*only) => JoinAlgo::Merge,
                _ => JoinAlgo::Gallop,
            }
        };

        for &c in step.columns.iter().flatten() {
            bound_vars[c] = true;
        }
        chosen.push(step);
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use relpat_rdf::vocab::{dbont, rdf, res};
    use relpat_rdf::{GraphBuilder, Term};

    fn library() -> Graph {
        let mut g = GraphBuilder::new();
        let ty = Term::iri(rdf::TYPE);
        let book = Term::iri(dbont::iri("Book"));
        let writer = Term::iri(dbont::iri("writer"));
        let pamuk = Term::iri(res::iri("Orhan Pamuk"));
        for title in ["Snow", "My Name Is Red", "The White Castle"] {
            let b = Term::iri(res::iri(title));
            g.add(b.clone(), ty.clone(), book.clone());
            g.add(b, writer.clone(), pamuk.clone());
        }
        g.build()
    }

    fn vars(names: &[&str]) -> Vec<String> {
        names.iter().map(|v| v.to_string()).collect()
    }

    #[test]
    fn plan_orders_selective_patterns_first() {
        let g = library();
        let tps = vec![
            TriplePattern::new(Term::var("x"), Term::var("p"), Term::var("o")),
            TriplePattern::new(
                Term::var("x"),
                Term::iri(dbont::iri("writer")),
                Term::iri(res::iri("Orhan Pamuk")),
            ),
        ];
        let order = plan_bgp(&g, &tps, &vars(&["x", "p", "o"]), true);
        assert_eq!(order[0].pattern_index, 1, "selective pattern should run first");
        assert!(order[0].estimate > 0, "chosen step records the planner's index estimate");
        assert!(
            order[1].score < order[1].estimate as f64,
            "the open scan is re-scored with ?x bound by the first step"
        );
    }

    #[test]
    fn second_step_on_the_sorted_variable_is_a_merge() {
        let g = library();
        // Step 0 routes (?x, type, Book) to POS — rows sorted by subject ?x.
        // Step 1 binds only ?x, so its probe keys arrive sorted: merge.
        let tps = vec![
            TriplePattern::new(Term::var("x"), Term::iri(rdf::TYPE), Term::iri(dbont::iri("Book"))),
            TriplePattern::new(
                Term::var("x"),
                Term::iri(dbont::iri("writer")),
                Term::iri(res::iri("Orhan Pamuk")),
            ),
        ];
        let order = plan_bgp(&g, &tps, &vars(&["x"]), true);
        assert_eq!(order[0].algo, JoinAlgo::Nested, "first step is always a plain scan");
        assert_eq!(order[1].algo, JoinAlgo::Merge);
        // With sorted-awareness off (the oracle), both steps stay nested.
        let forced = plan_bgp(&g, &tps, &vars(&["x"]), false);
        assert!(forced.iter().all(|s| s.algo == JoinAlgo::Nested));
    }

    #[test]
    fn unsorted_join_variable_gallops() {
        let g = library();
        // Step 0 scans (?b, writer, ?w): POS order sorts rows by object ?w
        // first — wait, POS key is (p, o, s), so rows sort by ?w then ?b.
        // Step 1 joins on ?b, which is NOT the sort-major variable: gallop.
        let tps = vec![
            TriplePattern::new(Term::var("b"), Term::iri(dbont::iri("writer")), Term::var("w")),
            TriplePattern::new(Term::var("b"), Term::iri(rdf::TYPE), Term::iri(dbont::iri("Book"))),
        ];
        let order = plan_bgp(&g, &tps, &vars(&["b", "w"]), true);
        // Both patterns estimate 3; tie keeps source order (writer first).
        assert_eq!(order[0].pattern_index, 0);
        assert_eq!(order[1].algo, JoinAlgo::Gallop, "join variable ?b is not sort-major");
    }

    #[test]
    fn two_bound_variables_gallop() {
        let g = library();
        let tps = vec![
            TriplePattern::new(Term::var("b"), Term::iri(rdf::TYPE), Term::iri(dbont::iri("Book"))),
            TriplePattern::new(Term::var("b"), Term::iri(dbont::iri("writer")), Term::var("w")),
            TriplePattern::new(Term::var("b"), Term::var("p"), Term::var("w")),
        ];
        let order = plan_bgp(&g, &tps, &vars(&["b", "w", "p"]), true);
        let last = order.last().unwrap();
        assert_eq!(last.pattern_index, 2, "least selective pattern runs last");
        assert_eq!(last.algo, JoinAlgo::Gallop, "two bound variables cannot merge");
    }

    #[test]
    fn lowering_wraps_bgp_in_filter_and_slice() {
        let g = library();
        let gp = GraphPattern {
            triples: vec![TriplePattern::new(
                Term::var("x"),
                Term::iri(rdf::TYPE),
                Term::iri(dbont::iri("Book")),
            )],
            filters: vec![Expr::Bound("x".into())],
            ..GraphPattern::default()
        };
        let planned = lower_pattern(&g, &gp, Some(5), LowerOpts::default());
        assert_eq!(planned.variables, vec!["x".to_string()]);
        let Algebra::Slice { input, limit: 5 } = &planned.root else {
            panic!("limit lowers to a root Slice: {:?}", planned.root)
        };
        let Algebra::Filter { input, exprs } = &**input else { panic!("filters wrap the BGP") };
        assert_eq!(exprs.len(), 1);
        assert!(matches!(&**input, Algebra::Bgp(steps) if steps.len() == 1));
    }

    #[test]
    fn union_and_optional_sub_groups_stay_nested() {
        let g = library();
        let join = |s: &str| {
            GraphPattern {
                triples: vec![TriplePattern::new(
                    Term::var("x"),
                    Term::iri(dbont::iri(s)),
                    Term::iri(res::iri("Orhan Pamuk")),
                )],
                ..GraphPattern::default()
            }
        };
        let gp = GraphPattern {
            triples: vec![TriplePattern::new(
                Term::var("x"),
                Term::iri(rdf::TYPE),
                Term::iri(dbont::iri("Book")),
            )],
            unions: vec![vec![join("writer"), join("author")]],
            optionals: vec![join("writer")],
            ..GraphPattern::default()
        };
        let planned = lower_pattern(&g, &gp, None, LowerOpts::default());
        let Algebra::LeftJoin { input, right } = &planned.root else { panic!("optional at root") };
        let Algebra::Union { input: _, alternatives } = &**input else { panic!("union below") };
        let all_nested = |node: &Algebra| {
            let Algebra::Bgp(steps) = node else { panic!("sub-groups lower to Bgp leaves") };
            steps.iter().all(|s| s.algo == JoinAlgo::Nested)
        };
        assert!(alternatives.iter().all(all_nested));
        assert!(all_nested(right));
    }
}
