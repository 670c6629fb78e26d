//! Query executor over the lowered algebra.
//!
//! Evaluation pipeline: lower the parsed pattern into a planner-annotated
//! [`Algebra`] tree ([`crate::algebra`]: greedy selectivity ordering with
//! exact O(log n) index estimates, plus a join operator per step) →
//! interpret the tree bottom-up, joining each BGP step with the operator
//! the planner chose — sort-merge intersection when the binding stream is
//! sorted on the join variable, batched galloping probes otherwise, the
//! row-at-a-time nested loop as fallback — stopping mid-join for
//! bare-LIMIT/ASK queries → apply filters → ORDER BY (a sorted row-index
//! permutation) → project → DISTINCT (hash dedup) → OFFSET/LIMIT → one
//! materialization into shared [`Rows`]. Everything before the last step
//! runs in id space; FILTER and ORDER BY expressions are bound once per
//! query ([`BoundExpr`]), read each row's typed values from the graph's
//! value column, and reach a term only through a borrowed [`Value`].

use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Range;
use std::time::Instant;

use relpat_rdf::{Graph, IdPattern, Term, TermId, TermValue};
use relpat_obs::fx::{FxHashMap, FxHashSet};
use relpat_obs::{JoinAlgo, PlanStep, PlanTrace};

use crate::algebra::{lower_pattern, Algebra, BoundExpr, LowerOpts, PlannedStep};
use crate::ast::{ArithOp, CmpOp, GraphPattern, Projection, Query, SelectQuery, TriplePattern};
use crate::error::SparqlError;
use crate::results::{Rows, Solutions};

/// Result of executing a [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    Solutions(Solutions),
    Boolean(bool),
}

impl QueryResult {
    /// The solutions of a `SELECT`; fails with
    /// [`SparqlError::ResultKind`] on an `ASK` result. Library code must
    /// never panic on a kind mismatch — whether a query is `SELECT` or
    /// `ASK` is ultimately caller input (it can arrive over HTTP), so the
    /// mismatch is an error value to route, not a process abort.
    pub fn into_solutions(self) -> Result<Solutions, SparqlError> {
        match self {
            QueryResult::Solutions(s) => Ok(s),
            QueryResult::Boolean(_) => {
                Err(SparqlError::ResultKind { expected: "solutions", got: "boolean" })
            }
        }
    }

    /// The boolean of an `ASK`; fails with [`SparqlError::ResultKind`] on a
    /// `SELECT` result.
    pub fn into_boolean(self) -> Result<bool, SparqlError> {
        match self {
            QueryResult::Boolean(b) => Ok(b),
            QueryResult::Solutions(_) => {
                Err(SparqlError::ResultKind { expected: "boolean", got: "solutions" })
            }
        }
    }

    /// Borrowing view of the solutions, `None` on an `ASK` result.
    pub fn as_solutions(&self) -> Option<&Solutions> {
        match self {
            QueryResult::Solutions(s) => Some(s),
            QueryResult::Boolean(_) => None,
        }
    }

    /// The boolean of an `ASK`, `None` on a `SELECT` result.
    pub fn as_boolean(&self) -> Option<bool> {
        match self {
            QueryResult::Boolean(b) => Some(*b),
            QueryResult::Solutions(_) => None,
        }
    }
}

/// Executes a parsed query against a graph.
///
/// Each call increments `sparql.queries`, adds produced rows to
/// `sparql.solutions` and records its latency in the `sparql.execute`
/// histogram on the global [`relpat_obs`] registry (no-ops when disabled).
pub fn execute(graph: &Graph, query: &Query) -> Result<QueryResult, SparqlError> {
    execute_inner(graph, query, None, LowerOpts::default())
}

/// Nested-loop-only execution: plans the same join order as [`execute`] but
/// pins every step to the nested fallback operator. The differential test
/// suite uses it as the oracle the sorted operators must match bit-for-bit,
/// and the scaling benchmark as the baseline they must beat. Not part of the
/// supported API surface.
#[doc(hidden)]
pub fn execute_nested(graph: &Graph, query: &Query) -> Result<QueryResult, SparqlError> {
    execute_inner(graph, query, None, LowerOpts { force_nested: true })
}

/// [`execute_nested`] with plan-trace collection.
#[doc(hidden)]
pub fn execute_nested_traced(
    graph: &Graph,
    query: &Query,
) -> Result<(QueryResult, PlanTrace), SparqlError> {
    let mut trace = PlanTrace::default();
    let result = execute_inner(graph, query, Some(&mut trace), LowerOpts { force_nested: true })?;
    Ok((result, trace))
}

/// Parse + [`execute_nested`] in one step.
#[doc(hidden)]
pub fn query_nested(graph: &Graph, text: &str) -> Result<QueryResult, SparqlError> {
    let parsed = crate::parser::parse_query(text)?;
    execute_nested(graph, &parsed)
}

/// [`execute`] with EXPLAIN ANALYZE collection: returns the result together
/// with a [`PlanTrace`] recording, per join step, the planner's prediction
/// (index estimate, selectivity score, chosen order) against measured
/// reality (rows scanned, bindings emitted, nanoseconds, pushdown). The
/// untraced [`execute`] path shares the same code with the trace parameter
/// `None`, paying nothing per step.
pub fn execute_traced(graph: &Graph, query: &Query) -> Result<(QueryResult, PlanTrace), SparqlError> {
    let mut trace = PlanTrace::default();
    let result = execute_inner(graph, query, Some(&mut trace), LowerOpts::default())?;
    Ok((result, trace))
}

fn execute_inner(
    graph: &Graph,
    query: &Query,
    trace: Option<&mut PlanTrace>,
    opts: LowerOpts,
) -> Result<QueryResult, SparqlError> {
    let _timer = relpat_obs::span!("sparql.execute");
    relpat_obs::counter!("sparql.queries");
    match query {
        Query::Select(sel) => {
            let sols = execute_select(graph, sel, trace, opts)?;
            relpat_obs::counter!("sparql.solutions", sols.rows.len() as u64);
            Ok(QueryResult::Solutions(sols))
        }
        Query::Ask(ask) => {
            let bindings = evaluate_pattern(graph, &ask.pattern, Some(1), trace, opts)?;
            Ok(QueryResult::Boolean(!bindings.table.is_empty()))
        }
    }
}

/// Parses and executes in one step.
pub fn query(graph: &Graph, text: &str) -> Result<QueryResult, SparqlError> {
    let parsed = crate::parser::parse_query(text)?;
    execute(graph, &parsed)
}

/// Parses and executes with plan-trace collection (see [`execute_traced`]).
pub fn query_traced(graph: &Graph, text: &str) -> Result<(QueryResult, PlanTrace), SparqlError> {
    let parsed = crate::parser::parse_query(text)?;
    execute_traced(graph, &parsed)
}

fn execute_select(
    graph: &Graph,
    sel: &SelectQuery,
    trace: Option<&mut PlanTrace>,
    opts: LowerOpts,
) -> Result<Solutions, SparqlError> {
    // ORDER BY/OFFSET/LIMIT prevent early termination; only a bare LIMIT
    // (no ordering, no offset, no DISTINCT) can stop the BGP scan early.
    let early_stop = if sel.order_by.is_empty()
        && sel.offset.is_none()
        && !sel.distinct
        && !matches!(sel.projection, Projection::Count { .. })
    {
        sel.limit
    } else {
        None
    };
    let Evaluated { variables: pattern_vars, table } =
        evaluate_pattern(graph, &sel.pattern, early_stop, trace, opts)?;

    // Aggregate projection: COUNT collapses the solution sequence to one row,
    // which then passes through the same OFFSET/LIMIT window as any other
    // result. Runs entirely in id space — interning is injective, so
    // distinctness of ids is distinctness of terms.
    if let Projection::Count { var, distinct, alias } = &sel.projection {
        let n = match var {
            None => table.len(),
            Some(v) => {
                let Some(col) = pattern_vars.iter().position(|pv| pv == v) else {
                    return Err(SparqlError::eval(format!("COUNT of unknown variable ?{v}")));
                };
                let mut bound: Vec<TermId> = table.iter().filter_map(|r| r[col]).collect();
                if *distinct {
                    bound.sort_unstable();
                    bound.dedup();
                }
                bound.len()
            }
        };
        let kept = window(sel, 1).len();
        let count = Term::Literal(relpat_rdf::Literal::integer(n as i64));
        return Ok(Solutions {
            variables: vec![alias.clone()],
            rows: Rows::new(1, kept, std::iter::repeat_n(Some(count), kept).collect()),
        });
    }

    let out_vars: Vec<String> = match &sel.projection {
        Projection::All => pattern_vars.clone(),
        Projection::Vars(vars) => vars.clone(),
        // Handled by the aggregate branch above.
        Projection::Count { .. } => unreachable!("COUNT projection returns early"),
    };
    let positions: Vec<Option<usize>> = out_vars
        .iter()
        .map(|v| pattern_vars.iter().position(|pv| pv == v))
        .collect();

    // ORDER BY sorts a permutation of row indices, not rows: every key is
    // bound once, evaluated once per row into one flat buffer of borrowed
    // values, and the stable sort keeps equal keys in solution order.
    let order: Option<Vec<usize>> = (!sel.order_by.is_empty()).then(|| {
        let columns: FxHashMap<&str, usize> =
            pattern_vars.iter().enumerate().map(|(i, v)| (v.as_str(), i)).collect();
        let order_keys: Vec<BoundExpr> =
            sel.order_by.iter().map(|k| BoundExpr::bind(&k.expr, &columns)).collect();
        let width = sel.order_by.len();
        let mut keys: Vec<Option<Value<'_>>> = Vec::with_capacity(table.len() * width);
        for row in table.iter() {
            keys.extend(order_keys.iter().map(|k| eval(k, row, graph)));
        }
        let mut order: Vec<usize> = (0..table.len()).collect();
        order.sort_by(|&a, &b| {
            for (i, key) in sel.order_by.iter().enumerate() {
                let ord = compare_values(&keys[a * width + i], &keys[b * width + i]);
                let ord = if key.descending { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        order
    });

    // Id-space projection in output order: copying column ids, never terms.
    let width = out_vars.len();
    let mut projected = IdTable::new(width);
    projected.data.reserve(table.len() * width);
    for i in 0..table.len() {
        let row = table.row(order.as_ref().map_or(i, |o| o[i]));
        projected.data.extend(positions.iter().map(|p| p.and_then(|c| row[c])));
        projected.rows += 1;
    }

    if sel.distinct {
        // Stable dedup on id rows, first occurrence wins: hashing borrowed
        // slices of a few u32s.
        projected = {
            let mut seen: FxHashSet<&[Option<TermId>]> = FxHashSet::default();
            seen.reserve(projected.len());
            let mut unique = IdTable::new(width);
            for row in projected.iter() {
                if seen.insert(row) {
                    unique.push(row);
                }
            }
            unique
        };
    }

    // The single materialization point: OFFSET/LIMIT pick the output window
    // in id space, then each surviving cell costs one refcount bump into
    // one shared allocation for the whole table.
    let kept = window(sel, projected.len());
    let cells = projected.data[kept.start * width..kept.end * width]
        .iter()
        .map(|id| id.map(|t| graph.term(t).clone()))
        .collect();
    Ok(Solutions { variables: out_vars, rows: Rows::new(width, kept.len(), cells) })
}

/// The rows OFFSET/LIMIT keep out of `len`.
fn window(sel: &SelectQuery, len: usize) -> Range<usize> {
    let lo = sel.offset.unwrap_or(0).min(len);
    let hi = sel.limit.map_or(len, |l| lo.saturating_add(l).min(len));
    lo..hi
}

/// Row-major table of variable bindings in id space: `width` columns per
/// row, every row a contiguous stripe of one shared allocation. The join
/// pipeline appends, filters and truncates rows without allocating per row —
/// at the million-triple tier the per-row `Vec` boxes this replaces cost more
/// than the probe searches themselves, burying the operator win under
/// allocator traffic. The row count is tracked explicitly because fully
/// concrete ASK patterns produce zero-width rows.
#[derive(Debug, Clone)]
struct IdTable {
    width: usize,
    rows: usize,
    data: Vec<Option<TermId>>,
}

impl IdTable {
    fn new(width: usize) -> Self {
        IdTable { width, rows: 0, data: Vec::new() }
    }

    /// One row with every column unbound — the seed every evaluation starts
    /// from.
    fn unit(width: usize) -> Self {
        IdTable { width, rows: 1, data: vec![None; width] }
    }

    /// A one-row table copied from an existing row (OPTIONAL evaluates its
    /// right side once per left row).
    fn single(width: usize, row: &[Option<TermId>]) -> Self {
        debug_assert_eq!(row.len(), width);
        IdTable { width, rows: 1, data: row.to_vec() }
    }

    fn len(&self) -> usize {
        self.rows
    }

    fn is_empty(&self) -> bool {
        self.rows == 0
    }

    fn row(&self, i: usize) -> &[Option<TermId>] {
        &self.data[i * self.width..(i + 1) * self.width]
    }

    fn iter(&self) -> impl Iterator<Item = &[Option<TermId>]> {
        (0..self.rows).map(move |i| &self.data[i * self.width..(i + 1) * self.width])
    }

    /// Makes room for `rows` more rows, so a join step whose output size is
    /// known before it writes allocates once instead of doubling from empty.
    fn reserve(&mut self, rows: usize) {
        self.data.reserve(rows * self.width);
    }

    fn push(&mut self, row: &[Option<TermId>]) {
        debug_assert_eq!(row.len(), self.width);
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    fn append(&mut self, other: &IdTable) {
        debug_assert_eq!(other.width, self.width);
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
    }

    fn truncate(&mut self, n: usize) {
        if n < self.rows {
            self.data.truncate(n * self.width);
            self.rows = n;
        }
    }

    /// Keeps only rows satisfying `keep`, compacting in place.
    fn retain(&mut self, mut keep: impl FnMut(&[Option<TermId>]) -> bool) {
        let width = self.width;
        let mut kept = 0usize;
        for i in 0..self.rows {
            let start = i * width;
            if keep(&self.data[start..start + width]) {
                if kept != i {
                    self.data.copy_within(start..start + width, kept * width);
                }
                kept += 1;
            }
        }
        self.truncate(kept);
    }
}

/// Id-level bindings produced by BGP + filter evaluation. Terms are only
/// materialized after projection and slicing, so each emitted cell pays for
/// exactly one refcount bump and dropped columns pay nothing.
struct Evaluated {
    variables: Vec<String>,
    table: IdTable,
}

fn evaluate_pattern(
    graph: &Graph,
    pattern: &GraphPattern,
    early_stop: Option<usize>,
    trace: Option<&mut PlanTrace>,
    opts: LowerOpts,
) -> Result<Evaluated, SparqlError> {
    let planned = lower_pattern(graph, pattern, early_stop, opts);
    let var_index: FxHashMap<&str, usize> =
        planned.variables.iter().enumerate().map(|(i, v)| (v.as_str(), i)).collect();

    let initial = IdTable::unit(planned.variables.len());
    let mut trace = trace;
    let mut table = eval_algebra(graph, &planned.root, &var_index, initial, &mut trace);

    if let Some(stop) = early_stop {
        // Safety net: the lowering emits a pushdown-capable Slice directly
        // over a Bgp only when nothing can drop or add rows afterwards; in
        // every other tree shape the limit still applies here, after full
        // evaluation.
        table.truncate(stop);
    }

    Ok(Evaluated { variables: planned.variables, table })
}

/// Interprets a lowered [`Algebra`] tree bottom-up against a set of incoming
/// bindings: each node first evaluates its `input` edge, then transforms the
/// rows. Semantics are identical to the previous direct `GraphPattern` walk
/// (UNION concatenation, OPTIONAL left join, filter error-drops); only the
/// BGP leaves changed join operators.
fn eval_algebra(
    graph: &Graph,
    node: &Algebra,
    var_index: &FxHashMap<&str, usize>,
    bindings: IdTable,
    trace: &mut Option<&mut PlanTrace>,
) -> IdTable {
    match node {
        Algebra::Bgp(steps) => join_steps(graph, steps, var_index, bindings, None, trace),
        Algebra::Slice { input, limit } => match &**input {
            // Bare-LIMIT/ASK pushdown: only a Slice directly over a BGP can
            // stop the join mid-scan. Any other child could drop or multiply
            // rows, so it is evaluated in full and truncated.
            Algebra::Bgp(steps) => {
                join_steps(graph, steps, var_index, bindings, Some(*limit), trace)
            }
            other => {
                let mut rows = eval_algebra(graph, other, var_index, bindings, trace);
                rows.truncate(*limit);
                rows
            }
        },
        // UNION: concatenate the solutions of each alternative, each
        // evaluated from the input's bindings (join semantics with the
        // surrounding group).
        Algebra::Union { input, alternatives } => {
            let bindings = eval_algebra(graph, input, var_index, bindings, trace);
            if bindings.is_empty() {
                return bindings;
            }
            let mut next = IdTable::new(bindings.width);
            for alt in alternatives {
                next.append(&eval_algebra(graph, alt, var_index, bindings.clone(), trace));
            }
            next
        }
        // OPTIONAL: left join — keep the binding unextended when the
        // optional part has no solutions.
        Algebra::LeftJoin { input, right } => {
            let bindings = eval_algebra(graph, input, var_index, bindings, trace);
            let mut next = IdTable::new(bindings.width);
            for i in 0..bindings.len() {
                let extended = eval_algebra(
                    graph,
                    right,
                    var_index,
                    IdTable::single(bindings.width, bindings.row(i)),
                    trace,
                );
                if extended.is_empty() {
                    next.push(bindings.row(i));
                } else {
                    next.append(&extended);
                }
            }
            next
        }
        // Group-level filters; erroring filters remove the row (SPARQL
        // error semantics).
        Algebra::Filter { input, exprs } => {
            let mut bindings = eval_algebra(graph, input, var_index, bindings, trace);
            bindings.retain(|row| {
                exprs.iter().all(|f| eval(f, row, graph).is_some_and(|v| v.truthy()))
            });
            bindings
        }
    }
}

/// A misestimation fires when a join step scans more than
/// `MISESTIMATE_FACTOR ×` the planner's score. The score already grants one
/// order of magnitude per bound variable, so a 16× overrun (> one further
/// decade of slack) marks a genuinely wrong selectivity assumption rather
/// than rounding noise; see DESIGN.md §13 for the derivation.
const MISESTIMATE_FACTOR: f64 = 16.0;
/// Steps scanning fewer rows than this never fire — on micro-scans a single
/// extra probe binding can double the ratio without meaning anything.
const MISESTIMATE_MIN_ROWS: u64 = 64;

/// Joins a planned BGP's steps into the incoming bindings, in planned order,
/// each step with the operator the planner chose (possibly downgraded to
/// nested at run time — see [`join_batched`]).
///
/// `limit` (from a bare LIMIT / ASK) stops the final join step as soon as
/// enough rows exist: intermediate steps must run to completion (a truncated
/// intermediate set could starve later joins of the rows that survive), but
/// the last pattern's scan can cut off mid-slice. A capped step always runs
/// nested — the batched operators materialize whole key ranges and cannot
/// stop mid-slice without over-counting.
///
/// When `trace` is given, every step appends a [`PlanStep`] pairing the
/// planner's prediction with measured reality (including the operator that
/// actually ran). The untraced path does no per-step allocation or clock
/// reads. Misestimation detection runs on both paths — it only compares
/// numbers the planner already computed.
fn join_steps(
    graph: &Graph,
    steps: &[PlannedStep],
    var_index: &FxHashMap<&str, usize>,
    initial: IdTable,
    limit: Option<usize>,
    trace: &mut Option<&mut PlanTrace>,
) -> IdTable {
    let mut bindings = initial;
    if steps.is_empty() {
        if let Some(cap) = limit {
            bindings.truncate(cap);
        }
        return bindings;
    }
    // Tallied locally and flushed once — one atomic add per join, not per row.
    let mut scanned: u64 = 0;
    for (step, planned) in steps.iter().enumerate() {
        let cap = if step + 1 == steps.len() { limit } else { None };
        let tp = &planned.pattern;
        let step_started = trace.is_some().then(Instant::now);
        let scanned_before = scanned;
        let mut algo = if cap.is_some() { JoinAlgo::Nested } else { planned.algo };
        let mut next = IdTable::new(bindings.width);
        if algo != JoinAlgo::Nested
            && !join_batched(graph, tp, var_index, &bindings, algo, &mut next, &mut scanned)
        {
            // The batch precondition (uniformly bound probe rows) failed:
            // fall back.
            algo = JoinAlgo::Nested;
            next = IdTable::new(bindings.width);
            scanned = scanned_before;
        }
        if algo == JoinAlgo::Nested {
            join_nested(graph, tp, var_index, &bindings, cap, &mut next, &mut scanned);
        }
        // One literal call site per counter: `counter!` caches its handle
        // per site, so the name must not be a runtime value.
        match algo {
            JoinAlgo::Nested => relpat_obs::counter!("sparql.join.nested"),
            JoinAlgo::Merge => relpat_obs::counter!("sparql.join.merge"),
            JoinAlgo::Gallop => relpat_obs::counter!("sparql.join.gallop"),
        }
        let step_scanned = scanned - scanned_before;
        // A capped step stops mid-scan by design, so its cost says nothing
        // about the planner; skip it rather than report a false underrun.
        let misestimated = cap.is_none()
            && step_scanned >= MISESTIMATE_MIN_ROWS
            && step_scanned as f64 > MISESTIMATE_FACTOR * (planned.score + 1.0);
        if misestimated {
            relpat_obs::counter!("planner.misestimates");
            relpat_obs::jevent!(
                relpat_obs::Level::Warn,
                "planner.misestimate",
                "pattern" => tp,
                "position" => step,
                "estimate" => planned.estimate,
                "score" => planned.score,
                "scanned" => step_scanned,
            );
        }
        if let Some(t) = trace.as_deref_mut() {
            t.steps.push(PlanStep {
                pattern: tp.to_string(),
                pattern_index: planned.pattern_index,
                position: step,
                estimate: planned.estimate,
                score: planned.score,
                rows_scanned: step_scanned,
                join_algo: algo,
                bindings_emitted: next.len(),
                nanos: step_started.expect("trace implies timer").elapsed().as_nanos() as u64,
                limit_pushdown: cap.is_some(),
            });
            if misestimated {
                t.misestimates += 1;
            }
        }
        bindings = next;
        if bindings.is_empty() {
            break;
        }
    }
    relpat_obs::counter!("sparql.rows_scanned", scanned);
    bindings
}

/// The always-correct fallback operator: for each probe row, substitute its
/// bound variables into the pattern and stream the matching slice via
/// [`Graph::scan_iter`], counting every visited row. The only operator that
/// can honor a mid-scan `cap`. With a single probe row (a BGP's first step)
/// the output is at most that row's slice, so it is reserved up front.
fn join_nested(
    graph: &Graph,
    tp: &TriplePattern,
    var_index: &FxHashMap<&str, usize>,
    bindings: &IdTable,
    cap: Option<usize>,
    next: &mut IdTable,
    scanned: &mut u64,
) {
    'probes: for i in 0..bindings.len() {
        let binding = bindings.row(i);
        match bind_pattern(graph, tp, binding, var_index) {
            BoundPattern::NoMatch => {}
            BoundPattern::Scan(id_pattern, slots) => {
                let matches = graph.scan_iter(id_pattern);
                if bindings.len() == 1 {
                    next.reserve(matches.len().min(cap.unwrap_or(usize::MAX)));
                }
                for (s, p, o) in matches {
                    *scanned += 1;
                    if try_push_extended(next, binding, &slots, s, p, o)
                        && cap.is_some_and(|c| next.len() >= c)
                    {
                        break 'probes;
                    }
                }
            }
        }
    }
}

/// How one pattern position resolves for a uniform batch of probe rows.
#[derive(Debug, Clone, Copy)]
enum ProbePos {
    /// Concrete term, identical for every row.
    Const(TermId),
    /// Variable bound in every probe row (read per row at this column).
    Bound(usize),
    /// Variable free in every probe row: filled from matches.
    Free(usize),
}

/// Batched sorted operators — merge and gallop. Both resolve the pattern's
/// shape once from the first probe row (top-level BGP rows are uniform: every
/// row binds exactly the variables earlier steps bound), route it to one
/// permutation slice, and locate each **distinct** probe key's range
/// exactly once — merge with a forward cursor over non-decreasing keys,
/// gallop by sorting + deduplicating the keys; both search forward from the
/// previous key's range with [`relpat_rdf::FrozenProbe::bounds_from`]'s
/// exponential search. `scanned` counts each distinct range once,
/// which is the probe work actually done and never exceeds the nested loop's
/// per-row rescans. All ranges are found before any row is written, so the
/// output is reserved once from their total.
///
/// Extended rows are emitted in the probe rows' original order — order
/// preservation is what keeps the binding stream sorted for downstream merge
/// steps and the solution sequence bit-identical to the nested loop's.
///
/// Returns `false` when the batch cannot run (a supposedly bound variable is
/// unbound in some row); the caller falls back to [`join_nested`].
fn join_batched(
    graph: &Graph,
    tp: &TriplePattern,
    var_index: &FxHashMap<&str, usize>,
    bindings: &IdTable,
    algo: JoinAlgo,
    next: &mut IdTable,
    scanned: &mut u64,
) -> bool {
    if bindings.is_empty() {
        return true;
    }
    let first = bindings.row(0);
    let mut shape = [ProbePos::Free(0); 3];
    for (pos, term) in shape.iter_mut().zip([&tp.subject, &tp.predicate, &tp.object]) {
        *pos = match term {
            Term::Variable(v) => {
                let idx = var_index[v.as_str()];
                if first[idx].is_some() { ProbePos::Bound(idx) } else { ProbePos::Free(idx) }
            }
            concrete => match graph.term_id(concrete) {
                Some(id) => ProbePos::Const(id),
                // A concrete term absent from the graph matches nothing:
                // the whole batch is trivially done.
                None => return true,
            },
        };
    }
    let free_slot = |pos: ProbePos| match pos {
        ProbePos::Free(idx) => Some(idx),
        _ => None,
    };
    let slots = Slots {
        subject: free_slot(shape[0]),
        predicate: free_slot(shape[1]),
        object: free_slot(shape[2]),
    };
    let representative = |row: &[Option<TermId>]| -> Option<IdPattern> {
        let component = |pos: ProbePos| match pos {
            ProbePos::Const(id) => Some(Some(id)),
            // A `None` here breaks the uniformity precondition → bail out.
            ProbePos::Bound(idx) => row[idx].map(Some),
            ProbePos::Free(_) => Some(None),
        };
        Some(IdPattern {
            subject: component(shape[0])?,
            predicate: component(shape[1])?,
            object: component(shape[2])?,
        })
    };
    let Some(rep) = representative(first) else { return false };
    let probe = graph.probe(rep);

    // Every row's permuted probe key. All rows share the pattern's
    // Some/None structure, so they all route to `probe`'s permutation.
    let mut keys: Vec<[u32; 3]> = Vec::with_capacity(bindings.len());
    for row in bindings.iter() {
        let Some(pat) = representative(row) else { return false };
        keys.push(probe.key(pat));
    }

    // Each row's range, then the output sized once from their total (an
    // upper bound: only a repeated variable rejects matches).
    let ranges: Vec<(usize, usize)> = match algo {
        JoinAlgo::Merge => {
            // The binding stream is sorted by the single varying key
            // component, so keys are non-decreasing: one forward cursor
            // visits each distinct key's range once without restarting.
            let mut prev: Option<([u32; 3], (usize, usize))> = None;
            keys.iter()
                .map(|key| match prev {
                    Some((k, range)) if k == *key => range,
                    earlier => {
                        debug_assert!(
                            earlier.is_none_or(|(k, _)| k <= *key),
                            "merge probe keys regressed"
                        );
                        // Keys never regress when the plan's sortedness
                        // argument holds; restart from 0 if they somehow do
                        // (release-mode correctness over speed).
                        let from = match earlier {
                            Some((k, (_, prev_hi))) if k <= *key => prev_hi,
                            _ => 0,
                        };
                        let range = probe.bounds_from(from, *key);
                        *scanned += (range.1 - range.0) as u64;
                        prev = Some((*key, range));
                        range
                    }
                })
                .collect()
        }
        _ => {
            // Gallop: sort + dedup the probe keys, locate each distinct
            // key's range once, galloping on from the previous key's range,
            // then look each probe row's range up in original row order.
            let mut distinct = keys.clone();
            distinct.sort_unstable();
            distinct.dedup();
            let mut found: FxHashMap<[u32; 3], (usize, usize)> = FxHashMap::default();
            found.reserve(distinct.len());
            let mut from = 0;
            for key in &distinct {
                let (lo, hi) = probe.bounds_from(from, *key);
                *scanned += (hi - lo) as u64;
                found.insert(*key, (lo, hi));
                from = hi;
            }
            keys.iter().map(|key| found[key]).collect()
        }
    };
    next.reserve(ranges.iter().map(|(lo, hi)| hi - lo).sum());
    for (row, (lo, hi)) in bindings.iter().zip(ranges) {
        for i in lo..hi {
            let (s, p, o) = probe.triple(i);
            try_push_extended(next, row, &slots, s, p, o);
        }
    }
    true
}

/// Where each variable of a pattern lands in the binding vector.
struct Slots {
    subject: Option<usize>,
    predicate: Option<usize>,
    object: Option<usize>,
}

enum BoundPattern {
    /// A concrete term in the pattern does not occur in the graph.
    NoMatch,
    Scan(IdPattern, Slots),
}

fn bind_pattern(
    graph: &Graph,
    tp: &TriplePattern,
    binding: &[Option<TermId>],
    var_index: &FxHashMap<&str, usize>,
) -> BoundPattern {
    let mut id_pattern = IdPattern { subject: None, predicate: None, object: None };
    let mut slots = Slots { subject: None, predicate: None, object: None };
    let positions: [(&Term, &mut Option<TermId>, &mut Option<usize>); 3] = [
        (&tp.subject, &mut id_pattern.subject, &mut slots.subject),
        (&tp.predicate, &mut id_pattern.predicate, &mut slots.predicate),
        (&tp.object, &mut id_pattern.object, &mut slots.object),
    ];
    for (term, id_slot, var_slot) in positions {
        match term {
            Term::Variable(v) => {
                let idx = var_index[v.as_str()];
                match binding[idx] {
                    Some(bound) => *id_slot = Some(bound),
                    None => *var_slot = Some(idx),
                }
            }
            concrete => match graph.term_id(concrete) {
                Some(id) => *id_slot = Some(id),
                None => return BoundPattern::NoMatch,
            },
        }
    }
    BoundPattern::Scan(id_pattern, slots)
}

/// Extends a binding with a scan result, checking repeated-variable
/// consistency (e.g. `?x ?p ?x`), and appends the extended row to `next`.
/// Validation runs **before** the row is copied, so rejected scan rows — the
/// overwhelming majority in a selective join — cost nothing; an emitted row
/// is one `extend_from_slice` into the table's flat buffer plus in-place slot
/// writes, never a per-row allocation. Returns whether a row was emitted.
fn try_push_extended(
    next: &mut IdTable,
    binding: &[Option<TermId>],
    slots: &Slots,
    s: TermId,
    p: TermId,
    o: TermId,
) -> bool {
    let parts = [(slots.subject, s), (slots.predicate, p), (slots.object, o)];
    for (i, (slot, value)) in parts.iter().enumerate() {
        let Some(idx) = slot else { continue };
        // Against the existing binding (scan patterns constrain bound
        // positions already, but a repeated variable may appear both bound
        // and free)…
        if binding[*idx].is_some_and(|existing| existing != *value) {
            return false;
        }
        // …and against the other free slots of this same triple
        // (`?x <p> ?x` with ?x unbound binds two slots to one column).
        for (other_slot, other_value) in &parts[..i] {
            if *other_slot == Some(*idx) && other_value != value {
                return false;
            }
        }
    }
    let start = next.data.len();
    next.data.extend_from_slice(binding);
    for (slot, value) in parts {
        if let Some(idx) = slot {
            next.data[start + idx] = Some(value);
        }
    }
    next.rows += 1;
    true
}

/// Runtime value for FILTER and ORDER BY evaluation. Terms are borrowed
/// from the graph or the bound expression and strings from those terms, so
/// evaluating an expression over an id row allocates only where SPARQL
/// formats a number or boolean as a string. A row's values come from the
/// graph's value column; the term behind one is only read when a string
/// form, language, datatype or a non-date lexical comparison needs it
/// (holding a `&Term` costs its address, not a read).
#[derive(Debug, Clone)]
enum Value<'a> {
    Bool(bool),
    Num(f64),
    /// An `xsd:date` of fixed-width form packed as `YYYYMMDD` (see
    /// [`TermValue::Date`]), with its term for every other use.
    Date(u32, &'a Term),
    Str(Cow<'a, str>),
    Term(&'a Term),
}

impl<'a> Value<'a> {
    /// The value of a term whose [`TermValue`] is `value`. Numbers and
    /// booleans drop their term, as SPARQL's typed values do.
    #[inline]
    fn of(value: TermValue, term: impl FnOnce() -> &'a Term) -> Value<'a> {
        match value {
            TermValue::Num(n) => Value::Num(n),
            TermValue::Bool(b) => Value::Bool(b),
            TermValue::Date(d) => Value::Date(d, term()),
            TermValue::Other => Value::Term(term()),
        }
    }

    fn truthy(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Num(n) => *n != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::Date(..) | Value::Term(_) => true,
        }
    }

    /// Numeric literals already evaluate to [`Value::Num`], so only that
    /// variant is numeric.
    fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The term a value still carries.
    fn term(&self) -> Option<&'a Term> {
        match self {
            Value::Date(_, t) | Value::Term(t) => Some(t),
            _ => None,
        }
    }

    /// String coercion mirroring SPARQL `str()`.
    fn into_str(self) -> Cow<'a, str> {
        match self {
            Value::Bool(b) => Cow::Owned(b.to_string()),
            Value::Num(n) => Cow::Owned(n.to_string()),
            Value::Str(s) => s,
            Value::Date(_, t) | Value::Term(t) => match t {
                Term::Literal(l) => Cow::Borrowed(l.lexical_form()),
                Term::Iri(iri) => Cow::Borrowed(iri.as_str()),
                t => Cow::Owned(t.to_string()),
            },
        }
    }

    /// [`Value::into_str`] without giving up the value.
    fn as_str(&self) -> Cow<'_, str> {
        match self {
            Value::Str(s) => Cow::Borrowed(s),
            other => other.clone().into_str(),
        }
    }
}

/// Evaluates a bound expression over one id row. `None` is a SPARQL
/// evaluation error (unbound or unknown variable, type error, division by
/// zero): a FILTER drops the row and an ORDER BY key sorts as unbound.
fn eval<'a>(expr: &'a BoundExpr, row: &[Option<TermId>], graph: &'a Graph) -> Option<Value<'a>> {
    let eval = |e: &'a BoundExpr| eval(e, row, graph);
    match expr {
        BoundExpr::Col(c) => {
            let id = row[*c]?;
            Some(Value::of(graph.value(id), || graph.term(id)))
        }
        BoundExpr::Const(term, value) => Some(Value::of(*value, || term)),
        BoundExpr::Unbindable => None,
        BoundExpr::Cmp(lhs, op, rhs) => Some(Value::Bool(apply_cmp(&eval(lhs)?, *op, &eval(rhs)?))),
        BoundExpr::And(lhs, rhs) => Some(Value::Bool(eval(lhs)?.truthy() && eval(rhs)?.truthy())),
        BoundExpr::Or(lhs, rhs) => Some(Value::Bool(eval(lhs)?.truthy() || eval(rhs)?.truthy())),
        BoundExpr::Not(inner) => Some(Value::Bool(!eval(inner)?.truthy())),
        BoundExpr::Arith(lhs, op, rhs) => {
            let l = eval(lhs)?.as_num()?;
            let r = eval(rhs)?.as_num()?;
            Some(Value::Num(match op {
                ArithOp::Add => l + r,
                ArithOp::Sub => l - r,
                ArithOp::Mul => l * r,
                ArithOp::Div if r == 0.0 => return None,
                ArithOp::Div => l / r,
            }))
        }
        BoundExpr::Regex { value, pattern, case_insensitive } => Some(Value::Bool(
            simple_regex_match(&eval(value)?.into_str(), pattern, *case_insensitive),
        )),
        BoundExpr::Lang(inner) => match eval(inner)?.term()? {
            Term::Literal(l) => Some(Value::Str(Cow::Borrowed(l.language().unwrap_or("")))),
            _ => None,
        },
        BoundExpr::Datatype(inner) => match eval(inner)?.term()? {
            Term::Literal(l) => Some(Value::Str(Cow::Borrowed(l.datatype_str()))),
            _ => None,
        },
        BoundExpr::Str(inner) => Some(Value::Str(eval(inner)?.into_str())),
        BoundExpr::Bound(c) => Some(Value::Bool(row[*c].is_some())),
    }
}

/// A FILTER comparison. A NaN operand makes every operator false except
/// `!=`, which is true (`op:numeric-equal` / `op:numeric-less-than`).
fn apply_cmp(l: &Value<'_>, op: CmpOp, r: &Value<'_>) -> bool {
    let Some(ord) = compare(l, r) else { return op == CmpOp::Ne };
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

/// Three-way comparison across value kinds: numeric when both sides are
/// numeric (`None` when either is NaN), packed when both are fixed-width
/// dates, term identity for IRIs, otherwise lexical-form string comparison
/// (which orders ISO dates correctly).
fn compare(l: &Value<'_>, r: &Value<'_>) -> Option<Ordering> {
    match (l, r) {
        (Value::Num(a), Value::Num(b)) => a.partial_cmp(b),
        (Value::Date(a, _), Value::Date(b, _)) => Some(a.cmp(b)),
        (Value::Term(Term::Iri(a)), Value::Term(Term::Iri(b))) => Some(a.cmp(b)),
        _ => Some(l.as_str().cmp(&r.as_str())),
    }
}

/// Comparison for ORDER BY keys, a total order (a sort must not be handed
/// anything less): unbound (None) sorts first, per SPARQL, then numbers by
/// value with NaN after them, then every other value by [`compare`] — the
/// lexical order of its string form. Keys of one kind order exactly as
/// [`compare`] orders them; only mixed numbers and strings, which
/// [`compare`] orders intransitively (`9 < 10`, `"10" < "9"`), are ranked.
fn compare_values(l: &Option<Value<'_>>, r: &Option<Value<'_>>) -> Ordering {
    match (l, r) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(a), Some(b)) => match (a.as_num(), b.as_num()) {
            (Some(x), Some(y)) => {
                x.is_nan().cmp(&y.is_nan()).then(x.partial_cmp(&y).unwrap_or(Ordering::Equal))
            }
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => compare(a, b).unwrap_or(Ordering::Equal),
        },
    }
}

/// Minimal regex dialect: `^` anchors at the start, `$` at the end, and the
/// remaining pattern is matched literally as a substring. This covers every
/// `FILTER regex` the pipeline and benchmark emit (label containment checks);
/// a full regex engine would be an unjustified dependency.
fn simple_regex_match(text: &str, pattern: &str, case_insensitive: bool) -> bool {
    let (text, pattern): (Cow<str>, Cow<str>) = if case_insensitive {
        (text.to_lowercase().into(), pattern.to_lowercase().into())
    } else {
        (text.into(), pattern.into())
    };
    let starts = pattern.starts_with('^');
    let ends = pattern.ends_with('$') && !pattern.ends_with("\\$");
    let core = &pattern[usize::from(starts)..pattern.len() - usize::from(ends)];
    match (starts, ends) {
        (true, true) => text == core,
        (true, false) => text.starts_with(core),
        (false, true) => text.ends_with(core),
        (false, false) => text.contains(core),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relpat_rdf::vocab::{dbont, rdf, res};
    use relpat_rdf::{GraphBuilder, Literal};

    fn library_builder() -> GraphBuilder {
        let mut g = GraphBuilder::new();
        let ty = Term::iri(rdf::TYPE);
        let book = Term::iri(dbont::iri("Book"));
        let writer = Term::iri(dbont::iri("writer"));
        let label = Term::iri(relpat_rdf::vocab::rdfs::LABEL);
        let pamuk = Term::iri(res::iri("Orhan Pamuk"));
        let lem = Term::iri(res::iri("Stanislaw Lem"));
        for (title, author, pages) in [
            ("Snow", &pamuk, 432),
            ("The Museum of Innocence", &pamuk, 536),
            ("Solaris", &lem, 204),
        ] {
            let b = Term::iri(res::iri(title));
            g.add(b.clone(), ty.clone(), book.clone());
            g.add(b.clone(), writer.clone(), author.clone());
            g.add(b.clone(), label.clone(), Term::Literal(Literal::lang(title, "en")));
            g.add(
                b,
                Term::iri(dbont::iri("numberOfPages")),
                Term::Literal(Literal::integer(pages)),
            );
        }
        g
    }

    fn library() -> Graph {
        library_builder().build()
    }

    fn select(g: &Graph, q: &str) -> Solutions {
        query(g, q).unwrap().into_solutions().unwrap()
    }

    #[test]
    fn paper_query_returns_both_books() {
        let g = library();
        let sols = select(
            &g,
            "SELECT ?x WHERE { ?x rdf:type dbont:Book . ?x dbont:writer res:Orhan_Pamuk . }",
        );
        assert_eq!(sols.rows.len(), 2);
    }

    #[test]
    fn ask_true_and_false() {
        let g = library();
        assert!(query(&g, "ASK { res:Snow dbont:writer res:Orhan_Pamuk }")
            .unwrap()
            .into_boolean().unwrap());
        assert!(!query(&g, "ASK { res:Solaris dbont:writer res:Orhan_Pamuk }")
            .unwrap()
            .into_boolean().unwrap());
    }

    #[test]
    fn filter_numeric_comparison() {
        let g = library();
        let sols = select(
            &g,
            "SELECT ?x { ?x dbont:numberOfPages ?p FILTER(?p > 400 && ?p < 500) }",
        );
        assert_eq!(sols.rows.len(), 1);
        assert_eq!(
            sols.get(0, "x"),
            Some(&Term::iri(res::iri("Snow")))
        );
    }

    #[test]
    fn nan_compares_unequal_and_unordered() {
        let mut b = library_builder();
        b.add(
            Term::iri(res::iri("Snow")),
            Term::iri(dbont::iri("weight")),
            Term::Literal(Literal::double(f64::NAN)),
        );
        let g = b.build();
        let nan = "\"NaN\"^^xsd:double";
        let count = |filter: String| {
            select(&g, &format!("SELECT ?x {{ ?x dbont:numberOfPages ?p FILTER({filter}) }}"))
                .rows
                .len()
        };
        // Only `!=` holds when either side is NaN.
        assert_eq!(count(format!("?p != {nan}")), 3);
        for op in ["=", "<", "<=", ">", ">="] {
            assert_eq!(count(format!("?p {op} {nan}")), 0, "?p {op} NaN");
            assert_eq!(count(format!("{nan} {op} ?p")), 0, "NaN {op} ?p");
        }
        assert_eq!(count(format!("{nan} = {nan}")), 0);
        assert_eq!(count(format!("{nan} != {nan}")), 3);
        // A NaN in the data is not equal to itself either.
        let sols = select(&g, "SELECT ?x { ?x dbont:weight ?w FILTER(?w = ?w) }");
        assert!(sols.rows.is_empty());
        let sols = select(&g, "SELECT ?x { ?x dbont:weight ?w FILTER(?w != 1) }");
        assert_eq!(sols.rows.len(), 1);
    }

    #[test]
    fn filter_regex_on_label() {
        let g = library();
        let sols = select(
            &g,
            "SELECT ?x { ?x rdfs:label ?l FILTER(regex(str(?l), \"museum\", \"i\")) }",
        );
        assert_eq!(sols.rows.len(), 1);
    }

    #[test]
    fn filter_lang() {
        let g = library();
        let sols = select(&g, "SELECT ?l { res:Snow rdfs:label ?l FILTER(lang(?l) = \"en\") }");
        assert_eq!(sols.rows.len(), 1);
    }

    #[test]
    fn order_by_desc_with_limit() {
        let g = library();
        let sols = select(
            &g,
            "SELECT ?x ?p { ?x dbont:numberOfPages ?p } ORDER BY DESC(?p) LIMIT 1",
        );
        assert_eq!(sols.rows.len(), 1);
        assert_eq!(
            sols.get(0, "x"),
            Some(&Term::iri(res::iri("The Museum of Innocence")))
        );
    }

    #[test]
    fn offset_skips_rows() {
        let g = library();
        let all = select(&g, "SELECT ?x { ?x rdf:type dbont:Book } ORDER BY ?x");
        let skipped = select(&g, "SELECT ?x { ?x rdf:type dbont:Book } ORDER BY ?x OFFSET 1");
        assert_eq!(skipped.rows.len(), all.rows.len() - 1);
        assert_eq!(skipped.rows[0], all.rows[1]);
    }

    #[test]
    fn distinct_dedups() {
        let g = library();
        // ?w appears once per book; DISTINCT should collapse Pamuk's two.
        let sols = select(&g, "SELECT DISTINCT ?w { ?x dbont:writer ?w }");
        assert_eq!(sols.rows.len(), 2);
    }

    #[test]
    fn select_star_projects_all_vars() {
        let g = library();
        let sols = select(&g, "SELECT * { ?x dbont:writer ?w }");
        assert_eq!(sols.variables, vec!["x".to_string(), "w".to_string()]);
        assert_eq!(sols.rows.len(), 3);
    }

    #[test]
    fn repeated_variable_consistency() {
        let mut b = GraphBuilder::new();
        b.add(Term::iri("a"), Term::iri("p"), Term::iri("a"));
        b.add(Term::iri("a"), Term::iri("p"), Term::iri("b"));
        let g = b.build();
        let sols = select(&g, "SELECT ?x { ?x <p> ?x }");
        assert_eq!(sols.rows.len(), 1);
    }

    #[test]
    fn unknown_concrete_term_yields_empty() {
        let g = library();
        let sols = select(&g, "SELECT ?x { ?x dbont:writer res:Nobody }");
        assert!(sols.rows.is_empty());
    }

    #[test]
    fn erroring_filter_drops_row_not_query() {
        let g = library();
        // lang() of an IRI errors; the row is dropped, the query succeeds.
        let sols = select(&g, "SELECT ?x { ?x rdf:type dbont:Book FILTER(lang(?x) = \"en\") }");
        assert!(sols.rows.is_empty());
    }

    #[test]
    fn arithmetic_in_filters() {
        let g = library();
        let sols = select(&g, "SELECT ?x { ?x dbont:numberOfPages ?p FILTER(?p * 2 > 1000) }");
        assert_eq!(sols.rows.len(), 1); // 536 * 2 = 1072
    }

    #[test]
    fn division_by_zero_drops_row() {
        let g = library();
        let sols = select(&g, "SELECT ?x { ?x dbont:numberOfPages ?p FILTER(?p / 0 > 1) }");
        assert!(sols.rows.is_empty());
    }

    #[test]
    fn projection_of_unbound_var_is_none() {
        let g = library();
        let sols = select(&g, "SELECT ?ghost { res:Snow rdf:type dbont:Book }");
        assert_eq!(sols.rows.len(), 1);
        assert_eq!(sols.rows[0][0], None);
    }

    #[test]
    fn bare_limit_early_stops() {
        let g = library();
        let sols = select(&g, "SELECT ?x { ?x rdf:type dbont:Book } LIMIT 2");
        assert_eq!(sols.rows.len(), 2);
    }

    #[test]
    fn simple_regex_dialect() {
        assert!(simple_regex_match("Orhan Pamuk", "pamuk", true));
        assert!(!simple_regex_match("Orhan Pamuk", "pamuk", false));
        assert!(simple_regex_match("Snow", "^Sno", false));
        assert!(simple_regex_match("Snow", "now$", false));
        assert!(simple_regex_match("Snow", "^Snow$", false));
        assert!(!simple_regex_match("Snows", "^Snow$", false));
    }

    #[test]
    fn optional_left_join_keeps_unmatched_rows() {
        let mut b = library_builder();
        // Only Pamuk gets a birth place.
        b.add(
            Term::iri(res::iri("Orhan Pamuk")),
            Term::iri(dbont::iri("birthPlace")),
            Term::iri(res::iri("Istanbul")),
        );
        let g = b.build();
        let sols = select(
            &g,
            "SELECT ?w ?p { ?x dbont:writer ?w OPTIONAL { ?w dbont:birthPlace ?p } }",
        );
        assert_eq!(sols.rows.len(), 3);
        let bound: Vec<bool> = sols.rows.iter().map(|r| r[1].is_some()).collect();
        assert_eq!(bound.iter().filter(|b| **b).count(), 2); // Pamuk's two books
        assert_eq!(bound.iter().filter(|b| !**b).count(), 1); // Lem unextended
    }

    #[test]
    fn optional_variables_are_projectable() {
        let g = library();
        let sols = select(
            &g,
            "SELECT ?x ?ghost { ?x rdf:type dbont:Book OPTIONAL { ?x dbont:writer ?ghost } }",
        );
        assert_eq!(sols.variables, vec!["x".to_string(), "ghost".to_string()]);
        assert_eq!(sols.rows.len(), 3);
    }

    #[test]
    fn union_concatenates_alternatives() {
        let mut b = library_builder();
        b.add(
            Term::iri(res::iri("Snow")),
            Term::iri(dbont::iri("author")),
            Term::iri(res::iri("Orhan Pamuk")),
        );
        let g = b.build();
        let sols = select(
            &g,
            "SELECT ?x { { ?x dbont:writer res:Orhan_Pamuk } UNION { ?x dbont:author res:Orhan_Pamuk } }",
        );
        // 2 via writer + 1 via author (Snow appears twice: once per branch
        // it matches — writer and author — minus dedup-free union = 3).
        assert_eq!(sols.rows.len(), 3);
        let distinct = select(
            &g,
            "SELECT DISTINCT ?x { { ?x dbont:writer res:Orhan_Pamuk } UNION { ?x dbont:author res:Orhan_Pamuk } }",
        );
        assert_eq!(distinct.rows.len(), 2);
    }

    #[test]
    fn union_joins_with_surrounding_pattern() {
        let g = library();
        let sols = select(
            &g,
            "SELECT ?x { ?x rdf:type dbont:Book . \
             { ?x dbont:writer res:Orhan_Pamuk } UNION { ?x dbont:writer res:Stanislaw_Lem } }",
        );
        assert_eq!(sols.rows.len(), 3);
    }

    #[test]
    fn plain_nested_group_merges_into_parent() {
        let g = library();
        let sols = select(&g, "SELECT ?x { { ?x rdf:type dbont:Book } }");
        assert_eq!(sols.rows.len(), 3);
    }

    #[test]
    fn filter_inside_optional_scopes_locally() {
        let g = library();
        // The filter only constrains the optional extension; rows that fail
        // it stay unextended rather than disappearing.
        let sols = select(
            &g,
            "SELECT ?x ?p { ?x rdf:type dbont:Book OPTIONAL { ?x dbont:numberOfPages ?p FILTER(?p > 500) } }",
        );
        assert_eq!(sols.rows.len(), 3);
        assert_eq!(sols.rows.iter().filter(|r| r[1].is_some()).count(), 1); // 536 only
    }

    #[test]
    fn union_of_three_alternatives() {
        let g = library();
        let sols = select(
            &g,
            "SELECT ?x { { res:Snow rdfs:label ?x } UNION { res:Solaris rdfs:label ?x } \
             UNION { res:Snow dbont:numberOfPages ?x } }",
        );
        assert_eq!(sols.rows.len(), 3);
    }

    #[test]
    fn count_star_and_var() {
        let g = library();
        let sols = select(&g, "SELECT (COUNT(*) AS ?n) { ?x rdf:type dbont:Book }");
        assert_eq!(sols.variables, vec!["n".to_string()]);
        assert_eq!(sols.first().unwrap().as_literal().unwrap().as_i64(), Some(3));

        let sols = select(&g, "SELECT (COUNT(?w) AS ?n) { ?x dbont:writer ?w }");
        assert_eq!(sols.first().unwrap().as_literal().unwrap().as_i64(), Some(3));
    }

    #[test]
    fn count_distinct_collapses_duplicates() {
        let g = library();
        let sols = select(&g, "SELECT (COUNT(DISTINCT ?w) AS ?n) { ?x dbont:writer ?w }");
        assert_eq!(sols.first().unwrap().as_literal().unwrap().as_i64(), Some(2));
    }

    #[test]
    fn bare_count_defaults_alias() {
        let g = library();
        let sols = select(&g, "SELECT COUNT(?x) { ?x rdf:type dbont:Book }");
        assert_eq!(sols.variables, vec!["count".to_string()]);
        assert_eq!(sols.first().unwrap().as_literal().unwrap().as_i64(), Some(3));
    }

    #[test]
    fn count_with_filter() {
        let g = library();
        let sols = select(
            &g,
            "SELECT (COUNT(?x) AS ?n) { ?x dbont:numberOfPages ?p FILTER(?p > 300) }",
        );
        assert_eq!(sols.first().unwrap().as_literal().unwrap().as_i64(), Some(2));
    }

    #[test]
    fn count_empty_pattern_is_zero() {
        let g = library();
        let sols = select(&g, "SELECT (COUNT(?x) AS ?n) { ?x dbont:writer res:Nobody }");
        assert_eq!(sols.first().unwrap().as_literal().unwrap().as_i64(), Some(0));
    }

    #[test]
    fn count_row_passes_through_offset_and_limit() {
        let g = library();
        for q in [
            "SELECT (COUNT(?x) AS ?n) { ?x rdf:type dbont:Book } LIMIT 0",
            "SELECT (COUNT(?x) AS ?n) { ?x rdf:type dbont:Book } OFFSET 1",
        ] {
            let sols = select(&g, q);
            assert_eq!(sols.variables, vec!["n".to_string()], "{q}");
            assert!(sols.rows.is_empty(), "{q}");
        }
        let sols =
            select(&g, "SELECT (COUNT(?x) AS ?n) { ?x rdf:type dbont:Book } OFFSET 0 LIMIT 1");
        assert_eq!(sols.first().unwrap().as_literal().unwrap().as_i64(), Some(3));
    }

    #[test]
    fn count_unknown_variable_errors() {
        let g = library();
        assert!(query(&g, "SELECT (COUNT(?zzz) AS ?n) { ?x ?p ?o }").is_err());
    }

    #[test]
    fn cross_pattern_join_on_shared_variable() {
        let mut b = library_builder();
        b.add(
            Term::iri(res::iri("Orhan Pamuk")),
            Term::iri(dbont::iri("birthPlace")),
            Term::iri(res::iri("Istanbul")),
        );
        let g = b.build();
        let sols = select(
            &g,
            "SELECT ?b ?c { ?b dbont:writer ?w . ?w dbont:birthPlace ?c }",
        );
        assert_eq!(sols.rows.len(), 2); // both Pamuk books join to Istanbul
    }
}
