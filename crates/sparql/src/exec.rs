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
//! copy of the kept cells into shared [`Rows`], which hold the graph's
//! term table and resolve a cell only when it is read.
//!
//! The inner loops run on plain `u32` rows. A binding row is `width` cells
//! in the result's own encoding (a graph id, or `UNBOUND`), so projection
//! copies cells and never converts them. Steps arrive resolved
//! ([`PlannedStep`]: concrete ids, each variable position's column, dead
//! flag), so no join hashes a term or a variable name. A step writes each
//! matching index entry straight from the permuted entry into a copy of
//! its probe row; only a step whose pattern repeats a free variable checks
//! entries first. A merge step is one pass over its probe rows: it builds a
//! key and searches only where the sorted column's value changes, and
//! writes each row's matches before it reads the next row. An unordered,
//! non-DISTINCT projection compacts the kept cells at the front of the
//! binding table, which it owns, and copies them out once. FILTER and
//! ORDER BY expressions are bound once per query
//! ([`BoundExpr`]) and read each row's typed values from the graph's value
//! column; a comparison of a column against a number or date constant
//! compares those values directly, and everything else reaches a term only
//! through a borrowed [`Value`].

use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use relpat_rdf::{FrozenProbe, Graph, IdPattern, Term, TermId, TermValue};
use relpat_obs::fx::{FxHashMap, FxHashSet};
use relpat_obs::{FilterStep, JoinAlgo, PlanStep, PlanTrace};

use crate::algebra::{lower_pattern, Algebra, BoundExpr, LowerOpts, PlannedStep};
use crate::ast::{ArithOp, CmpOp, GraphPattern, Projection, Query, SelectQuery};
use crate::error::SparqlError;
use crate::results::{Rows, Solutions, UNBOUND};

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

fn execute_select(
    graph: &Graph,
    sel: &SelectQuery,
    mut trace: Option<&mut PlanTrace>,
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
        evaluate_pattern(graph, &sel.pattern, early_stop, trace.as_deref_mut(), opts)?;
    let started = trace.is_some().then(Instant::now);
    let sols = project(graph, sel, pattern_vars, table)?;
    if let (Some(t), Some(started)) = (trace, started) {
        t.projection_nanos = started.elapsed().as_nanos() as u64;
    }
    Ok(sols)
}

/// The solutions of `sel` over its evaluated bindings: COUNT, or ORDER BY,
/// projection, DISTINCT and OFFSET/LIMIT, all on ids. The table is
/// consumed: an unordered projection may compact its rows in place.
fn project(
    graph: &Graph,
    sel: &SelectQuery,
    pattern_vars: Vec<String>,
    mut table: IdTable,
) -> Result<Solutions, SparqlError> {
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
                let bound = table.iter().map(|r| r[col]).filter(|&id| id != UNBOUND);
                if *distinct {
                    let mut ids: Vec<u32> = bound.collect();
                    ids.sort_unstable();
                    ids.dedup();
                    ids.len()
                } else {
                    bound.count()
                }
            }
        };
        let kept = window(sel, 1).len();
        let count = Term::Literal(relpat_rdf::Literal::integer(n as i64));
        return Ok(Solutions {
            variables: vec![alias.clone()],
            rows: Rows::computed(graph.terms(), count, kept),
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
    let positions = positions.as_slice();

    // ORDER BY sorts a permutation of row indices, not rows: every key is
    // bound once, evaluated once per row into one flat buffer of borrowed
    // values, and the stable sort keeps equal keys in solution order.
    let order: Option<Vec<usize>> = (!sel.order_by.is_empty()).then(|| {
        let order_keys: Vec<BoundExpr> =
            sel.order_by.iter().map(|k| BoundExpr::bind(&k.expr, &pattern_vars)).collect();
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

    // Id-space projection in output order into the result's cell encoding,
    // which the binding rows already share: one `u32` per cell, unbound as
    // `UNBOUND`, copied and never converted. The cells of `rows` are
    // produced row by row, with no division per cell, as one exact-size
    // iterator: the `Arc` it is collected into is sized before it is filled.
    let width = out_vars.len();
    let cells = |rows: Range<usize>| {
        let n = rows.len() * width;
        let mut source = rows.map(|i| table.row(order.as_ref().map_or(i, |o| o[i])));
        let (mut row, mut col): (&[u32], usize) = (&[], width);
        (0..n).map(move |_| {
            if col == width {
                row = source.next().expect("one source row per output row");
                col = 0;
            }
            col += 1;
            positions[col - 1].map_or(UNBOUND, |c| row[c])
        })
    };
    let (ids, len): (Arc<[u32]>, usize) = if sel.distinct {
        // Stable dedup on projected id rows, first occurrence wins: hashing
        // borrowed slices of a few u32s. The window is known only after it,
        // so the kept rows are compacted in place before the one copy out.
        let mut projected: Vec<u32> = cells(0..table.len()).collect();
        let mut seen: FxHashSet<&[u32]> = FxHashSet::default();
        seen.reserve(table.len());
        let firsts: Vec<usize> = (0..table.len())
            .filter(|&i| seen.insert(&projected[i * width..(i + 1) * width]))
            .collect();
        let kept = window(sel, firsts.len());
        // Each source row lies at or after its destination, so moving the
        // rows in order never overwrites one still to be moved.
        for (dst, &src) in firsts[kept.clone()].iter().enumerate() {
            projected.copy_within(src * width..(src + 1) * width, dst * width);
        }
        (Arc::from(&projected[..kept.len() * width]), kept.len())
    } else {
        // OFFSET/LIMIT pick the output window first, and its cells are
        // written once, straight into the result's one allocation. An
        // unordered projection of every column in order is one slice of
        // the table; any other unordered projection of 1–4 of the table's
        // columns is compacted at the table's front first.
        let kept = window(sel, table.len());
        let identity = order.is_none()
            && width == table.width
            && positions.iter().enumerate().all(|(i, p)| *p == Some(i));
        let compactable = order.is_none()
            && (1..=4).contains(&width)
            && width <= table.width
            && positions.iter().all(Option::is_some);
        let ids = if identity {
            Arc::from(&table.data[kept.start * width..kept.end * width])
        } else if compactable {
            let (data, from) = (&mut table.data, table.width);
            match width {
                1 => compact::<1>(data, from, positions, kept.clone()),
                2 => compact::<2>(data, from, positions, kept.clone()),
                3 => compact::<3>(data, from, positions, kept.clone()),
                _ => compact::<4>(data, from, positions, kept.clone()),
            }
            Arc::from(&table.data[..kept.len() * width])
        } else {
            cells(kept.clone()).collect()
        };
        (ids, kept.len())
    };
    // The result holds the ids beside a handle on the graph's term table:
    // no term is cloned here, nor when the result is cloned or dropped.
    Ok(Solutions {
        variables: out_vars,
        rows: Rows::new(width, len, ids, graph.terms().clone()),
    })
}

/// The rows OFFSET/LIMIT keep out of `len`.
fn window(sel: &SelectQuery, len: usize) -> Range<usize> {
    let lo = sel.offset.unwrap_or(0).min(len);
    let hi = sel.limit.map_or(len, |l| lo.saturating_add(l).min(len));
    lo..hi
}

/// Moves the cells `cols` of each row of `rows` to the front of `data`, a
/// table `width` cells wide, as consecutive `W`-cell rows. A row is read
/// whole before it is written, and `W <= width`, so no write reaches a row
/// still to be read.
fn compact<const W: usize>(
    data: &mut [u32],
    width: usize,
    cols: &[Option<usize>],
    rows: Range<usize>,
) {
    assert_eq!(cols.len(), W, "one column per output cell");
    let cols: [usize; W] = std::array::from_fn(|i| cols[i].expect("a column of the table"));
    assert!(W <= width && cols.iter().all(|&c| c < width), "columns inside the table");
    for (dst, src) in rows.enumerate() {
        let row = &data[src * width..(src + 1) * width];
        let cells: [u32; W] = std::array::from_fn(|i| row[cols[i]]);
        data[dst * W..(dst + 1) * W].copy_from_slice(&cells);
    }
}

/// Row-major table of variable bindings in id space: `width` cells per
/// row, every row a contiguous stripe of one shared allocation. A cell is
/// a graph id or [`UNBOUND`] — the encoding of the result's [`Rows`], so
/// projection copies cells without converting them. The join pipeline
/// appends, filters and truncates rows without allocating per row. The row
/// count is tracked explicitly because fully concrete ASK patterns produce
/// zero-width rows.
#[derive(Debug, Clone)]
struct IdTable {
    width: usize,
    rows: usize,
    data: Vec<u32>,
}

impl IdTable {
    fn new(width: usize) -> Self {
        IdTable { width, rows: 0, data: Vec::new() }
    }

    /// One row with every column unbound — the seed every evaluation starts
    /// from.
    fn unit(width: usize) -> Self {
        IdTable { width, rows: 1, data: vec![UNBOUND; width] }
    }

    /// A one-row table copied from an existing row (OPTIONAL evaluates its
    /// right side once per left row).
    fn single(width: usize, row: &[u32]) -> Self {
        debug_assert_eq!(row.len(), width);
        IdTable { width, rows: 1, data: row.to_vec() }
    }

    fn len(&self) -> usize {
        self.rows
    }

    fn is_empty(&self) -> bool {
        self.rows == 0
    }

    fn row(&self, i: usize) -> &[u32] {
        &self.data[i * self.width..(i + 1) * self.width]
    }

    fn iter(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.rows).map(move |i| &self.data[i * self.width..(i + 1) * self.width])
    }

    /// Makes room for `rows` more rows, so a join step whose output size is
    /// known before it writes allocates once instead of doubling from empty.
    fn reserve(&mut self, rows: usize) {
        self.data.reserve(rows * self.width);
    }

    fn push(&mut self, row: &[u32]) {
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
    fn retain(&mut self, mut keep: impl FnMut(&[u32]) -> bool) {
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

    /// Appends one copy of `row` per entry of `entries`, with `emit`'s free
    /// columns written from the entry. A step whose pattern repeats a free
    /// variable checks each entry and appends the ones it admits; every
    /// other step on a table 1–4 cells wide writes fixed-size rows
    /// ([`IdTable::push_fixed`]).
    fn push_entries(&mut self, row: &[u32], entries: &[[u32; 3]], emit: &Emit) {
        match (emit.same().is_empty(), self.width) {
            (true, 1) => self.push_fixed::<1>(row, entries, emit),
            (true, 2) => self.push_fixed::<2>(row, entries, emit),
            (true, 3) => self.push_fixed::<3>(row, entries, emit),
            (true, 4) => self.push_fixed::<4>(row, entries, emit),
            _ => {
                for entry in entries.iter().filter(|e| emit.admits(e)) {
                    self.push_joined(row, entry, emit);
                }
            }
        }
    }

    /// Appends one `W`-cell row per entry: `row`, with each write of `emit`
    /// read from the entry. Every row runs the same three writes, the
    /// unused ones repeating the first, so the loop has no inner loop and
    /// no per-write bounds check. The writes go to the output row itself:
    /// patching a stack copy at a run-time column and then copying it out
    /// stalls on the reload (on a 2-vCPU x86-64 VM at ×119, about 9 ns a row
    /// at two or three cells, against about 3). A row with one entry is
    /// pushed; a row with more grows the table once and fills it, which
    /// saves a length update per entry on a first step's long scan.
    #[inline(always)]
    fn push_fixed<const W: usize>(&mut self, row: &[u32], entries: &[[u32; 3]], emit: &Emit) {
        let row: &[u32; W] = row.try_into().expect("probe rows are the table's width");
        let [(c0, k0), (c1, k1), (c2, k2)] = emit.writes;
        assert!(c0.max(c1).max(c2) < W && k0.max(k1).max(k2) < 3, "writes inside row and entry");
        self.rows += entries.len();
        if let [entry] = entries {
            self.data.extend_from_slice(row);
            if emit.n_writes > 0 {
                let cells = self.data.last_chunk_mut::<W>().expect("a row was just pushed");
                cells[c0] = entry[k0];
                cells[c1] = entry[k1];
                cells[c2] = entry[k2];
            }
            return;
        }
        let start = self.data.len();
        self.data.resize(start + entries.len() * W, UNBOUND);
        let out = self.data[start..].chunks_exact_mut(W);
        if emit.n_writes == 0 {
            // Every position bound: the step only tests that the triple exists.
            out.for_each(|cells| cells.copy_from_slice(row));
            return;
        }
        for (cells, entry) in out.zip(entries) {
            cells.copy_from_slice(row);
            cells[c0] = entry[k0];
            cells[c1] = entry[k1];
            cells[c2] = entry[k2];
        }
    }

    /// Appends `row` with `emit`'s free columns written from `entry`.
    fn push_joined(&mut self, row: &[u32], entry: &[u32; 3], emit: &Emit) {
        let start = self.data.len();
        self.data.extend_from_slice(row);
        for &(col, k) in emit.writes() {
            self.data[start + col] = entry[k];
        }
        self.rows += 1;
    }
}

/// How a join step writes one matching index entry into a copy of its
/// probe row: each free column's value sits at one component of the
/// (permuted) entry. A free variable at two positions (`?x <p> ?x`) is
/// written once and admits only entries holding one id at both.
#[derive(Debug, Default)]
struct Emit {
    /// `(column, entry component)`, one per free column; the slots past
    /// `n_writes` repeat the first, so [`IdTable::push_fixed`] runs three
    /// writes a row.
    writes: [(usize, usize); 3],
    n_writes: usize,
    /// Entry components that must be equal.
    same: [(usize, usize); 2],
    n_same: usize,
}

impl Emit {
    /// From the step's free `(column, SPO position)`s and the layout of
    /// the entries it reads.
    fn new(free: impl Iterator<Item = (usize, usize)>, layout: [usize; 3]) -> Emit {
        let mut emit = Emit::default();
        for (col, pos) in free {
            let k = layout[pos];
            match emit.writes().iter().find(|&&(c, _)| c == col) {
                Some(&(_, first)) => {
                    emit.same[emit.n_same] = (first, k);
                    emit.n_same += 1;
                }
                None => {
                    emit.writes[emit.n_writes] = (col, k);
                    emit.n_writes += 1;
                }
            }
        }
        for i in emit.n_writes.max(1)..3 {
            emit.writes[i] = emit.writes[0];
        }
        emit
    }

    fn writes(&self) -> &[(usize, usize)] {
        &self.writes[..self.n_writes]
    }

    fn same(&self) -> &[(usize, usize)] {
        &self.same[..self.n_same]
    }

    fn admits(&self, entry: &[u32; 3]) -> bool {
        self.same().iter().all(|&(a, b)| entry[a] == entry[b])
    }
}

/// Id-level bindings produced by BGP + filter evaluation. Projection and
/// slicing also run on ids, and the result keeps them: no term is cloned
/// for any cell.
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
    let initial = IdTable::unit(planned.variables.len());
    let mut trace = trace;
    let mut table = eval_algebra(graph, &planned.root, initial, &mut trace);

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
/// rows (UNION concatenation, OPTIONAL left join, filter error-drops); BGP
/// leaves join with the operators the planner chose.
fn eval_algebra(
    graph: &Graph,
    node: &Algebra,
    bindings: IdTable,
    trace: &mut Option<&mut PlanTrace>,
) -> IdTable {
    match node {
        Algebra::Bgp(steps) => join_steps(graph, steps, bindings, None, trace),
        Algebra::Slice { input, limit } => match &**input {
            // Bare-LIMIT/ASK pushdown: only a Slice directly over a BGP can
            // stop the join mid-scan. Any other child could drop or multiply
            // rows, so it is evaluated in full and truncated.
            Algebra::Bgp(steps) => join_steps(graph, steps, bindings, Some(*limit), trace),
            other => {
                let mut rows = eval_algebra(graph, other, bindings, trace);
                rows.truncate(*limit);
                rows
            }
        },
        // UNION: concatenate the solutions of each alternative, each
        // evaluated from the input's bindings (join semantics with the
        // surrounding group).
        Algebra::Union { input, alternatives } => {
            let bindings = eval_algebra(graph, input, bindings, trace);
            if bindings.is_empty() {
                return bindings;
            }
            let mut next = IdTable::new(bindings.width);
            for alt in alternatives {
                next.append(&eval_algebra(graph, alt, bindings.clone(), trace));
            }
            next
        }
        // OPTIONAL: left join — keep the binding unextended when the
        // optional part has no solutions.
        Algebra::LeftJoin { input, right } => {
            let bindings = eval_algebra(graph, input, bindings, trace);
            let mut next = IdTable::new(bindings.width);
            for i in 0..bindings.len() {
                let extended = eval_algebra(
                    graph,
                    right,
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
        // error semantics). Each filter is one pass over the rows the
        // previous ones kept.
        Algebra::Filter { input, exprs } => {
            let mut bindings = eval_algebra(graph, input, bindings, trace);
            let started = trace.is_some().then(Instant::now);
            let rows_in = bindings.len();
            for expr in exprs {
                filter(graph, expr, &mut bindings);
            }
            if let (Some(t), Some(started)) = (trace.as_deref_mut(), started) {
                let f = t.filter.get_or_insert_with(FilterStep::default);
                f.rows_in += rows_in;
                f.rows_out += bindings.len();
                f.nanos += started.elapsed().as_nanos() as u64;
            }
            bindings
        }
    }
}

/// Keeps the rows `expr` holds on. A comparison of a column against a
/// number or a date constant compares the column's typed value straight
/// from the value column whenever it is of the constant's kind; every
/// other row and every other expression is evaluated by [`eval`].
fn filter(graph: &Graph, expr: &BoundExpr, bindings: &mut IdTable) {
    let holds = |row: &[u32]| eval(expr, row, graph).is_some_and(|v| v.truthy());
    let Some((col, op, constant)) = column_against_constant(expr) else {
        return bindings.retain(holds);
    };
    bindings.retain(|row| {
        let id = row[col];
        if id == UNBOUND {
            return false;
        }
        match (graph.value(TermId(id)), constant) {
            (TermValue::Num(x), TermValue::Num(c)) => cmp_holds(x.partial_cmp(&c), op),
            (TermValue::Date(x), TermValue::Date(c)) => cmp_holds(Some(x.cmp(&c)), op),
            _ => holds(row),
        }
    });
}

/// `?col op constant` for a number or date constant, with a constant on
/// the left mirrored to the right (`5 < ?x` is `?x > 5`).
fn column_against_constant(expr: &BoundExpr) -> Option<(usize, CmpOp, TermValue)> {
    let BoundExpr::Cmp(lhs, op, rhs) = expr else { return None };
    let (col, op, constant) = match (&**lhs, &**rhs) {
        (BoundExpr::Col(c), BoundExpr::Const(_, v)) => (*c, *op, *v),
        (BoundExpr::Const(_, v), BoundExpr::Col(c)) => (*c, mirrored(*op), *v),
        _ => return None,
    };
    matches!(constant, TermValue::Num(_) | TermValue::Date(_)).then_some((col, op, constant))
}

/// The operator that holds on swapped operands.
fn mirrored(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        symmetric => symmetric,
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
        let step_started = trace.is_some().then(Instant::now);
        let scanned_before = scanned;
        let mut algo = if cap.is_some() { JoinAlgo::Nested } else { planned.algo };
        let mut next = IdTable::new(bindings.width);
        // A dead step (a concrete term the graph lacks) matches nothing.
        if !planned.dead {
            if algo != JoinAlgo::Nested
                && !join_batched(graph, planned, &bindings, algo, &mut next, &mut scanned)
            {
                // The batch precondition (uniformly bound probe rows) failed:
                // fall back.
                algo = JoinAlgo::Nested;
                next = IdTable::new(bindings.width);
                scanned = scanned_before;
            }
            if algo == JoinAlgo::Nested {
                join_nested(graph, planned, &bindings, cap, &mut next, &mut scanned);
            }
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
                "pattern" => &planned.pattern,
                "position" => step,
                "estimate" => planned.estimate,
                "score" => planned.score,
                "scanned" => step_scanned,
            );
        }
        if let Some(t) = trace.as_deref_mut() {
            t.steps.push(PlanStep {
                pattern: planned.pattern.to_string(),
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

/// `pattern` with position `pos` (0 = subject, 1 = predicate, 2 = object)
/// bound to `id`.
fn bind_position(mut pattern: IdPattern, pos: usize, id: u32) -> IdPattern {
    let slot = match pos {
        0 => &mut pattern.subject,
        1 => &mut pattern.predicate,
        _ => &mut pattern.object,
    };
    *slot = Some(TermId(id));
    pattern
}

/// The always-correct fallback operator: for each probe row, bind the
/// step's variables the row binds and stream the matching slice of
/// [`Graph::scan_iter`], counting every visited row. Which columns are free
/// is read per row, so rows need not be uniform. The only operator that
/// can honor a mid-scan `cap`. With a single probe row (a BGP's first step)
/// the output is at most that row's slice, so it is reserved up front.
fn join_nested(
    graph: &Graph,
    step: &PlannedStep,
    bindings: &IdTable,
    cap: Option<usize>,
    next: &mut IdTable,
    scanned: &mut u64,
) {
    for row in bindings.iter() {
        let mut pattern = step.ids;
        let mut free = ColumnSet::default();
        for (pos, col) in step.columns.iter().enumerate() {
            let Some(col) = *col else { continue };
            match row[col] {
                UNBOUND => free.insert(col, pos),
                id => pattern = bind_position(pattern, pos, id),
            }
        }
        let matches = graph.scan_iter(pattern);
        let entries = matches.entries();
        let emit = Emit::new(free.iter(), matches.layout());
        if bindings.len() == 1 {
            next.reserve(entries.len().min(cap.unwrap_or(usize::MAX)));
        }
        // Without a cap every entry is visited; with one the scan stops at
        // the entry that fills it.
        let Some(cap) = cap else {
            *scanned += entries.len() as u64;
            next.push_entries(row, entries, &emit);
            continue;
        };
        for entry in entries {
            *scanned += 1;
            if emit.admits(entry) {
                next.push_joined(row, entry, &emit);
                if next.len() >= cap {
                    return;
                }
            }
        }
    }
}

/// Some of a step's variable positions for one probe row, as `(column,
/// SPO position)`s: the ones the row leaves free, or the ones it binds.
#[derive(Debug, Clone, Copy, Default)]
struct ColumnSet {
    at: [(usize, usize); 3],
    len: usize,
}

impl ColumnSet {
    fn insert(&mut self, col: usize, pos: usize) {
        self.at[self.len] = (col, pos);
        self.len += 1;
    }

    fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.at[..self.len].iter().copied()
    }
}

/// How a batched step builds each probe row's permuted key, and checks
/// that the row is uniform: it binds every key column and leaves every
/// free column unbound.
struct ProbeKey {
    /// The first row's key: the pattern's constants, zeros past the prefix.
    base: [u32; 3],
    /// The column each key component is read from, where it is a variable.
    cols: [Option<usize>; 3],
    free: ColumnSet,
}

impl ProbeKey {
    /// From the key of the first row's pattern, its bound and free
    /// positions and the probe's entry layout.
    fn new(base: [u32; 3], bound: ColumnSet, free: ColumnSet, layout: [usize; 3]) -> Self {
        let mut cols = [None; 3];
        for (col, pos) in bound.iter() {
            cols[layout[pos]] = Some(col);
        }
        ProbeKey { base, cols, free }
    }

    /// The row's key, `None` when the row is not uniform. A bound graph id
    /// is never [`UNBOUND`], nor is a constant.
    #[inline(always)]
    fn of(&self, row: &[u32]) -> Option<[u32; 3]> {
        let key: [u32; 3] =
            std::array::from_fn(|i| self.cols[i].map_or(self.base[i], |col| row[col]));
        (!key.contains(&UNBOUND) && self.leaves_free(row)).then_some(key)
    }

    /// Whether the row leaves every free column unbound.
    #[inline(always)]
    fn leaves_free(&self, row: &[u32]) -> bool {
        self.free.iter().all(|(col, _)| row[col] == UNBOUND)
    }
}

/// Batched sorted operators — merge and gallop. Both resolve the pattern's
/// shape once from the first probe row (top-level BGP rows are uniform: every
/// row binds exactly the variables earlier steps bound), route it to one
/// permutation slice, and locate each **distinct** probe key's range
/// exactly once, searching forward from the previous key's range with
/// [`relpat_rdf::FrozenProbe::bounds_from`]'s exponential search. `scanned`
/// counts each distinct range once, which is the probe work actually done
/// and never exceeds the nested loop's per-row rescans.
///
/// Merge is one pass over the probe rows: it compares each row's bound
/// column with the previous row's, builds a key and searches only when
/// that value changes, and writes the row's matches straight from the
/// permuted entries before it reads the next row. Gallop hashes the keys,
/// visits the distinct ones in sorted order, reserves the output from the
/// ranges' total and then writes each row's range.
///
/// Extended rows are emitted in the probe rows' original order — order
/// preservation is what keeps the binding stream sorted for downstream merge
/// steps and the solution sequence bit-identical to the nested loop's.
///
/// Returns `false` when the batch cannot run — some probe row does not bind
/// exactly the first row's columns of this step (checked once per row); the
/// caller discards what was written and falls back to [`join_nested`].
fn join_batched(
    graph: &Graph,
    step: &PlannedStep,
    bindings: &IdTable,
    algo: JoinAlgo,
    next: &mut IdTable,
    scanned: &mut u64,
) -> bool {
    if bindings.is_empty() {
        return true;
    }
    let first = bindings.row(0);
    let mut shape = step.ids;
    let (mut bound, mut free) = (ColumnSet::default(), ColumnSet::default());
    for (pos, col) in step.columns.iter().enumerate() {
        let Some(col) = *col else { continue };
        if first[col] == UNBOUND {
            free.insert(col, pos);
        } else {
            shape = bind_position(shape, pos, first[col]);
            bound.insert(col, pos);
        }
    }
    let probe = graph.probe(shape);
    let layout = probe.layout();
    let key = ProbeKey::new(probe.key(shape), bound, free, layout);
    let emit = Emit::new(free.iter(), layout);

    match algo {
        JoinAlgo::Merge => {
            let Some((col, _)) = bound.iter().next() else { return false };
            if bound.iter().any(|(c, _)| c != col) {
                return false;
            }
            // A first guess of one entry per probe row; past it the table
            // grows by doubling.
            next.reserve(bindings.len());
            match (emit.same().is_empty(), bindings.width) {
                (true, 1) => merge::<1>(bindings, probe, &key, col, &emit, next, scanned),
                (true, 2) => merge::<2>(bindings, probe, &key, col, &emit, next, scanned),
                (true, 3) => merge::<3>(bindings, probe, &key, col, &emit, next, scanned),
                (true, 4) => merge::<4>(bindings, probe, &key, col, &emit, next, scanned),
                _ => merge::<0>(bindings, probe, &key, col, &emit, next, scanned),
            }
        }
        _ => {
            // Gallop: count each distinct probe key's rows, locate each
            // distinct key's range once in ascending key order, galloping on
            // from the previous key's range, then write the rows in original
            // row order, looking each row's range up by its key.
            let mut found: FxHashMap<[u32; 3], (usize, (usize, usize))> = FxHashMap::default();
            for row in bindings.iter() {
                let Some(key) = key.of(row) else { return false };
                found.entry(key).or_default().0 += 1;
            }
            let mut distinct: Vec<[u32; 3]> = found.keys().copied().collect();
            distinct.sort_unstable();
            let (mut from, mut total) = (0, 0);
            for key in &distinct {
                let (lo, hi) = probe.bounds_from(from, *key);
                *scanned += (hi - lo) as u64;
                let (rows, range) = found.get_mut(key).expect("a counted key");
                *range = (lo, hi);
                total += *rows * (hi - lo);
                from = hi;
            }
            next.reserve(total);
            for row in bindings.iter() {
                let (lo, hi) = found[&key.of(row).expect("rows checked above")].1;
                next.push_entries(row, probe.entries(lo, hi), &emit);
            }
            true
        }
    }
}

/// The merge operator: one pass over the probe rows, which are sorted by
/// `col`, the step's one bound column and its key's only varying component,
/// so keys are non-decreasing. A row whose `col` repeats the previous
/// row's value reuses its range; a new value builds the key and searches
/// forward from the previous range's end, so each distinct key's range is
/// found once. Each row's matches are written before the next row is read,
/// as fixed-size rows when `W` is the table's width (1–4) and through
/// [`IdTable::push_entries`] when `W` is 0. Returns `false` at the first row
/// that is not uniform.
fn merge<const W: usize>(
    bindings: &IdTable,
    probe: FrozenProbe<'_>,
    key: &ProbeKey,
    col: usize,
    emit: &Emit,
    next: &mut IdTable,
    scanned: &mut u64,
) -> bool {
    // The first row binds `col`, so its value differs from `prev`.
    let (mut prev, mut range) = (UNBOUND, (0, 0));
    for row in bindings.data.chunks_exact(bindings.width) {
        let value = row[col];
        if value != prev {
            let Some(key) = key.of(row) else { return false };
            debug_assert!(prev == UNBOUND || value > prev, "merge probe keys regressed");
            // Keys never regress when the plan's sortedness argument holds;
            // restart from 0 if they somehow do (release-mode correctness
            // over speed).
            let from = if value > prev { range.1 } else { 0 };
            range = probe.bounds_from(from, key);
            *scanned += (range.1 - range.0) as u64;
            prev = value;
        } else if !key.leaves_free(row) {
            return false;
        }
        let entries = probe.entries(range.0, range.1);
        if W == 0 {
            next.push_entries(row, entries, emit);
        } else {
            next.push_fixed::<W>(row, entries, emit);
        }
    }
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
fn eval<'a>(expr: &'a BoundExpr, row: &[u32], graph: &'a Graph) -> Option<Value<'a>> {
    let eval = |e: &'a BoundExpr| eval(e, row, graph);
    match expr {
        BoundExpr::Col(c) => {
            let id = Some(row[*c]).filter(|&id| id != UNBOUND).map(TermId)?;
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
        BoundExpr::Bound(c) => Some(Value::Bool(row[*c] != UNBOUND)),
    }
}

/// A FILTER comparison. A NaN operand makes every operator false except
/// `!=`, which is true (`op:numeric-equal` / `op:numeric-less-than`).
fn apply_cmp(l: &Value<'_>, op: CmpOp, r: &Value<'_>) -> bool {
    cmp_holds(compare(l, r), op)
}

/// Whether `op` holds on operands ordered `ord`; `None` (a NaN operand)
/// holds for `!=` only.
#[inline]
fn cmp_holds(ord: Option<Ordering>, op: CmpOp) -> bool {
    let Some(ord) = ord else { return op == CmpOp::Ne };
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
        assert_eq!(skipped.rows.get(0), all.rows.get(1));
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
        assert_eq!(sols.rows.get(0).unwrap().get(0).unwrap().as_ref(), None);
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
        let bound: Vec<bool> = sols.rows.iter().map(|r| r.get(1).unwrap().is_bound()).collect();
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
        assert_eq!(sols.rows.iter().filter(|r| r.get(1).unwrap().is_bound()).count(), 1); // 536 only
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

    /// The library with a book that has no writer (a key missing between
    /// present ones) and one with two writers (two entries for one key).
    fn merge_library() -> Graph {
        let mut b = library_builder();
        let (ty, book, writer) =
            (Term::iri(rdf::TYPE), Term::iri(dbont::iri("Book")), Term::iri(dbont::iri("writer")));
        b.add(Term::iri(res::iri("Untitled")), ty.clone(), book.clone());
        let anthology = Term::iri(res::iri("Anthology"));
        b.add(anthology.clone(), ty, book);
        b.add(anthology.clone(), writer.clone(), Term::iri(res::iri("Orhan Pamuk")));
        b.add(anthology, writer, Term::iri(res::iri("Stanislaw Lem")));
        b.build()
    }

    /// The writer step of `?x a Book . ?x writer ?w`, planned as a merge,
    /// and its probe rows: the type scan's, sorted by ?x with ?w unbound.
    fn merge_probe(g: &Graph) -> (PlannedStep, IdTable) {
        let q =
            crate::parser::parse_query("SELECT * { ?x rdf:type dbont:Book . ?x dbont:writer ?w }")
                .unwrap();
        let planned = crate::algebra::lower(g, &q, None);
        let Algebra::Bgp(steps) = planned.root else { panic!("one BGP") };
        assert_eq!(steps[1].algo, JoinAlgo::Merge);
        let rows = join_steps(g, &steps[..1], IdTable::unit(2), None, &mut None);
        (steps[1].clone(), rows)
    }

    /// The nested operator's rows and scan count for `rows`.
    fn nested_join(g: &Graph, step: &PlannedStep, rows: &IdTable) -> (IdTable, u64) {
        let (mut next, mut scanned) = (IdTable::new(rows.width), 0);
        join_nested(g, step, rows, None, &mut next, &mut scanned);
        (next, scanned)
    }

    /// `rows` with every row twice in a row.
    fn doubled(rows: &IdTable) -> IdTable {
        let mut doubled = IdTable::new(rows.width);
        for row in rows.iter() {
            doubled.push(row);
            doubled.push(row);
        }
        doubled
    }

    #[test]
    fn a_non_uniform_row_after_written_rows_falls_back_to_nested() {
        let g = merge_library();
        let (step, rows) = merge_probe(&g);
        // The last probe row already binds ?w, so it is not uniform, and it
        // arrives after the merge has written the earlier rows' matches:
        // once with a new ?x, once repeating the previous row's.
        for mut rows in [rows.clone(), doubled(&rows)] {
            let (w, last) = (step.columns[2].expect("?w is a column"), rows.len() - 1);
            rows.data[last * rows.width + w] = rows.data[0];
            let (mut next, mut scanned) = (IdTable::new(rows.width), 0);
            assert!(!join_batched(&g, &step, &rows, JoinAlgo::Merge, &mut next, &mut scanned));
            assert!(!next.is_empty(), "the merge wrote rows before it met the non-uniform one");

            let mut trace = PlanTrace::default();
            let out = join_steps(
                &g,
                std::slice::from_ref(&step),
                rows.clone(),
                None,
                &mut Some(&mut trace),
            );
            let (nested, nested_scanned) = nested_join(&g, &step, &rows);
            assert_eq!((out.len(), &out.data), (nested.len(), &nested.data));
            assert_eq!(trace.steps[0].join_algo, JoinAlgo::Nested);
            assert_eq!(trace.steps[0].rows_scanned, nested_scanned);
        }
    }

    #[test]
    fn merge_equals_nested_and_scans_each_distinct_key_once() {
        let g = merge_library();
        let (step, rows) = merge_probe(&g);
        // Every book twice in a row: repeated keys reuse their range.
        let doubled = doubled(&rows);
        let (mut next, mut scanned) = (IdTable::new(rows.width), 0);
        assert!(join_batched(&g, &step, &doubled, JoinAlgo::Merge, &mut next, &mut scanned));
        let (nested, nested_scanned) = nested_join(&g, &step, &doubled);
        assert_eq!((next.len(), &next.data), (nested.len(), &nested.data));
        // Five writer triples, each range counted once by the merge and
        // once per probe row by the nested loop.
        assert_eq!((scanned, nested_scanned), (5, 10));
    }

    /// Keys that regress stop a debug build at the merge's `debug_assert!`;
    /// a release build restarts the search from the start of the index.
    #[cfg(not(debug_assertions))]
    #[test]
    fn merge_over_an_unsorted_stream_restarts_its_search() {
        let g = merge_library();
        let (step, rows) = merge_probe(&g);
        let mut unsorted = IdTable::new(rows.width);
        for i in (0..rows.len()).rev().chain([rows.len() - 1, 0, rows.len() - 1]) {
            unsorted.push(rows.row(i));
        }
        let (mut next, mut scanned) = (IdTable::new(rows.width), 0);
        assert!(join_batched(&g, &step, &unsorted, JoinAlgo::Merge, &mut next, &mut scanned));
        let (nested, nested_scanned) = nested_join(&g, &step, &unsorted);
        assert_eq!((next.len(), &next.data), (nested.len(), &nested.data));
        assert!(scanned <= nested_scanned);
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
