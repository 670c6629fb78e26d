//! Solution sequences returned by `SELECT` queries.
//!
//! A result is an id table: the executor copies the output window of its
//! id-space bindings into one flat `Arc<[u32]>` of cells and keeps, beside
//! it, a handle on the graph's shared [`TermTable`]. No term is cloned when
//! a result is built, cloned (the query cache does on insert and on every
//! hit) or dropped; a reader resolves a cell to a `&Term` only when it asks
//! for one ([`Cell::as_ref`]), and id consumers read [`Cell::term_id`]
//! without resolving at all.

use std::fmt;
use std::sync::Arc;

use relpat_obs::fx::FxHashSet;
use relpat_rdf::{Term, TermId, TermTable};

/// The cell id of an unbound cell. Interners stop below it.
pub(crate) const UNBOUND: u32 = u32::MAX;

/// A table of variable bindings: one column per projected variable, one row
/// per solution. Unbound projections are cells whose [`Cell::as_ref`] is
/// `None`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Solutions {
    pub variables: Vec<String>,
    pub rows: Rows,
}

/// What a table's cell ids resolve against: ids below the graph table's
/// length are graph ids; the ids after it index the computed terms (the
/// `COUNT` literal), which no graph holds.
#[derive(Clone, Default)]
struct Terms {
    graph: TermTable,
    computed: Option<Arc<[Term]>>,
}

impl Terms {
    /// The term of a cell id, `None` for [`UNBOUND`]. Panics on an id past
    /// both tables, which only a corrupt table could hold.
    #[inline]
    fn resolve(&self, id: u32) -> Option<&Term> {
        if id == UNBOUND {
            return None;
        }
        Some(match self.graph.get(TermId(id)) {
            Some(term) => term,
            None => &self.computed.as_deref().unwrap_or_default()[id as usize - self.graph.len()],
        })
    }

    /// True if equal ids mean equal terms across two tables: the same graph
    /// table and no computed terms on either side.
    fn same(&self, other: &Terms) -> bool {
        self.graph.same_table(&other.graph) && self.computed.is_none() && other.computed.is_none()
    }
}

/// The rows of a [`Solutions`]: a flat, row-major, immutable table of
/// 4-byte cell ids behind one `Arc`, plus the term tables they resolve
/// against. The executor fills it once, after OFFSET/LIMIT, with one slice
/// copy; cloning it is two refcount bumps. Row `i` is the slice
/// `ids[i * width..(i + 1) * width]`. The row count is kept explicitly
/// because a fully concrete pattern yields zero-width rows.
///
/// Within one table ids are injective — graph ids by interning, and the
/// computed side table holds one term — so comparing ids compares terms.
#[derive(Clone)]
pub struct Rows {
    width: usize,
    len: usize,
    ids: Arc<[u32]>,
    terms: Terms,
}

impl Rows {
    /// A table of `len` rows of `width` cells each, stored row-major in
    /// `ids` as ids of `graph` or [`UNBOUND`]. Panics if `ids` does not hold
    /// exactly `width * len` cells.
    pub(crate) fn new(width: usize, len: usize, ids: Arc<[u32]>, graph: TermTable) -> Self {
        assert_eq!(ids.len(), width * len, "cells must fill {len} rows of width {width}");
        Rows { width, len, ids, terms: Terms { graph, computed: None } }
    }

    /// A one-column table of `len` rows, each holding `term`, which is
    /// computed rather than read from `graph` (an aggregate's value).
    pub(crate) fn computed(graph: &TermTable, term: Term, len: usize) -> Self {
        let id = u32::try_from(graph.len())
            .ok()
            .filter(|&id| id < UNBOUND)
            .expect("graph ids stop below u32::MAX - 1");
        Rows {
            width: 1,
            len,
            ids: std::iter::repeat_n(id, len).collect(),
            terms: Terms { graph: graph.clone(), computed: Some(Arc::from([term])) },
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`, if it exists.
    pub fn get(&self, i: usize) -> Option<Row<'_>> {
        (i < self.len).then(|| Row {
            ids: &self.ids[i * self.width..(i + 1) * self.width],
            terms: &self.terms,
        })
    }

    /// Rows in order, each a view of `width` cells.
    pub fn iter(&self) -> RowIter<'_> {
        RowIter { rows: self, next: 0 }
    }

    /// Every cell, row-major.
    fn cells(&self) -> Cells<'_> {
        Cells { ids: self.ids.iter(), terms: &self.terms }
    }
}

impl Default for Rows {
    fn default() -> Self {
        Rows { width: 0, len: 0, ids: Arc::from([]), terms: Terms::default() }
    }
}

/// Rows compare by term value, so results over different graphs compare
/// correctly; over one graph it is a comparison of the id arrays.
impl PartialEq for Rows {
    fn eq(&self, other: &Rows) -> bool {
        if (self.width, self.len) != (other.width, other.len) {
            return false;
        }
        if self.terms.same(&other.terms) {
            return self.ids == other.ids;
        }
        self.cells().zip(other.cells()).all(|(a, b)| a == b)
    }
}

impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a Rows {
    type Item = Row<'a>;
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

/// Iterator over the rows of a [`Rows`] table.
#[derive(Debug, Clone)]
pub struct RowIter<'a> {
    rows: &'a Rows,
    next: usize,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = Row<'a>;

    fn next(&mut self) -> Option<Row<'a>> {
        let row = self.rows.get(self.next)?;
        self.next += 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.rows.len - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for RowIter<'_> {}

/// One row of a [`Rows`] table: a borrowed view of its cell ids.
#[derive(Clone, Copy)]
pub struct Row<'a> {
    ids: &'a [u32],
    terms: &'a Terms,
}

impl<'a> Row<'a> {
    /// Number of cells (the table's width).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Cell `col`, if it exists.
    pub fn get(&self, col: usize) -> Option<Cell<'a>> {
        self.ids.get(col).map(|&id| Cell { id, terms: self.terms })
    }

    /// The cells in column order.
    pub fn iter(&self) -> Cells<'a> {
        Cells { ids: self.ids.iter(), terms: self.terms }
    }
}

impl<'a> IntoIterator for Row<'a> {
    type Item = Cell<'a>;
    type IntoIter = Cells<'a>;

    fn into_iter(self) -> Cells<'a> {
        self.iter()
    }
}

/// Rows compare by term value, cell by cell.
impl PartialEq for Row<'_> {
    fn eq(&self, other: &Row<'_>) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl fmt::Debug for Row<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over cells: one row's, or a whole table's row-major.
#[derive(Clone)]
pub struct Cells<'a> {
    ids: std::slice::Iter<'a, u32>,
    terms: &'a Terms,
}

impl<'a> Iterator for Cells<'a> {
    type Item = Cell<'a>;

    #[inline]
    fn next(&mut self) -> Option<Cell<'a>> {
        self.ids.next().map(|&id| Cell { id, terms: self.terms })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
    }
}

impl ExactSizeIterator for Cells<'_> {}

/// One cell of a result: an id that resolves to its term on demand.
/// Iterating a cell yields its term if it is bound, so
/// `rows.iter().flatten().flatten()` walks every bound `&Term`.
#[derive(Clone, Copy)]
pub struct Cell<'a> {
    id: u32,
    terms: &'a Terms,
}

impl<'a> Cell<'a> {
    /// True unless the variable is unbound in this row.
    pub fn is_bound(&self) -> bool {
        self.id != UNBOUND
    }

    /// The cell's term, borrowed from the term table; `None` if unbound.
    #[inline]
    pub fn as_ref(&self) -> Option<&'a Term> {
        self.terms.resolve(self.id)
    }

    /// The cell's id in the graph that produced it, without resolving the
    /// term. `None` for an unbound cell and for a computed one (a `COUNT`
    /// value), which no graph holds.
    #[inline]
    pub fn term_id(&self) -> Option<TermId> {
        ((self.id as usize) < self.terms.graph.len()).then_some(TermId(self.id))
    }
}

impl<'a> IntoIterator for Cell<'a> {
    type Item = &'a Term;
    type IntoIter = std::option::IntoIter<&'a Term>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_ref().into_iter()
    }
}

/// Cells compare by term value; two unbound cells are equal.
impl PartialEq for Cell<'_> {
    fn eq(&self, other: &Cell<'_>) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl fmt::Debug for Cell<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_ref().fmt(f)
    }
}

impl Solutions {
    /// Number of solutions.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The binding of `var` in row `row`, if any.
    pub fn get(&self, row: usize, var: &str) -> Option<&Term> {
        let col = self.variables.iter().position(|v| v == var)?;
        self.rows.get(row)?.get(col)?.as_ref()
    }

    /// All bindings of one variable across rows (skipping unbound).
    pub fn column(&self, var: &str) -> Vec<&Term> {
        let Some(col) = self.variables.iter().position(|v| v == var) else {
            return Vec::new();
        };
        self.rows.iter().filter_map(|r| r.get(col)?.as_ref()).collect()
    }

    /// The single binding of the first projected variable of the first row —
    /// the common "give me the answer" accessor for single-var queries.
    pub fn first(&self) -> Option<&Term> {
        self.rows.get(0)?.get(0)?.as_ref()
    }

    /// Every bound cell once, in first-seen row-major order — the distinct
    /// answers of a result. Deduplicates on cell ids, which are injective
    /// within one table, so no term is resolved or hashed: a caller resolves
    /// only the cells it keeps.
    pub fn distinct_cells(&self) -> impl Iterator<Item = Cell<'_>> {
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        self.rows.cells().filter(move |cell| cell.is_bound() && seen.insert(cell.id))
    }

    /// Renders an ASCII table, for examples and reports.
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.variables.join(" | "));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .map(|t| t.as_ref().map_or("—".to_string(), relpat_rdf::render_term))
                .collect();
            let _ = writeln!(out, "| {} |", cells.join(" | "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relpat_rdf::{Graph, GraphBuilder};

    fn graph() -> Graph {
        let mut b = GraphBuilder::new();
        b.add(Term::iri("http://e/a"), Term::iri("http://e/p"), Term::literal("v"));
        b.add(Term::iri("http://e/b"), Term::iri("http://e/p"), Term::literal("v"));
        b.build()
    }

    fn id(g: &Graph, term: Term) -> u32 {
        g.term_id(&term).unwrap().0
    }

    /// `x y` rows `(a, unbound)` and `(b, "v")` over `g`.
    fn sample_over(g: &Graph) -> Solutions {
        let (a, b, v) =
            (id(g, Term::iri("http://e/a")), id(g, Term::iri("http://e/b")), id(g, Term::literal("v")));
        Solutions {
            variables: vec!["x".into(), "y".into()],
            rows: Rows::new(2, 2, Arc::from([a, UNBOUND, b, v]), g.terms().clone()),
        }
    }

    fn sample() -> Solutions {
        sample_over(&graph())
    }

    #[test]
    fn get_by_name() {
        let s = sample();
        assert_eq!(s.get(0, "x"), Some(&Term::iri("http://e/a")));
        assert_eq!(s.get(0, "y"), None);
        assert_eq!(s.get(9, "x"), None);
        assert_eq!(s.get(0, "zzz"), None);
    }

    #[test]
    fn column_skips_unbound() {
        let s = sample();
        assert_eq!(s.column("y").len(), 1);
        assert_eq!(s.column("x").len(), 2);
        assert!(s.column("nope").is_empty());
    }

    #[test]
    fn first_returns_first_binding() {
        let s = sample();
        assert_eq!(s.first(), Some(&Term::iri("http://e/a")));
        assert_eq!(Solutions::default().first(), None);
    }

    #[test]
    fn table_renders_every_row() {
        let s = sample();
        let table = s.to_table();
        assert_eq!(table.lines().count(), 3);
        assert!(table.contains("—"));
    }

    #[test]
    fn rows_get_and_iterate_row_major() {
        let rows = sample().rows;
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.get(1).unwrap().get(1).unwrap().as_ref(), Some(&Term::literal("v")));
        assert_eq!(rows.iter().len(), 2);
        assert_eq!(rows.iter().flatten().flatten().count(), 3);
        assert!(rows.get(2).is_none());
        assert!(rows.get(0).unwrap().get(2).is_none());
    }

    #[test]
    fn cells_carry_graph_ids() {
        let g = graph();
        let s = sample_over(&g);
        let row = s.rows.get(0).unwrap();
        assert_eq!(row.get(0).unwrap().term_id(), g.term_id(&Term::iri("http://e/a")));
        assert_eq!(row.get(1).unwrap().term_id(), None);
        assert!(!row.get(1).unwrap().is_bound());
    }

    #[test]
    fn zero_width_rows_keep_their_count() {
        let rows = Rows::new(0, 3, Arc::from([]), TermTable::default());
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.is_empty()));
        assert_ne!(rows, Rows::default());
    }

    #[test]
    fn clone_shares_the_cells() {
        let rows = sample().rows;
        let copy = rows.clone();
        assert!(Arc::ptr_eq(&rows.ids, &copy.ids));
        assert_eq!(rows, copy);
    }

    #[test]
    fn equality_is_by_term_across_graphs() {
        // The same solutions over a graph whose ids differ.
        let mut b = GraphBuilder::new();
        b.add(Term::iri("http://e/b"), Term::iri("http://e/q"), Term::literal("v"));
        b.add(Term::iri("http://e/a"), Term::iri("http://e/p"), Term::literal("w"));
        let other = b.build();
        let here = sample();
        let there = sample_over(&other);
        assert_ne!(here.rows.ids, there.rows.ids);
        assert_eq!(here, there);
        assert_eq!(here.rows.get(1), there.rows.get(1));
        assert_ne!(here.rows.get(0), there.rows.get(1));
    }

    #[test]
    fn computed_cells_resolve_past_the_graph() {
        let g = graph();
        let rows = Rows::computed(g.terms(), Term::literal("3"), 1);
        let cell = rows.get(0).unwrap().get(0).unwrap();
        assert_eq!(cell.as_ref(), Some(&Term::literal("3")));
        assert_eq!(cell.term_id(), None);
        assert_eq!(rows, Rows::computed(&TermTable::default(), Term::literal("3"), 1));
        assert_ne!(rows, Rows::computed(g.terms(), Term::literal("4"), 1));
        assert!(Rows::computed(g.terms(), Term::literal("3"), 0).is_empty());
    }

    #[test]
    fn distinct_cells_keep_first_seen_order() {
        let g = graph();
        let (a, b, v) =
            (id(&g, Term::iri("http://e/a")), id(&g, Term::iri("http://e/b")), id(&g, Term::literal("v")));
        let s = Solutions {
            variables: vec!["x".into(), "y".into()],
            rows: Rows::new(2, 3, Arc::from([v, a, UNBOUND, v, a, b]), g.terms().clone()),
        };
        let got: Vec<&Term> = s.distinct_cells().flatten().collect();
        assert_eq!(got, [&Term::literal("v"), &Term::iri("http://e/a"), &Term::iri("http://e/b")]);
    }
}
