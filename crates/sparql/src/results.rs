//! Solution sequences returned by `SELECT` queries.

use std::fmt;
use std::ops::Index;
use std::sync::Arc;

use relpat_rdf::Term;

/// A table of variable bindings: one column per projected variable, one row
/// per solution. Unbound projections are `None`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Solutions {
    pub variables: Vec<String>,
    pub rows: Rows,
}

/// The rows of a [`Solutions`]: a flat, row-major, immutable cell table
/// behind one `Arc`. The executor fills it once, after OFFSET/LIMIT, with a
/// refcount bump per cell (term payloads are `Arc<str>`); cloning it — as the
/// query cache does on insert and on every hit — is O(1). Row `i` is the
/// slice `cells[i * width..(i + 1) * width]`. The row count is kept
/// explicitly because a fully concrete pattern yields zero-width rows.
#[derive(Clone, PartialEq)]
pub struct Rows {
    width: usize,
    len: usize,
    cells: Arc<[Option<Term>]>,
}

impl Rows {
    /// A table of `len` rows of `width` cells each, stored row-major in
    /// `cells`. Panics if `cells` does not hold exactly `width * len` cells.
    pub(crate) fn new(width: usize, len: usize, cells: Arc<[Option<Term>]>) -> Self {
        assert_eq!(cells.len(), width * len, "cells must fill {len} rows of width {width}");
        Rows { width, len, cells }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`, if it exists.
    pub fn get(&self, i: usize) -> Option<&[Option<Term>]> {
        (i < self.len).then(|| &self.cells[i * self.width..(i + 1) * self.width])
    }

    /// Rows in order, each a slice of `width` cells.
    pub fn iter(&self) -> RowIter<'_> {
        RowIter { rows: self, next: 0 }
    }
}

impl Default for Rows {
    fn default() -> Self {
        Rows { width: 0, len: 0, cells: Arc::from([]) }
    }
}

impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Index<usize> for Rows {
    type Output = [Option<Term>];

    fn index(&self, i: usize) -> &[Option<Term>] {
        self.get(i).unwrap_or_else(|| panic!("row {i} out of range for {} rows", self.len))
    }
}

impl<'a> IntoIterator for &'a Rows {
    type Item = &'a [Option<Term>];
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
    type Item = &'a [Option<Term>];

    fn next(&mut self) -> Option<&'a [Option<Term>]> {
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
        self.rows.iter().filter_map(|r| r[col].as_ref()).collect()
    }

    /// The single binding of the first projected variable of the first row —
    /// the common "give me the answer" accessor for single-var queries.
    pub fn first(&self) -> Option<&Term> {
        self.rows.get(0)?.first()?.as_ref()
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

    fn sample() -> Solutions {
        Solutions {
            variables: vec!["x".into(), "y".into()],
            rows: Rows::new(
                2,
                2,
                Arc::from([
                    Some(Term::iri("http://e/a")),
                    None,
                    Some(Term::iri("http://e/b")),
                    Some(Term::literal("v")),
                ]),
            ),
        }
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
    fn rows_index_and_iterate_row_major() {
        let rows = sample().rows;
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1][1], Some(Term::literal("v")));
        assert_eq!(rows.iter().len(), 2);
        assert_eq!(rows.iter().flatten().flatten().count(), 3);
        assert!(rows.get(2).is_none());
    }

    #[test]
    fn zero_width_rows_keep_their_count() {
        let rows = Rows::new(0, 3, Arc::from([]));
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(<[_]>::is_empty));
        assert_ne!(rows, Rows::default());
    }

    #[test]
    fn clone_shares_the_cells() {
        let rows = sample().rows;
        let copy = rows.clone();
        assert!(Arc::ptr_eq(&rows.cells, &copy.cells));
        assert_eq!(rows, copy);
    }
}
