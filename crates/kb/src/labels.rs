//! The entity label table: one row per normalized label of the graph's
//! `rdfs:label` facts on `res:` subjects, holding the entities that carry
//! it. Built once from the graph's POS slice in id space and stored flat —
//! one text buffer, one entity array, two offset arrays and an
//! open-addressing hash of labels to rows. The exact lookup, the lexical
//! index and the mention detector all address the same rows.

use std::hash::{BuildHasher, BuildHasherDefault};

use relpat_obs::fx::FxHasher;
use relpat_rdf::vocab::{rdfs, res};
use relpat_rdf::{Graph, IdPattern, Term, TermId};

use crate::kb::normalize_label;

/// A free slot of the label hash.
const EMPTY: u32 = u32::MAX;

/// `(normalized label, entities)` rows sorted by label. Each row lists its
/// entities in POS order — by label literal id, then subject id — with
/// repeats dropped, the order in which a scan of the label facts meets them.
#[derive(Debug, Default)]
pub struct LabelTable {
    /// Every row's label, concatenated in row order.
    text: String,
    /// Row `i`'s label is `text[label_at[i]..label_at[i + 1]]`.
    label_at: Vec<u32>,
    entities: Vec<TermId>,
    /// Row `i`'s entities are `entities[entity_at[i]..entity_at[i + 1]]`.
    entity_at: Vec<u32>,
    /// Rows by label hash, linear probing, at most half full.
    slots: Vec<u32>,
    /// Distinct entities over all rows.
    entity_count: usize,
}

impl LabelTable {
    /// Reads the `(rdfs:label, ?, ?)` POS slice once: normalizes each label
    /// literal once, orders the facts by (normalized label, POS position)
    /// and groups them into rows.
    pub(crate) fn from_graph(graph: &Graph) -> Self {
        // Normalized text per distinct literal, and the qualifying facts as
        // (literal's span in `norm`, subject) in POS order.
        let mut norm = String::new();
        let mut facts: Vec<((u32, u32), TermId)> = Vec::new();
        let mut last_literal = None;
        let label = graph.term_id(&Term::iri(rdfs::LABEL));
        let slice = label.map(|p| graph.scan_iter(IdPattern { subject: None, predicate: Some(p), object: None }));
        for (s, _, o) in slice.into_iter().flatten() {
            let (Term::Iri(subject), Term::Literal(lit)) = (graph.term(s), graph.term(o)) else {
                continue;
            };
            if !subject.as_str().starts_with(res::NS) {
                continue; // class/property labels are indexed separately
            }
            let span = match facts.last() {
                Some(&(span, _)) if last_literal == Some(o) => span,
                _ => {
                    let start = norm.len() as u32;
                    norm.push_str(&normalize_label(lit.lexical_form()));
                    (start, norm.len() as u32)
                }
            };
            last_literal = Some(o);
            facts.push((span, s));
        }
        let text_of = |fact: u32| {
            let (start, end) = facts[fact as usize].0;
            &norm[start as usize..end as usize]
        };
        let mut order: Vec<u32> = (0..facts.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| text_of(a).cmp(text_of(b)).then(a.cmp(&b)));

        let mut table = LabelTable::default();
        // `row_of[s]` is one past the last row `s` joined (0: none yet).
        let mut row_of = vec![0u32; graph.interner().len()];
        for &fact in &order {
            let text = text_of(fact);
            if table.label_at.last().is_none_or(|&at| table.text[at as usize..] != *text) {
                table.label_at.push(table.text.len() as u32);
                table.entity_at.push(table.entities.len() as u32);
                table.text.push_str(text);
            }
            let s = facts[fact as usize].1;
            let rows = table.label_at.len() as u32;
            if row_of[s.index()] != rows {
                table.entity_count += usize::from(row_of[s.index()] == 0);
                row_of[s.index()] = rows;
                table.entities.push(s);
            }
        }
        let rows = table.label_at.len();
        table.label_at.push(table.text.len() as u32);
        table.entity_at.push(table.entities.len() as u32);
        table.slots = vec![EMPTY; (2 * rows).next_power_of_two().max(2)];
        for row in 0..rows {
            let slot = table.probe(table.label(row)).unwrap_err();
            table.slots[slot] = row as u32;
        }
        table
    }

    /// Number of rows (distinct normalized labels).
    pub fn len(&self) -> usize {
        self.label_at.len().saturating_sub(1)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct labelled entities.
    pub fn entity_count(&self) -> usize {
        self.entity_count
    }

    /// Row `row`'s normalized label.
    pub fn label(&self, row: usize) -> &str {
        &self.text[self.label_at[row] as usize..self.label_at[row + 1] as usize]
    }

    /// Row `row`'s entities.
    pub fn entities(&self, row: usize) -> &[TermId] {
        &self.entities[self.entity_at[row] as usize..self.entity_at[row + 1] as usize]
    }

    /// Row `row` as `(label, entities)`.
    pub fn row(&self, row: usize) -> (&str, &[TermId]) {
        (self.label(row), self.entities(row))
    }

    /// All rows in label order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[TermId])> {
        (0..self.len()).map(|row| self.row(row))
    }

    /// The row whose label is exactly `label` (already normalized).
    pub fn find(&self, label: &str) -> Option<usize> {
        self.probe(label).ok()
    }

    /// One hash probe, then linear steps: `Ok(row)` for the row labelled
    /// `label`, `Err(slot)` for the free slot that ends its probe sequence.
    /// The slot index is the hash's high bits, which mix every input byte.
    fn probe(&self, label: &str) -> Result<usize, usize> {
        let hash = BuildHasherDefault::<FxHasher>::default().hash_one(label);
        let mut slot = (hash >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                row if self.label(row as usize) == label => return Ok(row as usize),
                _ => slot = (slot + 1) & (self.slots.len() - 1),
            }
        }
    }

    /// Heap bytes held, from lengths and capacities.
    pub fn heap_bytes(&self) -> usize {
        self.text.capacity()
            + 4 * (self.label_at.capacity() + self.entity_at.capacity() + self.slots.capacity())
            + self.entities.capacity() * std::mem::size_of::<TermId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relpat_rdf::{GraphBuilder, Literal};

    #[test]
    fn rows_are_sorted_grouped_and_found() {
        let mut g = GraphBuilder::new();
        let label = Term::iri(rdfs::LABEL);
        let lit = |s: &str| Term::Literal(Literal::lang(s, "en"));
        let (b, a) = (Term::iri(res::iri("B")), Term::iri(res::iri("A")));
        g.add(b.clone(), label.clone(), lit("The Twin"));
        g.add(a.clone(), label.clone(), lit("Twin"));
        g.add(a.clone(), label.clone(), lit("twin"));
        g.add(a.clone(), label.clone(), lit("Alpha"));
        g.add(Term::iri("http://example.org/C"), label, lit("Alpha"));
        let g = g.build();
        let table = LabelTable::from_graph(&g);
        let id = |t: &Term| g.term_id(t).unwrap();
        // POS order: "The Twin" was interned before "Twin", so B leads.
        assert_eq!(table.iter().collect::<Vec<_>>(), vec![
            ("alpha", &[id(&a)][..]),
            ("twin", &[id(&b), id(&a)][..]),
        ]);
        assert_eq!(table.entity_count(), 2);
        assert_eq!(table.find("twin"), Some(1));
        assert_eq!(table.find("alpha"), Some(0));
        assert_eq!(table.find("twins"), None);
        assert!(table.heap_bytes() > 0);
    }

    #[test]
    fn empty_graph_has_an_empty_table() {
        let table = LabelTable::from_graph(&Graph::default());
        assert!(table.is_empty());
        assert_eq!(table.find(""), None);
        assert_eq!(table.iter().count(), 0);
    }
}
