//! Term interning.
//!
//! The triple store never compares full [`Term`] values on its hot paths.
//! Every distinct term is assigned a dense `u32` id ([`TermId`]) on first
//! insertion; the three index permutations then operate on `(u32, u32, u32)`
//! keys, which keeps them small and makes range scans cache-friendly (see the
//! "Type Sizes" guidance in the Rust Performance Book).
//!
//! The id → term array is a [`TermTable`]: it sits behind an `Arc`, so a
//! built graph can hand it to query results, which then hold 4-byte ids and
//! resolve them on demand instead of cloning terms.

use std::sync::Arc;

use relpat_obs::fx::FxHashMap;

use crate::term::Term;

/// Dense identifier for an interned [`Term`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub u32);

impl TermId {
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interner's id → term array behind an `Arc`: cloning the table costs
/// one refcount bump, and every clone resolves the same ids. A graph's table
/// never changes after [`GraphBuilder::build`](crate::GraphBuilder::build),
/// so a clone held by a query result stays valid for as long as it lives.
#[derive(Debug, Clone, Default)]
pub struct TermTable(Arc<Vec<Term>>);

impl TermTable {
    /// Number of terms.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Resolves an id if it is valid.
    #[inline]
    pub fn get(&self, id: TermId) -> Option<&Term> {
        self.0.get(id.index())
    }

    /// True if both handles share one table, so equal ids mean equal terms.
    pub fn same_table(&self, other: &TermTable) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Iterates over `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.0.iter().enumerate().map(|(i, t)| (TermId(i as u32), t))
    }
}

/// Bidirectional map between [`Term`] values and dense [`TermId`]s.
///
/// Ids are never recycled; a term, once interned, stays resolvable for the
/// lifetime of the interner. This is the right trade-off for a research store
/// that only grows. Ids stop below `u32::MAX - 1`: query results mark an
/// unbound cell with `u32::MAX` and give a computed cell (an aggregate's
/// value) the id one past the last term, which therefore stays below it.
#[derive(Debug, Default)]
pub struct Interner {
    terms: TermTable,
    ids: FxHashMap<Term, TermId>,
}

impl Interner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Interns a term, returning its id. Idempotent.
    pub fn intern(&mut self, term: &Term) -> TermId {
        if let Some(&id) = self.ids.get(term) {
            return id;
        }
        let id = u32::try_from(self.terms.len())
            .ok()
            .filter(|&id| id < u32::MAX - 1)
            .expect("interner capacity exceeded (2^32 - 2 terms)");
        let id = TermId(id);
        // Term payloads are `Arc<str>`: both clones share the caller's
        // string allocations. The table is handed out only by a built graph,
        // which never interns again.
        Arc::get_mut(&mut self.terms.0)
            .expect("the term table is shared only once the graph is built")
            .push(term.clone());
        self.ids.insert(term.clone(), id);
        id
    }

    /// Looks up the id of a term without interning it.
    pub fn get(&self, term: &Term) -> Option<TermId> {
        self.ids.get(term).copied()
    }

    /// Resolves an id back to its term. Panics on a foreign id, which would
    /// indicate index corruption.
    pub fn resolve(&self, id: TermId) -> &Term {
        &self.terms.0[id.index()]
    }

    /// Resolves an id if it is valid.
    pub fn try_resolve(&self, id: TermId) -> Option<&Term> {
        self.terms.get(id)
    }

    /// The id → term table, shared: results clone this handle.
    pub(crate) fn table(&self) -> &TermTable {
        &self.terms
    }

    /// Heap bytes held: the term array, the term → id table (entries plus
    /// one control byte each) and every term's string payloads, counted
    /// once although both structures share them.
    pub fn heap_bytes(&self) -> usize {
        let term = std::mem::size_of::<Term>();
        let table = self.ids.capacity() * (std::mem::size_of::<(Term, TermId)>() + 1);
        let payloads: usize = self.terms.0.iter().map(Term::payload_bytes).sum();
        self.terms.0.capacity() * term + table + payloads
    }

    /// Iterates over `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.terms.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut interner = Interner::new();
        let a1 = interner.intern(&Term::iri("http://e/a"));
        let b = interner.intern(&Term::iri("http://e/b"));
        let a2 = interner.intern(&Term::iri("http://e/a"));
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut interner = Interner::new();
        let term = Term::literal("value");
        let id = interner.intern(&term);
        assert_eq!(interner.resolve(id), &term);
        assert_eq!(interner.get(&term), Some(id));
    }

    #[test]
    fn get_does_not_intern() {
        let interner = Interner::new();
        assert_eq!(interner.get(&Term::iri("http://e/a")), None);
        assert!(interner.is_empty());
    }

    #[test]
    fn distinct_term_kinds_get_distinct_ids() {
        let mut interner = Interner::new();
        // An IRI and a literal with the same text must not collide.
        let iri = interner.intern(&Term::iri("x"));
        let lit = interner.intern(&Term::literal("x"));
        assert_ne!(iri, lit);
    }

    #[test]
    fn iter_preserves_insertion_order() {
        let mut interner = Interner::new();
        let ids: Vec<_> = ["a", "b", "c"]
            .iter()
            .map(|s| interner.intern(&Term::literal(*s)))
            .collect();
        let seen: Vec<_> = interner.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, seen);
    }

    #[test]
    fn try_resolve_rejects_foreign_ids() {
        let interner = Interner::new();
        assert!(interner.try_resolve(TermId(7)).is_none());
    }
}
