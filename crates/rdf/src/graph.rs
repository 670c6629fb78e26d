//! In-memory indexed triple store, built once.
//!
//! A [`GraphBuilder`] interns terms and collects id triples as they are
//! pushed; [`GraphBuilder::build`] then sorts and deduplicates them once and
//! derives the four **flat permutation indexes** — sorted `Vec<[u32; 3]>`
//! arrays in SPO, POS, OSP and PSO order over interned term ids — of the
//! immutable [`Graph`]. Any triple pattern with a bound prefix resolves to
//! one contiguous slice located by two `partition_point` binary searches
//! (Hexastore-lite: SPO, POS and OSP give every shape a prefix; PSO serves
//! batched `(s, p, ?)` probes, which then walk one predicate's dense slice
//! in subject order instead of the whole SPO array), so scans are
//! pointer-bump slice iteration and cardinality estimates are exact in
//! O(log n). Beside the interner, `build` also resolves every term's
//! FILTER value once into a dense [`TermValue`] column.

use crate::interner::{Interner, TermId};
use crate::term::Term;
use crate::value::TermValue;

/// A concrete RDF triple (no variables).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triple {
    pub subject: Term,
    pub predicate: Term,
    pub object: Term,
}

impl Triple {
    pub fn new(subject: impl Into<Term>, predicate: impl Into<Term>, object: impl Into<Term>) -> Self {
        let t = Triple {
            subject: subject.into(),
            predicate: predicate.into(),
            object: object.into(),
        };
        debug_assert!(
            t.subject.is_concrete() && t.predicate.is_concrete() && t.object.is_concrete(),
            "stored triples must not contain variables"
        );
        t
    }
}

impl std::fmt::Display for Triple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
    }
}

/// An id-level triple, the store's internal currency.
pub type IdTriple = (TermId, TermId, TermId);

/// Which positions of a pattern are bound; used for index selection and by
/// the SPARQL planner's selectivity heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdPattern {
    pub subject: Option<TermId>,
    pub predicate: Option<TermId>,
    pub object: Option<TermId>,
}

impl IdPattern {
    pub fn bound_count(&self) -> u32 {
        self.subject.is_some() as u32
            + self.predicate.is_some() as u32
            + self.object.is_some() as u32
    }
}

// Positions of the permutations in `Graph::index`.
const SPO: usize = 0;
const POS: usize = 1;
const OSP: usize = 2;
const PSO: usize = 3;

/// Reorders an SPO triple into the key layout of one permutation.
#[inline]
fn permute(perm: usize, s: u32, p: u32, o: u32) -> [u32; 3] {
    match perm {
        SPO => [s, p, o],
        POS => [p, o, s],
        OSP => [o, s, p],
        _ => [p, s, o],
    }
}

/// Recovers the SPO reading of a permuted key.
#[inline]
fn unpermute(perm: usize, k: [u32; 3]) -> IdTriple {
    let (s, p, o) = match perm {
        SPO => (k[0], k[1], k[2]),
        POS => (k[2], k[0], k[1]),
        OSP => (k[1], k[2], k[0]),
        _ => (k[1], k[0], k[2]),
    };
    (TermId(s), TermId(p), TermId(o))
}

/// Routes a pattern to the permutation whose sort order turns its bound
/// positions into a range prefix: `s??`/`sp?` → SPO, `?p?`/`?po` → POS,
/// `??o`/`s?o` → OSP, `spo` → SPO point probe, `???` → full SPO scan.
/// Returns `(permutation, permuted key, prefix length)`.
#[inline]
fn route(pattern: IdPattern) -> (usize, [u32; 3], usize) {
    let IdPattern { subject, predicate, object } = pattern;
    match (subject, predicate, object) {
        (Some(s), Some(p), Some(o)) => (SPO, [s.0, p.0, o.0], 3),
        (Some(s), Some(p), None) => (SPO, [s.0, p.0, 0], 2),
        (Some(s), None, Some(o)) => (OSP, [o.0, s.0, 0], 2),
        (Some(s), None, None) => (SPO, [s.0, 0, 0], 1),
        (None, Some(p), Some(o)) => (POS, [p.0, o.0, 0], 2),
        (None, Some(p), None) => (POS, [p.0, 0, 0], 1),
        (None, None, Some(o)) => (OSP, [o.0, 0, 0], 1),
        (None, None, None) => (SPO, [0, 0, 0], 0),
    }
}

/// [`route`] for batched probes ([`Graph::probe`]): the same, except that
/// `sp?` goes to PSO with key `[p, s]`. Merge and gallop steps probe
/// ascending subjects under one predicate; in PSO consecutive keys sit next
/// to each other in that predicate's slice, where in SPO they are spread
/// across every subject's triples. Within a `(p, s)` range PSO orders by
/// object, as SPO does, so ranges and their order are the same.
#[inline]
fn probe_route(shape: IdPattern) -> (usize, [u32; 3], usize) {
    match shape {
        IdPattern { subject: Some(s), predicate: Some(p), object: None } => {
            (PSO, [p.0, s.0, 0], 2)
        }
        _ => route(shape),
    }
}

/// The SPO position (0 = subject, 1 = predicate, 2 = object) that a scan of
/// `pattern` is primarily sorted by: the first *free* component of the routed
/// permutation. `None` for a fully bound point probe. This is the sortedness
/// fact merge joins build on — [`Graph::scan_iter`] and [`FrozenProbe`] both
/// yield a pattern's matches ascending by this position's term id.
pub fn sort_major_position(pattern: IdPattern) -> Option<usize> {
    let (perm, _, prefix_len) = route(pattern);
    if prefix_len == 3 {
        return None;
    }
    // Component order of each permutation, expressed as SPO positions.
    const ORDER: [[usize; 3]; 3] = [[0, 1, 2], [1, 2, 0], [2, 0, 1]];
    Some(ORDER[perm][prefix_len])
}

/// The contiguous `[lo, hi)` slice of a sorted flat index whose entries start
/// with `key[..len]` — two `partition_point` binary searches, O(log n).
#[inline]
fn prefix_bounds(index: &[[u32; 3]], key: [u32; 3], len: usize) -> (usize, usize) {
    if len == 0 {
        return (0, index.len());
    }
    let prefix = &key[..len];
    let lo = index.partition_point(|t| t[..len] < *prefix);
    let hi = lo + index[lo..].partition_point(|t| t[..len] == *prefix);
    (lo, hi)
}

/// The first position at or after `from` whose entry fails `pred`, given
/// that `pred` holds on a prefix of `index[from..]` and fails on the rest:
/// an exponential search that doubles its step from `from` until it
/// overshoots, then binary-searches the last window. Costs O(log d)
/// comparisons for an answer `d` entries past `from`, all of them near
/// `from`, where a `partition_point` over the whole tail costs O(log n)
/// steps spread across it.
#[inline]
fn gallop(index: &[[u32; 3]], from: usize, pred: impl Fn(&[u32; 3]) -> bool) -> usize {
    let mut base = from;
    let mut step = 1;
    // Invariant: `pred` holds on every entry of `index[from..base]`.
    while base + step <= index.len() && pred(&index[base + step - 1]) {
        base += step;
        step *= 2;
    }
    let end = (base + step).min(index.len());
    base + index[base..end].partition_point(pred)
}

/// Collects triples for one [`Graph`]. Terms are interned as they are
/// pushed, in push order, so a graph's term ids depend only on the order of
/// first occurrence; duplicates are allowed and collapse in
/// [`build`](Self::build).
#[derive(Debug, Default)]
pub struct GraphBuilder {
    interner: Interner,
    triples: Vec<[u32; 3]>,
}

impl GraphBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes a triple.
    pub fn insert(&mut self, triple: &Triple) {
        let s = self.interner.intern(&triple.subject).0;
        let p = self.interner.intern(&triple.predicate).0;
        let o = self.interner.intern(&triple.object).0;
        self.triples.push([s, p, o]);
    }

    /// Convenience: push from raw terms.
    pub fn add(
        &mut self,
        subject: impl Into<Term>,
        predicate: impl Into<Term>,
        object: impl Into<Term>,
    ) {
        self.insert(&Triple::new(subject, predicate, object));
    }

    /// Sorts and deduplicates the pushed triples once (SPO), then derives
    /// and sorts the POS and OSP permutations, derives PSO from SPO by one
    /// stable counting pass over predicates (SPO is already subject-major,
    /// so each predicate's bucket comes out in `(s, o)` order), and counts
    /// each subject's SPO entries into offsets. Also resolves each interned
    /// term's [`TermValue`] into the value column, in id order.
    pub fn build(self) -> Graph {
        let GraphBuilder { interner, triples: mut spo } = self;
        let values = interner.iter().map(|(_, term)| TermValue::of(term)).collect();
        spo.sort_unstable();
        spo.dedup();
        let derive = |perm: usize| {
            let mut index: Vec<[u32; 3]> =
                spo.iter().map(|&[s, p, o]| permute(perm, s, p, o)).collect();
            index.sort_unstable();
            index
        };
        let (pos, osp) = (derive(POS), derive(OSP));
        let mut next = offsets(interner.len(), spo.iter().map(|t| t[1]));
        let mut pso = vec![[0u32; 3]; spo.len()];
        for &[s, p, o] in &spo {
            let at = &mut next[p as usize];
            pso[*at as usize] = permute(PSO, s, p, o);
            *at += 1;
        }
        let subject_at = offsets(interner.len(), spo.iter().map(|t| t[0]));
        Graph { interner, values, index: [spo, pos, osp, pso], subject_at }
    }
}

/// Counting-sort offsets over ids below `ids`: `at[k]` counts the keys
/// below `k`, and `at[ids]` is the total. Sorted by that key, key `k`'s
/// entries are `at[k]..at[k + 1]`.
fn offsets(ids: usize, keys: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut at = vec![0u32; ids + 1];
    for k in keys {
        at[k as usize + 1] += 1;
    }
    for i in 1..at.len() {
        at[i] += at[i - 1];
    }
    at
}

/// Heap bytes of a [`Graph`]'s structures (see [`Graph::heap_bytes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphBytes {
    /// The SPO, POS, OSP and PSO arrays and the SPO subject offsets.
    pub permutations: usize,
    /// The [`TermValue`] column.
    pub values: usize,
    /// Interned terms, their string payloads and the term → id map.
    pub interner: usize,
}

/// An immutable triple set with SPO/POS/OSP/PSO flat indexes, produced by
/// [`GraphBuilder::build`]. `Graph::default()` is the empty graph.
#[derive(Debug, Default)]
pub struct Graph {
    interner: Interner,
    /// Each term's FILTER value, indexed by [`TermId`].
    values: Vec<TermValue>,
    /// Flat sorted permutation indexes, addressed by `SPO`/`POS`/`OSP`/`PSO`.
    index: [Vec<[u32; 3]>; 4],
    /// Subject `s`'s SPO entries are `index[SPO][subject_at[s]..subject_at[s + 1]]`,
    /// so a probe with a bound subject searches only that slice.
    subject_at: Vec<u32>,
}

impl Graph {
    /// Number of triples stored.
    pub fn len(&self) -> usize {
        self.index[SPO].len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Access to the interner for id↔term translation.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Looks up a term's id. A miss means the term occurs nowhere in the
    /// graph, so any pattern binding it matches nothing.
    pub fn term_id(&self, term: &Term) -> Option<TermId> {
        self.interner.get(term)
    }

    /// Resolves an id back to its term.
    pub fn term(&self, id: TermId) -> &Term {
        self.interner.resolve(id)
    }

    /// An id's FILTER value, resolved once at build.
    #[inline]
    pub fn value(&self, id: TermId) -> TermValue {
        self.values[id.index()]
    }

    /// Membership test at the term level.
    pub fn contains(&self, triple: &Triple) -> bool {
        match (
            self.interner.get(&triple.subject),
            self.interner.get(&triple.predicate),
            self.interner.get(&triple.object),
        ) {
            (Some(s), Some(p), Some(o)) => self.index[SPO].binary_search(&[s.0, p.0, o.0]).is_ok(),
            _ => false,
        }
    }

    /// Membership test at the id level: one binary search of the SPO index.
    pub fn contains_ids(&self, (s, p, o): IdTriple) -> bool {
        self.subject_slice(s).binary_search(&[s.0, p.0, o.0]).is_ok()
    }

    /// Subject `s`'s SPO entries (empty for an id the graph does not hold).
    fn subject_slice(&self, s: TermId) -> &[[u32; 3]] {
        match self.subject_at.get(s.index()..s.index() + 2) {
            Some(&[lo, hi]) => &self.index[SPO][lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// Heap bytes held by each structure, from lengths and capacities.
    pub fn heap_bytes(&self) -> GraphBytes {
        let entry = std::mem::size_of::<[u32; 3]>();
        GraphBytes {
            permutations: self.index.iter().map(|ix| ix.capacity() * entry).sum::<usize>()
                + self.subject_at.capacity() * std::mem::size_of::<u32>(),
            values: self.values.capacity() * std::mem::size_of::<TermValue>(),
            interner: self.interner.heap_bytes(),
        }
    }

    /// Id-level pattern scan as a zero-allocation streaming iterator over
    /// the slice addressed by two `partition_point` searches. Yields
    /// `(s, p, o)` ids in the canonical order of the chosen permutation.
    pub fn scan_iter(&self, pattern: IdPattern) -> ScanIter<'_> {
        let (perm, slice) = self.matches(pattern);
        ScanIter { perm, slice: slice.iter() }
    }

    /// Id-level pattern scan, materialized. Prefer [`Graph::scan_iter`] in
    /// inner loops; this remains for callers that need an owned result.
    pub fn scan(&self, pattern: IdPattern) -> Vec<IdTriple> {
        self.scan_iter(pattern).collect()
    }

    /// Routes a pattern *shape* (only the `Some`/`None` skeleton matters) to
    /// its permutation index for batched prefix probes: callers build a
    /// permuted key per concrete pattern via [`FrozenProbe::key`] and locate
    /// each key's slice with [`FrozenProbe::bounds_from`], galloping forward
    /// from the previous key's range. `sp?` routes to PSO, every other shape
    /// as [`Graph::scan_iter`] does; either way a key's range holds the
    /// pattern's matches in `scan_iter`'s order.
    pub fn probe(&self, shape: IdPattern) -> FrozenProbe<'_> {
        let (perm, _, prefix_len) = probe_route(shape);
        FrozenProbe { index: &self.index[perm], perm, prefix_len }
    }

    /// Exact number of matches for a pattern, used by the query planner:
    /// two `partition_point` binary searches, O(log n) with no range walking.
    pub fn estimate(&self, pattern: IdPattern) -> usize {
        self.matches(pattern).1.len()
    }

    /// The routed permutation and its slice of entries matching `pattern`.
    fn matches(&self, pattern: IdPattern) -> (usize, &[[u32; 3]]) {
        let (perm, key, len) = route(pattern);
        let index = match (perm, pattern.subject) {
            (SPO, Some(s)) => self.subject_slice(s),
            _ => &self.index[perm],
        };
        let (lo, hi) = prefix_bounds(index, key, len);
        (perm, &index[lo..hi])
    }

    /// Term-level pattern scan: `None` positions are wildcards. Converts ids
    /// back to terms; prefer [`Graph::scan_iter`] in inner loops.
    pub fn triples_matching(
        &self,
        subject: Option<&Term>,
        predicate: Option<&Term>,
        object: Option<&Term>,
    ) -> Vec<Triple> {
        let to_id = |t: Option<&Term>| -> Result<Option<TermId>, ()> {
            match t {
                None => Ok(None),
                Some(term) => match self.interner.get(term) {
                    Some(id) => Ok(Some(id)),
                    None => Err(()), // unknown term: zero matches
                },
            }
        };
        let (Ok(s), Ok(p), Ok(o)) = (to_id(subject), to_id(predicate), to_id(object)) else {
            return Vec::new();
        };
        self.scan_iter(IdPattern { subject: s, predicate: p, object: o })
            .map(|(s, p, o)| Triple {
                subject: self.interner.resolve(s).clone(),
                predicate: self.interner.resolve(p).clone(),
                object: self.interner.resolve(o).clone(),
            })
            .collect()
    }

    /// All objects of `(subject, predicate, ?)`.
    pub fn objects_of(&self, subject: &Term, predicate: &Term) -> Vec<Term> {
        self.triples_matching(Some(subject), Some(predicate), None)
            .into_iter()
            .map(|t| t.object)
            .collect()
    }

    /// All subjects of `(?, predicate, object)`.
    pub fn subjects_with(&self, predicate: &Term, object: &Term) -> Vec<Term> {
        self.triples_matching(None, Some(predicate), Some(object))
            .into_iter()
            .map(|t| t.subject)
            .collect()
    }

    /// The set of distinct predicates in the graph, in id order. Skips from
    /// one distinct predicate to the next with a `partition_point` gallop
    /// over the POS index — O(#predicates · log n), never a full
    /// index walk.
    pub fn predicates(&self) -> Vec<Term> {
        let pos = &self.index[POS];
        let mut out = Vec::new();
        let mut i = 0;
        while i < pos.len() {
            let p = pos[i][0];
            out.push(self.interner.resolve(TermId(p)).clone());
            i += pos[i..].partition_point(|t| t[0] == p);
        }
        out
    }

    /// Iterates over all triples at the term level (SPO order).
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.scan_iter(IdPattern { subject: None, predicate: None, object: None }).map(
            |(s, p, o)| Triple {
                subject: self.interner.resolve(s).clone(),
                predicate: self.interner.resolve(p).clone(),
                object: self.interner.resolve(o).clone(),
            },
        )
    }
}

/// Zero-allocation streaming scan over one sorted permutation slice.
/// Yields `(s, p, o)` ids in the permutation's canonical order.
pub struct ScanIter<'a> {
    perm: usize,
    slice: std::slice::Iter<'a, [u32; 3]>,
}

impl Iterator for ScanIter<'_> {
    type Item = IdTriple;

    #[inline]
    fn next(&mut self) -> Option<IdTriple> {
        self.slice.next().map(|&key| unpermute(self.perm, key))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.slice.size_hint()
    }
}

impl ExactSizeIterator for ScanIter<'_> {}

/// A read-only handle on one permutation index, routed for a fixed pattern
/// shape: raw sorted-slice access for batched probes. Obtained from
/// [`Graph::probe`].
#[derive(Debug, Clone, Copy)]
pub struct FrozenProbe<'a> {
    index: &'a [[u32; 3]],
    perm: usize,
    prefix_len: usize,
}

impl FrozenProbe<'_> {
    /// Number of bound positions in the routed shape (the permuted key
    /// prefix length searches compare on).
    pub fn prefix_len(&self) -> usize {
        self.prefix_len
    }

    /// Entries in the underlying permutation index.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The permuted search key for a concrete pattern of this probe's shape.
    #[inline]
    pub fn key(&self, pattern: IdPattern) -> [u32; 3] {
        let (perm, key, len) = probe_route(pattern);
        debug_assert_eq!(
            (perm, len),
            (self.perm, self.prefix_len),
            "pattern shape must match the probe's routed shape"
        );
        key
    }

    /// `[lo, hi)` bounds of the entries whose first `prefix_len` components
    /// equal `key`'s — the same bounds a binary search over the whole index
    /// finds — provided no entry before `from` sorts at or after `key`.
    /// Callers probing keys in ascending order pass the previous range's end
    /// as `from` (or 0). Both bounds are exponential searches: the lower one
    /// doubles its step from `from`, the upper one from `lo`, so a key whose
    /// range starts `d` entries on and spans `r` costs O(log d + log r)
    /// comparisons, none of them far from `from`.
    #[inline]
    pub fn bounds_from(&self, from: usize, key: [u32; 3]) -> (usize, usize) {
        let len = self.prefix_len;
        if len == 0 {
            return (0, self.index.len());
        }
        // Entries compare as one masked integer each: the first `len`
        // components in lexicographic order, the rest zeroed.
        let mask = u128::MAX << (32 * (3 - len));
        let packed = |t: &[u32; 3]| {
            (u128::from(t[0]) << 64 | u128::from(t[1]) << 32 | u128::from(t[2])) & mask
        };
        let prefix = packed(&key);
        let lo = gallop(self.index, from, |t| packed(t) < prefix);
        let hi = gallop(self.index, lo, |t| packed(t) == prefix);
        (lo, hi)
    }

    /// The SPO reading of index entry `i`.
    #[inline]
    pub fn triple(&self, i: usize) -> IdTriple {
        unpermute(self.perm, self.index[i])
    }
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::{dbont, rdf, res};

    fn sample_builder() -> GraphBuilder {
        let mut b = GraphBuilder::new();
        let pamuk = Term::iri(res::iri("Orhan Pamuk"));
        let snow = Term::iri(res::iri("Snow"));
        let museum = Term::iri(res::iri("The Museum of Innocence"));
        let writer = Term::iri(dbont::iri("writer"));
        let book = Term::iri(dbont::iri("Book"));
        let ty = Term::iri(rdf::TYPE);
        b.add(snow.clone(), ty.clone(), book.clone());
        b.add(museum.clone(), ty.clone(), book.clone());
        b.add(snow.clone(), writer.clone(), pamuk.clone());
        b.add(museum, writer, pamuk);
        b
    }

    fn sample_graph() -> Graph {
        sample_builder().build()
    }

    /// The sample's (Snow, writer, Orhan Pamuk) ids, for building patterns.
    fn sample_ids(g: &Graph) -> (TermId, TermId, TermId) {
        (
            g.term_id(&Term::iri(res::iri("Snow"))).unwrap(),
            g.term_id(&Term::iri(dbont::iri("writer"))).unwrap(),
            g.term_id(&Term::iri(res::iri("Orhan Pamuk"))).unwrap(),
        )
    }

    /// Every pattern shape over (subject, predicate, object) id options.
    fn all_shapes(s: TermId, p: TermId, o: TermId) -> [IdPattern; 8] {
        std::array::from_fn(|i| IdPattern {
            subject: (i & 1 != 0).then_some(s),
            predicate: (i & 2 != 0).then_some(p),
            object: (i & 4 != 0).then_some(o),
        })
    }

    #[test]
    fn build_is_set_semantics() {
        let mut b = GraphBuilder::new();
        let t = Triple::new(Term::iri("s"), Term::iri("p"), Term::iri("o"));
        b.insert(&t);
        b.insert(&t);
        let g = b.build();
        assert_eq!(g.len(), 1);
        assert!(g.contains(&t));
        assert!(!g.contains(&Triple::new(Term::iri("s"), Term::iri("p"), Term::iri("x"))));
    }

    #[test]
    fn terms_are_interned_in_push_order() {
        let mut b = GraphBuilder::new();
        b.add(Term::iri("z"), Term::iri("p"), Term::iri("a"));
        b.add(Term::iri("a"), Term::iri("p"), Term::iri("y"));
        let g = b.build();
        let ids: Vec<u32> =
            ["z", "p", "a", "y"].iter().map(|t| g.term_id(&Term::iri(*t)).unwrap().0).collect();
        assert_eq!(ids, [0, 1, 2, 3]);
    }

    #[test]
    fn all_eight_pattern_shapes_agree() {
        let g = sample_graph();
        let snow = Term::iri(res::iri("Snow"));
        let writer = Term::iri(dbont::iri("writer"));
        let pamuk = Term::iri(res::iri("Orhan Pamuk"));

        // ???
        assert_eq!(g.triples_matching(None, None, None).len(), 4);
        // s??
        assert_eq!(g.triples_matching(Some(&snow), None, None).len(), 2);
        // ?p?
        assert_eq!(g.triples_matching(None, Some(&writer), None).len(), 2);
        // ??o
        assert_eq!(g.triples_matching(None, None, Some(&pamuk)).len(), 2);
        // sp?
        assert_eq!(g.triples_matching(Some(&snow), Some(&writer), None).len(), 1);
        // ?po
        assert_eq!(g.triples_matching(None, Some(&writer), Some(&pamuk)).len(), 2);
        // s?o
        assert_eq!(g.triples_matching(Some(&snow), None, Some(&pamuk)).len(), 1);
        // spo
        assert_eq!(
            g.triples_matching(Some(&snow), Some(&writer), Some(&pamuk)).len(),
            1
        );
    }

    #[test]
    fn scan_returns_canonical_spo_order_of_ids() {
        let g = sample_graph();
        let writer = g.term_id(&Term::iri(dbont::iri("writer"))).unwrap();
        for (s, p, o) in g.scan(IdPattern { subject: None, predicate: Some(writer), object: None })
        {
            assert_eq!(p, writer);
            assert!(g.term(s).as_iri().is_some());
            assert!(g.term(o).as_iri().is_some());
        }
    }

    #[test]
    fn unknown_term_matches_nothing() {
        let g = sample_graph();
        let ghost = Term::iri("http://nowhere/x");
        assert!(g.triples_matching(Some(&ghost), None, None).is_empty());
    }

    #[test]
    fn estimate_matches_scan_cardinality() {
        let g = sample_graph();
        let (snow, writer, pamuk) = sample_ids(&g);
        for &pat in &all_shapes(snow, writer, pamuk) {
            assert_eq!(g.estimate(pat), g.scan(pat).len(), "pattern {pat:?}");
        }
    }

    #[test]
    fn helpers_objects_and_subjects() {
        let g = sample_graph();
        let snow = Term::iri(res::iri("Snow"));
        let writer = Term::iri(dbont::iri("writer"));
        let pamuk = Term::iri(res::iri("Orhan Pamuk"));
        assert_eq!(g.objects_of(&snow, &writer), vec![pamuk.clone()]);
        let mut subs = g.subjects_with(&writer, &pamuk);
        subs.sort();
        assert_eq!(subs.len(), 2);
    }

    #[test]
    fn predicates_are_deduplicated_in_id_order() {
        let g = sample_graph();
        assert_eq!(g.predicates().len(), 2);
        let mut b = sample_builder();
        b.add(Term::iri("a"), Term::iri("newpred"), Term::iri("b"));
        let g = b.build();
        let ids: Vec<u32> = g.predicates().iter().map(|p| g.term_id(p).unwrap().0).collect();
        assert_eq!(ids.len(), 3);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
    }

    #[test]
    fn iter_yields_all_triples() {
        let g = sample_graph();
        assert_eq!(g.iter().count(), g.len());
        for t in g.iter() {
            assert!(g.contains(&t));
        }
    }

    #[test]
    fn literals_and_iris_do_not_collide_in_indexes() {
        let mut b = GraphBuilder::new();
        b.add(Term::iri("s"), Term::iri("p"), Term::literal("o"));
        b.add(Term::iri("s"), Term::iri("p"), Term::iri("o"));
        let g = b.build();
        assert_eq!(g.len(), 2);
        assert_eq!(
            g.triples_matching(None, None, Some(&Term::literal("o"))).len(),
            1
        );
    }

    #[test]
    fn sort_major_position_matches_scan_order() {
        let mut b = GraphBuilder::new();
        for i in [4u32, 1, 7, 2] {
            for j in [3u32, 0, 5] {
                b.add(
                    Term::iri(format!("s{i}")),
                    Term::iri(format!("p{j}")),
                    Term::iri(format!("o{}", (i + j) % 4)),
                );
            }
        }
        let g = b.build();
        let s = g.term_id(&Term::iri("s4")).unwrap();
        let p = g.term_id(&Term::iri("p3")).unwrap();
        let o = g.term_id(&Term::iri("o3")).unwrap();
        for &pat in &all_shapes(s, p, o) {
            let major = sort_major_position(pat);
            if pat.bound_count() == 3 {
                assert_eq!(major, None);
                continue;
            }
            let major = major.expect("non-point patterns have a sort-major position");
            // The routed major position must be a free one, and the scan
            // must come back ascending by it.
            let bound = [pat.subject, pat.predicate, pat.object];
            assert!(bound[major].is_none(), "major position must be free: {pat:?}");
            let ids: Vec<u32> = g
                .scan(pat)
                .iter()
                .map(|&(s, p, o)| [s.0, p.0, o.0][major])
                .collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(ids, sorted, "scan of {pat:?} not sorted on position {major}");
        }
    }

    /// A seeded ≥ 10k-triple graph with skew: one predicate holds most
    /// triples and a few hub objects recur, so some ranges span thousands of
    /// entries while most span a handful.
    fn sweep_graph() -> Graph {
        let mut rng = relpat_obs::Rng::seed_from_u64(17);
        let mut b = GraphBuilder::new();
        for _ in 0..12_000 {
            let s = rng.gen_range(0..2_000u32);
            let p = if rng.gen_bool(0.7) { 0 } else { rng.gen_range(1..8u32) };
            let o = if rng.gen_bool(0.3) { rng.gen_range(0..4) } else { rng.gen_range(4..3_000u32) };
            let [s, p, o] = [format!("s{s}"), format!("p{p}"), format!("o{o}")].map(Term::iri);
            b.add(s, p, o);
        }
        b.build()
    }

    #[test]
    fn probe_bounds_match_scan() {
        let g = sweep_graph();
        assert!(g.len() >= 10_000, "{} triples", g.len());
        let (mut absent, mut longest) = ([0usize; 3], 0);
        for &shape in &all_shapes(TermId(0), TermId(0), TermId(0)) {
            let probe = g.probe(shape);
            let (index, len) = (probe.index, probe.prefix_len());
            let n = index.len();
            let truth = |key: [u32; 3]| prefix_bounds(index, key, len);
            let padded = |t: &[u32; 3]| std::array::from_fn(|i| if i < len { t[i] } else { 0 });
            // The concrete pattern a key stands for, and its matches read
            // through the probe: they must be `scan_iter`'s, in order.
            let pattern = |key: [u32; 3]| {
                let (s, p, o) = unpermute(probe.perm, key);
                IdPattern {
                    subject: shape.subject.and(Some(s)),
                    predicate: shape.predicate.and(Some(p)),
                    object: shape.object.and(Some(o)),
                }
            };
            let via_probe =
                |(lo, hi): (usize, usize)| (lo..hi).map(|i| probe.triple(i)).collect::<Vec<_>>();
            // Every distinct key in ascending order, from the previous hi
            // and from 0; the via-slice entries must match the key.
            let mut keys: Vec<[u32; 3]> = index.iter().map(padded).collect();
            keys.dedup();
            let mut from = 0;
            for &key in &keys {
                let (lo, hi) = truth(key);
                assert!(hi > lo, "{shape:?}: present key {key:?} has an empty range");
                assert_eq!(probe.bounds_from(from, key), (lo, hi), "{shape:?} {key:?} from {from}");
                assert_eq!(probe.bounds_from(0, key), (lo, hi), "{shape:?} {key:?} from 0");
                assert_eq!(probe.bounds_from(lo, key), (lo, hi), "{shape:?} {key:?} from lo");
                assert_eq!(probe.key(pattern(key)), key, "{shape:?}: key round trip");
                let scanned: Vec<IdTriple> = g.scan_iter(pattern(key)).collect();
                assert_eq!(via_probe((lo, hi)), scanned, "{shape:?} {key:?}: range vs scan_iter");
                longest = longest.max(hi - lo);
                from = hi;
            }
            assert_eq!(from, n, "{shape:?}: the distinct keys cover the index");
            if len == 0 {
                continue;
            }
            // Absent keys before, between and after the present ones: a
            // neighbour of each present key that is itself not present.
            let mut candidates = vec![[0; 3], [u32::MAX; 3]];
            for key in &keys {
                let last = key[len - 1];
                for neighbour in [last.checked_sub(1), last.checked_add(1)].into_iter().flatten() {
                    let mut k = *key;
                    k[len - 1] = neighbour;
                    candidates.push(k);
                }
            }
            for key in candidates {
                let (lo, hi) = truth(key);
                if lo != hi {
                    continue;
                }
                absent[if lo == 0 { 0 } else if lo == n { 2 } else { 1 }] += 1;
                // From 0, and from the previous key's hi (the insertion
                // point); after the last key that tail is empty.
                assert_eq!(probe.bounds_from(0, key), (lo, lo), "{shape:?} absent {key:?}");
                assert_eq!(probe.bounds_from(lo, key), (lo, lo), "{shape:?} absent {key:?}");
                assert_eq!(g.scan_iter(pattern(key)).count(), 0, "{shape:?} absent {key:?} scan");
            }
        }
        // Batched `sp?` probes walk PSO; point probes and scans stay on SPO.
        let sp = IdPattern { subject: Some(TermId(0)), predicate: Some(TermId(0)), object: None };
        assert_eq!((g.probe(sp).perm, route(sp).0), (PSO, SPO));
        assert!(absent.iter().all(|&k| k > 0), "absent keys before/between/after: {absent:?}");
        assert!(longest > 1_000, "some range must span many gallop steps ({longest})");
    }

    #[test]
    fn scan_iter_matches_scan_everywhere() {
        let mut b = sample_builder();
        b.add(Term::iri(res::iri("Snow")), Term::iri(dbont::iri("writer")), Term::iri("x"));
        let g = b.build();
        let (snow, writer, pamuk) = sample_ids(&g);
        for &pat in &all_shapes(snow, writer, pamuk) {
            let streamed: Vec<IdTriple> = g.scan_iter(pat).collect();
            assert_eq!(streamed, g.scan(pat));
        }
    }
}
