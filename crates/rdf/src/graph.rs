//! In-memory indexed triple store, built once.
//!
//! A [`GraphBuilder`] interns terms and collects id triples as they are
//! pushed; [`GraphBuilder::build`] then sorts and deduplicates them once and
//! derives the three **flat permutation indexes** — sorted `Vec<[u32; 3]>`
//! arrays in SPO, POS and OSP order over interned term ids — of the
//! immutable [`Graph`]. Any triple pattern with a bound prefix resolves to
//! one contiguous slice located by two `partition_point` binary searches
//! (Hexastore-lite: three of the six permutations suffice when we do not
//! need ordered results on the unbound positions), so scans are
//! pointer-bump slice iteration and cardinality estimates are exact in
//! O(log n).

use crate::interner::{Interner, TermId};
use crate::term::Term;

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

/// Reorders an SPO triple into the key layout of one permutation.
#[inline]
fn permute(perm: usize, s: u32, p: u32, o: u32) -> [u32; 3] {
    match perm {
        SPO => [s, p, o],
        POS => [p, o, s],
        _ => [o, s, p],
    }
}

/// Recovers the SPO reading of a permuted key.
#[inline]
fn unpermute(perm: usize, k: [u32; 3]) -> IdTriple {
    let (s, p, o) = match perm {
        SPO => (k[0], k[1], k[2]),
        POS => (k[2], k[0], k[1]),
        _ => (k[1], k[2], k[0]),
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
    /// and sorts the POS and OSP permutations.
    pub fn build(self) -> Graph {
        let GraphBuilder { interner, triples: mut spo } = self;
        spo.sort_unstable();
        spo.dedup();
        let derive = |perm: usize| {
            let mut index: Vec<[u32; 3]> =
                spo.iter().map(|&[s, p, o]| permute(perm, s, p, o)).collect();
            index.sort_unstable();
            index
        };
        let (pos, osp) = (derive(POS), derive(OSP));
        Graph { interner, index: [spo, pos, osp] }
    }
}

/// An immutable triple set with SPO/POS/OSP flat indexes, produced by
/// [`GraphBuilder::build`]. `Graph::default()` is the empty graph.
#[derive(Debug, Default)]
pub struct Graph {
    interner: Interner,
    /// Flat sorted permutation indexes, addressed by `SPO`/`POS`/`OSP`.
    index: [Vec<[u32; 3]>; 3],
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
    /// each key's slice with [`FrozenProbe::bounds_from`], reusing
    /// sorted-key monotonicity to shrink every search tail.
    pub fn probe(&self, shape: IdPattern) -> FrozenProbe<'_> {
        let (perm, _, prefix_len) = route(shape);
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
        let index = &self.index[perm];
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
    pub fn key(&self, pattern: IdPattern) -> [u32; 3] {
        let (perm, key, len) = route(pattern);
        debug_assert_eq!(
            (perm, len),
            (self.perm, self.prefix_len),
            "pattern shape must match the probe's routed shape"
        );
        key
    }

    /// `[lo, hi)` bounds of the entries whose first `prefix_len` components
    /// equal `key`'s, searching only `[from..]`. Callers probing keys in
    /// ascending order pass the previous range's end as `from`, so each
    /// `partition_point` pair gallops over a strictly shrinking tail.
    pub fn bounds_from(&self, from: usize, key: [u32; 3]) -> (usize, usize) {
        let (lo, hi) = prefix_bounds(&self.index[from..], key, self.prefix_len);
        (from + lo, from + hi)
    }

    /// The SPO reading of index entry `i`.
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

    #[test]
    fn probe_bounds_match_scan() {
        let g = sample_graph();
        let (snow, writer, pamuk) = sample_ids(&g);
        for &pat in &all_shapes(snow, writer, pamuk) {
            let probe = g.probe(pat);
            let key = probe.key(pat);
            let (lo, hi) = probe.bounds_from(0, key);
            let via_probe: Vec<IdTriple> = (lo..hi).map(|i| probe.triple(i)).collect();
            assert_eq!(via_probe, g.scan(pat), "probe slice must equal scan for {pat:?}");
            // Restarting the search mid-index at the slice's own start
            // finds the same bounds (the tail-shrinking contract).
            assert_eq!(probe.bounds_from(lo, key), (lo, hi));
        }
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
