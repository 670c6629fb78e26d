//! Differential equivalence suite for the flat permutation indexes.
//!
//! The [`Graph`] under test keeps three sorted `Vec<[u32; 3]>` permutations
//! built once by a [`GraphBuilder`]; the reference model here is the
//! simplest possible store — one `BTreeSet` of index triples with linear
//! filtering. Seeded push sequences (with duplicates, in shuffled order) feed
//! both, and after `build` all eight pattern shapes must agree, `estimate`
//! must equal the exact scan cardinality, `scan_iter` must match the
//! materialized scan, every scan must come back ascending by its
//! [`sort_major_position`], and `len`, `contains` and `predicates` must match
//! the model.

use std::collections::BTreeSet;

use relpat_obs::Rng;
use relpat_rdf::{sort_major_position, Graph, GraphBuilder, IdPattern, Term, Triple};

/// Shared entity universe: subjects and objects draw from the same pool so
/// OSP ranges interleave IRIs that also occur as subjects.
const ENTITIES: u32 = 40;
const PREDICATES: u32 = 6;

fn entity(i: u32) -> Term {
    Term::iri(format!("http://t/e{i}"))
}

fn predicate(j: u32) -> Term {
    Term::iri(format!("http://t/p{j}"))
}

fn triple(s: u32, p: u32, o: u32) -> Triple {
    Triple::new(entity(s), predicate(p), entity(o))
}

/// Reference store: index triples, linear filtering, no indexes.
type Model = BTreeSet<(u32, u32, u32)>;

fn model_matching(
    model: &Model,
    s: Option<u32>,
    p: Option<u32>,
    o: Option<u32>,
) -> BTreeSet<Triple> {
    model
        .iter()
        .filter(|&&(ts, tp, to)| {
            s.is_none_or(|v| v == ts) && p.is_none_or(|v| v == tp) && o.is_none_or(|v| v == to)
        })
        .map(|&(ts, tp, to)| triple(ts, tp, to))
        .collect()
}

fn random_key(rng: &mut Rng) -> (u32, u32, u32) {
    (
        rng.gen_range(0..ENTITIES),
        rng.gen_range(0..PREDICATES),
        rng.gen_range(0..ENTITIES),
    )
}

/// A seeded push sequence: `n` random draws from the universe, a quarter of
/// them pushed again, the whole sequence Fisher–Yates shuffled.
fn push_sequence(rng: &mut Rng, n: usize) -> Vec<(u32, u32, u32)> {
    let mut pushes: Vec<(u32, u32, u32)> = (0..n).map(|_| random_key(rng)).collect();
    for _ in 0..n / 4 {
        let again = pushes[rng.gen_range(0..n)];
        pushes.push(again);
    }
    for i in (1..pushes.len()).rev() {
        pushes.swap(i, rng.gen_range(0..=i));
    }
    pushes
}

fn build(pushes: &[(u32, u32, u32)]) -> Graph {
    let mut b = GraphBuilder::new();
    for &(s, p, o) in pushes {
        b.insert(&triple(s, p, o));
    }
    b.build()
}

/// Compares graph and model on all 8 shapes anchored at probe `(s, p, o)`,
/// and checks `estimate`/`scan_iter`/`scan` consistency and scan order at
/// the id level.
fn check_probe(g: &Graph, model: &Model, s: u32, p: u32, o: u32) {
    let (st, pt, ot) = (entity(s), predicate(p), entity(o));
    for mask in 0..8u32 {
        let sq = (mask & 1 != 0).then_some(());
        let pq = (mask & 2 != 0).then_some(());
        let oq = (mask & 4 != 0).then_some(());
        let want = model_matching(model, sq.map(|_| s), pq.map(|_| p), oq.map(|_| o));
        let got: BTreeSet<Triple> = g
            .triples_matching(sq.map(|_| &st), pq.map(|_| &pt), oq.map(|_| &ot))
            .into_iter()
            .collect();
        assert_eq!(got, want, "shape {mask:03b} probe ({s},{p},{o})");

        // Id-level checks need every bound term to resolve; a miss means the
        // term occurs nowhere, which the term-level comparison covered.
        let ids = (
            sq.map(|_| g.term_id(&st)),
            pq.map(|_| g.term_id(&pt)),
            oq.map(|_| g.term_id(&ot)),
        );
        let (Some(si), Some(pi), Some(oi)) = (
            ids.0.map_or(Some(None), |id| id.map(Some)),
            ids.1.map_or(Some(None), |id| id.map(Some)),
            ids.2.map_or(Some(None), |id| id.map(Some)),
        ) else {
            continue;
        };
        let pat = IdPattern { subject: si, predicate: pi, object: oi };
        let scanned = g.scan(pat);
        assert_eq!(scanned.len(), want.len(), "scan cardinality, shape {mask:03b}");
        assert_eq!(g.estimate(pat), scanned.len(), "estimate exactness, shape {mask:03b}");
        let streamed: Vec<_> = g.scan_iter(pat).collect();
        assert_eq!(streamed, scanned, "scan_iter vs scan, shape {mask:03b}");
        if let Some(major) = sort_major_position(pat) {
            let keys: Vec<u32> =
                scanned.iter().map(|&(s, p, o)| [s.0, p.0, o.0][major]).collect();
            assert!(
                keys.windows(2).all(|w| w[0] <= w[1]),
                "shape {mask:03b} not ascending on position {major}"
            );
        }
    }
}

/// Full comparison: cardinality, whole-graph scan, membership, predicates,
/// and probe points drawn both from present triples and from the raw
/// universe (absent positions).
fn check(g: &Graph, model: &Model, rng: &mut Rng) {
    assert_eq!(g.len(), model.len(), "triple count");
    assert_eq!(g.is_empty(), model.is_empty());
    let all: BTreeSet<Triple> = g.iter().collect();
    let want: BTreeSet<Triple> = model.iter().map(|&(s, p, o)| triple(s, p, o)).collect();
    assert_eq!(all, want, "full scan");

    for _ in 0..16 {
        let (s, p, o) = random_key(rng);
        let want = model.contains(&(s, p, o));
        assert_eq!(g.contains(&triple(s, p, o)), want, "contains ({s},{p},{o})");
    }

    let preds = g.predicates();
    let want: BTreeSet<Term> = model.iter().map(|&(_, p, _)| predicate(p)).collect();
    assert_eq!(preds.iter().cloned().collect::<BTreeSet<_>>(), want, "predicate set");
    let pred_ids: Vec<u32> = preds.iter().map(|p| g.term_id(p).expect("interned").0).collect();
    assert!(pred_ids.windows(2).all(|w| w[0] < w[1]), "predicates in id order: {pred_ids:?}");

    for _ in 0..6 {
        let (s, p, o) = if !model.is_empty() && rng.gen_bool(0.5) {
            let nth = rng.gen_range(0..model.len());
            *model.iter().nth(nth).expect("in range")
        } else {
            random_key(rng)
        };
        check_probe(g, model, s, p, o);
    }
}

#[test]
fn built_graph_matches_reference_at_every_size() {
    // Empty, singleton, sparse, dense, and past saturation (6000 draws from
    // a 9600-triple universe: many duplicates beyond the re-pushed quarter).
    for &n in &[0usize, 1, 50, 1000, 6000] {
        for seed in [1u64, 2, 3] {
            let mut rng = Rng::seed_from_u64(seed * 1000 + n as u64);
            let pushes = push_sequence(&mut rng, n);
            let model: Model = pushes.iter().copied().collect();
            check(&build(&pushes), &model, &mut rng);
        }
    }
}
