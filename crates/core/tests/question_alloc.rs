//! Allocation gate for the §2.2 mapper and the §2.3 planner: the heap
//! allocations `Mapper::map` makes per relation slot, and those
//! `build_queries_planned` makes per emitted candidate, stay under fixed
//! bounds on the QALD evaluated subset and the seeded template traffic at
//! ×1.
//!
//! Property candidates carry an ontology id, so scoring a property reads
//! its precomputed keys, the lexical index looks up candidates on a reused
//! scratch, and the planner writes each option's line and each candidate's
//! SPARQL with `push_str` into a buffer sized once.
//!
//! The binary installs a global allocator that counts each thread's
//! allocations in a thread-local cell, so other test threads do not leak
//! into a count. The traffic runs twice and the second pass is measured,
//! so one-time growth (the lookup scratch, metric registration) is not
//! counted. Debug builds re-parse every emitted candidate in a
//! `debug_assert`, so the gate runs only in release builds
//! (`cargo test --release -p relpat-qa --test question_alloc`).

#![cfg_attr(debug_assertions, allow(dead_code, unused_imports))]

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use relpat_kb::{evaluated_subset, generate, qald_questions, KbConfig};
use relpat_patterns::{mine, CorpusConfig};
use relpat_qa::{
    build_queries_planned, extract, similar_property_pairs, Mapper, MappingConfig, PlannerStrategy,
    PredicateSlot,
};

struct CountingAllocator;

thread_local! {
    // `const`-initialized with no destructor: reading it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter only
// observes that a call was made.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Upper bound on `Mapper::map`'s allocations per relation slot: 13.05 are
/// made; name-keyed candidates, allocating lookups and per-call scoring
/// keys made 51.25.
const MAP_PER_SLOT: f64 = 14.0;

/// Upper bound on `build_queries_planned`'s allocations per emitted
/// candidate: 13.19 are made; `format!` rendering and per-option IRI
/// building made 27.90.
const PLAN_PER_CANDIDATE: f64 = 14.5;

/// What one pass over the traffic allocated, and what it mapped and
/// emitted.
#[derive(Debug, Default, PartialEq)]
struct Pass {
    questions: u64,
    slots: u64,
    candidates: u64,
    map_allocations: u64,
    plan_allocations: u64,
}

#[cfg(not(debug_assertions))]
#[test]
fn mapping_and_planning_allocations_stay_bounded() {
    let kb = generate(&KbConfig::scaled(1));
    let store = mine(&kb, &CorpusConfig::default()).store;
    let pairs = similar_property_pairs(&kb, relpat_wordnet::embedded());
    let mapper = Mapper {
        kb: &kb,
        wordnet: relpat_wordnet::embedded(),
        patterns: &store,
        similar_pairs: &pairs,
        config: MappingConfig::default(),
    };
    let qald = qald_questions(&kb);
    let mut questions: Vec<String> =
        evaluated_subset(&qald).into_iter().map(|q| q.text.clone()).collect();
    questions.extend(common::template_questions(&kb, 23));
    let analyses: Vec<_> =
        questions.iter().filter_map(|q| extract(&relpat_nlp::parse_sentence(q))).collect();

    let run = || {
        let mut pass = Pass::default();
        for analysis in &analyses {
            pass.questions += 1;
            pass.slots += analysis
                .triples
                .iter()
                .filter(|t| {
                    t.class_word().is_none() && matches!(t.predicate, PredicateSlot::Word { .. })
                })
                .count() as u64;
            let before = allocations();
            let mapped = mapper.map(analysis);
            pass.map_allocations += allocations() - before;
            let Some(mapped) = mapped else { continue };
            let before = allocations();
            let (queries, _) =
                build_queries_planned(&kb, analysis, &mapped, 50, PlannerStrategy::Beam);
            pass.plan_allocations += allocations() - before;
            pass.candidates += queries.len() as u64;
        }
        pass
    };
    let warm = run();
    let pass = run();
    assert_eq!((warm.slots, warm.candidates), (pass.slots, pass.candidates));
    assert!(pass.slots > 150 && pass.candidates > 300, "{pass:?}");

    let per_slot = pass.map_allocations as f64 / pass.slots as f64;
    let per_candidate = pass.plan_allocations as f64 / pass.candidates as f64;
    eprintln!(
        "{} questions: {:.2} allocations per relation slot, {:.2} per emitted candidate ({pass:?})",
        pass.questions, per_slot, per_candidate
    );
    assert!(per_slot <= MAP_PER_SLOT, "mapping: {per_slot:.2} allocations per slot, {pass:?}");
    assert!(
        per_candidate <= PLAN_PER_CANDIDATE,
        "planning: {per_candidate:.2} allocations per candidate, {pass:?}"
    );
}
