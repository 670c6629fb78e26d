//! Memory sentinel for `KnowledgeBase::from_graph` (CI-enforced through the
//! workspace test). A counting global allocator tracks live heap bytes; at
//! ×12 the peak that building the views adds above the already-built graph
//! must stay under a pinned ceiling. The views read the graph's slices in id
//! space; a build that materializes the label or page-link facts as
//! `Vec<Triple>`, or copies them into hash maps keyed by IRI, peaks several
//! times higher and fails here.
//!
//! This file holds a single test so no other test thread allocates while it
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use relpat_kb::{generate, KbConfig, KnowledgeBase, Ontology};

/// Peak bytes `from_graph` may add above the built graph at ×12: the
/// measured 2.99 MB (x86-64 Linux) plus 10%. Nearly all of it is retained:
/// the lexical index, the label table and the degree column. Copying the
/// label and link facts into IRI-keyed hash maps peaks near 12 MB here, and
/// a dense 256-byte character bag per lexical unit near 6.5 MB.
const PEAK_CEILING: usize = 3_290_000;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grew(by: usize) {
        let live = LIVE.fetch_add(by, Relaxed) + by;
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            Self::grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            if new_size >= layout.size() {
                Self::grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn from_graph_peak_above_the_graph_stays_under_the_ceiling() {
    let mut generated = generate(&KbConfig::scaled(12));
    let graph = std::mem::take(&mut generated.graph);
    drop(generated);
    let ontology = Ontology::dbpedia();

    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let kb = KnowledgeBase::from_graph(graph, ontology);
    let peak = PEAK.load(Relaxed) - base;
    let retained = LIVE.load(Relaxed).saturating_sub(base);

    eprintln!(
        "from_graph at x12 ({} triples): peak +{peak} B, retained +{retained} B",
        kb.len()
    );
    assert!(peak <= PEAK_CEILING, "from_graph peaked {peak} B above the graph (ceiling {PEAK_CEILING} B)");
}
