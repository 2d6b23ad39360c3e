//! What a combination search allocates does not grow with its
//! expansions: a queued state is an index into the link arena, so
//! pushing one allocates nothing, and the only growth is the amortised
//! doubling of the arena and of a frontier bucket — logarithmic in the
//! expansions — plus what each answer's alignment and breakdown take.
//!
//! A counting global allocator tallies the calls each thread makes, so
//! the tests of this binary do not count each other's.

use path_index::{ExtractionConfig, MappedIndex, NoSynonyms};
use rdf_model::{DataGraph, QueryGraph, Triple};
use sama_core::{
    build_clusters, decompose_query, search_top_k, AlignmentMode, Cluster, ClusterConfig,
    IntersectionGraph, QueryPath, ScoreParams, SearchConfig, SearchStream,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: a thread being torn down has no counter left.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the tally touches a const-initialised thread-local `Cell`
// with no destructor, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (ALLOCATIONS.with(Cell::get) - before, value)
}

/// `?x a "A"` and `?x b "B"` over 200 sources of each edge, no source
/// having both: every pair of cluster entries shares no node, so no
/// answer conforms, and the search pops the 200 × 200 combinations at
/// priority 0 — each pushes its sibling and goes back at priority 1 —
/// before the first answer, then one answer per pop.
fn fixture() -> (MappedIndex, Vec<QueryPath>, IntersectionGraph, Vec<Cluster>) {
    let mut b = DataGraph::builder();
    for i in 0..200 {
        b.triple_str(&format!("s{i}"), "a", "\"A\"").unwrap();
        b.triple_str(&format!("t{i}"), "b", "\"B\"").unwrap();
    }
    let index = MappedIndex::build(b.build()).unwrap();
    let triples = [
        Triple::parse("?x", "a", "\"A\""),
        Triple::parse("?x", "b", "\"B\""),
    ];
    let qpaths = decompose_query(
        &QueryGraph::from_triples(&triples).unwrap(),
        &index,
        &NoSynonyms,
        &ExtractionConfig::default(),
    );
    let ig = IntersectionGraph::build(&qpaths);
    let clusters = build_clusters(
        &qpaths,
        &index,
        &NoSynonyms,
        &ScoreParams::paper(),
        AlignmentMode::Greedy,
        &ClusterConfig::default(),
    );
    assert_eq!(qpaths.len(), 2);
    assert_eq!(ig.edges.len(), 1);
    assert!(clusters.iter().all(|c| c.entries.len() == 200));
    (index, qpaths, ig, clusters)
}

#[test]
fn expansions_cost_a_logarithmic_number_of_allocations() {
    let (index, qpaths, ig, clusters) = fixture();
    let params = ScoreParams::paper();
    // Each search stops at its expansion limit before any answer; the
    // anytime fill completes the same two frontier states every time.
    let search = |max_expansions: usize| {
        allocations_of(|| {
            search_top_k(
                &qpaths,
                &ig,
                &clusters,
                &index,
                &params,
                1,
                &SearchConfig {
                    max_expansions,
                    ..Default::default()
                },
            )
        })
    };
    let _ = search(1_000);
    let (base, outcome) = search(1_000);
    assert!(outcome.truncated);
    for doublings in 1..=5u32 {
        let limit = 1_000 << doublings;
        let (allocations, outcome) = search(limit);
        assert_eq!(outcome.expansions, limit);
        assert!(outcome.truncated, "no answer before {limit} expansions");
        // One arena and one bucket double per doubling of the
        // expansions; the rest of the search allocates what it did at
        // 1 000. (Two more allowed for a different growth policy.)
        assert!(
            allocations <= base + 2 * doublings as usize + 2,
            "{allocations} allocations at {limit} expansions, {base} at 1 000"
        );
    }
}

#[test]
fn answers_cost_a_constant_each_whatever_their_expansions() {
    let (index, qpaths, ig, clusters) = fixture();
    let params = ScoreParams::paper();
    let mut stream = SearchStream::new(
        qpaths,
        ig,
        clusters,
        &index,
        params,
        SearchConfig::default(),
    );
    let (first, answer) = allocations_of(|| stream.next_answer());
    assert!(answer.is_some());
    let expansions = stream.expansions();
    assert!(expansions > 40_000, "{expansions} expansions");
    // The first answer's ≈40 000 expansions doubled the arena and the
    // priority-1 bucket about 16 times each.
    let (second, answer) = allocations_of(|| stream.next_answer());
    assert!(answer.is_some());
    assert_eq!(stream.expansions(), expansions + 1);
    assert!(
        first <= second + 2 * expansions.ilog2() as usize + 8,
        "{first} allocations for the first answer, {second} for the second"
    );
    for _ in 0..20 {
        let (allocations, answer) = allocations_of(|| stream.next_answer());
        assert!(answer.is_some());
        assert_eq!(allocations, second, "each later answer is one pop");
    }
}
