//! Reading a path's labels from an opened index, and aligning a query
//! path against them, allocates nothing: a path's node labels are a
//! gather through the image's node-label section, not a copy.
//!
//! A counting global allocator tallies the calls this thread makes;
//! this binary holds one test so nothing else runs under it.

use path_index::{ExtractionConfig, IndexLike, MappedIndex, NoSynonyms, PathId};
use rdf_model::{DataGraph, QueryGraph, Triple};
use sama_core::{align, align_lambda, decompose_query, AlignmentMode, ScoreParams};
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
fn allocations_of(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn labels_and_alignment_over_them_allocate_nothing() {
    let mut b = DataGraph::builder();
    for i in 0..400 {
        b.triple_str(&format!("s{i}"), "p", &format!("m{}", i % 7))
            .unwrap();
        b.triple_str(&format!("m{}", i % 7), "q", &format!("\"leaf {}\"", i % 3))
            .unwrap();
        b.triple_str(&format!("s{i}"), "r", &format!("t{}", i % 5))
            .unwrap();
    }
    let index = MappedIndex::build(b.build()).unwrap();
    let paths: Vec<PathId> = index.all_path_ids();
    assert!(paths.len() > 400);

    let decompose = |triples: &[[&str; 3]]| {
        let triples: Vec<Triple> = triples
            .iter()
            .map(|[s, p, o]| Triple::parse(s, p, o))
            .collect();
        let query = QueryGraph::from_triples(&triples).unwrap();
        let mut qpaths = decompose_query(&query, &index, &NoSynonyms, &ExtractionConfig::default());
        assert_eq!(qpaths.len(), 1);
        qpaths.remove(0)
    };
    // With variables (what the cluster fill scores), and ground (whose
    // full alignment records no bindings).
    let open = decompose(&[["?x", "p", "?y"], ["?y", "q", "\"leaf 1\""]]);
    let ground = decompose(&[["s1", "p", "m1"], ["m1", "q", "\"leaf 1\""]]);
    let params = ScoreParams::paper();

    let mut sink = 0u64;
    let mut lambdas = 0.0;
    let read = allocations_of(|| {
        for &pid in &paths {
            let labels = index.labels(pid);
            sink += labels.node_labels().map(|l| u64::from(l.0)).sum::<u64>();
            sink += u64::from(labels.sink_label().0) + labels.edge_labels.len() as u64;
        }
    });
    let aligned = allocations_of(|| {
        for &pid in &paths {
            let labels = index.labels(pid);
            lambdas += align_lambda(&open, labels, &params, AlignmentMode::Greedy);
            lambdas += align(&ground, labels, &params, AlignmentMode::Greedy).lambda;
        }
    });
    assert_eq!(read, 0, "reading labels allocated");
    assert_eq!(aligned, 0, "aligning over them allocated");
    assert!(sink > 0 && lambdas > 0.0);
}
