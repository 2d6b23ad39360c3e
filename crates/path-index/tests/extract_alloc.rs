//! Path extraction allocates in proportion to the graph and to what it
//! emits: one walk state serves every source, so a graph with many
//! sources costs O(nodes + emitted path bytes), not O(sources × nodes).
//!
//! A counting global allocator tallies the bytes each thread asks for;
//! this binary holds one test so nothing else runs under it.

use path_index::{extract_paths, ExtractionConfig, Path};
use rdf_model::{DataGraph, EdgeId, NodeId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn tally(bytes: usize) {
    // `try_with`: a thread being torn down has no counter left.
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes));
}

fn allocated() -> usize {
    BYTES.with(Cell::get)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the tally touches a const-initialised thread-local `Cell`
// with no destructor, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What the emitted paths occupy: each `Path` value and its node and
/// edge slices.
fn path_bytes(paths: &[Path]) -> usize {
    paths
        .iter()
        .map(|p| {
            std::mem::size_of::<Path>()
                + p.nodes.len() * std::mem::size_of::<NodeId>()
                + p.edges.len() * std::mem::size_of::<EdgeId>()
        })
        .sum()
}

#[test]
fn disjoint_chains_allocate_linearly() {
    const CHAINS: usize = 2_000;
    let mut b = DataGraph::builder();
    for i in 0..CHAINS {
        b.triple_str(&format!("s{i}"), "p", &format!("o{i}"))
            .unwrap();
    }
    let data = b.build();
    let graph = data.as_graph();
    let nodes = graph.node_count();
    assert_eq!(nodes, 2 * CHAINS);

    let before = allocated();
    let extraction = extract_paths(graph, &ExtractionConfig::default());
    let spent = allocated() - before;

    assert_eq!(extraction.paths.len(), CHAINS);
    let bound = 4 * (nodes + path_bytes(&extraction.paths));
    // A fresh `on_path` buffer per source alone would be CHAINS × nodes
    // bytes, 8 000 000 here.
    assert!(
        spent <= bound,
        "extract_paths allocated {spent} bytes for {nodes} nodes and {} paths \
         (bound {bound})",
        extraction.paths.len()
    );
}
