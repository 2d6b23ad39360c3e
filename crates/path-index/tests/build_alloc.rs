//! The index build allocates per pool, not per path: `PathIndex::build`
//! followed by `encode_v2` makes the same number of fresh allocations
//! for 8× the paths, and its reallocations (pool growth) add only a
//! handful per doubling.
//!
//! A counting global allocator tallies the calls each thread makes;
//! this binary holds one test so nothing else runs under it.

use path_index::{encode_v2, PathIndex};
use rdf_model::DataGraph;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static FRESH: Cell<usize> = const { Cell::new(0) };
    static GROWN: Cell<usize> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<usize>>) {
    // `try_with`: a thread being torn down has no counter left.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the tally touches const-initialised thread-local `Cell`s
// with no destructor, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&FRESH);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&FRESH);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&GROWN);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `students` students, each taking one of 50 courses and carrying a
/// name: two paths per student, three shapes in all.
fn campus(students: usize) -> DataGraph {
    let mut b = DataGraph::builder();
    for c in 0..50 {
        b.triple_str(&format!("c{c}"), "type", "Course").unwrap();
    }
    for s in 0..students {
        b.triple_str(&format!("s{s}"), "takes", &format!("c{}", s % 50))
            .unwrap();
        b.triple_str(&format!("s{s}"), "name", &format!("\"n{s}\""))
            .unwrap();
    }
    b.build()
}

/// Fresh allocations and reallocations of one build + encode, and the
/// paths it indexed.
fn build_and_encode(data: DataGraph) -> (usize, usize, usize) {
    let (fresh, grown) = (FRESH.with(Cell::get), GROWN.with(Cell::get));
    let index = PathIndex::build(data);
    let image = encode_v2(&index).unwrap();
    let counts = (
        FRESH.with(Cell::get) - fresh,
        GROWN.with(Cell::get) - grown,
        index.path_count(),
    );
    drop((index, image));
    counts
}

#[test]
fn build_allocates_per_pool_not_per_path() {
    // Whatever the first build sets up once (telemetry registries)
    // stays out of the counts.
    build_and_encode(campus(10));
    let (small_fresh, small_grown, small_paths) = build_and_encode(campus(1_000));
    let (large_fresh, large_grown, large_paths) = build_and_encode(campus(8_000));
    assert_eq!((small_paths, large_paths), (2_000, 16_000));

    assert_eq!(
        large_fresh, small_fresh,
        "fresh allocations grew with the paths: {small_fresh} for {small_paths}, \
         {large_fresh} for {large_paths}"
    );
    assert!(
        small_fresh < 100,
        "{small_fresh} fresh allocations for {small_paths} paths"
    );
    // Three doublings of a dozen growing pools.
    assert!(
        large_grown <= small_grown + 48,
        "reallocations grew with the paths: {small_grown} for {small_paths}, \
         {large_grown} for {large_paths}"
    );
}
