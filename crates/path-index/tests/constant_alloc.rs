//! Resolving query constants on an opened index allocates nothing: the
//! constant table is read from the image as stored, from the first
//! lookup on, whichever thread makes it.
//!
//! A counting global allocator tallies the calls each thread makes;
//! this binary holds one test so nothing else runs under it.

use path_index::{encode_v2, IndexLike, MappedIndex, PathIndex};
use rdf_model::DataGraph;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Barrier;

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

#[test]
fn constant_lookups_allocate_nothing_on_any_thread() {
    let mut b = DataGraph::builder();
    for i in 0..4_000 {
        b.triple_str(&format!("s{i}"), "p", &format!("\"o{i}\""))
            .unwrap();
    }
    for (s, p, o) in [
        ("a", "p", "b"),
        ("b", "q", "\"b\""),
        ("_:b", "p", "a"),
        ("c", "q", "\"é\""),
    ] {
        b.triple_str(s, p, o).unwrap();
    }
    let idx = PathIndex::build(b.build());
    let vocab = idx.graph().vocab().clone();
    let mapped = MappedIndex::from_bytes(&encode_v2(&idx).unwrap()).unwrap();
    let probes = [
        "a", "b", "\u{e9}", "p", "absent", "", "q", "c", "s17", "o17",
    ];
    let expected: Vec<_> = probes.iter().map(|p| vocab.get_constant(p)).collect();

    // Four threads, 25 lookups each: 100 in all, each thread counting
    // what its own lookups allocate.
    let start = Barrier::new(4);
    let results: Vec<(usize, Vec<_>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|t| {
                let (start, mapped, probes) = (&start, &mapped, &probes);
                scope.spawn(move || {
                    let mut answers = [None; 25];
                    start.wait();
                    let before = ALLOCATIONS.with(Cell::get);
                    for (i, answer) in answers.iter_mut().enumerate() {
                        *answer = mapped.constant_label(probes[(t + i) % probes.len()]);
                    }
                    (ALLOCATIONS.with(Cell::get) - before, answers.to_vec())
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for (t, (allocations, answers)) in results.iter().enumerate() {
        assert_eq!(*allocations, 0, "thread {t} allocated");
        for (i, answer) in answers.iter().enumerate() {
            assert_eq!(
                *answer,
                expected[(t + i) % probes.len()],
                "thread {t}, call {i}"
            );
        }
    }
}
