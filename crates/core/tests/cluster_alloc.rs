//! What a cluster fill allocates does not grow with what it reads or
//! keeps: the postings of one label are lent out of the index, not
//! copied, and a streamed fill keeps each survivor's λ rather than
//! aligning it in full — so filling 256 entries costs the allocations
//! filling 16 does.
//!
//! A counting global allocator tallies the calls each thread makes, so
//! the tests of this binary do not count each other's.

use path_index::{ExtractionConfig, IndexLike, MappedIndex, NoSynonyms};
use rdf_model::{DataGraph, QueryGraph, Triple};
use sama_core::{build_clusters, decompose_query, AlignmentMode, ClusterConfig, ScoreParams};
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

/// 400 sources `s{i}` each reaching the three `"leaf {k}"` sinks through
/// one of seven hubs `m{j}`, plus a side edge: 400 paths end in each
/// leaf.
fn index() -> MappedIndex {
    let mut b = DataGraph::builder();
    for i in 0..400 {
        b.triple_str(&format!("s{i}"), "p", &format!("m{}", i % 7))
            .unwrap();
        b.triple_str(&format!("m{}", i % 7), "q", &format!("\"leaf {}\"", i % 3))
            .unwrap();
        b.triple_str(&format!("s{i}"), "r", &format!("t{}", i % 5))
            .unwrap();
    }
    MappedIndex::build(b.build()).unwrap()
}

fn query(triples: &[[&str; 3]]) -> QueryGraph {
    let triples: Vec<Triple> = triples
        .iter()
        .map(|[s, p, o]| Triple::parse(s, p, o))
        .collect();
    QueryGraph::from_triples(&triples).unwrap()
}

#[test]
fn one_labels_postings_are_lent_not_copied() {
    let index = index();
    let leaf = index.constant_label("leaf 1").expect("a data label");
    let hub = index.constant_label("m1").expect("a data label");
    // The first lookup of a thread may set up what the index's metrics
    // keep per thread; only later ones are counted.
    let _ = (
        index.paths_ending_in(&[leaf]),
        index.paths_containing(&[hub]),
    );
    let (read, lengths) = allocations_of(|| {
        let by_sink = index.paths_ending_in(&[leaf]);
        let by_label = index.paths_containing(&[hub]);
        (by_sink.len(), by_label.len())
    });
    assert!(lengths.0 >= 400 && lengths.1 > 0, "{lengths:?}");
    assert_eq!(read, 0, "a single label's postings allocated");
}

#[test]
fn a_streamed_fill_allocates_the_same_whatever_it_keeps() {
    let index = index();
    let params = ScoreParams::paper();
    // One query path per query: a variable-only inner part, and an inner
    // constant whose postings mark the touched candidates.
    for triples in [
        [["?x", "p", "?y"], ["?y", "q", "\"leaf 1\""]],
        [["?x", "p", "m1"], ["m1", "q", "\"leaf 1\""]],
    ] {
        let qpaths = decompose_query(
            &query(&triples),
            &index,
            &NoSynonyms,
            &ExtractionConfig::default(),
        );
        assert_eq!(qpaths.len(), 1);
        for mode in [AlignmentMode::Greedy, AlignmentMode::Optimal] {
            let fill = |cap: usize| {
                let config = ClusterConfig {
                    max_cluster_size: cap,
                    ..Default::default()
                };
                allocations_of(|| {
                    build_clusters(&qpaths, &index, &NoSynonyms, &params, mode, &config)
                })
            };
            let _ = fill(16);
            let (small, kept_small) = fill(16);
            let (large, kept_large) = fill(256);
            let what = format!("{triples:?} {mode:?}");
            assert!(
                kept_small[0].candidates_retrieved > 256,
                "{what}: the fill must stream"
            );
            assert_eq!(kept_small[0].entries.len(), 16, "{what}");
            assert_eq!(kept_large[0].entries.len(), 256, "{what}");
            assert_eq!(small, large, "{what}: allocations at cap 16 and 256");
        }
    }
}
