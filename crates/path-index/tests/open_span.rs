//! `index.open_ns` times the whole open — "open and validation", as its
//! help text says — from the top of `MappedIndex::open` and
//! `MappedIndex::from_bytes`: the file's `open` and `mmap` (or the copy
//! into an aligned buffer) are inside the span, not just the validation.
//!
//! A delay armed at the open's `index.load` fault point, which comes
//! before any of that, must show in the recorded sample. The fault plan
//! and the histogram are process-wide, so this binary holds one test.

use path_index::{encode_v2, MappedIndex, PathIndex};
use rdf_model::DataGraph;
use sama_obs::metrics::INDEX_OPEN_NS;
use sama_obs::{fault, FaultAction, FaultPlan};
use std::time::Duration;

const DELAY: Duration = Duration::from_millis(20);

/// The one sample `open` adds to `index.open_ns`, in nanoseconds.
fn recorded_sample(open: impl FnOnce() -> MappedIndex) -> u64 {
    let before = INDEX_OPEN_NS.snapshot();
    let index = open();
    let after = INDEX_OPEN_NS.snapshot();
    drop(index);
    assert_eq!(after.count(), before.count() + 1, "one open, one sample");
    after.sum - before.sum
}

#[test]
fn the_open_span_covers_everything_from_the_fault_point_on() {
    let mut b = DataGraph::builder();
    b.triple_str("a", "p", "b").unwrap();
    b.triple_str("b", "q", "\"c\"").unwrap();
    let bytes = encode_v2(&PathIndex::build(b.build())).unwrap();
    let path = std::env::temp_dir().join(format!("open-span-{}.idx", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();

    fault::install(FaultPlan::single(
        "index.load",
        FaultAction::Delay(DELAY),
        1,
    ));
    let from_bytes = recorded_sample(|| MappedIndex::from_bytes(&bytes).unwrap());
    let from_file = recorded_sample(|| MappedIndex::open(&path).unwrap());
    fault::install(FaultPlan::none());
    std::fs::remove_file(&path).unwrap();

    let floor = DELAY.as_nanos() as u64;
    assert!(from_bytes >= floor, "from_bytes recorded {from_bytes} ns");
    assert!(from_file >= floor, "open recorded {from_file} ns");
}
