//! Golden-shape pinning for the engine's observable exports.
//!
//! `explain_shape.txt` pins the exact key-path structure of an EXPLAIN
//! JSONL line; `prometheus_names.txt` pins the metric names a query
//! run must export (subset semantics — the `SAMA_FAULTS` chaos leg
//! may add series). Regenerate intentionally with
//! `SAMA_UPDATE_GOLDEN=1 cargo test -p sama-testkit --test golden`.

use sama_testkit::golden::{check_golden, explain_shape, prometheus_names, Mode};

#[test]
fn explain_jsonl_shape_is_pinned() {
    let shape = explain_shape();
    assert!(!shape.is_empty(), "EXPLAIN line parsed to an empty shape");
    if let Err(msg) = check_golden("explain_shape.txt", &shape, Mode::Exact) {
        panic!("{msg}");
    }
}

#[test]
fn prometheus_export_keeps_required_names() {
    let names = prometheus_names();
    assert!(!names.is_empty(), "no metrics exported");
    if let Err(msg) = check_golden("prometheus_names.txt", &names, Mode::RequiredSubset) {
        panic!("{msg}");
    }
}
