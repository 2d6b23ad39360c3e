//! Golden-shape pinning for the engine's observable exports.
//!
//! `explain_shape.txt` pins the exact key-path structure of an EXPLAIN
//! JSONL line; `prometheus_names.txt` pins the series names a query
//! run exports and `metrics.txt` the metric table itself. Regenerate
//! intentionally with
//! `SAMA_UPDATE_GOLDEN=1 cargo test -p sama-testkit --test golden`.

use sama_testkit::golden::{check_golden, explain_shape, metric_reference, prometheus_names};

#[test]
fn explain_jsonl_shape_is_pinned() {
    let shape = explain_shape();
    assert!(!shape.is_empty(), "EXPLAIN line parsed to an empty shape");
    if let Err(msg) = check_golden("explain_shape.txt", &shape) {
        panic!("{msg}");
    }
}

#[test]
fn prometheus_export_names_are_pinned() {
    let names = prometheus_names();
    assert!(!names.is_empty(), "no metrics exported");
    if let Err(msg) = check_golden("prometheus_names.txt", &names) {
        panic!("{msg}");
    }
}

#[test]
fn metric_reference_is_pinned() {
    if let Err(msg) = check_golden("metrics.txt", &metric_reference()) {
        panic!("{msg}");
    }
}
