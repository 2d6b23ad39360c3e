//! Integration tests of the metric primitives and the static table,
//! extending the `crates/core/tests/concurrency.rs` pattern: property
//! tests for bucket placement, lossless concurrent recording, exports
//! that race writers, and the kill switch.
//!
//! [`sama_obs::set_enabled`] is process-wide and gates every recorder,
//! so every test here holds [`SERIAL`].

use proptest::prelude::*;
use sama_obs::metrics::{self, TABLE};
use sama_obs::{bucket_index, bucket_upper_bound, export, Counter, Histogram};
use std::sync::Mutex;
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every recorded duration lands in exactly the log2 bucket its
    /// bit length names, and within that bucket's [2^(i-1), 2^i - 1]
    /// value range.
    #[test]
    fn recorded_durations_land_in_the_correct_bucket(ns in 0u64..u64::MAX) {
        let _guard = serial();
        let h = Histogram::new("prop.latency_ns", "");
        h.record_duration(Duration::from_nanos(ns));
        let snap = h.snapshot();
        let i = bucket_index(ns);
        prop_assert_eq!(snap.count(), 1);
        prop_assert_eq!(snap.buckets[i], 1, "sample {} must land in bucket {}", ns, i);
        prop_assert!(ns <= bucket_upper_bound(i));
        if i > 0 {
            prop_assert!(
                i == 1 || ns > bucket_upper_bound(i - 1),
                "sample {} too small for bucket {}", ns, i
            );
        } else {
            prop_assert_eq!(ns, 0);
        }
    }
}

#[test]
fn concurrent_recording_loses_no_counts() {
    // N threads hammering the same counter and histogram must account
    // for every single event — the lock-free hot path cannot drop or
    // double-count under contention.
    let _guard = serial();
    let threads = 8usize;
    let per_thread = 10_000u64;
    let counter = Counter::new("hot.events_total", "");
    let hist = Histogram::new("hot.latency_ns", "");

    std::thread::scope(|scope| {
        for t in 0..threads {
            let (counter, hist) = (&counter, &hist);
            scope.spawn(move || {
                for i in 0..per_thread {
                    counter.add(1);
                    // Spread samples across many buckets.
                    hist.record((t as u64 + 1) << (i % 40));
                }
            });
        }
    });

    let total = threads as u64 * per_thread;
    assert_eq!(counter.get(), total);
    assert_eq!(hist.snapshot().count(), total);
}

#[test]
fn concurrent_span_recording_is_lossless() {
    let _guard = serial();
    static HIST: Histogram = Histogram::new("spans.scope_ns", "");
    let threads = 4usize;
    let per_thread = 1_000usize;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                for _ in 0..per_thread {
                    drop(sama_obs::span!(HIST));
                }
            });
        }
    });
    assert_eq!(HIST.snapshot().count(), (threads * per_thread) as u64);
}

/// A declared metric nothing has recorded is exported as a complete,
/// zero-valued series (plain and rolling histograms alike) rather than
/// being skipped or emitting NaN quantiles.
#[test]
fn unrecorded_metrics_render_complete_zero_series() {
    let _guard = serial();
    let text = export::prometheus();
    assert!(text.contains("# TYPE sama_lsh_build_ns histogram\n"));
    assert!(text.contains("sama_lsh_build_ns_count 0\n"));
    assert!(text.contains("sama_lsh_build_ns_sum 0\n"));
    assert!(text.contains("sama_lsh_build_ns_bucket{le=\"+Inf\"} 0\n"));
    assert!(text.contains("# TYPE sama_serve_shed_total counter\nsama_serve_shed_total 0\n"));
    for label in ["p50", "p95", "p99"] {
        for (window, _) in sama_obs::WINDOWS {
            assert!(
                text.contains(&format!(
                    "sama_serve_request_total_ns_{label}{{window=\"{window}\"}} 0\n"
                )),
                "missing zero {label} for window {window}:\n{text}"
            );
        }
    }
    assert!(!text.contains("NaN"), "NaN leaked into exposition:\n{text}");

    let json = export::json();
    assert!(json.contains("\"lsh.build_ns\":{\"count\":0,\"sum\":0,"));
    assert!(json.contains("\"serve.request.total_ns\":{\"10s\":{\"count\":0"));
    let families = text.lines().filter(|l| l.starts_with("# TYPE")).count();
    let rolling = TABLE
        .iter()
        .filter(|m| matches!(m, metrics::Metric::RollingHistogram(_)))
        .count();
    // A rolling histogram exports four families; build info is one more.
    assert_eq!(families, TABLE.len() + 3 * rolling + 1);
}

/// Exporting while writers record into the same table entries must
/// never panic, render malformed text, or observe a count that exceeds
/// what was actually recorded.
#[test]
fn concurrent_export_during_update_is_safe() {
    let _guard = serial();
    let writers = 4usize;
    let per_thread = 2_000u64;
    let total = writers as u64 * per_thread;
    let rolled = || {
        metrics::QUERY_TOTAL_NS_ROLLING.windowed().windows[2]
            .1
            .count()
    };
    let rolled_before = rolled();
    let value = |text: &str, series: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
            .expect("series present")
    };

    std::thread::scope(|scope| {
        for t in 0..writers {
            scope.spawn(move || {
                for i in 0..per_thread {
                    metrics::BATCH_QUERIES_TOTAL.add(1);
                    metrics::BATCH_RUN_NS.record(i << (t % 8));
                    metrics::QUERY_TOTAL_NS_ROLLING.record_duration(Duration::from_nanos(i));
                }
            });
        }
        // Exporters race the writers: every intermediate export must be
        // internally consistent and renderable.
        for _ in 0..2 {
            scope.spawn(move || loop {
                let text = export::prometheus();
                let seen = value(&text, "sama_batch_queries_total");
                let count = value(&text, "sama_batch_run_ns_count");
                assert!(seen <= total, "counter overshot: {seen} > {total}");
                assert!(count <= total, "histogram overshot: {count} > {total}");
                assert_eq!(
                    count,
                    value(&text, "sama_batch_run_ns_bucket{le=\"+Inf\"}"),
                    "bucket sum disagrees with count"
                );
                assert!(!text.contains("NaN"));
                let json = export::json();
                assert!(json.starts_with('{') && json.ends_with('}'));
                if seen == total {
                    break;
                }
                std::thread::yield_now();
            });
        }
    });

    assert_eq!(metrics::BATCH_QUERIES_TOTAL.get(), total);
    assert_eq!(metrics::BATCH_RUN_NS.snapshot().count(), total);
    assert_eq!(
        rolled() - rolled_before,
        total,
        "5m window must hold every sample recorded within the last second"
    );
}

/// `set_enabled(false)` turns every recorder of every kind, and the
/// span macro, into a no-op; turning it back on records again.
#[test]
fn the_kill_switch_gates_every_recorder() {
    let _guard = serial();
    let record_all = || {
        metrics::QUERY_CANCELLED_TOTAL.add(1);
        metrics::SCORE_IC_LABELS.set(7);
        metrics::SCORE_IC_NS.record(5);
        metrics::QUERY_TOTAL_NS_ROLLING.record_duration(Duration::from_nanos(5));
        drop(sama_obs::span!(metrics::QUERY_PREPROCESS_NS));
    };
    let state = || {
        (
            metrics::QUERY_CANCELLED_TOTAL.get(),
            metrics::SCORE_IC_LABELS.get(),
            metrics::SCORE_IC_NS.snapshot().count(),
            metrics::QUERY_TOTAL_NS_ROLLING.windowed().windows[2]
                .1
                .count(),
            metrics::QUERY_PREPROCESS_NS.snapshot().count(),
        )
    };
    let before = state();
    sama_obs::set_enabled(false);
    record_all();
    sama_obs::set_enabled(true);
    assert_eq!(state(), before, "a disabled recorder recorded");
    record_all();
    let after = state();
    assert_eq!(after.0, before.0 + 1);
    assert_eq!(after.1, 7);
    assert_eq!(after.2, before.2 + 1);
    assert!(after.3 > before.3);
    assert_eq!(after.4, before.4 + 1);
}
