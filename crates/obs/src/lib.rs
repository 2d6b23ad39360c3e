//! # sama-obs
//!
//! Zero-dependency observability substrate for the Sama workspace: one
//! static [table](metrics::TABLE) of atomic [`Counter`]s, [`Gauge`]s
//! and log2-bucketed latency [`Histogram`]s, RAII [`Span`] timers, and
//! exporters for the Prometheus text format and a JSON document.
//!
//! ## Architecture
//!
//! * **Declared once, recorded directly**: every metric is a `static`
//!   of [`metrics`]; recording is one relaxed [`enabled`] load and the
//!   atomics — no name lookup, no lock, no registration.
//! * **Exported whole**: the [`export`] functions walk the table, so
//!   every declared series exists, at zero, from process start.
//! * **Spans**: `let _s = span!(metrics::CLUSTER_ALIGN_NS);` times the
//!   enclosing scope into that histogram. Naming scheme:
//!   `phase.subphase_ns` (dots map to `_` in the Prometheus
//!   exposition, which prepends the `sama_` namespace).
//! * **Kill switch**: [`set_enabled(false)`](set_enabled) turns every
//!   recorder and the [`span!`] macro into no-ops, for measuring the
//!   instrumentation's own overhead.
//! * **No ambient configuration**: this switch, the profiler
//!   ([`profile::set_profiling`]) and the slow-query threshold
//!   ([`SlowLog::set_threshold`]) are set by calls only. The one
//!   environment variable the crate reads is `SAMA_FAULTS` (see
//!   [`fault`]), which has to reach a spawned `sama serve`.
//!
//! ```
//! use sama_obs as obs;
//!
//! obs::metrics::QUERY_QUERIES_TOTAL.add(1);
//! {
//!     let _span = obs::span!(obs::metrics::QUERY_SEARCH_NS);
//! }
//! assert!(obs::metrics::QUERY_QUERIES_TOTAL.get() >= 1);
//! println!("{}", obs::export::prometheus());
//! ```

#![warn(missing_docs)]

pub mod export;
pub mod fault;
pub mod metrics;
pub mod profile;
pub mod slowlog;
pub mod span;
pub mod window;

pub use fault::{FaultAction, FaultPlan};
pub use metrics::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, BUCKET_COUNT,
};
pub use profile::PathStat;
pub use slowlog::{SlowLog, SlowQueryRecord};
pub use span::Span;
pub use window::{RollingHistogram, WindowedSnapshot, WINDOWS};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// The parallelism the runtime detects (exported as the
/// `runtime.hardware_threads` gauge, read at export time) — bench
/// writers stamp this into their baselines so results from different
/// machines stay comparable.
pub fn hardware_threads() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// `true` while instrumentation is on (the default). Checked by every
/// recorder of the metric table and by the [`span!`] macro.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn every recorder and [`span!`] guard on or off process-wide.
/// The overhead bench flips this to measure the instrumented-vs-bare
/// delta.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}
