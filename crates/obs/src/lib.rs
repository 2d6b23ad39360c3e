//! # sama-obs
//!
//! Zero-dependency observability substrate for the Sama workspace: a
//! [`Registry`] of atomic [`Counter`]s, [`Gauge`]s, and log2-bucketed
//! latency [`Histogram`]s, RAII [`Span`] timers, and exporters for the
//! Prometheus text format and a JSON snapshot.
//!
//! ## Architecture
//!
//! * **Recording is lock-free**: every metric is a handful of atomics;
//!   registration (name → handle) takes a short mutex once.
//! * **Global or scoped**: the pipeline records into [`global()`];
//!   tests and A/B comparisons build their own [`Registry`].
//! * **Spans**: `let _s = span!("cluster.align_ns");` times the
//!   enclosing scope into the global histogram of that name. Naming
//!   scheme: `phase.subphase_ns` (dots map to `_` in the Prometheus
//!   exposition, which prepends the `sama_` namespace).
//! * **Kill switch**: [`set_enabled(false)`](set_enabled) turns the
//!   convenience recorders and the [`span!`] macro into no-ops, for
//!   measuring the instrumentation's own overhead.
//! * **No ambient configuration**: this switch, the profiler
//!   ([`profile::set_profiling`]) and the slow-query threshold
//!   ([`SlowLog::set_threshold`]) are set by calls only. The one
//!   environment variable the crate reads is `SAMA_FAULTS` (see
//!   [`fault`]), which has to reach a spawned `sama serve`.
//!
//! ```
//! use sama_obs as obs;
//!
//! obs::counter_add("demo.queries_total", 1);
//! {
//!     let _span = obs::span!("demo.phase_ns");
//! }
//! let snapshot = obs::global().snapshot();
//! assert!(snapshot.counters["demo.queries_total"] >= 1);
//! println!("{}", snapshot.to_prometheus());
//! ```

#![warn(missing_docs)]

pub mod export;
pub mod fault;
pub mod metrics;
pub mod profile;
pub mod registry;
pub mod slowlog;
pub mod span;
pub mod window;

pub use export::prometheus_name;
pub use fault::{FaultAction, FaultPlan};
pub use metrics::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, BUCKET_COUNT,
};
pub use profile::PathStat;
pub use registry::{Registry, Snapshot};
pub use slowlog::{SlowLog, SlowQueryRecord};
pub use span::Span;
pub use window::{RollingHistogram, WindowedSnapshot, WINDOWS};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

static ENABLED: AtomicBool = AtomicBool::new(true);
static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry every pipeline layer records into.
/// Initialized on first use.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(|| {
        let registry = Registry::new();
        // Identify the process to scrapes and bench baselines up front:
        // detected parallelism and the crate version. Index-specific
        // build info (the on-disk format) is stamped by whoever opens
        // an index.
        registry.gauge("runtime.hardware_threads").set(
            std::thread::available_parallelism()
                .map(|n| n.get() as i64)
                .unwrap_or(1),
        );
        registry.set_build_info("version", env!("CARGO_PKG_VERSION"));
        registry
    })
}

/// The parallelism the runtime detected (also exported as the
/// `runtime.hardware_threads` gauge) — bench writers stamp this into
/// their baselines so results from different machines stay comparable.
pub fn hardware_threads() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// `true` while instrumentation is on (the default). Checked by the
/// [`span!`] macro and the convenience recorders; direct `Arc` handles
/// obtained from a registry are never gated.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the convenience recorders and [`span!`] guards on or off
/// process-wide. The overhead bench flips this to measure the
/// instrumented-vs-bare delta.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Add `n` to the global counter `name` (no-op while disabled).
#[inline]
pub fn counter_add(name: &str, n: u64) {
    if enabled() {
        global().counter(name).add(n);
    }
}

/// Set the global gauge `name` (no-op while disabled).
#[inline]
pub fn gauge_set(name: &str, value: i64) {
    if enabled() {
        global().gauge(name).set(value);
    }
}

/// Record a duration into the global histogram `name` as nanoseconds
/// (no-op while disabled).
#[inline]
pub fn observe_duration(name: &str, d: Duration) {
    if enabled() {
        global().histogram(name).record_duration(d);
    }
}

/// Record a raw sample into the global histogram `name` (no-op while
/// disabled).
#[inline]
pub fn observe(name: &str, value: u64) {
    if enabled() {
        global().histogram(name).record(value);
    }
}

/// Record a raw sample into the global *rolling* histogram `name` —
/// the sliding 10s/1m/5m windows — in addition to whatever lifetime
/// histogram the caller also feeds (no-op while disabled).
#[inline]
pub fn rolling_observe(name: &str, value: u64) {
    if enabled() {
        global().rolling(name).record(value);
    }
}

/// Record a duration into the global rolling histogram `name` as
/// nanoseconds (no-op while disabled).
#[inline]
pub fn rolling_observe_duration(name: &str, d: Duration) {
    if enabled() {
        global().rolling(name).record_duration(d);
    }
}
