//! RAII span timers: measure a scope, record its duration into a
//! histogram when the guard drops (or explicitly via [`Span::finish`]).

use crate::metrics::{duration_ns, Histogram};
use crate::profile::{self, FrameToken};
use std::time::{Duration, Instant};

/// A running span: created by [`Span::enter`] (usually through the
/// [`crate::span!`] macro), records its elapsed time into the backing
/// histogram exactly once — on drop, or earlier via [`Span::finish`]
/// when the caller also wants the duration.
///
/// When the [phase-stack profiler](crate::profile) is armed, a span
/// also forms one frame of its thread's phase stack, named after its
/// histogram; the *same* elapsed measurement then feeds both the
/// histogram and the profile table, so the two views agree exactly.
#[derive(Debug)]
pub struct Span {
    hist: Option<&'static Histogram>,
    frame: Option<FrameToken>,
    start: Instant,
}

impl Span {
    /// Start timing into `hist` and push its name as a frame of the
    /// thread's phase stack (a no-op while profiling is disarmed).
    pub fn enter(hist: &'static Histogram) -> Self {
        Span {
            hist: Some(hist),
            frame: profile::push(hist.name),
            start: Instant::now(),
        }
    }

    /// A guard that records nothing (the disabled-instrumentation
    /// path; see [`crate::enabled`]).
    pub fn noop() -> Self {
        Span {
            hist: None,
            frame: None,
            start: Instant::now(),
        }
    }

    /// Record `elapsed` into the span's sinks, once: they are taken.
    fn record(&mut self, elapsed: Duration) {
        if let Some(hist) = self.hist.take() {
            hist.record_duration(elapsed);
        }
        if let Some(token) = self.frame.take() {
            profile::pop(token, duration_ns(elapsed));
        }
    }

    /// Stop the span now, record it, and return the elapsed time (the
    /// elapsed time is returned even for a no-op span).
    pub fn finish(mut self) -> Duration {
        let elapsed = self.start.elapsed();
        self.record(elapsed);
        elapsed
    }
}

impl Drop for Span {
    /// Reads the clock only for a span with somewhere to record it: a
    /// dropped no-op span, or one already finished, costs nothing.
    fn drop(&mut self) {
        if self.hist.is_some() || self.frame.is_some() {
            self.record(self.start.elapsed());
        }
    }
}

/// Time the enclosing scope into a histogram of the metric table
/// (span naming scheme: `phase.subphase_ns`):
///
/// ```
/// let _span = sama_obs::span!(sama_obs::metrics::CLUSTER_ALIGN_NS);
/// // ... work ...
/// // recorded when `_span` drops
/// ```
///
/// Compiles to a no-op guard when instrumentation is
/// [disabled](crate::set_enabled). Bind the guard to a named variable
/// (`let _span = …`, not `let _ = …`) or the span ends immediately.
#[macro_export]
macro_rules! span {
    ($hist:expr) => {
        if $crate::enabled() {
            $crate::Span::enter(&$hist)
        } else {
            $crate::Span::noop()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_on_drop() {
        static HIST: Histogram = Histogram::new("span_test.drop_ns", "");
        {
            let _span = Span::enter(&HIST);
        }
        assert_eq!(HIST.snapshot().count(), 1);
    }

    #[test]
    fn finish_records_once_and_returns_elapsed() {
        static HIST: Histogram = Histogram::new("span_test.finish_ns", "");
        let span = Span::enter(&HIST);
        let elapsed = span.finish();
        assert_eq!(HIST.snapshot().count(), 1);
        assert!(elapsed.as_nanos() > 0 || elapsed.is_zero());
        let noop = Span::noop();
        let _ = noop.finish();
        assert_eq!(HIST.snapshot().count(), 1, "noop span records nothing");
    }

    #[test]
    fn named_span_feeds_histogram_and_profile_identically() {
        static OUTER: Histogram = Histogram::new("span_test.outer_ns", "");
        static INNER: Histogram = Histogram::new("span_test.inner_ns", "");
        let _guard = profile::test_lock();
        profile::set_profiling(true);
        profile::reset();
        {
            let _outer = Span::enter(&OUTER);
            let _inner = Span::enter(&INNER);
        }
        profile::set_profiling(false);
        let stats = profile::stats();
        let outer = stats["span_test.outer_ns"];
        let inner = stats["span_test.outer_ns;span_test.inner_ns"];
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        // The same elapsed measurement feeds both sinks, so the profile
        // totals and the histogram sums agree exactly.
        assert_eq!(OUTER.snapshot().sum, outer.total_ns);
        assert_eq!(INNER.snapshot().sum, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }
}
