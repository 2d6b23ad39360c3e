//! Every metric the workspace records, declared once in one static
//! [`TABLE`], and the three primitives they are made of: [`Counter`],
//! [`Gauge`], [`Histogram`] (plus the time-windowed
//! [`RollingHistogram`] of [`crate::window`]).
//!
//! A metric is a `static` item: recording is one relaxed
//! [`crate::enabled`] load and the atomics —
//! `sama_obs::metrics::QUERY_QUERIES_TOTAL.add(1)`,
//! `span!(sama_obs::metrics::CLUSTER_ALIGN_NS)` — with no name lookup,
//! no lock and no registration. The exporters walk [`TABLE`], so every
//! declared series is exported from process start, at zero until
//! recorded. Readers take consistent-enough
//! [snapshots](Histogram::snapshot) by loading each cell individually;
//! totals are derived from the loaded cells (never from a separately
//! raced counter), so a snapshot is always internally consistent.

use crate::enabled;
use crate::window::RollingHistogram;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// Declare the table: one `Kind ITEM = "dotted.name", "help";` line
/// per metric, where `Kind` is the primitive's type. Each line becomes
/// a `pub static` of that type and one [`TABLE`] entry, in the order
/// written.
macro_rules! metrics {
    ($($kind:ident $item:ident = $name:literal, $help:literal;)*) => {
        $(
            #[doc = $help]
            pub static $item: $kind = $kind::new($name, $help);
        )*
        /// Every declared metric, in exposition order: counters, gauges,
        /// histograms, rolling histograms, each kind sorted by name.
        pub static TABLE: &[Metric] = &[$(Metric::$kind(&$item)),*];
    };
}

metrics! {
    Counter BATCH_BATCHES_TOTAL = "batch.batches_total", "Batches run by the batch pool.";
    Counter BATCH_DEGRADED_TOTAL = "batch.degraded_total", "Batch queries answered truncated.";
    Counter BATCH_FAILED_TOTAL = "batch.failed_total", "Batch queries that failed or panicked.";
    Counter BATCH_QUERIES_TOTAL = "batch.queries_total", "Queries submitted in batches.";
    Counter BATCH_SHED_TOTAL = "batch.shed_total", "Batch queries shed by the queue-depth cap.";
    Counter CLUSTER_ALIGNMENTS_COMPUTED_TOTAL = "cluster.alignments_computed_total", "Alignments computed to score cluster candidates.";
    Counter CLUSTER_BUILDS_TOTAL = "cluster.builds_total", "Clusters filled.";
    Counter CLUSTER_CANDIDATES_DROPPED_TOTAL = "cluster.candidates_dropped_total", "Cluster candidates dropped by the caps.";
    Counter CLUSTER_CANDIDATES_RETRIEVED_TOTAL = "cluster.candidates_retrieved_total", "Cluster candidates retrieved from the index.";
    Counter CLUSTER_LSH_FALLBACK_TOTAL = "cluster.lsh_fallback_total", "LSH probes that fell back to exact retrieval.";
    Counter CLUSTER_RETRIEVED_PATHS_TOTAL = "cluster.retrieved_paths_total", "Paths retrieved over all clusters of answered queries.";
    Counter INDEX_BUILDS_TOTAL = "index.builds_total", "Path indexes built.";
    Counter INDEX_LABEL_LOOKUPS_TOTAL = "index.label_lookups_total", "Label-posting lookups on a mapped index.";
    Counter INDEX_OPENS_TOTAL = "index.opens_total", "Index images opened.";
    Counter INDEX_SINK_LOOKUPS_TOTAL = "index.sink_lookups_total", "Sink-posting lookups on a mapped index.";
    Counter QUERY_ANSWERS_TOTAL = "query.answers_total", "Answers returned.";
    Counter QUERY_CANCELLED_TOTAL = "query.cancelled_total", "Queries cut by cancellation.";
    Counter QUERY_DEADLINE_EXCEEDED_TOTAL = "query.deadline_exceeded_total", "Queries cut by their deadline.";
    Counter QUERY_QUERIES_TOTAL = "query.queries_total", "Queries answered.";
    Counter QUERY_SLO_VIOLATIONS_TOTAL = "query.slo_violations_total", "Queries over the 500 ms latency objective.";
    Counter QUERY_SLOW_TOTAL = "query.slow_total", "Queries captured by the slow-query log.";
    Counter SCORE_IC_QUERIES_TOTAL = "score.ic_queries_total", "Queries priced with IC weights.";
    Counter SEARCH_CHI_LOOKUPS_TOTAL = "search.chi_lookups_total", "Conformity (chi) lookups made by the search.";
    Counter SEARCH_EXPANSIONS_TOTAL = "search.expansions_total", "Search states expanded.";
    Counter SEARCH_TRUNCATED_EXPANSION_LIMIT_TOTAL = "search.truncated_expansion_limit_total", "Searches cut by the expansion limit.";
    Counter SEARCH_TRUNCATED_FRONTIER_OVERFLOW_TOTAL = "search.truncated_frontier_overflow_total", "Searches cut by the frontier cap.";
    Counter SERVE_REQUESTS_TOTAL = "serve.requests_total", "HTTP requests answered.";
    Counter SERVE_SHED_TOTAL = "serve.shed_total", "Connections shed by admission control.";
    Counter SERVE_TIMEOUTS_TOTAL = "serve.timeouts_total", "Connections cut by a read or write timeout.";
    Gauge BATCH_POOL_THREADS = "batch.pool_threads", "Threads of the last batch pool.";
    Gauge INDEX_PATHS = "index.paths", "Paths in the last index built.";
    Gauge INDEX_TRIPLES = "index.triples", "Triples in the last index built.";
    Gauge RUNTIME_HARDWARE_THREADS = "runtime.hardware_threads", "Parallelism the runtime detects, read at export.";
    Gauge SCORE_IC_LABELS = "score.ic_labels", "Labels in the last IC table used.";
    Gauge SERVE_ACTIVE_CONNECTIONS = "serve.active_connections", "Connections being served.";
    Histogram BATCH_RUN_NS = "batch.run_ns", "Wall time of one batch, ns.";
    Histogram CLUSTER_ALIGN_NS = "cluster.align_ns", "Cluster fill: scoring the candidates, ns.";
    Histogram CLUSTER_CANDIDATES_RETRIEVED = "cluster.candidates_retrieved", "Candidates retrieved per cluster.";
    Histogram CLUSTER_LSH_CANDIDATES = "cluster.lsh_candidates", "Candidates an LSH probe returned.";
    Histogram CLUSTER_LSH_PROBE_NS = "cluster.lsh_probe_ns", "LSH probe, ns.";
    Histogram CLUSTER_RETRIEVE_NS = "cluster.retrieve_ns", "Cluster fill: retrieving the candidates, ns.";
    Histogram INDEX_BUILD_NS = "index.build_ns", "Path index build, ns.";
    Histogram INDEX_CONSTANT_TABLE_NS = "index.constant_table_ns", "Constant-to-label table built over a mapped vocabulary, ns.";
    Histogram INDEX_LOCATE_NS = "index.locate_ns", "Posting-list lookup on a mapped index, ns.";
    Histogram INDEX_MATERIALIZE_NS = "index.materialize_ns", "Data graph rebuilt from an index image, ns.";
    Histogram INDEX_OPEN_NS = "index.open_ns", "Index image open and validation, ns.";
    Histogram LSH_BUILD_NS = "lsh.build_ns", "LSH sidecar build, ns.";
    Histogram QUERY_CLUSTER_NS = "query.cluster_ns", "Query phase: cluster fill, ns.";
    Histogram QUERY_PREPROCESS_NS = "query.preprocess_ns", "Query phase: decomposition and intersection graph, ns.";
    Histogram QUERY_SEARCH_NS = "query.search_ns", "Query phase: top-k search, ns.";
    Histogram QUERY_TOTAL_NS = "query.total_ns", "Query wall time, ns.";
    Histogram SCORE_IC_NS = "score.ic_ns", "IC weight stamping, ns.";
    RollingHistogram QUERY_TOTAL_NS_ROLLING = "query.total_ns", "Query wall time over the trailing windows, ns.";
    RollingHistogram SERVE_REQUEST_TOTAL_NS_ROLLING = "serve.request.total_ns", "HTTP request handling over the trailing windows, ns.";
}

/// One [`TABLE`] entry: a reference to a declared metric, by kind.
#[derive(Debug, Clone, Copy)]
pub enum Metric {
    /// A monotonic event count.
    Counter(&'static Counter),
    /// A last-write value.
    Gauge(&'static Gauge),
    /// A lifetime log2 distribution.
    Histogram(&'static Histogram),
    /// A distribution over the trailing 10s/1m/5m windows.
    RollingHistogram(&'static RollingHistogram),
}

impl Metric {
    /// The dotted name (`query.total_ns`).
    pub fn name(self) -> &'static str {
        match self {
            Metric::Counter(m) => m.name,
            Metric::Gauge(m) => m.name,
            Metric::Histogram(m) => m.name,
            Metric::RollingHistogram(m) => m.name,
        }
    }

    /// The one-line description.
    pub fn help(self) -> &'static str {
        match self {
            Metric::Counter(m) => m.help,
            Metric::Gauge(m) => m.help,
            Metric::Histogram(m) => m.help,
            Metric::RollingHistogram(m) => m.help,
        }
    }

    /// The kind, as the metric reference spells it.
    pub fn kind(self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
            Metric::RollingHistogram(_) => "rolling",
        }
    }
}

/// A monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    /// Dotted name, `subsystem.event_total`.
    pub name: &'static str,
    /// One-line description.
    pub help: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter.
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Counter {
            name,
            help,
            value: AtomicU64::new(0),
        }
    }

    /// Add `n` events (no-op while disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (pool sizes, resident entries).
#[derive(Debug)]
pub struct Gauge {
    /// Dotted name.
    pub name: &'static str,
    /// One-line description.
    pub help: &'static str,
    value: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge.
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Gauge {
            name,
            help,
            value: AtomicI64::new(0),
        }
    }

    /// Overwrite the value (no-op while disabled).
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.store(v);
        }
    }

    /// Overwrite the value whether or not recording is enabled.
    pub(crate) fn store(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one per possible bit length of a `u64`
/// sample (1..=64), plus bucket 0 reserved for the sample `0`.
pub const BUCKET_COUNT: usize = 65;

/// The bucket index a sample lands in: `0` for the value `0`, otherwise
/// the value's bit length — bucket `i ≥ 1` covers `[2^(i-1), 2^i - 1]`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The largest sample bucket `i` can hold (its inclusive Prometheus
/// `le` bound): `0` for bucket 0, `2^i - 1` otherwise.
#[inline]
pub fn bucket_upper_bound(index: usize) -> u64 {
    debug_assert!(index < BUCKET_COUNT);
    if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// Nanoseconds of `d`, saturating at `u64::MAX`.
#[inline]
pub(crate) fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A log2-bucketed histogram of `u64` samples (latencies in
/// nanoseconds, by convention — metric names carry a `_ns` suffix).
///
/// Exact-boundary buckets (powers of two) keep recording a pair of
/// `fetch_add`s with zero configuration, at the price of coarse (≤2×)
/// quantile resolution — plenty for "where does the time go" pipeline
/// attribution, which spans orders of magnitude.
#[derive(Debug)]
pub struct Histogram {
    /// Dotted name, `phase.subphase_ns` for spans.
    pub name: &'static str,
    /// One-line description.
    pub help: &'static str,
    buckets: [AtomicU64; BUCKET_COUNT],
    /// Sum of all recorded samples (saturating; `u64` holds ~584 years
    /// of nanoseconds).
    sum: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Histogram {
            name,
            help,
            buckets: [const { AtomicU64::new(0) }; BUCKET_COUNT],
            sum: AtomicU64::new(0),
        }
    }

    /// Record one sample (no-op while disabled).
    #[inline]
    pub fn record(&self, value: u64) {
        if enabled() {
            self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(value, Ordering::Relaxed);
        }
    }

    /// Record a duration as nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(duration_ns(d));
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts ([`BUCKET_COUNT`] entries).
    pub buckets: Vec<u64>,
    /// Sum of all recorded samples.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; BUCKET_COUNT],
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total samples recorded (derived from the buckets, so it is
    /// always consistent with them).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }

    /// Nearest-rank quantile estimate, resolved to the upper bound of
    /// the bucket holding the rank-`⌈q·count⌉` sample (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(BUCKET_COUNT - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 1..BUCKET_COUNT {
            let hi = bucket_upper_bound(i);
            assert_eq!(bucket_index(hi), i, "upper bound lives in its bucket");
            if i < 64 {
                assert_eq!(bucket_index(hi + 1), i + 1);
            }
        }
        assert_eq!(bucket_upper_bound(0), 0);
    }

    #[test]
    fn counter_and_gauge() {
        let c = Counter::new("c", "");
        c.add(1);
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new("g", "");
        g.set(7);
        g.set(4);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn histogram_records_and_quantiles() {
        let h = Histogram::new("h", "");
        for v in [0u64, 1, 2, 3, 1000, 1_000_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 6);
        assert_eq!(snap.sum, 1_001_006);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[2], 2);
        // p100 resolves to the bucket of the largest sample.
        assert_eq!(
            snap.quantile(1.0),
            bucket_upper_bound(bucket_index(1_000_000))
        );
        // p50 (rank 3) lands in bucket 2 (values 2..=3).
        assert_eq!(snap.quantile(0.5), 3);
        assert!(snap.mean() > 0.0);
        assert_eq!(HistogramSnapshot::default().quantile(0.99), 0);
    }

    /// The exporters emit the table in order, and that order is the one
    /// the exposition has always had: counters, gauges, histograms,
    /// rolling histograms, each sorted by dotted name.
    #[test]
    fn table_is_in_exposition_order() {
        let rank = |m: Metric| match m {
            Metric::Counter(_) => 0,
            Metric::Gauge(_) => 1,
            Metric::Histogram(_) => 2,
            Metric::RollingHistogram(_) => 3,
        };
        for pair in TABLE.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert!(
                (rank(a), a.name()) < (rank(b), b.name()),
                "{} ({}) must come before {} ({})",
                b.name(),
                b.kind(),
                a.name(),
                a.kind()
            );
        }
    }

    /// Every exported family is a valid Prometheus identifier and no
    /// two metrics export the same family. (A histogram and a rolling
    /// histogram may share a dotted name: their families differ.)
    #[test]
    fn table_names_are_unique_valid_identifiers() {
        let mut families = Vec::new();
        for &metric in TABLE {
            let name = metric.name();
            assert!(
                name.bytes().all(|b| b.is_ascii_lowercase()
                    || b.is_ascii_digit()
                    || b == b'_'
                    || b == b'.'),
                "{name:?}: only [a-z0-9_.] map onto a Prometheus name unchanged"
            );
            assert!(!metric.help().is_empty(), "{name} has no help line");
            let base = crate::export::prometheus_name(name);
            match metric {
                Metric::RollingHistogram(_) => families
                    .extend(["p50", "p95", "p99", "window_count"].map(|s| format!("{base}_{s}"))),
                _ => families.push(base),
            }
        }
        for family in &families {
            let mut chars = family.chars();
            let first = chars.next().expect("non-empty");
            assert!(first.is_ascii_alphabetic() || first == '_', "{family}");
            assert!(
                chars.all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "{family}"
            );
        }
        let count = families.len();
        families.sort();
        families.dedup();
        assert_eq!(families.len(), count, "two metrics export one family");
    }
}
