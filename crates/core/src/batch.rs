//! Concurrent batch query serving: a fixed worker pool answering many
//! queries over one shared index.
//!
//! `Engine::answer` handles exactly one query; interactive approximate-
//! query workloads arrive as *streams* of queries against the same
//! index. Since the index is immutable during answering and every
//! query run is independent, batch serving is a textbook worker pool:
//! N scoped workers (the vendored `crossbeam` scope shim) claim
//! queries off an atomic cursor, each runs the unchanged three-phase
//! pipeline against the shared engine, and results land in submission
//! order. Per-query answers are therefore *bit-identical* to a
//! sequential `answer` loop at any thread count — concurrency changes
//! who computes a query, never what it computes (integration-tested in
//! `tests/concurrency.rs`).
//!
//! Besides the per-query [`QueryResult`]s the batch reports aggregate
//! [`BatchStats`]: queries/sec and p50/p95/max latency per pipeline
//! phase — the numbers a serving deployment actually watches.
//!
//! ## Fault tolerance
//!
//! Each query runs under `catch_unwind`, so one panicking query (a
//! pipeline bug, an injected fault) yields one
//! [`QueryError::Panicked`] slot while its neighbors complete
//! bit-identically — the process never aborts. Queries also inherit
//! the engine's deadline budget (plus an optional shared
//! [`CancelToken`]), and [`BatchConfig::max_queue_depth`] sheds
//! overload instead of queueing it unboundedly.

use crate::deadline::CancelToken;
use crate::engine::{QueryResult, SamaEngine};
use crate::error::{panic_message, QueryError};
use crate::search::TruncationReason;
use path_index::IndexLike;
use rdf_model::QueryGraph;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How a batch run is executed.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Answers per query (the `k` of [`SamaEngine::answer`]).
    pub k: usize,
    /// Worker threads; `0` means one per available hardware thread.
    /// Always clamped to the batch size; explicit values beyond the
    /// core count are honored (workers timeslice).
    pub threads: usize,
    /// Admission control: accept at most this many queries per batch
    /// call; the tail beyond the bound is *shed* — reported as
    /// [`QueryError::Shed`] without running — so overload degrades
    /// throughput instead of memory. `0` (the default) admits
    /// everything.
    pub max_queue_depth: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            k: 10,
            threads: 0,
            max_queue_depth: 0,
        }
    }
}

/// p50/p95/max of a latency distribution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseLatency {
    /// Median.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// Worst observed.
    pub max: Duration,
}

impl PhaseLatency {
    /// Percentiles of `samples` by the **nearest-rank** method: on the
    /// ascending sort, the q-th percentile is the sample at rank
    /// `⌈q · N⌉` (1-based, clamped to `[1, N]`) — the smallest sample
    /// such that at least `q · N` samples are ≤ it.
    ///
    /// Edge cases are well-defined instead of panicking or reporting
    /// garbage: an empty sample set yields all-zero latencies, and a
    /// single sample *is* every percentile (p50 = p95 = max).
    pub fn from_samples(mut samples: Vec<Duration>) -> Self {
        if samples.is_empty() {
            return PhaseLatency::default();
        }
        samples.sort_unstable();
        let at = |q: f64| {
            let rank = (q * samples.len() as f64).ceil() as usize;
            samples[rank.clamp(1, samples.len()) - 1]
        };
        PhaseLatency {
            p50: at(0.50),
            p95: at(0.95),
            max: *samples.last().expect("non-empty"),
        }
    }
}

/// Aggregate statistics of one batch run.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchStats {
    /// Queries answered.
    pub queries: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time of the whole batch (pool start to last join).
    pub wall_time: Duration,
    /// Throughput: `queries / wall_time`.
    pub queries_per_sec: f64,
    /// Per-query end-to-end latency percentiles.
    pub total: PhaseLatency,
    /// Decomposition + IG construction latency percentiles.
    pub preprocessing: PhaseLatency,
    /// Cluster retrieval + alignment latency percentiles.
    pub clustering: PhaseLatency,
    /// Combination-search latency percentiles.
    pub search: PhaseLatency,
    /// Queries that produced no result (panicked, invalid, cancelled
    /// before starting) — shed queries are counted separately.
    pub failed: usize,
    /// Queries shed by [`BatchConfig::max_queue_depth`].
    pub shed: usize,
    /// Queries that completed but hit their deadline (or were
    /// cancelled mid-flight) and returned a flagged partial result.
    pub degraded: usize,
}

/// Everything a batch run produces: one result per submitted query, in
/// submission order, plus the aggregate [`BatchStats`]. Failures are
/// *per slot*: a panicked, shed, or invalid query yields an `Err`
/// without disturbing its neighbors.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-query results, index-aligned with the submitted queries.
    pub results: Vec<Result<QueryResult, QueryError>>,
    /// Aggregate throughput and latency statistics.
    pub stats: BatchStats,
}

impl BatchOutcome {
    /// The successful results, in submission order.
    pub fn ok_results(&self) -> impl Iterator<Item = &QueryResult> {
        self.results.iter().filter_map(|r| r.as_ref().ok())
    }
}

/// Clamp a requested thread count: `0` means "all hardware threads";
/// an explicit request is honored even beyond the core count (workers
/// timeslice — and the concurrent path stays testable on small
/// machines), but no pool is ever wider than the batch itself.
pub(crate) fn clamp_threads(requested: usize, tasks: usize) -> usize {
    let requested = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        requested
    };
    requested.min(tasks).max(1)
}

impl<I: IndexLike + Sync> SamaEngine<I> {
    /// Answer every query of `queries` with `k` answers each on a
    /// worker pool sized by [`BatchConfig::threads`].
    ///
    /// Results are returned in submission order and are bit-identical
    /// to calling [`SamaEngine::answer`] in a loop, at every thread
    /// count.
    ///
    /// Each query is isolated: a panic (or invalid query) fills its own
    /// slot with an `Err` and never disturbs the rest of the batch.
    pub fn answer_batch(&self, queries: &[QueryGraph], config: &BatchConfig) -> BatchOutcome {
        self.answer_batch_with_cancel(queries, config, None)
    }

    /// [`SamaEngine::answer_batch`] with a caller-held [`CancelToken`]
    /// shared by every query of the batch: queries that have not
    /// started when it fires return [`QueryError::Cancelled`]; queries
    /// in flight notice at their next checkpoint and come back as
    /// flagged partial results.
    pub fn answer_batch_with_cancel(
        &self,
        queries: &[QueryGraph],
        config: &BatchConfig,
        cancel: Option<&Arc<CancelToken>>,
    ) -> BatchOutcome {
        // Admission control: everything beyond the queue-depth bound is
        // shed up front, so the pool only ever sees admitted queries.
        let admitted = if config.max_queue_depth > 0 {
            queries.len().min(config.max_queue_depth)
        } else {
            queries.len()
        };
        let threads = clamp_threads(config.threads, admitted);
        let batch_span = sama_obs::span!(sama_obs::metrics::BATCH_RUN_NS);
        sama_obs::metrics::BATCH_BATCHES_TOTAL.add(1);
        sama_obs::metrics::BATCH_QUERIES_TOTAL.add(queries.len() as u64);
        sama_obs::metrics::BATCH_POOL_THREADS.set(threads as i64);
        let started = Instant::now();

        // One query, end to end: cancellation gate, per-query budget
        // (the clock starts when the query starts, not when the batch
        // does), panic isolation. The fault site sits *inside* the
        // unwind boundary so an injected panic exercises the isolation
        // rather than the harness.
        let run_one = |query: &QueryGraph| -> Result<QueryResult, QueryError> {
            if let Some(token) = cancel {
                if token.is_cancelled() {
                    return Err(QueryError::Cancelled);
                }
            }
            let mut budget = self.default_budget();
            if let Some(token) = cancel {
                budget = budget.cancelled_by(Arc::clone(token));
            }
            match std::panic::catch_unwind(AssertUnwindSafe(|| {
                sama_obs::fault::point("batch.worker");
                self.try_answer_with_budget(query, config.k, &budget)
            })) {
                Ok(result) => result,
                Err(payload) => Err(QueryError::Panicked(panic_message(payload))),
            }
        };

        let admitted_queries = &queries[..admitted];
        let mut results: Vec<Result<QueryResult, QueryError>> = if threads <= 1 {
            // Inline fast path: no pool, same results by construction.
            admitted_queries.iter().map(run_one).collect()
        } else {
            let slots: Vec<Mutex<Option<Result<QueryResult, QueryError>>>> =
                admitted_queries.iter().map(|_| Mutex::new(None)).collect();
            let cursor = AtomicUsize::new(0);
            crossbeam::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|_| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(query) = admitted_queries.get(i) else {
                            break;
                        };
                        let result = run_one(query);
                        // A poisoned slot only means a sibling worker
                        // panicked while holding the lock; the stored
                        // value is still replaceable — recover it.
                        *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
                    });
                }
            })
            // run_one never unwinds (panics are caught per query), so a
            // scope failure is a harness bug; re-raise it faithfully
            // instead of masking it with a generic message.
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            slots
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .unwrap_or_else(|e| e.into_inner())
                        .unwrap_or_else(|| {
                            Err(QueryError::Panicked(
                                "worker terminated before storing a result".to_string(),
                            ))
                        })
                })
                .collect()
        };
        results.extend(queries[admitted..].iter().map(|_| Err(QueryError::Shed)));
        let wall_time = started.elapsed();
        drop(batch_span);

        let ok = || results.iter().filter_map(|r| r.as_ref().ok());
        let shed = results
            .iter()
            .filter(|r| matches!(r, Err(QueryError::Shed)))
            .count();
        let failed = results.iter().filter(|r| r.is_err()).count() - shed;
        let degraded = ok()
            .filter(|r| {
                matches!(
                    r.truncation,
                    Some(TruncationReason::DeadlineExceeded) | Some(TruncationReason::Cancelled)
                )
            })
            .count();
        sama_obs::metrics::BATCH_FAILED_TOTAL.add(failed as u64);
        sama_obs::metrics::BATCH_SHED_TOTAL.add(shed as u64);
        sama_obs::metrics::BATCH_DEGRADED_TOTAL.add(degraded as u64);

        // Latency percentiles describe the queries that actually ran.
        let collect = |f: &dyn Fn(&QueryResult) -> Duration| {
            PhaseLatency::from_samples(ok().map(f).collect())
        };
        let stats = BatchStats {
            queries: results.len(),
            threads,
            wall_time,
            queries_per_sec: if wall_time.is_zero() {
                0.0
            } else {
                results.len() as f64 / wall_time.as_secs_f64()
            },
            total: collect(&|r| r.timings.total()),
            preprocessing: collect(&|r| r.timings.preprocessing),
            clustering: collect(&|r| r.timings.clustering),
            search: collect(&|r| r.timings.search),
            failed,
            shed,
            degraded,
        };
        BatchOutcome { results, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::Answer;
    use rdf_model::DataGraph;

    fn data() -> DataGraph {
        let mut b = DataGraph::builder();
        for (person, amendment, bill) in [
            ("CB", "A0056", "B1432"),
            ("JR", "A1589", "B0532"),
            ("KF", "A1232", "B0045"),
        ] {
            b.triple_str(person, "sponsor", amendment).unwrap();
            b.triple_str(amendment, "aTo", bill).unwrap();
            b.triple_str(bill, "subject", "\"HC\"").unwrap();
        }
        for person in ["JR", "KF"] {
            b.triple_str(person, "gender", "\"Male\"").unwrap();
        }
        b.build()
    }

    fn queries() -> Vec<QueryGraph> {
        let mut qs = Vec::new();
        for person in ["CB", "JR", "KF", "Nobody"] {
            let mut b = QueryGraph::builder();
            b.triple_str(person, "sponsor", "?v1").unwrap();
            b.triple_str("?v1", "aTo", "?v2").unwrap();
            b.triple_str("?v2", "subject", "\"HC\"").unwrap();
            qs.push(b.build());
        }
        let mut b = QueryGraph::builder();
        b.triple_str("?p", "gender", "\"Male\"").unwrap();
        qs.push(b.build());
        qs
    }

    #[allow(clippy::type_complexity)]
    fn fingerprint(r: &QueryResult) -> (Vec<(Vec<Option<path_index::PathId>>, f64)>, usize, bool) {
        (
            r.answers
                .iter()
                .map(|a| (a.path_ids(), Answer::score(a)))
                .collect(),
            r.retrieved_paths,
            r.truncated,
        )
    }

    #[test]
    fn batch_matches_sequential_loop() {
        let engine = SamaEngine::new(data());
        let qs = queries();
        let sequential: Vec<_> = qs
            .iter()
            .map(|q| fingerprint(&engine.answer(q, 5)))
            .collect();
        for threads in [1usize, 2, 4] {
            let outcome = engine.answer_batch(
                &qs,
                &BatchConfig {
                    k: 5,
                    threads,
                    ..Default::default()
                },
            );
            assert_eq!(outcome.results.len(), qs.len());
            let batch: Vec<_> = outcome
                .results
                .iter()
                .map(|r| fingerprint(r.as_ref().expect("healthy query succeeds")))
                .collect();
            assert_eq!(batch, sequential, "{threads} threads");
            assert_eq!(outcome.stats.failed, 0);
            assert_eq!(outcome.stats.shed, 0);
        }
    }

    #[test]
    fn queue_depth_sheds_the_tail() {
        let engine = SamaEngine::new(data());
        let qs = queries();
        let outcome = engine.answer_batch(
            &qs,
            &BatchConfig {
                k: 3,
                threads: 2,
                max_queue_depth: 2,
            },
        );
        assert_eq!(outcome.results.len(), qs.len());
        assert!(outcome.results[..2].iter().all(Result::is_ok));
        assert!(outcome.results[2..]
            .iter()
            .all(|r| matches!(r, Err(QueryError::Shed))));
        assert_eq!(outcome.stats.shed, qs.len() - 2);
        assert_eq!(outcome.stats.failed, 0);
        // Admitted results match an unshedded run bit-for-bit.
        let full = engine.answer_batch(
            &qs,
            &BatchConfig {
                k: 3,
                threads: 1,
                ..Default::default()
            },
        );
        for (bounded, unbounded) in outcome.results[..2].iter().zip(&full.results[..2]) {
            assert_eq!(
                fingerprint(bounded.as_ref().unwrap()),
                fingerprint(unbounded.as_ref().unwrap())
            );
        }
    }

    #[test]
    fn pre_cancelled_batch_returns_cancelled_slots() {
        let engine = SamaEngine::new(data());
        let qs = queries();
        let token = crate::CancelToken::new();
        token.cancel();
        let outcome = engine.answer_batch_with_cancel(
            &qs,
            &BatchConfig {
                k: 3,
                threads: 2,
                ..Default::default()
            },
            Some(&token),
        );
        assert_eq!(outcome.results.len(), qs.len());
        for r in &outcome.results {
            assert!(matches!(r, Err(QueryError::Cancelled)), "got {r:?}");
        }
        assert_eq!(outcome.stats.failed, qs.len());
    }

    #[test]
    fn stats_are_populated() {
        let engine = SamaEngine::new(data());
        let qs = queries();
        let outcome = engine.answer_batch(
            &qs,
            &BatchConfig {
                k: 3,
                threads: 2,
                ..Default::default()
            },
        );
        let stats = outcome.stats;
        assert_eq!(stats.queries, qs.len());
        assert!(stats.threads >= 1);
        assert!(stats.queries_per_sec > 0.0);
        assert!(stats.total.p50 <= stats.total.p95);
        assert!(stats.total.p95 <= stats.total.max);
        assert!(stats.total.max >= stats.search.p50);
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = SamaEngine::new(data());
        let outcome = engine.answer_batch(&[], &BatchConfig::default());
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.stats.queries, 0);
    }

    #[test]
    fn thread_clamping() {
        // 0 = all hardware threads, whatever the machine has.
        assert!(clamp_threads(0, 100) >= 1);
        // Never wider than the batch.
        assert_eq!(clamp_threads(8, 3), 3);
        assert_eq!(clamp_threads(1, 100), 1);
        // Explicit oversubscription is honored — the concurrent path
        // stays reachable (and testable) on single-core machines.
        assert_eq!(clamp_threads(64, 100), 64);
        // Empty batch still yields a valid (unused) pool width.
        assert_eq!(clamp_threads(4, 0), 1);
    }

    #[test]
    fn latency_percentiles_ordered() {
        // Nearest rank over 1..=100ms: p50 = rank ⌈0.5·100⌉ = 50,
        // p95 = rank ⌈0.95·100⌉ = 95.
        let samples: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let lat = PhaseLatency::from_samples(samples);
        assert_eq!(lat.p50, Duration::from_millis(50));
        assert_eq!(lat.p95, Duration::from_millis(95));
        assert_eq!(lat.max, Duration::from_millis(100));
    }

    #[test]
    fn latency_percentiles_edge_cases() {
        // Empty: all zeros, no panic.
        assert_eq!(
            PhaseLatency::from_samples(Vec::new()),
            PhaseLatency::default()
        );

        // A single sample is every percentile.
        let one = PhaseLatency::from_samples(vec![Duration::from_millis(7)]);
        assert_eq!(one.p50, Duration::from_millis(7));
        assert_eq!(one.p95, Duration::from_millis(7));
        assert_eq!(one.max, Duration::from_millis(7));

        // Two samples: p50 = rank ⌈0.5·2⌉ = 1 (the smaller), p95 =
        // rank ⌈0.95·2⌉ = 2 (the larger).
        let two =
            PhaseLatency::from_samples(vec![Duration::from_millis(30), Duration::from_millis(10)]);
        assert_eq!(two.p50, Duration::from_millis(10));
        assert_eq!(two.p95, Duration::from_millis(30));
        assert_eq!(two.max, Duration::from_millis(30));

        // Twenty equal-spaced samples: p95 = rank ⌈0.95·20⌉ = 19.
        let twenty = PhaseLatency::from_samples((1..=20).map(Duration::from_millis).collect());
        assert_eq!(twenty.p50, Duration::from_millis(10));
        assert_eq!(twenty.p95, Duration::from_millis(19));
    }
}
