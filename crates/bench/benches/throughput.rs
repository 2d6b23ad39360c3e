//! Batch-serving throughput: the worker-pool `answer_batch` replaying
//! the 12-query LUBM workload mix at 1/2/4/8 threads.
//!
//! Before timing anything the bench *verifies* the concurrency
//! contract: every thread count must produce answers bit-identical to
//! the sequential loop.
//!
//! Besides the criterion timings, a machine-readable baseline is
//! written to `results/BENCH_throughput.json` (override the location
//! with `BENCH_THROUGHPUT_OUT`). Throughput scaling is bounded by the
//! hardware the bench runs on, so the baseline records
//! `hardware_threads` next to the numbers — on a single-core container
//! the thread sweep shows pool overhead, not speedup.

use bench::{fixture, BenchFixture};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rdf_model::QueryGraph;
use sama_core::{BatchConfig, QueryResult, SamaEngine};
use std::hint::black_box;
use std::time::Instant;

/// Workload repeats: the 12 named queries are replayed this many times
/// per batch, interleaved (q0, q1, …, q11, q0, …) like a query stream
/// that re-touches hot clusters.
const REPEATS: usize = 4;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn batch_queries(fx: &BenchFixture) -> Vec<QueryGraph> {
    let mut queries = Vec::with_capacity(fx.workload.len() * REPEATS);
    for _ in 0..REPEATS {
        queries.extend(fx.workload.iter().map(|nq| nq.query.clone()));
    }
    queries
}

/// Everything that must not move across thread counts.
#[allow(clippy::type_complexity)]
fn fingerprint(r: &QueryResult) -> (Vec<(Vec<Option<path_index::PathId>>, f64)>, usize, bool) {
    (
        r.answers
            .iter()
            .map(|a| (a.path_ids(), a.score()))
            .collect(),
        r.retrieved_paths,
        r.truncated,
    )
}

/// Panics unless `answer_batch` is bit-identical to the sequential
/// `answer` loop at every swept thread count.
fn verify_determinism(engine: &SamaEngine, queries: &[QueryGraph]) {
    let sequential: Vec<_> = queries
        .iter()
        .map(|q| fingerprint(&engine.answer(q, 10)))
        .collect();
    for threads in THREAD_SWEEP {
        let outcome = engine.answer_batch(
            queries,
            &BatchConfig {
                k: 10,
                threads,
                ..Default::default()
            },
        );
        let got: Vec<_> = outcome
            .results
            .iter()
            .map(|r| fingerprint(r.as_ref().expect("bench queries are valid")))
            .collect();
        assert_eq!(got, sequential, "answers diverged at {threads} threads");
    }
}

fn bench_batch_threads(c: &mut Criterion) {
    let fx = fixture(3_000);
    let queries = batch_queries(&fx);
    verify_determinism(&fx.engine, &queries);

    let mut group = c.benchmark_group("batch_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(queries.len() as u64));
    for threads in THREAD_SWEEP {
        group.bench_function(BenchmarkId::new("threads", threads), |b| {
            b.iter(|| {
                black_box(fx.engine.answer_batch(
                    &queries,
                    &BatchConfig {
                        k: 10,
                        threads,
                        ..Default::default()
                    },
                ))
                .stats
                .queries
            })
        });
    }
    group.finish();
}

/// Median-of-`runs` wall time of `f`, in nanoseconds.
fn time_ns<R>(runs: usize, mut f: impl FnMut() -> R) -> u128 {
    let mut samples: Vec<u128> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Write the machine-readable baseline (`results/BENCH_throughput.json`).
fn emit_baseline() {
    let fx = fixture(3_000);
    let queries = batch_queries(&fx);
    verify_determinism(&fx.engine, &queries);
    let hardware_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);

    let mut thread_rows = String::new();
    for threads in THREAD_SWEEP {
        let config = BatchConfig {
            k: 10,
            threads,
            ..Default::default()
        };
        let ns = time_ns(5, || {
            fx.engine.answer_batch(&queries, &config).stats.queries
        });
        let stats = fx.engine.answer_batch(&queries, &config).stats;
        if !thread_rows.is_empty() {
            thread_rows.push_str(",\n");
        }
        thread_rows.push_str(&format!(
            "    \"{threads}\": {{\"batch_ns\": {ns}, \"queries_per_sec\": {:.1}, \
             \"pool_threads\": {}, \"p50_us\": {}, \"p95_us\": {}}}",
            queries.len() as f64 / (ns as f64 / 1e9),
            stats.threads,
            stats.total.p50.as_micros(),
            stats.total.p95.as_micros(),
        ));
    }

    let json = format!(
        "{{\n  \"fixture_triples\": 3000,\n  \"workload_queries\": {},\n  \
         \"batch_size\": {},\n  \"hardware_threads\": {hardware_threads},\n  \
         \"determinism_verified\": true,\n  \"threads\": {{\n{thread_rows}\n  }}\n}}\n",
        fx.workload.len(),
        queries.len(),
    );

    let out = std::env::var("BENCH_THROUGHPUT_OUT").unwrap_or_else(|_| {
        format!(
            "{}/../../results/BENCH_throughput.json",
            env!("CARGO_MANIFEST_DIR")
        )
    });
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(err) => eprintln!("could not write {out}: {err}"),
    }
    print!("{json}");
}

fn bench_emit_baseline(_c: &mut Criterion) {
    // Skip the slow manual sweep when cargo runs benches in test mode.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    emit_baseline();
}

criterion_group!(benches, bench_batch_threads, bench_emit_baseline);
criterion_main!(benches);
