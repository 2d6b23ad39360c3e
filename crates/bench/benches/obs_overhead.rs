//! Instrumentation overhead: the query pipeline with the `sama-obs`
//! recorders enabled (the default) versus fully disabled via the
//! [`sama_obs::set_enabled`] kill switch, plus the cost of building the
//! per-query EXPLAIN trace.
//!
//! Two legs:
//!
//! * **LUBM workload** — the twelve queries over a 3 000-triple
//!   fixture. The budget is **< 2% overhead on the search hot path**
//!   with tracing disabled (`"within_budget"`): the per-expansion inner
//!   loop records into local aggregates and flushes once per query, so
//!   the delta should be a handful of atomic adds plus two
//!   `Instant::now()` pairs per phase.
//! * **Point queries** — the serving shape, where a query is ≈15 µs
//!   and instrumentation weighs most: parse + `try_answer` + JSON
//!   render over 40 distinct `?s <publicationAuthor> ?x . ?x <name>
//!   "Prof …"` queries (k = 10) on the 100 000-triple fixture (seed
//!   42), on 1 and on 2 threads, in [`POINT_PAIRS`] on/off pairs that
//!   alternate which side runs first. `"point_within_bounds"` holds
//!   when the median of the pairs' on/off throughput ratios is at least
//!   [`POINT_BOUND_1T`] on one thread and [`POINT_BOUND_2T`] on two. (A
//!   ratio per pair cancels the drift of a shared box, which moves
//!   both sides of a pair alike.)
//!
//! Besides the criterion timings, a machine-readable baseline is
//! written to `results/BENCH_obs.json` (override the location with
//! `BENCH_OBS_OUT`).

use bench::{fixture, BenchFixture};
use criterion::{criterion_group, criterion_main, Criterion};
use rdf_model::{parse_sparql, QueryGraph};
use sama_core::{render_result_json, EngineConfig, SamaEngine, TraceConfig};
use std::hint::black_box;
use std::time::Instant;

/// On/off pairs per thread count in the point-query leg.
const POINT_PAIRS: usize = 30;
/// Rounds over the 40 point queries per thread and side of a pair.
const POINT_ROUNDS: usize = 60;
/// Least on/off throughput ratio the point leg accepts on one thread.
const POINT_BOUND_1T: f64 = 0.93;
/// Least on/off throughput ratio the point leg accepts on two threads:
/// both threads add to the same counters, so their cache lines move
/// between the cores on every query.
const POINT_BOUND_2T: f64 = 0.85;

/// Workload repeats per measured iteration, interleaved like a stream.
const REPEATS: usize = 2;

fn workload_queries(fx: &BenchFixture) -> Vec<QueryGraph> {
    let mut queries = Vec::with_capacity(fx.workload.len() * REPEATS);
    for _ in 0..REPEATS {
        queries.extend(fx.workload.iter().map(|nq| nq.query.clone()));
    }
    queries
}

/// Answer every query sequentially, returning a scalar the optimizer
/// cannot elide.
fn run_workload(engine: &SamaEngine, queries: &[QueryGraph]) -> usize {
    queries
        .iter()
        .map(|q| black_box(engine.answer(q, 10)).answers.len())
        .sum()
}

fn bench_obs_toggle(c: &mut Criterion) {
    let fx = fixture(3_000);
    let queries = workload_queries(&fx);
    let traced = SamaEngine::with_config(
        fx.dataset.graph.clone(),
        EngineConfig {
            trace: TraceConfig::enabled(),
            ..Default::default()
        },
    );

    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);
    sama_obs::set_enabled(false);
    group.bench_function("disabled", |b| {
        b.iter(|| run_workload(&fx.engine, &queries))
    });
    sama_obs::set_enabled(true);
    group.bench_function("enabled", |b| b.iter(|| run_workload(&fx.engine, &queries)));
    group.bench_function("enabled_with_trace", |b| {
        b.iter(|| run_workload(&traced, &queries))
    });
    group.finish();
}

/// Wall time of one call to `f`, in nanoseconds.
fn time_once<R>(mut f: impl FnMut() -> R) -> u128 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_nanos()
}

fn median<T: Copy + PartialOrd>(samples: &mut [T]) -> T {
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("comparable"));
    samples[samples.len() / 2]
}

/// The point-query leg's 40 distinct SPARQL texts: the `serve_zipf`
/// `publicationAuthor` template over the first 40 professors.
fn point_queries(fx: &BenchFixture) -> Vec<String> {
    fx.dataset
        .professors
        .iter()
        .take(40)
        .map(|iri| {
            let digits = iri.trim_start_matches("Professor").replace('_', "-");
            format!(
                "SELECT * WHERE {{ ?s <publicationAuthor> ?x . ?x <name> \"Prof {digits}\" . }}\n"
            )
        })
        .collect()
}

/// Nanoseconds the calling thread has spent on a CPU (Linux
/// `schedstat`), or `None` where that is not readable.
fn thread_cpu_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split(' ')
        .next()?
        .parse()
        .ok()
}

/// Queries per worker CPU-second of `threads` threads each running
/// [`POINT_ROUNDS`] rounds of parse + answer + render over `queries`
/// (each thread starting at its own offset). Time a thread waits for a
/// CPU other processes hold counts for neither side; cache lines the
/// two workers pass back and forth do count. Falls back to wall time
/// where thread CPU time is not readable.
fn point_throughput(engine: &SamaEngine, queries: &[String], threads: usize) -> f64 {
    let started = Instant::now();
    let cpu_ns: Vec<Option<u64>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let before = thread_cpu_ns();
                    let offset = t * queries.len() / threads;
                    for i in 0..POINT_ROUNDS * queries.len() {
                        let text = &queries[(offset + i) % queries.len()];
                        let query = parse_sparql(text).expect("point query parses").graph;
                        let result = engine.try_answer(&query, 10).expect("point query answers");
                        black_box(render_result_json(engine.index(), &query, &result));
                    }
                    Some(thread_cpu_ns()? - before?)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker"))
            .collect()
    });
    let seconds = match cpu_ns.into_iter().sum::<Option<u64>>() {
        Some(ns) => ns as f64 / threads as f64 / 1e9,
        None => started.elapsed().as_secs_f64(),
    };
    (threads * POINT_ROUNDS * queries.len()) as f64 / seconds
}

/// One thread count of the point leg: `(median on, median off, median
/// on/off ratio, pairs in which off was faster)`, throughputs as
/// [`point_throughput`] measures them.
fn point_pairs(engine: &SamaEngine, queries: &[String], threads: usize) -> (f64, f64, f64, usize) {
    let (mut on, mut off, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut off_faster = 0;
    for pair in 0..POINT_PAIRS {
        let mut qps = [0.0; 2];
        let first_on = pair % 2 == 0;
        for enabled in [first_on, !first_on] {
            sama_obs::set_enabled(enabled);
            qps[usize::from(enabled)] = point_throughput(engine, queries, threads);
        }
        sama_obs::set_enabled(true);
        off_faster += usize::from(qps[0] > qps[1]);
        off.push(qps[0]);
        on.push(qps[1]);
        ratios.push(qps[1] / qps[0]);
    }
    (
        median(&mut on),
        median(&mut off),
        median(&mut ratios),
        off_faster,
    )
}

/// The point-query leg, as JSON fields for `results/BENCH_obs.json`.
fn point_leg() -> String {
    let fx = fixture(100_000);
    let queries = point_queries(&fx);
    point_throughput(&fx.engine, &queries, 1); // warm
    let mut json = format!(
        "  \"point_fixture_triples\": 100000,\n  \"point_queries\": {},\n  \
         \"point_pairs\": {POINT_PAIRS},\n  \"point_rounds\": {POINT_ROUNDS},\n  \
         \"point_qps_per\": \"{}\",\n",
        queries.len(),
        if thread_cpu_ns().is_some() {
            "worker cpu second"
        } else {
            "wall second"
        },
    );
    let mut within = true;
    for (threads, bound) in [(1, POINT_BOUND_1T), (2, POINT_BOUND_2T)] {
        let (on, off, ratio, off_faster) = point_pairs(&fx.engine, &queries, threads);
        within &= ratio >= bound;
        json.push_str(&format!(
            "  \"point_{threads}t_on_qps\": {on:.0},\n  \"point_{threads}t_off_qps\": {off:.0},\n  \
             \"point_{threads}t_on_off_ratio\": {ratio:.3},\n  \
             \"point_{threads}t_ratio_bound\": {bound},\n  \
             \"point_{threads}t_pairs_off_faster\": {off_faster},\n"
        ));
    }
    json.push_str(&format!("  \"point_within_bounds\": {within},\n"));
    json
}

/// Write the machine-readable baseline (`results/BENCH_obs.json`).
fn emit_baseline() {
    let fx = fixture(3_000);
    let queries = workload_queries(&fx);
    let traced = SamaEngine::with_config(
        fx.dataset.graph.clone(),
        EngineConfig {
            trace: TraceConfig::enabled(),
            ..Default::default()
        },
    );

    // Warm every path once (index structures, allocator, χ caches).
    run_workload(&fx.engine, &queries);
    run_workload(&traced, &queries);

    // Interleave the three configurations within each round so slow
    // drift (CPU frequency, cache temperature, co-tenants) lands on
    // all of them equally instead of biasing whichever block ran last;
    // the per-configuration median then compares like with like.
    const RUNS: usize = 15;
    let mut disabled = Vec::with_capacity(RUNS);
    let mut enabled = Vec::with_capacity(RUNS);
    let mut traced_samples = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        sama_obs::set_enabled(false);
        disabled.push(time_once(|| run_workload(&fx.engine, &queries)));
        sama_obs::set_enabled(true);
        enabled.push(time_once(|| run_workload(&fx.engine, &queries)));
        traced_samples.push(time_once(|| run_workload(&traced, &queries)));
    }
    let disabled_ns = median(&mut disabled);
    let enabled_ns = median(&mut enabled);
    let traced_ns = median(&mut traced_samples);

    let pct = |on: u128, off: u128| (on as f64 - off as f64) / off as f64 * 100.0;
    let metrics_pct = pct(enabled_ns, disabled_ns);
    let trace_pct = pct(traced_ns, disabled_ns);
    let point = point_leg();

    let json = format!(
        "{{\n{point}  \"fixture_triples\": 3000,\n  \"workload_queries\": {},\n  \
         \"batch_size\": {},\n  \"runs\": {RUNS},\n  \
         \"hardware_threads\": {},\n  \
         \"disabled_ns\": {disabled_ns},\n  \"enabled_ns\": {enabled_ns},\n  \
         \"enabled_with_trace_ns\": {traced_ns},\n  \
         \"metrics_overhead_pct\": {metrics_pct:.2},\n  \
         \"trace_overhead_pct\": {trace_pct:.2},\n  \
         \"overhead_budget_pct\": 2.0,\n  \
         \"within_budget\": {}\n}}\n",
        fx.workload.len(),
        queries.len(),
        sama_obs::hardware_threads(),
        metrics_pct < 2.0,
    );

    let out = std::env::var("BENCH_OBS_OUT").unwrap_or_else(|_| {
        format!(
            "{}/../../results/BENCH_obs.json",
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

criterion_group!(benches, bench_obs_toggle, bench_emit_baseline);
criterion_main!(benches);
