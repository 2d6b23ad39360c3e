//! Fig-9-style relevance experiment for the semantic similarity tier:
//! does pricing label mismatches by corpus information content rank the
//! *intended* answer above a generic decoy?
//!
//! The corpus is a hand-crafted provenance graph. Each of the 24 cases
//! has one intended chain through a *rare* predicate and one decoy
//! chain through `usedBy`, a predicate made ubiquitous by filler
//! triples:
//!
//! ```text
//! intended:  rare_source_i -derivedFrom-> mid_i -recordedIn-> sink_i
//! decoy:     decoy_source_i   -usedBy->  alt_i -recordedIn-> sink_i
//! query:     rare_source_i    -usedBy->  ?x    -recordedIn-> sink_i
//! ```
//!
//! Under uniform costs the decoy wins every time: its node mismatch
//! (`a = 1`) undercuts the intended chain's edge mismatch (`c = 2`).
//! Under IC weights the ubiquitous `usedBy` is cheap to mismatch while
//! the rare source label is expensive, so the intended chain wins —
//! exactly the "rare evidence matters more" behaviour the tier is for.
//!
//! Besides the criterion timings, a machine-readable baseline is
//! written to `results/BENCH_relevance.json` (override with
//! `BENCH_RELEVANCE_OUT`), recording precision@1 for both cost models
//! and `hardware_threads` for context.

use criterion::{criterion_group, criterion_main, Criterion};
use path_index::IndexLike;
use rdf_model::{DataGraph, QueryGraph};
use sama_core::{EngineConfig, SamaEngine};
use std::hint::black_box;

const CASES: usize = 24;
const FILLER: usize = 200;

fn corpus() -> DataGraph {
    let mut b = DataGraph::builder();
    for i in 0..CASES {
        b.triple_str(
            &format!("rare_source_{i}"),
            "derivedFrom",
            &format!("mid_{i}"),
        )
        .unwrap();
        b.triple_str(&format!("mid_{i}"), "recordedIn", &format!("sink_{i}"))
            .unwrap();
        b.triple_str(&format!("decoy_source_{i}"), "usedBy", &format!("alt_{i}"))
            .unwrap();
        b.triple_str(&format!("alt_{i}"), "recordedIn", &format!("sink_{i}"))
            .unwrap();
    }
    // Filler makes `usedBy` the corpus's most generic predicate; the
    // filler chains end in their own sinks, so they never enter a
    // case's candidate cluster.
    for j in 0..FILLER {
        b.triple_str(&format!("filler_a_{j}"), "usedBy", &format!("filler_b_{j}"))
            .unwrap();
    }
    b.build()
}

/// One query per case plus the intended `?x` binding.
fn workload() -> Vec<(QueryGraph, String)> {
    (0..CASES)
        .map(|i| {
            let mut q = QueryGraph::builder();
            q.triple_str(&format!("rare_source_{i}"), "usedBy", "?x")
                .unwrap();
            q.triple_str("?x", "recordedIn", &format!("sink_{i}"))
                .unwrap();
            (q.build(), format!("mid_{i}"))
        })
        .collect()
}

fn engine(ic_weights: bool) -> SamaEngine {
    let config = EngineConfig {
        ic_weights,
        ..Default::default()
    };
    SamaEngine::with_config(corpus(), config)
}

/// Fraction of cases whose rank-1 answer binds `?x` to the intended
/// middle node.
fn precision_at_1(engine: &SamaEngine, queries: &[(QueryGraph, String)]) -> f64 {
    let mut hits = 0usize;
    for (query, want) in queries {
        let result = engine.answer(query, 2);
        let Some(best) = result.best() else { continue };
        let index = engine.index();
        if best
            .bindings()
            .iter()
            .any(|&(_, value)| index.label_lexical(value) == want.as_str())
        {
            hits += 1;
        }
    }
    hits as f64 / queries.len() as f64
}

/// The experiment's acceptance bar, checked even under `--test`:
/// IC weighting must not rank worse than uniform, and must place the
/// intended answer first in at least 90% of cases.
fn verified_precisions() -> (f64, f64) {
    let queries = workload();
    let uniform = precision_at_1(&engine(false), &queries);
    let ic = precision_at_1(&engine(true), &queries);
    assert!(
        ic >= uniform,
        "IC weighting ranked worse than uniform: {ic} < {uniform}"
    );
    assert!(ic >= 0.9, "IC-weighted precision@1 is only {ic}");
    (uniform, ic)
}

fn bench_relevance(c: &mut Criterion) {
    let (uniform, ic) = verified_precisions();
    println!("precision@1: uniform {uniform:.3}, ic-weighted {ic:.3}");

    let queries = workload();
    let mut group = c.benchmark_group("relevance");
    for (name, ic_weights) in [("uniform", false), ("ic_weighted", true)] {
        let eng = engine(ic_weights);
        group.bench_function(name, |b| {
            b.iter(|| {
                for (query, _) in &queries {
                    black_box(eng.answer(query, 2));
                }
            })
        });
    }
    group.finish();
}

/// Write the machine-readable baseline (`results/BENCH_relevance.json`).
fn emit_baseline() {
    let (uniform, ic) = verified_precisions();
    let hardware_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let json = format!(
        "{{\n  \"cases\": {CASES},\n  \"filler_triples\": {FILLER},\n  \
         \"hardware_threads\": {hardware_threads},\n  \
         \"precision_at_1\": {{\"uniform\": {uniform:.4}, \"ic_weighted\": {ic:.4}}},\n  \
         \"ic_at_least_uniform\": true\n}}\n"
    );
    let out = std::env::var("BENCH_RELEVANCE_OUT").unwrap_or_else(|_| {
        format!(
            "{}/../../results/BENCH_relevance.json",
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
    // Skip the file write when cargo runs benches in test mode.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    emit_baseline();
}

criterion_group!(benches, bench_relevance, bench_emit_baseline);
criterion_main!(benches);
