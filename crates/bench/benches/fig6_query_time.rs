//! Figure 6 bench: per-query response time on the four systems
//! (Sama warm/cold, SAPPER, BOUNDED, DOGMA), top-10 answers.
//!
//! The `experiments` binary prints the averaged table; this bench gives
//! Criterion-grade statistics per (query, system) pair.

use bench::fixture;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graph_match::{BoundedMatcher, DogmaMatcher, Matcher, SapperMatcher};
use path_index::{encode_v2, MappedIndex, PathIndex};
use sama_core::SamaEngine;
use std::hint::black_box;

const TRIPLES: usize = 5_000;
const K: usize = 10;

fn bench_sama_warm(c: &mut Criterion) {
    let fx = fixture(TRIPLES);
    let mut group = c.benchmark_group("fig6/sama_warm");
    group.sample_size(20);
    for nq in &fx.workload {
        group.bench_with_input(BenchmarkId::from_parameter(nq.name), &nq.query, |b, q| {
            b.iter(|| black_box(fx.engine.answer(q, K)).answers.len());
        });
    }
    group.finish();
}

fn bench_sama_cold(c: &mut Criterion) {
    let fx = fixture(TRIPLES);
    let bytes = encode_v2(&PathIndex::build(fx.dataset.graph.clone())).expect("index fits format");
    let mut group = c.benchmark_group("fig6/sama_cold");
    group.sample_size(10);
    // Cold cache: open the index image before answering, as `sama
    // query` opens its file (the paper's disk-resident configuration). One representative light query and
    // one heavy query keep the bench time sane.
    for name in ["Q1", "Q10"] {
        let nq = fx.workload.iter().find(|nq| nq.name == name).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(name), &nq.query, |b, q| {
            b.iter(|| {
                let engine =
                    SamaEngine::from_index(MappedIndex::from_bytes(&bytes).expect("valid"));
                black_box(engine.answer(q, K)).answers.len()
            });
        });
    }
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let fx = fixture(TRIPLES);
    let sapper = SapperMatcher {
        delta: 1,
        ..Default::default()
    };
    let bounded = BoundedMatcher {
        hops: 2,
        ..Default::default()
    };
    let dogma = DogmaMatcher::default();
    for (system, matcher) in [
        ("sapper", &sapper as &dyn Matcher),
        ("bounded", &bounded),
        ("dogma", &dogma),
    ] {
        let mut group = c.benchmark_group(format!("fig6/{system}"));
        group.sample_size(10);
        for nq in &fx.workload {
            group.bench_with_input(BenchmarkId::from_parameter(nq.name), &nq.query, |b, q| {
                b.iter(|| black_box(matcher.find_matches(fx.data_ref(), q, K)).len());
            });
        }
        group.finish();
    }
}

trait DataRef {
    fn data_ref(&self) -> &rdf_model::DataGraph;
}
impl DataRef for bench::BenchFixture {
    fn data_ref(&self) -> &rdf_model::DataGraph {
        &self.dataset.graph
    }
}

criterion_group!(benches, bench_sama_warm, bench_sama_cold, bench_baselines);
criterion_main!(benches);
