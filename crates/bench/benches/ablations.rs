//! Ablation benches for the design choices DESIGN.md §6 calls out:
//!
//! * `conformity` — score with vs. without the Ψ term (`e = 0`);
//! * `alignment` — the paper's greedy linear scan vs. the optimal DP;
//! * `synonyms` — clustering with vs. without thesaurus expansion;
//! * `index` — answering through the pre-built path index vs. paying
//!   index construction at query time (the paper's core architectural
//!   claim: "skip the expensive graph traversal at runtime").

use bench::fixture;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use path_index::Thesaurus;
use rdf_model::QueryGraph;
use sama_core::{AlignmentMode, EngineConfig, SamaEngine, ScoreParams};
use std::hint::black_box;
use std::sync::Arc;

const K: usize = 10;

fn q5(fx: &bench::BenchFixture) -> QueryGraph {
    fx.workload[4].query.clone()
}

fn bench_conformity(c: &mut Criterion) {
    let fx = fixture(3_000);
    let with_psi = SamaEngine::new(fx.dataset.graph.clone());
    let without_psi = SamaEngine::new(fx.dataset.graph.clone())
        .with_params(ScoreParams::paper().without_conformity());
    let q = q5(&fx);
    let mut group = c.benchmark_group("ablation/conformity");
    group.sample_size(20);
    group.bench_function("with_psi", |b| {
        b.iter(|| black_box(with_psi.answer(&q, K)).answers.len());
    });
    group.bench_function("without_psi", |b| {
        b.iter(|| black_box(without_psi.answer(&q, K)).answers.len());
    });
    group.finish();
}

fn bench_alignment_mode(c: &mut Criterion) {
    let fx = fixture(3_000);
    let greedy = SamaEngine::with_config(
        fx.dataset.graph.clone(),
        EngineConfig {
            alignment: AlignmentMode::Greedy,
            ..Default::default()
        },
    );
    let optimal = SamaEngine::with_config(
        fx.dataset.graph.clone(),
        EngineConfig {
            alignment: AlignmentMode::Optimal,
            ..Default::default()
        },
    );
    let q = q5(&fx);
    let mut group = c.benchmark_group("ablation/alignment");
    group.sample_size(20);
    group.bench_function("greedy", |b| {
        b.iter(|| black_box(greedy.answer(&q, K)).answers.len());
    });
    group.bench_function("optimal_dp", |b| {
        b.iter(|| black_box(optimal.answer(&q, K)).answers.len());
    });
    group.finish();
}

fn bench_synonyms(c: &mut Criterion) {
    let fx = fixture(3_000);
    let plain = SamaEngine::new(fx.dataset.graph.clone());
    let mut thesaurus = Thesaurus::new();
    thesaurus.group(["Course", "Class", "Lecture"]);
    thesaurus.group(["FullProfessor", "Professor", "Lecturer"]);
    let with_syn = SamaEngine::new(fx.dataset.graph.clone()).with_synonyms(Arc::new(thesaurus));
    // Q8 probes an absent type, where synonyms change retrieval.
    let q = fx.workload[7].query.clone();
    let mut group = c.benchmark_group("ablation/synonyms");
    group.sample_size(20);
    group.bench_function("without", |b| {
        b.iter(|| black_box(plain.answer(&q, K)).answers.len());
    });
    group.bench_function("with_thesaurus", |b| {
        b.iter(|| black_box(with_syn.answer(&q, K)).answers.len());
    });
    group.finish();
}

fn bench_index_value(c: &mut Criterion) {
    let fx = fixture(2_000);
    let prebuilt = SamaEngine::new(fx.dataset.graph.clone());
    let q = q5(&fx);
    let mut group = c.benchmark_group("ablation/index");
    group.sample_size(10);
    group.bench_function("prebuilt_index", |b| {
        b.iter(|| black_box(prebuilt.answer(&q, K)).answers.len());
    });
    group.bench_with_input(
        BenchmarkId::new("build_per_query", fx.dataset.graph.edge_count()),
        &fx.dataset.graph,
        |b, data| {
            b.iter(|| {
                let engine = SamaEngine::new(data.clone());
                black_box(engine.answer(&q, K)).answers.len()
            });
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_conformity,
    bench_alignment_mode,
    bench_synonyms,
    bench_index_value
);
criterion_main!(benches);
