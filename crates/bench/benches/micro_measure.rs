//! Microbenchmarks of the measure itself: path alignment (the paper's
//! linear-time claim), the χ/ψ conformity primitives, cluster
//! construction, and the top-k combination search in isolation.

use bench::fixture;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use path_index::{ExtractionConfig, IndexLike, Path, PathId};
use sama_core::{
    align, build_clusters, chi_count, decompose_query, search_top_k, AlignmentMode, ClusterConfig,
    IntersectionGraph, ScoreParams, SearchConfig,
};
use std::hint::black_box;

/// Alignment of one query path against data paths of growing length —
/// the O(|p|+|q|) inner loop.
fn bench_align(c: &mut Criterion) {
    let fx = fixture(3_000);
    let engine = &fx.engine;
    let params = ScoreParams::paper();
    // Q10's longest path as the query side.
    let qpaths = decompose_query(
        &fx.workload[9].query,
        engine.index(),
        &path_index::NoSynonyms,
        &ExtractionConfig::default(),
    );
    let q = qpaths
        .iter()
        .max_by_key(|p| p.len())
        .expect("query has paths");

    let index = engine.index();
    let mut group = c.benchmark_group("micro/align");
    for mode in [AlignmentMode::Greedy, AlignmentMode::Optimal] {
        // Alignment over every indexed path: elements = paths aligned.
        group.throughput(Throughput::Elements(engine.index().total_paths() as u64));
        group.bench_function(BenchmarkId::new("all_paths", format!("{mode:?}")), |b| {
            b.iter(|| {
                let mut acc = 0.0f64;
                for id in (0..index.total_paths() as u32).map(PathId) {
                    acc += align(q, index.labels(id), &params, mode).lambda;
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

/// χ (common nodes) between indexed paths.
fn bench_chi(c: &mut Criterion) {
    let fx = fixture(3_000);
    let index = fx.engine.index();
    let paths: Vec<Path> = (0..index.total_paths().min(256) as u32)
        .map(|id| {
            let id = PathId(id);
            Path::new(index.path_nodes(id).to_vec(), index.path_edges(id).to_vec())
        })
        .collect();
    c.bench_function("micro/chi_256x256", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for p1 in &paths {
                for p2 in &paths {
                    acc += chi_count(p1, p2);
                }
            }
            black_box(acc)
        });
    });
}

/// Cluster construction for the heaviest workload query.
fn bench_cluster(c: &mut Criterion) {
    let fx = fixture(3_000);
    let engine = &fx.engine;
    let params = ScoreParams::paper();
    let qpaths = decompose_query(
        &fx.workload[11].query, // Q12
        engine.index(),
        &path_index::NoSynonyms,
        &ExtractionConfig::default(),
    );
    c.bench_function("micro/cluster_q12", |b| {
        b.iter(|| {
            black_box(build_clusters(
                &qpaths,
                engine.index(),
                &path_index::NoSynonyms,
                &params,
                AlignmentMode::Greedy,
                &ClusterConfig::default(),
            ))
            .len()
        });
    });
}

/// The combination search in isolation (clusters pre-built): two
/// queries at k = 10, where the frontier stays small, and the plateau
/// case — Q10 at k = 1 000 over the smallest fixture on which its
/// frontier still grows to five figures (18 549 states after 22 541
/// expansions, nearly all tied on priority), which is what the search
/// spends its time on in the ledger's `deep_topk`.
fn bench_search(c: &mut Criterion) {
    let params = ScoreParams::paper();
    let mut group = c.benchmark_group("micro/search");
    group.sample_size(10);
    let (usual, small) = (fixture(3_000), fixture(200));
    for (label, name, fx, k) in [
        ("Q5", "Q5", &usual, 10),
        ("Q10", "Q10", &usual, 10),
        ("Q10_k1000_plateau", "Q10", &small, 1_000),
    ] {
        let engine = &fx.engine;
        let nq = fx.workload.iter().find(|nq| nq.name == name).unwrap();
        let qpaths = decompose_query(
            &nq.query,
            engine.index(),
            &path_index::NoSynonyms,
            &ExtractionConfig::default(),
        );
        let ig = IntersectionGraph::build(&qpaths);
        let clusters = build_clusters(
            &qpaths,
            engine.index(),
            &path_index::NoSynonyms,
            &params,
            AlignmentMode::Greedy,
            &ClusterConfig::default(),
        );
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                black_box(search_top_k(
                    &qpaths,
                    &ig,
                    &clusters,
                    engine.index(),
                    &params,
                    k,
                    &SearchConfig::default(),
                ))
                .answers
                .len()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_align, bench_chi, bench_cluster, bench_search);
criterion_main!(benches);
