//! Table 1 bench: index-construction throughput per corpus family.
//!
//! Criterion times `PathIndex::build` (extraction + inverted maps) and
//! the serialization that produces Table 1's *Space* column. Run the
//! `experiments` binary for the full table with |HV|/|HE| columns:
//!
//! ```text
//! cargo run --release -p eval --bin experiments -- table1
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datasets::{bsbm, citation, govtrack, lubm, social};
use path_index::{decode_v2, encode_v2, ExtractionConfig, PathIndex};
use rdf_model::DataGraph;
use std::hint::black_box;

fn corpus(name: &str, triples: usize) -> DataGraph {
    match name {
        "social" => social::generate(&social::SocialConfig::sized_for(triples, 1)).graph,
        "govtrack" => govtrack::scaled(triples, 2),
        "citation" => citation::generate(&citation::CitationConfig::sized_for(triples, 3)).graph,
        "bsbm" => bsbm::generate(&bsbm::BsbmConfig::sized_for(triples, 4)).graph,
        "lubm" => lubm::generate(&lubm::LubmConfig::sized_for(triples, 5)).graph,
        other => panic!("unknown corpus {other}"),
    }
}

fn extraction_for(name: &str) -> ExtractionConfig {
    if name == "social" {
        ExtractionConfig {
            max_depth: 12,
            max_paths_per_source: 50_000,
            max_total_paths: 1 << 20,
        }
    } else {
        ExtractionConfig::default()
    }
}

fn bench_index_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/index_build");
    group.sample_size(10);
    for name in ["social", "govtrack", "citation", "bsbm", "lubm"] {
        for triples in [2_000usize, 10_000] {
            let data = corpus(name, triples);
            let actual = data.edge_count();
            group.throughput(Throughput::Elements(actual as u64));
            group.bench_with_input(BenchmarkId::new(name, triples), &data, |b, data| {
                let cfg = extraction_for(name);
                b.iter(|| black_box(PathIndex::build_with_config(data.clone(), &cfg)).path_count());
            });
        }
    }
    group.finish();
}

fn bench_serialize(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/serialize");
    group.sample_size(10);
    for name in ["govtrack", "lubm"] {
        let data = corpus(name, 10_000);
        let index = PathIndex::build_with_config(data, &extraction_for(name));
        group.throughput(Throughput::Bytes(
            encode_v2(&index).expect("index fits format").len() as u64,
        ));
        group.bench_function(BenchmarkId::new(name, 10_000), |b| {
            b.iter(|| black_box(encode_v2(&index).expect("index fits format")).len());
        });
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/decode");
    group.sample_size(10);
    let data = corpus("lubm", 10_000);
    let index = PathIndex::build(data);
    let bytes = encode_v2(&index).expect("index fits format");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("lubm/10000", |b| {
        b.iter(|| decode_v2(black_box(&bytes)).expect("valid").path_count());
    });
    group.finish();
}

criterion_group!(benches, bench_index_build, bench_serialize, bench_decode);
criterion_main!(benches);
