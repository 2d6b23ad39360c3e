//! Determinism guarantees of the concurrent serving paths.
//!
//! Every parallel knob in the engine — batch worker pools, parallel
//! clustering, in-cluster parallel alignment — is a *scheduling*
//! decision, never a *semantic* one: answers, scores, retrieval counters
//! and truncation flags must be bit-identical to the sequential run at
//! every thread count. These tests pin that contract.

mod support;

use path_index::IndexLike;
use proptest::prelude::*;
use rdf_model::{DataGraph, QueryGraph};
use sama_core::{
    build_clusters, build_clusters_parallel, decompose_query, AlignmentMode, BatchConfig,
    ClusterConfig, EngineConfig, QueryResult, SamaEngine, ScoreParams,
};
use support::arb_dag_triples;

fn figure1_data() -> DataGraph {
    let mut b = DataGraph::builder();
    for (person, amendment, bill) in [
        ("CarlaBunes", "A0056", "B1432"),
        ("JeffRyser", "A1589", "B0532"),
        ("KeithFarmer", "A1232", "B0045"),
        ("JohnMcRie", "A0772", "B0045"),
        ("PierceDickes", "A0467", "B0532"),
    ] {
        b.triple_str(person, "sponsor", amendment).unwrap();
        b.triple_str(amendment, "aTo", bill).unwrap();
    }
    for bill in ["B1432", "B0532", "B0045"] {
        b.triple_str(bill, "subject", "\"Health Care\"").unwrap();
    }
    for (person, bill) in [
        ("JeffRyser", "B0045"),
        ("PeterTraves", "B0532"),
        ("AliceNimber", "B1432"),
        ("PierceDickes", "B1432"),
    ] {
        b.triple_str(person, "sponsor", bill).unwrap();
    }
    for person in ["JeffRyser", "KeithFarmer", "JohnMcRie", "PierceDickes"] {
        b.triple_str(person, "gender", "\"Male\"").unwrap();
    }
    b.build()
}

/// A small mixed workload: exact, approximate, and no-hit queries.
fn workload() -> Vec<QueryGraph> {
    let mut qs = Vec::new();
    for person in ["CarlaBunes", "JeffRyser", "Nobody"] {
        let mut b = QueryGraph::builder();
        b.triple_str(person, "sponsor", "?v1").unwrap();
        b.triple_str("?v1", "aTo", "?v2").unwrap();
        b.triple_str("?v2", "subject", "\"Health Care\"").unwrap();
        qs.push(b.build());
    }
    let mut b = QueryGraph::builder();
    b.triple_str("?p", "gender", "\"Male\"").unwrap();
    b.triple_str("?p", "sponsor", "?bill").unwrap();
    qs.push(b.build());
    let mut b = QueryGraph::builder();
    b.triple_str("CarlaBunes", "?e1", "?v2").unwrap();
    b.triple_str("?v2", "subject", "\"Health Care\"").unwrap();
    qs.push(b.build());
    qs
}

/// Everything that must not change under concurrency: per-answer chosen
/// paths and score breakdown, retrieval counters, truncation.
#[allow(clippy::type_complexity)]
fn fingerprint(
    r: &QueryResult,
) -> (
    Vec<(Vec<Option<path_index::PathId>>, f64, f64, f64)>,
    usize,
    bool,
) {
    (
        r.answers
            .iter()
            .map(|a| (a.path_ids(), a.lambda(), a.psi(), a.score()))
            .collect(),
        r.retrieved_paths,
        r.truncated,
    )
}

#[test]
fn batch_is_bit_identical_to_sequential_loop_at_every_thread_count() {
    let engine = SamaEngine::new(figure1_data());
    let qs = workload();
    let sequential: Vec<_> = qs
        .iter()
        .map(|q| fingerprint(&engine.answer(q, 8)))
        .collect();
    for threads in [1usize, 2, 3, 4, 8] {
        let outcome = engine.answer_batch(
            &qs,
            &BatchConfig {
                k: 8,
                threads,
                ..Default::default()
            },
        );
        let batch: Vec<_> = outcome
            .results
            .iter()
            .map(|r| fingerprint(r.as_ref().expect("valid query")))
            .collect();
        assert_eq!(batch, sequential, "threads = {threads}");
        assert_eq!(outcome.stats.queries, qs.len());
    }
}

#[test]
fn parallel_alignment_is_bit_identical_to_sequential() {
    // threshold 1 forces the threaded path even on tiny clusters.
    let config_for = |parallel: bool| EngineConfig {
        cluster: ClusterConfig {
            parallel_alignment: parallel,
            parallel_threshold: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let sequential = SamaEngine::with_config(figure1_data(), config_for(false));
    let parallel = SamaEngine::with_config(figure1_data(), config_for(true));
    for q in workload() {
        let a = sequential.answer(&q, 10);
        let b = parallel.answer(&q, 10);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        // The per-cluster counters feed the paper's Figure 7a: they must
        // not depend on chunking either.
        let counters = |r: &QueryResult| {
            r.clusters
                .iter()
                .map(|c| {
                    (
                        c.candidates_retrieved,
                        c.candidates_dropped,
                        c.entries.len(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(counters(&a), counters(&b));
    }
}

#[test]
fn parallel_alignment_respects_max_cluster_size_cap() {
    // A tight cap makes per-chunk truncation actually bite; the merged
    // result must still equal the sequential (globally sorted) one.
    let config_for = |parallel: bool| EngineConfig {
        cluster: ClusterConfig {
            max_cluster_size: 2,
            parallel_alignment: parallel,
            parallel_threshold: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let sequential = SamaEngine::with_config(figure1_data(), config_for(false));
    let parallel = SamaEngine::with_config(figure1_data(), config_for(true));
    for q in workload() {
        assert_eq!(
            fingerprint(&sequential.answer(&q, 10)),
            fingerprint(&parallel.answer(&q, 10))
        );
    }
}

#[test]
fn parallel_cluster_build_matches_sequential_build() {
    let data = figure1_data();
    let index = path_index::PathIndex::build(data);
    let synonyms = path_index::NoSynonyms;
    let params = ScoreParams::paper();
    let extraction = path_index::ExtractionConfig::default();
    let config = ClusterConfig {
        parallel_threshold: 1,
        ..Default::default()
    };
    for q in workload() {
        let qpaths = decompose_query(&q, index.data().vocab(), &synonyms, &extraction);
        let a = build_clusters(
            &qpaths,
            &index,
            &synonyms,
            &params,
            AlignmentMode::default(),
            &config,
        );
        let b = build_clusters_parallel(
            &qpaths,
            &index,
            &synonyms,
            &params,
            AlignmentMode::default(),
            &config,
        );
        let flat = |clusters: &[sama_core::Cluster]| {
            clusters
                .iter()
                .map(|c| {
                    (
                        c.qpath_index,
                        c.candidates_retrieved,
                        c.candidates_dropped,
                        c.entries
                            .iter()
                            .map(|e| (e.path_id, e.lambda()))
                            .collect::<Vec<_>>(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(flat(&a), flat(&b));
    }
}

#[test]
fn every_knob_on_equals_every_knob_off() {
    // The all-parallel configuration (what `SAMA_PARALLEL=1` selects)
    // against the all-sequential one, over the whole workload.
    let parallel = SamaEngine::with_config(
        figure1_data(),
        EngineConfig {
            parallel_clustering: true,
            cluster: ClusterConfig {
                parallel_alignment: true,
                parallel_threshold: 1,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let sequential = SamaEngine::with_config(
        figure1_data(),
        EngineConfig {
            parallel_clustering: false,
            cluster: ClusterConfig {
                parallel_alignment: false,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let qs = workload();
    let a = parallel.answer_batch(
        &qs,
        &BatchConfig {
            k: 10,
            threads: 4,
            ..Default::default()
        },
    );
    for (result, q) in a.results.iter().zip(&qs) {
        let result = result.as_ref().expect("valid query");
        assert_eq!(fingerprint(result), fingerprint(&sequential.answer(q, 10)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On arbitrary DAG data the fully-parallel engine (batch pool +
    /// parallel clustering + parallel alignment) agrees
    /// with the fully-sequential one, query by query.
    #[test]
    fn random_graphs_parallel_equals_sequential(triples in arb_dag_triples(8, 14)) {
        let data = DataGraph::from_triples(&triples).expect("ground");
        let sequential = SamaEngine::with_config(data.clone(), EngineConfig {
            parallel_clustering: false,
            cluster: ClusterConfig { parallel_alignment: false, ..Default::default() },
            ..Default::default()
        });
        let parallel = SamaEngine::with_config(data, EngineConfig {
            parallel_clustering: true,
            cluster: ClusterConfig {
                parallel_alignment: true,
                parallel_threshold: 1,
                ..Default::default()
            },
            ..Default::default()
        });

        // A wildcard two-hop probe touches many paths at once.
        let mut b = QueryGraph::builder();
        b.triple_str("n0", "p0", "?x").unwrap();
        b.triple_str("?x", "p1", "?y").unwrap();
        let q = b.build();

        let want: Vec<_> = std::iter::repeat_with(|| q.clone()).take(3)
            .map(|q| fingerprint(&sequential.answer(&q, 6)))
            .collect();
        let got = parallel.answer_batch(&[q.clone(), q.clone(), q], &BatchConfig {
            k: 6,
            threads: 3,
            ..Default::default()
        });
        let got: Vec<_> = got
            .results
            .iter()
            .map(|r| fingerprint(r.as_ref().expect("valid query")))
            .collect();
        prop_assert_eq!(got, want);
    }
}
