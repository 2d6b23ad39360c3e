//! Determinism guarantees of the concurrent serving path.
//!
//! A query runs on the thread that called it; the batch worker pool
//! runs whole queries side by side. Its width is a *scheduling*
//! decision, never a *semantic* one: answers, scores, retrieval counters
//! and truncation flags must be bit-identical to the sequential run at
//! every thread count. These tests pin that contract.

mod support;

use proptest::prelude::*;
use rdf_model::{DataGraph, QueryGraph};
use sama_core::{BatchConfig, QueryResult, SamaEngine};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On arbitrary DAG data the batch pool agrees with the sequential
    /// loop, query by query.
    #[test]
    fn random_graphs_batch_equals_sequential(triples in arb_dag_triples(8, 14)) {
        let data = DataGraph::from_triples(&triples).expect("ground");
        let engine = SamaEngine::new(data);

        // A wildcard two-hop probe touches many paths at once.
        let mut b = QueryGraph::builder();
        b.triple_str("n0", "p0", "?x").unwrap();
        b.triple_str("?x", "p1", "?y").unwrap();
        let q = b.build();

        let want: Vec<_> = std::iter::repeat_with(|| q.clone()).take(3)
            .map(|q| fingerprint(&engine.answer(&q, 6)))
            .collect();
        let got = engine.answer_batch(&[q.clone(), q.clone(), q], &BatchConfig {
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
