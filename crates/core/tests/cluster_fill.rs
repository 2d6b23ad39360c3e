//! The cluster fill's two contracts.
//!
//! * `align_lambda` is `align(..).lambda` bit for bit, in both
//!   alignment modes, with and without IC weight vectors.
//! * A cluster is exactly what the paper's plain recipe gives — align
//!   every candidate, stable-sort by (λ, path content), truncate to
//!   `max_cluster_size` — whichever way the streaming kernel got there:
//!   any cap, threads or not, a budget cancelled half-way, any index
//!   kind.

mod support;

use path_index::{
    ExtractionConfig, IndexLike, MappedIndex, NoSynonyms, PathId, PathIndex, ShardedIndex,
};
use proptest::prelude::*;
use rdf_model::{DataGraph, QueryGraph, Triple};
use sama_core::{
    align, align_lambda, apply_ic_weights, build_clusters_budgeted, decompose_query, AlignmentMode,
    CancelToken, ClusterConfig, ClusterEntry, QueryBudget, QueryPath, ScoreParams,
};
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use support::{arb_dag_triples, Probe};

const MODES: [AlignmentMode; 2] = [AlignmentMode::Greedy, AlignmentMode::Optimal];

// ---------------------------------------------------------------------------
// align_lambda ≡ align(..).lambda

/// A chain query `x0 -p-> x1 -p-> …`: every node is a variable or one of
/// the data's `n*` constants, every predicate one of `p0..p3` (`p3`
/// never occurs in the data, so it always mismatches).
fn arb_chain_query() -> impl Strategy<Value = Vec<Triple>> {
    proptest::collection::vec((0usize..12, 0usize..4), 2..=5).prop_map(|spec| {
        let node = |i: usize, pick: usize| match pick {
            0..=7 => format!("n{pick}"),
            _ => format!("?v{i}"),
        };
        spec.windows(2)
            .enumerate()
            .map(|(i, w)| {
                Triple::parse(
                    &node(i, w[0].0),
                    &format!("p{}", w[0].1),
                    &node(i + 1, w[1].0),
                )
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn align_lambda_is_bit_identical_to_align(
        data in arb_dag_triples(8, 14),
        query in arb_chain_query(),
        weights in proptest::collection::vec(0.05f64..6.0, 12),
    ) {
        let index = PathIndex::build(DataGraph::from_triples(&data).expect("ground"));
        let Ok(query) = QueryGraph::from_triples(&query) else { return Ok(()) };
        let plain = decompose_query(
            &query,
            index.graph().vocab(),
            &NoSynonyms,
            &ExtractionConfig::default(),
        );
        // Arbitrary (not corpus-derived) weights: sums like 0.1 + 0.7
        // are where a different summation order would show.
        let mut weighted = plain.clone();
        for q in &mut weighted {
            q.node_weights = Some(weights[..q.nodes.len()].into());
            q.edge_weights = Some(weights[weights.len() - q.edges.len()..].into());
        }
        let params = ScoreParams::paper();
        for q in plain.iter().chain(&weighted) {
            for (pid, _) in index.paths() {
                for mode in MODES {
                    let full = align(q, index.labels(pid), &params, mode);
                    let score = align_lambda(q, index.labels(pid), &params, mode);
                    prop_assert_eq!(score.to_bits(), full.lambda.to_bits(), "{:?}", mode);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The streaming kernel against the plain recipe.

/// About a thousand paths of three shapes, so that against
/// [`tie_query`] λ takes a handful of values, each shared by hundreds
/// of candidates: 400 amendment chains `H-sponsor-A-aTo-B-subject-HC`
/// from four hub sponsors (a hundred of them exact answers), 200 direct
/// sponsorships `S-sponsor-B-subject-HC`, and 404 `X-gender-Male`
/// stubs. Each hub's sponsor edges are inserted towards *descending*
/// amendment ids, so candidate (path id) order is not content order
/// and ties really are decided by content.
fn tie_data() -> DataGraph {
    let mut b = DataGraph::builder();
    for i in 0..400 {
        b.triple_str(&format!("A{i}"), "aTo", &format!("B{}", i % 40))
            .unwrap();
    }
    for j in 0..40 {
        b.triple_str(&format!("B{j}"), "subject", "\"HC\"").unwrap();
    }
    for i in (0..400).rev() {
        b.triple_str(&format!("H{}", i % 4), "sponsor", &format!("A{i}"))
            .unwrap();
    }
    for i in 0..200 {
        b.triple_str(&format!("S{i}"), "sponsor", &format!("B{}", i % 40))
            .unwrap();
    }
    for person in (0..4)
        .map(|h| format!("H{h}"))
        .chain((0..400).map(|i| format!("G{i}")))
    {
        b.triple_str(&person, "gender", "\"Male\"").unwrap();
    }
    b.build()
}

fn tie_query() -> QueryGraph {
    let mut b = QueryGraph::builder();
    b.triple_str("H2", "sponsor", "?v1").unwrap();
    b.triple_str("?v1", "aTo", "?v2").unwrap();
    b.triple_str("?v2", "subject", "\"HC\"").unwrap();
    b.build()
}

/// The plain recipe, sharing nothing with the kernel but `align`.
fn reference<I: IndexLike>(
    q: &QueryPath,
    index: &I,
    candidates: &[PathId],
    mode: AlignmentMode,
    cap: usize,
) -> Vec<ClusterEntry> {
    let mut entries: Vec<ClusterEntry> = candidates
        .iter()
        .map(|&pid| ClusterEntry {
            path_id: pid,
            alignment: align(q, index.labels(pid), &ScoreParams::paper(), mode),
        })
        .collect();
    entries.sort_by(|x, y| {
        (x.lambda().total_cmp(&y.lambda()))
            .then_with(|| index.path_nodes(x.path_id).cmp(index.path_nodes(y.path_id)))
            .then_with(|| index.path_edges(x.path_id).cmp(index.path_edges(y.path_id)))
    });
    entries.truncate(cap);
    entries
}

/// Every combination of cap × mode × IC weights × threads × cancellation
/// over one index kind.
fn check_kind<I: IndexLike + Sync>(kind: &str, index: I) {
    let candidates = index.all_path_ids();
    let len = candidates.len();
    assert!(
        len > 3 * 256,
        "{kind}: need several budget polls, got {len} paths"
    );
    let plain = decompose_query(
        &tie_query(),
        index.data().vocab(),
        &NoSynonyms,
        &ExtractionConfig::default(),
    );
    assert_eq!(plain.len(), 1, "one query path, one cluster");
    let mut weighted = plain.clone();
    let table = index.ic_table().expect("every index kind tallies IC");
    apply_ic_weights(&mut weighted, index.data().vocab(), &table);
    // Cancelled while candidate 299 is scored; noticed at the next poll.
    let trip_at = 300;
    let polled_out_at = 512;

    let mut tripwire = Probe::new(index);
    for (qpaths, ic) in [(&plain, false), (&weighted, true)] {
        for mode in MODES {
            for parallel in [false, true] {
                for cap in [0, 1, len - 1, len, len + 1] {
                    for cancel in [false, true] {
                        let what = format!(
                            "{kind} ic={ic} {mode:?} parallel={parallel} cap={cap} cancel={cancel}"
                        );
                        tripwire.labels_calls = AtomicUsize::new(0);
                        tripwire.token = CancelToken::new();
                        tripwire.trip_at = if cancel { trip_at } else { usize::MAX };
                        let budget = if cancel {
                            QueryBudget::unlimited().cancelled_by(Arc::clone(&tripwire.token))
                        } else {
                            QueryBudget::unlimited()
                        };
                        let clusters = build_clusters_budgeted(
                            qpaths,
                            &tripwire,
                            &NoSynonyms,
                            &ScoreParams::paper(),
                            mode,
                            &ClusterConfig {
                                exhaustive: true,
                                max_cluster_size: cap,
                                parallel_alignment: parallel,
                                parallel_threshold: 1,
                                ..Default::default()
                            },
                            &budget,
                        );
                        let scored = if cancel { polled_out_at } else { len };
                        let want = reference(
                            &qpaths[0],
                            &tripwire.inner,
                            &candidates[..scored],
                            mode,
                            cap,
                        );
                        let got = &clusters[0];
                        assert_eq!(got.candidates_retrieved, len, "{what}");
                        assert_eq!(got.candidates_dropped, len - scored, "{what}");
                        assert_eq!(got.entries.len(), want.len(), "{what}");
                        for (rank, (g, w)) in got.entries.iter().zip(&want).enumerate() {
                            let what = format!("{what} rank={rank}");
                            assert_eq!(g.path_id, w.path_id, "{what}");
                            assert_eq!(g.lambda().to_bits(), w.lambda().to_bits(), "{what}");
                            assert_eq!(g.alignment.counts, w.alignment.counts, "{what}");
                            assert_eq!(g.alignment.bindings, w.alignment.bindings, "{what}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn fill_equals_align_sort_truncate_on_an_owned_index() {
    check_kind("PathIndex", PathIndex::build(tie_data()));
}

#[test]
fn fill_equals_align_sort_truncate_on_a_mapped_index() {
    let bytes = path_index::encode_v2(&PathIndex::build(tie_data())).expect("encodes");
    check_kind(
        "MappedIndex",
        MappedIndex::from_bytes(&bytes).expect("opens"),
    );
}

#[test]
fn fill_equals_align_sort_truncate_on_a_sharded_index() {
    check_kind(
        "ShardedIndex",
        ShardedIndex::build(tie_data(), 3, &ExtractionConfig::default()),
    );
}
