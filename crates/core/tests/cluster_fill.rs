//! The cluster fill's three contracts.
//!
//! * `align_lambda` is `align(..).lambda` bit for bit, in both
//!   alignment modes, with and without IC weight vectors.
//! * The fill's memoised score is `align_lambda` bit for bit for every
//!   candidate — both modes, IC weights, synonym-widened constants,
//!   constants absent from the data, constants at any position, and
//!   paths too long for the memo's packed key.
//! * A cluster is exactly what the paper's plain recipe gives — align
//!   every candidate, stable-sort by (λ, path content), truncate to
//!   `max_cluster_size` — whichever way the streaming kernel got there:
//!   any cap, threads or not, a budget cancelled half-way, any index
//!   kind.

mod support;

use path_index::{
    ExtractionConfig, IndexLike, MappedIndex, NoSynonyms, PathId, PathIndex, Thesaurus,
};
use proptest::prelude::*;
use rdf_model::{DataGraph, QueryGraph, Triple};
use sama_core::{
    align, align_lambda, apply_ic_weights, build_clusters_budgeted, decompose_query,
    memoised_lambdas, widen_with_synonyms, AlignmentMode, CancelToken, ClusterConfig, ClusterEntry,
    QueryBudget, QueryPath, ScoreParams,
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
// memoised score ≡ align_lambda

/// A chain query of up to 14 nodes. Each node is a variable, one of the
/// data's `n*` constants, or a constant the data does not have (`x<i>`,
/// one per position, so `accepted` is empty); predicates as in
/// [`arb_chain_query`]. Constants therefore land at the sink only, the
/// source only, the interior only, everywhere or nowhere, and a long
/// chain of them against a seven-node data path overflows the memo's
/// packed key.
fn arb_constant_mix_query() -> impl Strategy<Value = Vec<Triple>> {
    proptest::collection::vec((0usize..14, 0usize..4), 2..=14).prop_map(|spec| {
        let node = |i: usize, pick: usize| match pick {
            0..=5 => format!("n{pick}"),
            6..=9 => format!("x{i}"),
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

/// Every candidate's memoised λ against `align_lambda`, for every
/// query path in `qpaths` and both modes.
fn assert_memo_is_exact<I: IndexLike>(index: &I, qpaths: &[QueryPath]) {
    let candidates = index.all_path_ids();
    let params = ScoreParams::paper();
    for q in qpaths {
        for mode in MODES {
            let (lambdas, computed) = memoised_lambdas(q, index, &candidates, &params, mode);
            assert_eq!(lambdas.len(), candidates.len());
            assert!(computed <= candidates.len());
            for (&pid, lambda) in candidates.iter().zip(lambdas) {
                let direct = align_lambda(q, index.labels(pid), &params, mode);
                assert_eq!(lambda.to_bits(), direct.to_bits(), "{} {:?}", pid, mode);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn memoised_lambda_is_bit_identical_to_align_lambda(
        data in arb_dag_triples(8, 14),
        query in arb_constant_mix_query(),
        weights in proptest::collection::vec(0.05f64..6.0, 16),
    ) {
        let index = PathIndex::build(DataGraph::from_triples(&data).expect("ground"));
        let Ok(query) = QueryGraph::from_triples(&query) else { return Ok(()) };
        let plain = decompose_query(
            &query,
            index.graph().vocab(),
            &NoSynonyms,
            &ExtractionConfig::default(),
        );
        let mut weighted = plain.clone();
        for q in &mut weighted {
            q.node_weights = Some(weights.iter().cycle().take(q.nodes.len()).copied().collect());
            q.edge_weights = Some(weights.iter().rev().cycle().take(q.edges.len()).copied().collect());
        }
        // One data label accepted at two query positions (and two
        // labels at one): `n0`, `n1`, `n2` stand for one another.
        let mut thesaurus = Thesaurus::new();
        thesaurus.group(["n0", "n1", "n2"]);
        let widened: Vec<QueryPath> = weighted
            .iter()
            .map(|q| widen_with_synonyms(q, index.graph().vocab(), &thesaurus))
            .collect();
        for qpaths in [&plain, &weighted, &widened] {
            assert_memo_is_exact(&index, qpaths);
        }
        // The other index kind reads shapes from its own sections.
        let bytes = path_index::encode_v2(&index).expect("encodes");
        assert_memo_is_exact(&MappedIndex::from_bytes(&bytes).expect("opens"), &widened);
    }
}

#[test]
fn paths_too_long_for_the_packed_key_are_scored_directly() {
    // A 30-node chain and its 29 shorter suffix-sharing siblings: every
    // `c<i>` feeds the chain at node `i`, so the index holds paths of
    // 2 … 31 nodes.
    let mut b = DataGraph::builder();
    for i in 0..29 {
        b.triple_str(&format!("m{i}"), "p", &format!("m{}", i + 1))
            .unwrap();
        b.triple_str(&format!("c{i}"), "r", &format!("m{i}"))
            .unwrap();
    }
    let index = PathIndex::build(b.build());
    let candidates = index.all_path_ids();
    let longest = candidates
        .iter()
        .map(|&p| index.path_nodes(p).len())
        .max()
        .unwrap();
    assert!(longest >= 30, "longest path has {longest} nodes");
    // Three interior constants and a constant sink: a data path of more
    // than 22 nodes needs more than 64 bits.
    let mut short = QueryGraph::builder();
    short.triple_str("m3", "p", "m9").unwrap();
    short.triple_str("m9", "p", "m20").unwrap();
    short.triple_str("m20", "p", "?x").unwrap();
    short.triple_str("?x", "p", "m29").unwrap();
    // A 30-node query of constants: any data path of four nodes or more
    // overflows.
    let mut long = QueryGraph::builder();
    for i in 0..29 {
        long.triple_str(&format!("m{i}"), "p", &format!("m{}", i + 1))
            .unwrap();
    }
    let params = ScoreParams::paper();
    for (query, overflowing) in [
        (
            short.build(),
            candidates
                .iter()
                .filter(|&&p| 3 * (index.path_nodes(p).len() - 1) + 1 > 64)
                .count(),
        ),
        (
            long.build(),
            candidates
                .iter()
                .filter(|&&p| 29 * (index.path_nodes(p).len() - 1) + 1 > 64)
                .count(),
        ),
    ] {
        assert!(overflowing > 0 && overflowing < candidates.len());
        let qpaths = decompose_query(
            &query,
            index.graph().vocab(),
            &NoSynonyms,
            &ExtractionConfig::default(),
        );
        assert_eq!(qpaths.len(), 1);
        for mode in MODES {
            let (lambdas, computed) =
                memoised_lambdas(&qpaths[0], &index, &candidates, &params, mode);
            for (&pid, lambda) in candidates.iter().zip(lambdas) {
                let direct = align_lambda(&qpaths[0], index.labels(pid), &params, mode);
                assert_eq!(lambda.to_bits(), direct.to_bits(), "{pid} {mode:?}");
            }
            // Each overflowing path costs an alignment of its own; the
            // rest share theirs.
            assert!(computed >= overflowing && computed <= candidates.len());
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

/// Every combination of cap × mode × IC weights × cancellation
/// over one index kind.
fn check_kind<I: IndexLike>(kind: &str, index: I) {
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
            for cap in [0, 1, len - 1, len, len + 1] {
                for cancel in [false, true] {
                    let what = format!("{kind} ic={ic} {mode:?} cap={cap} cancel={cancel}");
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
