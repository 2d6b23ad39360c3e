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
//!   any cap, a budget cancelled half-way; and the
//!   kernel reads candidates exactly up to where the recipe says no
//!   later one can make the cut.

mod support;

use path_index::{ExtractionConfig, IndexLike, MappedIndex, NoSynonyms, PathId, Thesaurus};
use proptest::prelude::*;
use rdf_model::{DataGraph, QueryGraph, Triple};
use sama_core::cluster::ALIGN_CHECK_INTERVAL;
use sama_core::{
    align, align_lambda, apply_ic_weights, build_clusters_budgeted, decompose_query,
    memoised_lambdas, widen_with_synonyms, AlignmentMode, CancelToken, Cluster, ClusterConfig,
    ClusterEntry, QueryBudget, QueryPath, ScoreParams,
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
        let index = MappedIndex::build(DataGraph::from_triples(&data).expect("ground")).expect("builds");
        let Ok(query) = QueryGraph::from_triples(&query) else { return Ok(()) };
        let plain = decompose_query(
            &query,
            &index,
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
            for pid in index.all_path_ids() {
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
        let index = MappedIndex::build(DataGraph::from_triples(&data).expect("ground")).expect("builds");
        let Ok(query) = QueryGraph::from_triples(&query) else { return Ok(()) };
        let plain = decompose_query(
            &query,
            &index,
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
            .map(|q| widen_with_synonyms(q, &index, &thesaurus))
            .collect();
        for qpaths in [&plain, &weighted, &widened] {
            assert_memo_is_exact(&index, qpaths);
        }
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
    let index = MappedIndex::build(b.build()).expect("builds");
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
        let qpaths = decompose_query(&query, &index, &NoSynonyms, &ExtractionConfig::default());
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
/// amendment ids, so path id order is not content order and ties
/// really are decided by content.
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

/// `H2-sponsor-?v1-aTo-?v2-subject-<sink>`. With the sink `"HC"` the
/// hundred `H2` chains are exact answers, so a small cap fills at λ = 0
/// and the fill stops early; no data path ends in `"Finance"`, so
/// against that sink every λ stays above 0 and a cancel lands mid-fill
/// whatever the cap.
fn tie_query(sink: &str) -> QueryGraph {
    let mut b = QueryGraph::builder();
    b.triple_str("H2", "sponsor", "?v1").unwrap();
    b.triple_str("?v1", "aTo", "?v2").unwrap();
    b.triple_str("?v2", "subject", sink).unwrap();
    b.build()
}

/// The plain recipe, sharing nothing with the kernel but `align`: the
/// entries of `candidates` sorted by (λ, path content) and truncated to
/// `cap`, and how many of them a fill must read — in content order, a
/// list longer than `cap` up to its `cap`-th λ = 0 candidate (nothing
/// after it can make the cut), any other list to its end.
fn reference<I: IndexLike>(
    q: &QueryPath,
    index: &I,
    candidates: &[PathId],
    mode: AlignmentMode,
    cap: usize,
) -> (Vec<ClusterEntry>, usize) {
    let mut entries: Vec<ClusterEntry> = candidates
        .iter()
        .map(|&pid| ClusterEntry {
            path_id: pid,
            alignment: align(q, index.labels(pid), &ScoreParams::paper(), mode),
        })
        .collect();
    let mut zeros = (0..entries.len()).filter(|&i| entries[i].lambda() == 0.0);
    let stop = (cap > 0 && candidates.len() > cap).then(|| zeros.nth(cap - 1));
    let scanned = stop.flatten().map_or(candidates.len(), |last| last + 1);
    entries.sort_by(|x, y| {
        (x.lambda().total_cmp(&y.lambda()))
            .then_with(|| index.path_nodes(x.path_id).cmp(index.path_nodes(y.path_id)))
            .then_with(|| index.path_edges(x.path_id).cmp(index.path_edges(y.path_id)))
    });
    entries.truncate(cap);
    (entries, scanned)
}

/// The query's one path, plain and IC-weighted.
fn query_paths<I: IndexLike>(index: &I, sink: &str) -> [(Vec<QueryPath>, bool); 2] {
    let plain = decompose_query(
        &tie_query(sink),
        index.data().vocab(),
        &NoSynonyms,
        &ExtractionConfig::default(),
    );
    assert_eq!(plain.len(), 1, "one query path, one cluster");
    let mut weighted = plain.clone();
    let table = index.ic_table().expect("a mapped index tallies IC");
    apply_ic_weights(&mut weighted, index.data().vocab(), &table);
    [(plain, false), (weighted, true)]
}

/// Fill `qpaths`' cluster over every path of `tripwire`, its token
/// cancelled during `labels` call `trip_at` when one is given.
fn fill(
    tripwire: &mut Probe<impl IndexLike>,
    qpaths: &[QueryPath],
    mode: AlignmentMode,
    cap: usize,
    trip_at: Option<usize>,
) -> (Cluster, QueryBudget) {
    tripwire.labels_calls = AtomicUsize::new(0);
    tripwire.token = CancelToken::new();
    tripwire.trip_at = trip_at.unwrap_or(usize::MAX);
    let budget = match trip_at {
        Some(_) => QueryBudget::unlimited().cancelled_by(Arc::clone(&tripwire.token)),
        None => QueryBudget::unlimited(),
    };
    let mut clusters = build_clusters_budgeted(
        qpaths,
        &*tripwire,
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
    (clusters.pop().expect("one cluster"), budget)
}

fn assert_entries_equal(what: &str, got: &[ClusterEntry], want: &[ClusterEntry]) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (rank, (g, w)) in got.iter().zip(want).enumerate() {
        let what = format!("{what} rank={rank}");
        assert_eq!(g.path_id, w.path_id, "{what}");
        assert_eq!(g.lambda().to_bits(), w.lambda().to_bits(), "{what}");
        assert_eq!(g.alignment.counts, w.alignment.counts, "{what}");
        assert_eq!(g.alignment.bindings, w.alignment.bindings, "{what}");
    }
}

/// Every combination of cap × mode × IC weights × cancellation.
fn check<I: IndexLike>(index: I) {
    let candidates = index.all_path_ids();
    let len = candidates.len();
    assert!(len > 3 * 256, "need several budget polls, got {len} paths");
    // Cancelled while candidate 299 is scored; noticed at the next poll.
    let trip_at = 300;
    let polled_out_at = 512;

    let mut stopped_early = 0;
    let cases = [
        ("\"HC\"", query_paths(&index, "\"HC\""), &[false][..]),
        (
            "\"Finance\"",
            query_paths(&index, "\"Finance\""),
            &[false, true],
        ),
    ];
    let mut tripwire = Probe::new(index);
    for (sink, queries, cancels) in &cases {
        for (qpaths, ic) in queries {
            for mode in MODES {
                for cap in [0, 1, len - 1, len, len + 1] {
                    for &cancel in *cancels {
                        let what = format!("{sink} ic={ic} {mode:?} cap={cap} cancel={cancel}");
                        let (got, _) =
                            fill(&mut tripwire, qpaths, mode, cap, cancel.then_some(trip_at));
                        let scored = if cancel { polled_out_at } else { len };
                        let (want, scanned) = reference(
                            &qpaths[0],
                            &tripwire.inner,
                            &candidates[..scored],
                            mode,
                            cap,
                        );
                        assert_eq!(got.candidates_retrieved, len, "{what}");
                        assert_eq!(got.candidates_dropped, len - scored, "{what}");
                        assert_eq!(got.scanned, scanned, "{what}");
                        stopped_early += usize::from(scanned < scored);
                        assert_entries_equal(&what, &got.entries, &want);
                    }
                }
            }
        }
    }
    // cap = 1 stops at the first H2 chain: plain and weighted, both modes.
    assert_eq!(stopped_early, 4);
}

#[test]
fn fill_equals_align_sort_truncate() {
    check(MappedIndex::build(tie_data()).expect("builds"));
}

/// Query weights are public, and a caller may price a position below
/// zero. Then a heap full at λ = 0 is no floor: against `H3`, the first
/// source in content order, the H3 chains come first at λ = 0, and every
/// later chain, mismatching the source at weight −1, beats them.
#[test]
fn a_negative_weight_keeps_the_fill_reading() {
    let index = MappedIndex::build(tie_data()).expect("builds");
    let candidates = index.all_path_ids();
    let mut b = QueryGraph::builder();
    b.triple_str("H3", "sponsor", "?v1").unwrap();
    b.triple_str("?v1", "aTo", "?v2").unwrap();
    b.triple_str("?v2", "subject", "\"HC\"").unwrap();
    let mut qpaths = decompose_query(
        &b.build(),
        &index,
        &NoSynonyms,
        &ExtractionConfig::default(),
    );
    qpaths[0].node_weights = Some(vec![-1.0, 1.0, 1.0, 1.0].into());
    let mut tripwire = Probe::new(index);
    for mode in MODES {
        let (got, _) = fill(&mut tripwire, &qpaths, mode, 1, None);
        let (want, scanned) = reference(&qpaths[0], &tripwire.inner, &candidates, mode, 1);
        assert!(want[0].lambda() < 0.0, "{mode:?}");
        assert_eq!(scanned, 1, "{mode:?}: the reference's zero rule would stop");
        assert_eq!(got.scanned, candidates.len(), "{mode:?}");
        assert_entries_equal(&format!("{mode:?}"), &got.entries, &want);
    }
}

/// The token trips while candidate 1 is scored, after the first poll;
/// the next poll is due at candidate 256. A fill that reaches `cap`
/// entries at λ = 0 before then stops with its cluster complete: not a
/// candidate dropped, so nothing for `QueryResult::truncated` to flag
/// on the clustering side, though the budget has expired.
#[test]
fn a_stop_that_beats_a_tripped_budget_leaves_a_complete_cluster() {
    let index = MappedIndex::build(tie_data()).expect("builds");
    let candidates = index.all_path_ids();
    let cases = query_paths(&index, "\"HC\"");
    let mut tripwire = Probe::new(index);
    for (qpaths, ic) in &cases {
        for mode in MODES {
            for cap in [1, 100] {
                let what = format!("ic={ic} {mode:?} cap={cap}");
                let (got, budget) = fill(&mut tripwire, qpaths, mode, cap, Some(2));
                assert!(budget.exceeded().is_some(), "{what}: the token tripped");
                let (want, scanned) =
                    reference(&qpaths[0], &tripwire.inner, &candidates, mode, cap);
                assert!(scanned < ALIGN_CHECK_INTERVAL, "{what}: {scanned}");
                assert_eq!(got.scanned, scanned, "{what}");
                assert_eq!(got.candidates_dropped, 0, "{what}");
                assert_entries_equal(&what, &got.entries, &want);
            }
        }
    }
}
