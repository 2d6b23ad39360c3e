//! The cluster fill's three contracts.
//!
//! * `align_lambda` is `align(..).lambda` bit for bit, in both
//!   alignment modes, with and without IC weight vectors.
//! * The fill's scorer — the memo for the candidates a query constant
//!   touches, the shape price table for the rest — is `align_lambda`
//!   bit for bit for every candidate: both modes, IC weights,
//!   synonym-widened constants, constants absent from the data,
//!   constants at any position, and paths too long for the memo's
//!   packed key.
//! * A cluster is exactly what an oracle that aligns every candidate
//!   gives — stable-sort by (λ, path content), truncate to
//!   `max_cluster_size` — whichever way the streaming kernel got there:
//!   any cap, either mode, any weights (negative ones included), every
//!   retrieval rule, a budget cancelled half-way; and the kernel reads
//!   no fewer candidates than the oracle's exact suffix floor says it
//!   must.

mod support;

use path_index::{
    ExtractionConfig, IndexLike, MappedIndex, NoSynonyms, PathId, SynonymProvider, Thesaurus,
};
use proptest::prelude::*;
use rdf_model::{DataGraph, QueryGraph, Triple};
use sama_core::cluster::ALIGN_CHECK_INTERVAL;
use sama_core::{
    align, align_lambda, apply_ic_weights, build_clusters, build_clusters_budgeted,
    decompose_query, memoised_lambdas, AlignmentMode, CancelToken, Cluster, ClusterConfig,
    ClusterEntry, QueryBudget, QueryPath, ScoreParams,
};
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use support::{arb_constant_mix_query, arb_dag_triples, reference_candidates, Probe};

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

/// Every candidate's memoised λ against `align_lambda`, for every
/// query path in `qpaths` and both modes.
fn assert_memo_is_exact<I: IndexLike>(index: &I, qpaths: &[QueryPath]) {
    let candidates = index.all_path_ids();
    let params = ScoreParams::paper();
    for q in qpaths {
        for mode in MODES {
            let (lambdas, computed) = memoised_lambdas(q, index, &candidates, &params, mode);
            assert_eq!(lambdas.len(), candidates.len());
            // One alignment per shape and sink bit, one per touched key.
            assert!(computed <= 2 * index.shape_count() + candidates.len());
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
        // One data label accepted at two query positions (and two
        // labels at one): `n0`, `n1`, `n2` stand for one another.
        let mut thesaurus = Thesaurus::new();
        thesaurus.group(["n0", "n1", "n2"]);
        let decompose = |synonyms: &dyn SynonymProvider| {
            decompose_query(&query, &index, synonyms, &ExtractionConfig::default())
        };
        let stamp = |mut qpaths: Vec<QueryPath>| {
            for q in &mut qpaths {
                q.node_weights = Some(weights.iter().cycle().take(q.nodes.len()).copied().collect());
                q.edge_weights = Some(weights.iter().rev().cycle().take(q.edges.len()).copied().collect());
            }
            qpaths
        };
        let plain = decompose(&NoSynonyms);
        let weighted = stamp(plain.clone());
        let widened = stamp(decompose(&thesaurus));
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
            // Each overflowing path an inner constant touches costs an
            // alignment of its own; the rest share theirs.
            let q = &qpaths[0];
            let inner: Vec<_> = q.nodes[..q.len() - 1]
                .iter()
                .filter(|c| !c.is_var())
                .collect();
            let touched_overflowing = candidates
                .iter()
                .filter(|&&p| {
                    let labels = index.labels(p);
                    let width = 1 + (labels.len() - 1) * inner.len();
                    width > 64
                        && labels
                            .node_labels()
                            .take(labels.len() - 1)
                            .any(|l| inner.iter().any(|c| c.admits(l)))
                })
                .count();
            assert!(touched_overflowing > 0);
            assert!(computed >= touched_overflowing);
            assert!(computed <= 2 * index.shape_count() + candidates.len());
        }
    }
}

// ---------------------------------------------------------------------------
// The streaming kernel against an oracle that aligns everything.

/// About a thousand paths of three shapes, so that against
/// [`tie_query`] λ takes a handful of values, each shared by hundreds
/// of candidates: 400 amendment chains `H-sponsor-A-aTo-B-subject-HC`
/// from four hub sponsors (a hundred of them exact answers), 200 direct
/// sponsorships `S-sponsor-B-subject-HC`, and 404 `X-gender-Male`
/// stubs. Each hub's sponsor edges are inserted towards *descending*
/// amendment ids, so path id order is not content order and ties
/// really are decided by content. In content order the `H3` paths come
/// first (101 of them: its chains, then its gender stub), then `H2`,
/// `H1`, `H0`, the direct sponsorships and the `G` stubs.
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

/// `<hub>-sponsor-?v1-aTo-?v2-subject-<sink>`. The hub is the one inner
/// constant: its 101 paths are the touched candidates. With the sink
/// `"HC"` the hundred chains of the hub are exact answers. No data path
/// ends in `"Finance"`: against that sink the hub's chains score 1 and
/// every other path more.
fn tie_query(hub: &str, sink: &str) -> QueryGraph {
    let mut b = QueryGraph::builder();
    b.triple_str(hub, "sponsor", "?v1").unwrap();
    b.triple_str("?v1", "aTo", "?v2").unwrap();
    b.triple_str("?v2", "subject", sink).unwrap();
    b.build()
}

/// The oracle, sharing nothing with the kernel but `align`: the entries
/// of `candidates` sorted by (λ, path content) and truncated to `cap`,
/// and the exact suffix-floor stop — how many candidates, in content
/// order, a fill that knew every later λ would read: a list longer than
/// `cap` up to the first prefix whose `cap` best sit at or below the
/// least λ after it (nothing later can make the cut), any other list to
/// its end.
fn oracle<I: IndexLike>(
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
            lambda: align(q, index.labels(pid), &ScoreParams::paper(), mode).lambda,
        })
        .collect();
    let lambdas: Vec<f64> = entries.iter().map(ClusterEntry::lambda).collect();
    let least = |a: f64, b: f64| if a.total_cmp(&b).is_le() { a } else { b };
    let mut after = vec![f64::INFINITY; lambdas.len() + 1];
    for i in (0..lambdas.len()).rev() {
        after[i] = least(lambdas[i], after[i + 1]);
    }
    let mut stop = lambdas.len();
    if cap > 0 && lambdas.len() > cap {
        let mut kept: Vec<f64> = Vec::new();
        for (i, &lambda) in lambdas.iter().enumerate() {
            let at = kept.partition_point(|k| k.total_cmp(&lambda).is_le());
            kept.insert(at, lambda);
            kept.truncate(cap);
            if kept.len() == cap && kept[cap - 1].total_cmp(&after[i + 1]).is_le() {
                stop = i + 1;
                break;
            }
        }
    }
    entries.sort_by(|x, y| {
        (x.lambda().total_cmp(&y.lambda()))
            .then_with(|| index.path_nodes(x.path_id).cmp(index.path_nodes(y.path_id)))
            .then_with(|| index.path_edges(x.path_id).cmp(index.path_edges(y.path_id)))
    });
    entries.truncate(cap);
    (entries, stop)
}

/// The query's one path, plain and IC-weighted.
fn query_paths<I: IndexLike>(index: &I, query: &QueryGraph) -> [(Vec<QueryPath>, bool); 2] {
    let plain = decompose_query(query, index, &NoSynonyms, &ExtractionConfig::default());
    assert_eq!(plain.len(), 1, "one query path, one cluster");
    let mut weighted = plain.clone();
    let table = index.ic_table().expect("a mapped index tallies IC");
    apply_ic_weights(&mut weighted, &table);
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

/// What an entry holds — its path and its λ bits — rank for rank.
fn assert_entries_equal(what: &str, got: &[ClusterEntry], want: &[ClusterEntry]) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (rank, (g, w)) in got.iter().zip(want).enumerate() {
        let what = format!("{what} rank={rank}");
        assert_eq!(g.path_id, w.path_id, "{what}");
        assert_eq!(g.lambda.to_bits(), w.lambda.to_bits(), "{what}");
    }
}

/// Every combination of cap × mode × IC weights, and a cancellation.
/// `H2` against `"HC"` and `"Finance"` stops early; `H0` against
/// `"Finance"` is the cancellation case: its chains, the only λ = 1
/// candidates, come after position 300, so the floor stays below the
/// heap's worst past the poll at 256 whatever the cap.
fn check<I: IndexLike>(index: I) {
    let candidates = index.all_path_ids();
    let len = candidates.len();
    assert!(len > 3 * 256, "need several budget polls, got {len} paths");
    // Cancelled during the first `labels` call — the up-front scoring of
    // the touched candidates, or the first alignment of a list that fits
    // its cap — and noticed at the next poll.
    let trip_at = 1;
    let polled_out_at = ALIGN_CHECK_INTERVAL;

    let mut stopped_early = 0;
    let cases = [
        ("H2 \"HC\"", tie_query("H2", "\"HC\""), false),
        ("H2 \"Finance\"", tie_query("H2", "\"Finance\""), false),
        ("H0 \"Finance\"", tie_query("H0", "\"Finance\""), true),
    ]
    .map(|(what, query, cancel)| (what, query_paths(&index, &query), cancel));
    let mut tripwire = Probe::new(index);
    for (query, queries, cancel) in &cases {
        for (qpaths, ic) in queries {
            for mode in MODES {
                for cap in [0, 1, 2, 100, len - 1, len, len + 1] {
                    let what = format!("{query} ic={ic} {mode:?} cap={cap}");
                    let (got, _) =
                        fill(&mut tripwire, qpaths, mode, cap, cancel.then_some(trip_at));
                    let scored = if *cancel { polled_out_at } else { len };
                    let (want, stop) = oracle(
                        &qpaths[0],
                        &tripwire.inner,
                        &candidates[..scored],
                        mode,
                        cap,
                    );
                    assert_eq!(got.candidates_retrieved, len, "{what}");
                    assert_eq!(got.candidates_dropped, len - scored, "{what}");
                    assert!(
                        got.scanned >= stop && got.scanned <= scored,
                        "{what}: {stop}"
                    );
                    assert!(got.touched <= got.scanned, "{what}");
                    stopped_early += usize::from(got.scanned < scored);
                    assert_entries_equal(&what, &got.entries, &want);
                }
            }
        }
    }
    // The H2 fills with caps 1, 2 and 100 stop early — two sinks ×
    // plain and weighted × two modes × three caps. (Cap 0 has no heap to
    // fill; `len - 1` fills it only one candidate before the end.)
    assert_eq!(stopped_early, 2 * 2 * 2 * 3);
}

#[test]
fn fill_equals_align_sort_truncate() {
    check(MappedIndex::build(tie_data()).expect("builds"));
}

/// Query weights are public, and a caller may price a position below
/// zero. The floor is a minimum over the λ values candidates really
/// take, not a bound at 0, so the stop stays exact: against `H3`, the
/// first source in content order, the H3 chains come first at λ = 0 and
/// every later chain, mismatching the source at weight −1, beats them;
/// the fill stops at the first of those, where the oracle does.
#[test]
fn a_negative_weight_stops_at_its_exact_floor() {
    let index = MappedIndex::build(tie_data()).expect("builds");
    let candidates = index.all_path_ids();
    let mut qpaths = decompose_query(
        &tie_query("H3", "\"HC\""),
        &index,
        &NoSynonyms,
        &ExtractionConfig::default(),
    );
    qpaths[0].node_weights = Some(vec![-1.0, 1.0, 1.0, 1.0].into());
    let mut tripwire = Probe::new(index);
    for mode in MODES {
        let (got, _) = fill(&mut tripwire, &qpaths, mode, 1, None);
        let (want, stop) = oracle(&qpaths[0], &tripwire.inner, &candidates, mode, 1);
        assert!(want[0].lambda() < 0.0, "{mode:?}");
        assert!(stop < candidates.len(), "{mode:?}: the oracle stops early");
        assert_eq!(got.scanned, stop, "{mode:?}");
        assert_entries_equal(&format!("{mode:?}"), &got.entries, &want);
    }
}

/// The token trips during the second `labels` call, in the up-front
/// scoring of the touched candidates, after the first poll; the next
/// poll is due at candidate 256. A fill that reaches `cap` entries at
/// its floor before then stops with its cluster complete: not a
/// candidate dropped, so nothing for `QueryResult::truncated` to flag
/// on the clustering side, though the budget has expired.
#[test]
fn a_stop_that_beats_a_tripped_budget_leaves_a_complete_cluster() {
    let index = MappedIndex::build(tie_data()).expect("builds");
    let candidates = index.all_path_ids();
    let cases = query_paths(&index, &tie_query("H2", "\"HC\""));
    let mut tripwire = Probe::new(index);
    for (qpaths, ic) in &cases {
        for mode in MODES {
            for cap in [1, 100] {
                let what = format!("ic={ic} {mode:?} cap={cap}");
                let (got, budget) = fill(&mut tripwire, qpaths, mode, cap, Some(2));
                assert!(budget.exceeded().is_some(), "{what}: the token tripped");
                let (want, stop) = oracle(&qpaths[0], &tripwire.inner, &candidates, mode, cap);
                assert!(got.scanned >= stop, "{what}: {stop}");
                assert!(
                    got.scanned < ALIGN_CHECK_INTERVAL,
                    "{what}: {}",
                    got.scanned
                );
                assert_eq!(got.candidates_dropped, 0, "{what}");
                assert_entries_equal(&what, &got.entries, &want);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random data and queries, every retrieval rule: sink lookups,
    /// anchors, full scans, `exhaustive` and capped lists, so the sink
    /// bit is fixed for the list or read per candidate; accepted sets
    /// plain or widened through a thesaurus; uniform, positive and partly
    /// negative weights; caps 1, 2 and 8. Each list is the reference
    /// rule's, which resolves the constants itself.
    #[test]
    fn every_list_fills_to_the_oracle_cut(
        data in arb_dag_triples(8, 14),
        query in arb_constant_mix_query(),
        weights in proptest::collection::vec(0.05f64..6.0, 16),
        signs in proptest::collection::vec(0u8..2, 16),
    ) {
        let index = MappedIndex::build(DataGraph::from_triples(&data).expect("ground")).expect("builds");
        let Ok(query) = QueryGraph::from_triples(&query) else { return Ok(()) };
        let plain = decompose_query(&query, &index, &NoSynonyms, &ExtractionConfig::default());
        let stamp = |negative: bool| {
            let signed: Vec<f64> = weights
                .iter()
                .zip(&signs)
                .map(|(&w, &minus)| if negative && minus == 1 { -w } else { w })
                .collect();
            let mut stamped = plain.clone();
            for q in &mut stamped {
                q.node_weights = Some(signed.iter().cycle().take(q.nodes.len()).copied().collect());
                q.edge_weights = Some(signed.iter().rev().cycle().take(q.edges.len()).copied().collect());
            }
            stamped
        };
        let mut thesaurus = Thesaurus::new();
        thesaurus.group(["n0", "n1", "n2"]);
        let widened = decompose_query(&query, &index, &thesaurus, &ExtractionConfig::default());
        let configs = [
            ClusterConfig::default(),
            ClusterConfig { exhaustive: true, ..Default::default() },
            ClusterConfig { max_candidates: 3, ..Default::default() },
            ClusterConfig { allow_full_scan: false, ..Default::default() },
        ];
        let cases: [(&[QueryPath], &dyn SynonymProvider); 4] = [
            (&plain, &NoSynonyms),
            (&stamp(false), &NoSynonyms),
            (&stamp(true), &NoSynonyms),
            (&widened, &thesaurus),
        ];
        for (qpaths, synonyms) in cases {
            for config in &configs {
                for cap in [1, 2, 8] {
                    for mode in MODES {
                        let config = ClusterConfig { max_cluster_size: cap, ..*config };
                        let clusters = build_clusters(
                            qpaths, &index, &NoSynonyms, &ScoreParams::paper(), mode, &config,
                        );
                        for (q, got) in qpaths.iter().zip(&clusters) {
                            let mut list = reference_candidates(q, &index, synonyms, &config);
                            list.truncate(config.max_candidates);
                            let (want, stop) = oracle(q, &index, &list, mode, cap);
                            let what = format!("{q:?} {config:?} {mode:?}");
                            prop_assert!(got.scanned >= stop && got.scanned <= list.len(), "{}", what);
                            prop_assert!(got.touched <= got.scanned, "{}", what);
                            assert_entries_equal(&what, &got.entries, &want);
                        }
                    }
                }
            }
        }
    }
}
