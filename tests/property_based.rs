//! Property-based tests on the core invariants, spanning crates.

use proptest::prelude::*;
use sama::engine::{
    align, conformity_penalty, conformity_ratio, decompose_query, AlignmentMode, ScoreParams,
};
use sama::index::{extract_paths, ExtractionConfig, NoSynonyms, PathIndex};
use sama::model::{DataGraph, QueryGraph, Term, Triple};

/// A small random ground graph: node ids 0..n, random labelled edges.
fn arb_data_graph() -> impl Strategy<Value = DataGraph> {
    (2usize..10, 1usize..20).prop_flat_map(|(nodes, edges)| {
        proptest::collection::vec((0..nodes, 0..nodes, 0usize..4), 1..=edges).prop_map(
            move |edge_list| {
                let mut b = DataGraph::builder();
                for (s, o, p) in edge_list {
                    b.triple_str(&format!("n{s}"), &format!("p{p}"), &format!("n{o}"))
                        .expect("ground triple");
                }
                b.build()
            },
        )
    })
}

/// Plain-assert body of `alignment_bounds`, shared with the promoted
/// regression tests below so recorded failures survive a cleanup of the
/// proptest-regressions file. Returns `false` when the draw is
/// degenerate (nothing extractable/decomposable to check).
fn check_alignment_bounds(data: &DataGraph, var_mask: u8) -> bool {
    let g = data.as_graph();
    let extraction = extract_paths(g, &ExtractionConfig::default());
    if extraction.paths.is_empty() {
        return false;
    }

    // Build a small query from the first path, with some nodes
    // turned into variables by the mask.
    let p0 = &extraction.paths[0];
    let take = p0.nodes.len().min(3);
    let mut b = QueryGraph::builder();
    let term_for = |i: usize| -> Term {
        if var_mask & (1 << i.min(7)) != 0 {
            Term::var(format!("v{i}"))
        } else {
            g.node_term(p0.nodes[p0.nodes.len() - take + i])
        }
    };
    if take == 1 {
        // Single node: make a 1-edge query to itself via a fresh var.
        b.triple_str("?x", "p0", &g.node_term(p0.nodes[0]).to_string())
            .unwrap();
    } else {
        for i in 0..take - 1 {
            let e = p0.edges[p0.edges.len() + 1 - take + i];
            let s = term_for(i);
            let o = term_for(i + 1);
            let pred = g.vocab().term(g.edge(e).label);
            b.triple(&Triple::new(s, pred, o)).unwrap();
        }
    }
    let q = b.build();
    let qpaths = decompose_query(&q, g.vocab(), &NoSynonyms, &ExtractionConfig::default());
    if qpaths.is_empty() {
        return false;
    }
    let params = ScoreParams::paper();

    for qp in &qpaths {
        for dp in extraction.paths.iter().take(10) {
            let labels = dp.labels(g);
            let greedy = align(qp, labels.view(), &params, AlignmentMode::Greedy);
            let optimal = align(qp, labels.view(), &params, AlignmentMode::Optimal);
            assert!(greedy.lambda >= -1e-12);
            assert!(optimal.lambda >= -1e-12);
            assert!(
                greedy.lambda + 1e-9 >= optimal.lambda,
                "greedy {} < optimal {}",
                greedy.lambda,
                optimal.lambda
            );
            // Witness bound: ops never exceed |p| + |q| units.
            let budget = (labels.len() + qp.len()) as u32 * 2;
            assert!(greedy.counts.total_ops() <= budget);
        }
    }
    true
}

/// Promoted from `property_based.proptest-regressions`
/// (cc 0636…e3b4): proptest once shrank an `alignment_bounds` failure
/// to the single-edge graph `{n0 -p0-> n1}` with no variables. Kept as
/// a named test so the case survives even if the regressions file is
/// cleaned up.
#[test]
fn regression_alignment_bounds_single_edge_no_vars() {
    let mut b = DataGraph::builder();
    b.triple_str("n0", "p0", "n1").unwrap();
    let data = b.build();
    assert!(
        check_alignment_bounds(&data, 0),
        "regression case must be non-degenerate"
    );
}

/// The same shrunk graph swept across every variable mask — the mask
/// was part of the recorded case, so pin all of them.
#[test]
fn regression_alignment_bounds_single_edge_all_masks() {
    for var_mask in 0u8..8 {
        let mut b = DataGraph::builder();
        b.triple_str("n0", "p0", "n1").unwrap();
        check_alignment_bounds(&b.build(), var_mask);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every extracted path starts at an effective source, ends at a
    /// sink or pseudo-sink, and is simple (no repeated nodes).
    #[test]
    fn extraction_invariants(data in arb_data_graph()) {
        let g = data.as_graph();
        let extraction = extract_paths(g, &ExtractionConfig::default());
        let sources = g.effective_sources();
        for p in &extraction.paths {
            prop_assert!(sources.contains(&p.source()));
            // Simplicity.
            let mut nodes = p.nodes.to_vec();
            nodes.sort_unstable();
            nodes.dedup();
            prop_assert_eq!(nodes.len(), p.nodes.len(), "path revisits a node");
            // Consecutive nodes are connected by the listed edges.
            for (i, &e) in p.edges.iter().enumerate() {
                let edge = g.edge(e);
                prop_assert_eq!(edge.from, p.nodes[i]);
                prop_assert_eq!(edge.to, p.nodes[i + 1]);
            }
        }
    }

    /// Alignment never beats the optimal DP, both are non-negative,
    /// and the operation count respects the O(|p|+|q|) witness bound.
    #[test]
    fn alignment_bounds(data in arb_data_graph(), var_mask in 0u8..8) {
        check_alignment_bounds(&data, var_mask);
    }

    /// Conformity: ratio ∈ [0,1]; penalty ≥ 0, zero iff fully
    /// conforming (when χq > 0), and monotone in the deficit.
    #[test]
    fn conformity_properties(chi_q in 0usize..10, chi_p in 0usize..10, e in 0.0f64..4.0) {
        let ratio = conformity_ratio(chi_q, chi_p);
        prop_assert!((0.0..=1.0).contains(&ratio));
        let penalty = conformity_penalty(chi_q, chi_p, e);
        prop_assert!(penalty >= 0.0);
        if chi_q > 0 && chi_p >= chi_q {
            prop_assert_eq!(penalty, 0.0);
        }
        if chi_p < chi_q {
            let worse = conformity_penalty(chi_q, chi_p.saturating_sub(1), e);
            prop_assert!(worse >= penalty);
        }
    }

    /// Theorem 1 (score coherence): adding operations to an alignment
    /// can only increase λ.
    #[test]
    fn lambda_monotone_in_operations(
        base_m in 0u32..4, base_i in 0u32..4, base_me in 0u32..4, base_ie in 0u32..4,
        extra in 1u32..3,
    ) {
        use sama::engine::AlignmentCounts;
        let params = ScoreParams::paper();
        let base = AlignmentCounts {
            nodes_mismatched: base_m,
            nodes_inserted: base_i,
            edges_mismatched: base_me,
            edges_inserted: base_ie,
            nodes_deleted: 0,
            edges_deleted: 0,
        };
        for grow in 0..4 {
            let mut grown = base;
            match grow {
                0 => grown.nodes_mismatched += extra,
                1 => grown.nodes_inserted += extra,
                2 => grown.edges_mismatched += extra,
                _ => grown.edges_inserted += extra,
            }
            prop_assert!(grown.lambda(&params) >= base.lambda(&params));
        }
    }

    /// Storage: encode/decode is the identity on everything observable.
    #[test]
    fn storage_roundtrip(data in arb_data_graph()) {
        let index = PathIndex::build(data);
        let bytes = sama::index::encode_v2(&index).expect("index fits format");
        let loaded = sama::index::decode_v2(&bytes).expect("decodes");
        prop_assert_eq!(loaded.path_count(), index.path_count());
        prop_assert_eq!(
            loaded.graph().as_graph().to_sorted_lines(),
            index.graph().as_graph().to_sorted_lines()
        );
        for (id, ip) in index.paths() {
            prop_assert_eq!(loaded.path(id), ip);
        }
    }

    /// Top-k emission is monotone and a prefix of top-(k+5), on random
    /// graphs with a fixed small query.
    #[test]
    fn topk_monotone_prefix(data in arb_data_graph()) {
        use sama::engine::SamaEngine;
        prop_assume!(data.edge_count() >= 2);
        let engine = SamaEngine::new(data);
        let mut b = QueryGraph::builder();
        b.triple_str("?x", "p0", "?y").unwrap();
        b.triple_str("?y", "p1", "?z").unwrap();
        let q = b.build();
        let small = engine.answer(&q, 5);
        let large = engine.answer(&q, 10);
        if !small.truncated && !large.truncated {
            for w in large.answers.windows(2) {
                prop_assert!(w[0].score() <= w[1].score() + 1e-12);
            }
            for (a, b) in small.answers.iter().zip(large.answers.iter()) {
                prop_assert!((a.score() - b.score()).abs() < 1e-12);
            }
        }
    }
}
