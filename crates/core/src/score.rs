//! The scoring function `score = Λ + Ψ` (paper, Section 4.1).
//!
//! `Λ(a, Q) = Σ_{q ∈ Q} λ(p_q, q)` — alignment quality, computed in
//! [`mod@crate::align`] — measures how well each retrieved path aligns with
//! its query path. `Ψ(a, Q)` — *conformity* — measures how well the
//! retrieved paths *combine* like the query paths do, through the
//! common-node function `χ`.
//!
//! ## A note on the paper's ψ
//!
//! The paper displays `ψ(q_i, q_j, p_i, p_j)` as a ratio (its Figure 4
//! forest labels are `1` for a perfectly conforming pair and `0.5` when
//! the data paths share one node where the query paths share two), and
//! for the disjoint case sets `ψ = e·|χ(q_i,q_j)|`. Read as a bonus the
//! ratio contradicts Theorem 1 (lower score must mean better answer);
//! read as a *deficit penalty* the two cases unify exactly:
//!
//! ```text
//! penalty = e · ( |χ(q_i,q_j)| − min(|χ(p_i,p_j)|, |χ(q_i,q_j)|) )
//! ```
//!
//! which is `0` for full conformity and degrades continuously to the
//! paper's `e·|χ(q_i,q_j)|` at `|χ(p_i,p_j)| = 0`. We therefore keep
//! both: [`conformity_ratio`] reproduces the paper's displayed labels,
//! and [`conformity_penalty`] is the `Ψ` contribution to `score`
//! (DESIGN.md §2 documents this as a soundness fix).

use crate::params::ScoreParams;
use path_index::Path;
use rdf_model::{FxHashSet, NodeId};

/// Below this `len(p1) · len(p2)` product a quadratic scan beats
/// building a hash set (paths are short — typically 2–6 nodes — so
/// this covers almost every real pair).
const CHI_SMALL_PRODUCT: usize = 64;

/// `χ`: the set of nodes two paths have in common (paper, Section 4.1).
pub fn chi(p1: &Path, p2: &Path) -> Vec<NodeId> {
    let (a, b) = if p1.nodes.len() <= p2.nodes.len() {
        (&p1.nodes, &p2.nodes)
    } else {
        (&p2.nodes, &p1.nodes)
    };
    // Fast path: a single-node path intersects by membership alone.
    if a.len() == 1 {
        return if b.contains(&a[0]) {
            vec![a[0]]
        } else {
            Vec::new()
        };
    }
    let mut out: Vec<NodeId> = if a.len() * b.len() <= CHI_SMALL_PRODUCT {
        // Fast path: quadratic scan without hashing.
        a.iter().copied().filter(|n| b.contains(n)).collect()
    } else {
        let smaller: FxHashSet<NodeId> = a.iter().copied().collect();
        b.iter().copied().filter(|n| smaller.contains(n)).collect()
    };
    out.sort_unstable();
    out.dedup();
    out
}

/// `|χ|` without materializing the set.
pub fn chi_count(p1: &Path, p2: &Path) -> usize {
    // Fast path: single-node paths need no allocation at all.
    let (a, b) = if p1.nodes.len() <= p2.nodes.len() {
        (&p1.nodes, &p2.nodes)
    } else {
        (&p2.nodes, &p1.nodes)
    };
    if a.len() == 1 {
        return usize::from(b.contains(&a[0]));
    }
    chi(p1, p2).len()
}

/// `χ` over pre-sorted, deduplicated node-id slices (what the
/// combination search holds for the paths it combines): a linear
/// merge-intersection with no hashing, sorting, or deduplication.
pub fn chi_sorted(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    merge_intersect(a, b, |n| out.push(n));
    out
}

/// `|χ|` over pre-sorted, deduplicated node-id slices, allocation-free.
pub fn chi_count_sorted(a: &[NodeId], b: &[NodeId]) -> usize {
    let mut count = 0usize;
    merge_intersect(a, b, |_| count += 1);
    count
}

/// Linear merge over two sorted deduplicated slices, invoking `emit`
/// for each common element in ascending order.
#[inline]
fn merge_intersect(a: &[NodeId], b: &[NodeId], mut emit: impl FnMut(NodeId)) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                emit(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// The paper's displayed ψ ratio: `|χ(p_i,p_j)| / |χ(q_i,q_j)|`, capped
/// at 1. When the query paths share no nodes the ratio is defined as 1
/// if the data paths share none either (vacuous conformity), else 0.
pub fn conformity_ratio(chi_q: usize, chi_p: usize) -> f64 {
    if chi_q == 0 {
        if chi_p == 0 {
            1.0
        } else {
            0.0
        }
    } else {
        (chi_p.min(chi_q) as f64) / (chi_q as f64)
    }
}

/// The `Ψ` deficit penalty for one pair:
/// `e·(|χ(q_i,q_j)| − min(|χ(p_i,p_j)|, |χ(q_i,q_j)|))`.
///
/// Zero for full conformity; `e·|χ(q_i,q_j)|` when the data paths are
/// disjoint (the paper's own value for that case). Pairs of query paths
/// that share no nodes contribute nothing, following the paper.
pub fn conformity_penalty(chi_q: usize, chi_p: usize, e: f64) -> f64 {
    e * (chi_q.saturating_sub(chi_p.min(chi_q)) as f64)
}

/// Conformity of one pair in an answer, with all its ingredients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairConformity {
    /// Index of the first query path in `PQ`.
    pub qi: usize,
    /// Index of the second query path in `PQ`.
    pub qj: usize,
    /// `|χ(q_i, q_j)|` — shared query nodes.
    pub chi_q: usize,
    /// `|χ(p_i, p_j)|` — shared data nodes of the chosen paths.
    pub chi_p: usize,
    /// The paper's displayed ψ ratio.
    pub ratio: f64,
    /// The Ψ penalty contribution.
    pub penalty: f64,
}

impl PairConformity {
    /// Evaluate a pair under weight `e`.
    pub fn evaluate(qi: usize, qj: usize, chi_q: usize, chi_p: usize, e: f64) -> Self {
        PairConformity {
            qi,
            qj,
            chi_q,
            chi_p,
            ratio: conformity_ratio(chi_q, chi_p),
            penalty: conformity_penalty(chi_q, chi_p, e),
        }
    }
}

/// Cost of leaving a query path entirely uncovered (its cluster is
/// empty): delete all `k` nodes and `k-1` edges.
pub fn deletion_lambda(path_node_count: usize, params: &ScoreParams) -> f64 {
    params.del_node * path_node_count as f64
        + params.del_edge * path_node_count.saturating_sub(1) as f64
}

/// A fully-evaluated score with its two components.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreBreakdown {
    /// `Λ`: sum of per-path alignment qualities (plus deletion costs for
    /// uncovered query paths).
    pub lambda_total: f64,
    /// `Ψ`: sum of pair conformity penalties.
    pub psi_total: f64,
    /// Per-pair detail (for explanation output and the Figure 4 forest).
    pub pairs: Vec<PairConformity>,
}

impl ScoreBreakdown {
    /// `score = Λ + Ψ` (lower is better).
    pub fn score(&self) -> f64 {
        self.lambda_total + self.psi_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(nodes: &[u32]) -> Path {
        let nodes: Vec<NodeId> = nodes.iter().map(|&n| NodeId(n)).collect();
        // Edge ids are irrelevant for χ; fabricate consecutive ids.
        let edges = (0..nodes.len().saturating_sub(1) as u32)
            .map(rdf_model::EdgeId)
            .collect();
        Path::new(nodes, edges)
    }

    #[test]
    fn chi_is_symmetric_common_nodes() {
        let p1 = path(&[1, 2, 3, 4]);
        let p2 = path(&[9, 3, 4]);
        assert_eq!(chi(&p1, &p2), vec![NodeId(3), NodeId(4)]);
        assert_eq!(chi(&p2, &p1), vec![NodeId(3), NodeId(4)]);
        assert_eq!(chi_count(&p1, &p2), 2);
    }

    #[test]
    fn chi_disjoint() {
        assert_eq!(chi_count(&path(&[1, 2]), &path(&[3, 4])), 0);
    }

    #[test]
    fn chi_single_node_fast_path() {
        assert_eq!(chi(&path(&[3]), &path(&[1, 2, 3])), vec![NodeId(3)]);
        assert_eq!(chi(&path(&[9]), &path(&[1, 2, 3])), vec![]);
        assert_eq!(chi_count(&path(&[3]), &path(&[1, 2, 3])), 1);
        assert_eq!(chi_count(&path(&[1, 2, 3]), &path(&[9])), 0);
        assert_eq!(chi(&path(&[7]), &path(&[7])), vec![NodeId(7)]);
    }

    #[test]
    fn chi_large_paths_use_hash_path() {
        // Two paths long enough to exceed the small-product cutoff.
        let a: Vec<u32> = (0..20).collect();
        let b: Vec<u32> = (15..40).collect();
        let common = chi(&path(&a), &path(&b));
        assert_eq!(
            common,
            (15..20).map(NodeId).collect::<Vec<_>>(),
            "hash and scan paths must agree"
        );
    }

    fn sorted(nodes: &[u32]) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = nodes.iter().map(|&n| NodeId(n)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn chi_sorted_matches_chi() {
        let cases: &[(&[u32], &[u32])] = &[
            (&[1, 2, 3, 4], &[9, 3, 4]),
            (&[1, 2], &[3, 4]),
            (&[5], &[5]),
            (&[7, 1, 7], &[7, 2]),
            (&[1, 2, 3], &[1, 2, 3]),
        ];
        for &(n1, n2) in cases {
            let p1 = path(n1);
            let p2 = path(n2);
            let expected = chi(&p1, &p2);
            assert_eq!(chi_sorted(&sorted(n1), &sorted(n2)), expected);
            assert_eq!(chi_count_sorted(&sorted(n1), &sorted(n2)), expected.len());
            // Symmetry.
            assert_eq!(chi_sorted(&sorted(n2), &sorted(n1)), expected);
        }
    }

    #[test]
    fn ratio_paper_values() {
        // Figure 4: ψ(q2,q1,p10,p1) = 1, ψ(q2,q1,p7,p1) = 0.5.
        assert_eq!(conformity_ratio(2, 2), 1.0);
        assert_eq!(conformity_ratio(2, 1), 0.5);
    }

    #[test]
    fn ratio_edge_cases() {
        assert_eq!(conformity_ratio(0, 0), 1.0);
        assert_eq!(conformity_ratio(0, 3), 0.0);
        // Surplus sharing is capped: ratio never exceeds 1.
        assert_eq!(conformity_ratio(1, 5), 1.0);
    }

    #[test]
    fn penalty_matches_paper_disjoint_case() {
        // Paper: ψ = e·|χ(q_i,q_j)| when |χ(p_i,p_j)| = 0.
        assert_eq!(conformity_penalty(2, 0, 1.0), 2.0);
        assert_eq!(conformity_penalty(2, 0, 0.5), 1.0);
    }

    #[test]
    fn penalty_zero_for_full_conformity() {
        assert_eq!(conformity_penalty(2, 2, 1.0), 0.0);
        assert_eq!(conformity_penalty(2, 5, 1.0), 0.0);
        assert_eq!(conformity_penalty(0, 0, 1.0), 0.0);
        assert_eq!(conformity_penalty(0, 4, 1.0), 0.0); // paper: no cost
    }

    #[test]
    fn penalty_partial() {
        assert_eq!(conformity_penalty(2, 1, 1.0), 1.0);
        assert_eq!(conformity_penalty(3, 1, 2.0), 4.0);
    }

    #[test]
    fn deletion_cost() {
        let params = ScoreParams::paper();
        // 3 nodes + 2 edges at del_node=1, del_edge=2 → 3 + 4 = 7.
        assert_eq!(deletion_lambda(3, &params), 7.0);
        assert_eq!(deletion_lambda(1, &params), 1.0);
    }

    #[test]
    fn breakdown_sums() {
        let b = ScoreBreakdown {
            lambda_total: 1.5,
            psi_total: 2.0,
            pairs: vec![],
        };
        assert_eq!(b.score(), 3.5);
    }

    #[test]
    fn pair_evaluate() {
        let p = PairConformity::evaluate(0, 1, 2, 1, 1.0);
        assert_eq!(p.ratio, 0.5);
        assert_eq!(p.penalty, 1.0);
    }
}
