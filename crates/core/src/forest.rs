//! The combination forest (paper, Section 5, Figure 4).
//!
//! "Organizing the combinations of paths in a forest where nodes
//! represent the retrieved paths, while edges between paths means that
//! they have nodes in common. The label of each edge (p_i, p_j) is
//! ⟨(q_i, q_j): [ψ(q_i, q_j, p_i, p_j)]⟩."
//!
//! The forest is an explanatory structure: it shows, for the best
//! cluster entries, which combinations conform (solid edges, ψ ratio 1)
//! and which only partially conform (the paper draws those dashed).

use crate::cluster::Cluster;
use crate::igraph::IntersectionGraph;
use crate::score::conformity_ratio;
use crate::search::ChiSets;
use path_index::{display_path, IndexLike, PathId};
use std::fmt;

/// A node of the forest: one candidate path of one cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForestNode {
    /// Cluster (= query path) index.
    pub cluster: usize,
    /// Rank of the entry within its cluster (0 = best λ).
    pub rank: usize,
    /// The data path.
    pub path_id: PathId,
    /// The entry's alignment quality.
    pub lambda_bits: u64,
}

impl ForestNode {
    /// The entry's λ.
    pub fn lambda(&self) -> f64 {
        f64::from_bits(self.lambda_bits)
    }
}

/// An edge of the forest, labelled as in Figure 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestEdge {
    /// Index of the first node in [`PathForest::nodes`].
    pub a: usize,
    /// Index of the second node.
    pub b: usize,
    /// The query-path pair this edge certifies, `(q_i, q_j)`.
    pub qpair: (usize, usize),
    /// `ψ` ratio: 1 = full conformity (drawn solid in the paper),
    /// anything lower is "dashed".
    pub ratio: f64,
}

impl ForestEdge {
    /// `true` if this edge is drawn solid (ratio 1).
    pub fn is_solid(&self) -> bool {
        self.ratio >= 1.0
    }
}

/// The combination forest over the best `width` entries of each cluster.
#[derive(Debug, Clone, Default)]
pub struct PathForest {
    /// All candidate nodes, grouped by cluster then rank.
    pub nodes: Vec<ForestNode>,
    /// ψ-labelled edges between candidates of IG-adjacent clusters that
    /// share at least one data node.
    pub edges: Vec<ForestEdge>,
}

impl PathForest {
    /// Build a forest over the `width` best entries of each cluster.
    pub fn build<I: IndexLike>(
        clusters: &[Cluster],
        ig: &IntersectionGraph,
        index: &I,
        width: usize,
    ) -> Self {
        let mut nodes = Vec::new();
        for (ci, cluster) in clusters.iter().enumerate() {
            for (rank, entry) in cluster.entries.iter().take(width).enumerate() {
                nodes.push(ForestNode {
                    cluster: ci,
                    rank,
                    path_id: entry.path_id,
                    lambda_bits: entry.lambda().to_bits(),
                });
            }
        }
        let sets = ChiSets::build(clusters, ig, index);
        let mut edges = Vec::new();
        for edge in &ig.edges {
            for (ai, a) in nodes.iter().enumerate() {
                if a.cluster != edge.qi {
                    continue;
                }
                for (bi, b) in nodes.iter().enumerate() {
                    if b.cluster != edge.qj {
                        continue;
                    }
                    let chi_p = sets.chi((a.cluster, a.rank as u32), (b.cluster, b.rank as u32));
                    if chi_p == 0 {
                        continue; // no shared nodes: no forest edge
                    }
                    edges.push(ForestEdge {
                        a: ai,
                        b: bi,
                        qpair: (edge.qi, edge.qj),
                        ratio: conformity_ratio(edge.chi_q(), chi_p),
                    });
                }
            }
        }
        PathForest { nodes, edges }
    }

    /// Number of solid (fully conforming) edges.
    pub fn solid_edge_count(&self) -> usize {
        self.edges.iter().filter(|e| e.is_solid()).count()
    }

    /// Render the forest against an index (paths in display form).
    pub fn display<'a, I: IndexLike>(&'a self, index: &'a I) -> ForestDisplay<'a, I> {
        ForestDisplay {
            forest: self,
            index,
        }
    }
}

/// `Display` adapter for [`PathForest`].
pub struct ForestDisplay<'a, I> {
    forest: &'a PathForest,
    index: &'a I,
}

impl<I: IndexLike> fmt::Display for ForestDisplay<'_, I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, n) in self.forest.nodes.iter().enumerate() {
            writeln!(
                f,
                "[{i}] cluster q{} rank {}: {} (λ={})",
                n.cluster,
                n.rank,
                display_path(self.index, n.path_id),
                n.lambda()
            )?;
        }
        for e in &self.forest.edges {
            writeln!(
                f,
                "({}, {}) (q{}, q{}): [{}]{}",
                e.a,
                e.b,
                e.qpair.0,
                e.qpair.1,
                e.ratio,
                if e.is_solid() { "" } else { " (dashed)" }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::AlignmentMode;
    use crate::cluster::{build_clusters, ClusterConfig};
    use crate::params::ScoreParams;
    use crate::qpath::decompose_query;
    use path_index::{ExtractionConfig, NoSynonyms};
    use rdf_model::{DataGraph, QueryGraph};

    fn setup() -> (path_index::MappedIndex, Vec<crate::qpath::QueryPath>) {
        let mut b = DataGraph::builder();
        for (person, amendment, bill) in [("CB", "A0056", "B1432"), ("JR", "A1589", "B0532")] {
            b.triple_str(person, "sponsor", amendment).unwrap();
            b.triple_str(amendment, "aTo", bill).unwrap();
            b.triple_str(bill, "subject", "\"HC\"").unwrap();
        }
        for (person, bill) in [("JR", "B0045"), ("PD", "B1432")] {
            b.triple_str(person, "sponsor", bill).unwrap();
            b.triple_str(bill, "subject", "\"HC\"").unwrap();
        }
        for person in ["JR", "PD"] {
            b.triple_str(person, "gender", "\"Male\"").unwrap();
        }
        let index = path_index::MappedIndex::build(b.build()).unwrap();

        let mut qb = QueryGraph::builder();
        qb.triple_str("CB", "sponsor", "?v1").unwrap();
        qb.triple_str("?v1", "aTo", "?v2").unwrap();
        qb.triple_str("?v2", "subject", "\"HC\"").unwrap();
        qb.triple_str("?v3", "sponsor", "?v2").unwrap();
        qb.triple_str("?v3", "gender", "\"Male\"").unwrap();
        let q = qb.build();
        let qpaths = decompose_query(&q, &index, &NoSynonyms, &ExtractionConfig::default());
        (index, qpaths)
    }

    #[test]
    fn forest_has_solid_and_dashed_edges() {
        let (index, qpaths) = setup();
        let ig = IntersectionGraph::build(&qpaths);
        let clusters = build_clusters(
            &qpaths,
            &index,
            &NoSynonyms,
            &ScoreParams::paper(),
            AlignmentMode::Greedy,
            &ClusterConfig::default(),
        );
        let forest = PathForest::build(&clusters, &ig, &index, 4);
        assert!(!forest.nodes.is_empty());
        assert!(!forest.edges.is_empty());
        // Figure 4 shows both ratio-1 (solid) and ratio-0.5 (dashed)
        // edges; our fragment reproduces both kinds.
        assert!(forest.solid_edge_count() > 0);
        assert!(forest.edges.iter().any(|e| !e.is_solid()));
        let ratios: Vec<f64> = forest.edges.iter().map(|e| e.ratio).collect();
        assert!(ratios.iter().any(|&r| (r - 0.5).abs() < 1e-12));
    }

    #[test]
    fn display_renders() {
        let (index, qpaths) = setup();
        let ig = IntersectionGraph::build(&qpaths);
        let clusters = build_clusters(
            &qpaths,
            &index,
            &NoSynonyms,
            &ScoreParams::paper(),
            AlignmentMode::Greedy,
            &ClusterConfig::default(),
        );
        let forest = PathForest::build(&clusters, &ig, &index, 2);
        let text = forest.display(&index).to_string();
        assert!(text.contains("cluster q0"));
        assert!(text.contains('λ'));
    }

    #[test]
    fn width_bounds_nodes() {
        let (index, qpaths) = setup();
        let ig = IntersectionGraph::build(&qpaths);
        let clusters = build_clusters(
            &qpaths,
            &index,
            &NoSynonyms,
            &ScoreParams::paper(),
            AlignmentMode::Greedy,
            &ClusterConfig::default(),
        );
        let forest = PathForest::build(&clusters, &ig, &index, 1);
        assert!(forest.nodes.len() <= clusters.len());
    }
}
