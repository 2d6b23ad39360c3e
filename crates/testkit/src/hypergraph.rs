//! A hypergraph view of the indexed data (paper, Section 6.1).
//!
//! The paper stores its index in HyperGraphDB: `H = (X, E)` where `X` is
//! the set of vertices and `E` a set of hyperedges (non-empty subsets of
//! `X`). Figure 5 shows data elements grouped into hyperedges per star
//! neighborhood, and the indexed source→sink paths are kept as
//! hyperedges as well, so Table 1 reports `|HE|` both below and far
//! above `|HV|` depending on the dataset's path multiplicity.
//!
//! We reproduce that accounting: one hyperedge per *non-trivial star*
//! (a node together with its out-neighbors) plus one hyperedge per
//! *indexed path* (the node set of the path). `|HV|` is the number of
//! graph nodes.
//!
//! The index build (`path_index::PathIndex`) counts `|HV|` and `|HE|`
//! without materializing this view (a star per node with
//! out-neighbours, plus the paths); the view spells the hyperedges out,
//! for the [`crate::reference_image`] builder and for a test here that
//! holds the two counts equal.

use path_index::Path;
use rdf_model::{Graph, NodeId};

/// A hyperedge: a non-empty set of vertices (sorted, deduplicated).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HyperEdge {
    /// Member vertices, sorted ascending.
    pub members: Box<[NodeId]>,
    /// What this hyperedge represents.
    pub kind: HyperEdgeKind,
}

/// The origin of a hyperedge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HyperEdgeKind {
    /// A node and its out-neighborhood (Figure 5's `e1`, `e2`, `e3`).
    Star,
    /// The node set of one indexed source→sink path.
    Path,
}

impl HyperEdge {
    fn from_members(mut members: Vec<NodeId>, kind: HyperEdgeKind) -> Self {
        members.sort_unstable();
        members.dedup();
        debug_assert!(!members.is_empty());
        HyperEdge {
            members: members.into_boxed_slice(),
            kind,
        }
    }
}

/// The hypergraph view: vertices are the graph's nodes, hyperedges are
/// stars and paths.
#[derive(Debug, Clone, Default)]
pub struct HyperGraphView {
    /// Number of vertices (`|HV|` in Table 1).
    pub vertex_count: usize,
    /// All hyperedges (`|HE|` = `edges.len()` in Table 1).
    pub edges: Vec<HyperEdge>,
}

impl HyperGraphView {
    /// Build the view for `graph` with `paths` as the indexed paths.
    pub fn build(graph: &Graph, paths: &[Path]) -> Self {
        let mut edges = Vec::with_capacity(graph.node_count() + paths.len());
        for n in graph.nodes() {
            let outs = graph.out_edges(n);
            if outs.is_empty() {
                continue;
            }
            let mut members = Vec::with_capacity(outs.len() + 1);
            members.push(n);
            members.extend(outs.iter().map(|&e| graph.edge(e).to));
            edges.push(HyperEdge::from_members(members, HyperEdgeKind::Star));
        }
        for p in paths {
            edges.push(HyperEdge::from_members(
                p.nodes.to_vec(),
                HyperEdgeKind::Path,
            ));
        }
        HyperGraphView {
            vertex_count: graph.node_count(),
            edges,
        }
    }

    /// `|HE|`: total hyperedge count.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of star hyperedges.
    pub fn star_count(&self) -> usize {
        self.edges
            .iter()
            .filter(|e| e.kind == HyperEdgeKind::Star)
            .count()
    }

    /// Number of path hyperedges.
    pub fn path_count(&self) -> usize {
        self.edges
            .iter()
            .filter(|e| e.kind == HyperEdgeKind::Path)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use path_index::{extract_paths, ExtractionConfig, PathIndex};
    use rdf_model::{DataGraph, Term};

    fn sample() -> (Graph, Vec<Path>) {
        let mut b = DataGraph::builder();
        b.triple_str("a", "p", "b").unwrap();
        b.triple_str("a", "p", "c").unwrap();
        b.triple_str("b", "q", "d").unwrap();
        let g = b.build().as_graph().clone();
        let paths = extract_paths(&g, &ExtractionConfig::default()).paths;
        (g, paths)
    }

    #[test]
    fn counts() {
        let (g, paths) = sample();
        let hv = HyperGraphView::build(&g, &paths);
        assert_eq!(hv.vertex_count, 4);
        // Stars: a→{b,c}, b→{d}. Paths: a-b-d, a-c.
        assert_eq!(hv.star_count(), 2);
        assert_eq!(hv.path_count(), 2);
        assert_eq!(hv.edge_count(), 4);
    }

    #[test]
    fn star_members_sorted_unique() {
        let (g, paths) = sample();
        let hv = HyperGraphView::build(&g, &paths);
        for e in &hv.edges {
            let mut sorted = e.members.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.as_slice(), &*e.members);
        }
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new();
        let hv = HyperGraphView::build(&g, &[]);
        assert_eq!(hv.vertex_count, 0);
        assert_eq!(hv.edge_count(), 0);
    }

    #[test]
    fn hyper_counts_match_the_hypergraph_view() {
        let mut b = DataGraph::builder();
        for (s, p, o) in [
            ("a", "p", "b"),
            ("a", "p", "c"),
            ("b", "q", "d"),
            ("c", "q", "a"),
        ] {
            b.triple_str(s, p, o).unwrap();
        }
        b.node(&Term::iri("lonely")).unwrap();
        let idx = PathIndex::build(b.build());
        let g = idx.graph().as_graph();
        let view = HyperGraphView::build(g, &extract_paths(g, &ExtractionConfig::default()).paths);
        assert_eq!(idx.stats().hyper_vertices, view.vertex_count);
        assert_eq!(idx.stats().hyper_edges, view.edge_count());
    }
}
