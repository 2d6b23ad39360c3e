//! The labelled directed graph underlying both data and query graphs
//! (paper, Definitions 1 and 2).
//!
//! A [`Graph`] stores interned node labels, labelled edges, and both
//! adjacency directions. It is the common substrate: [`crate::DataGraph`]
//! restricts labels to constants, [`crate::QueryGraph`] additionally
//! permits variables.

use crate::error::{RdfError, Result};
use crate::interner::{LabelId, Vocabulary};
use crate::term::Term;
use std::fmt;

/// Identifier of a node within one [`Graph`]. Dense, starting at zero.
///
/// `repr(transparent)` over `u32` is a stability guarantee relied on by
/// zero-copy deserializers (`path-index`'s mmap view casts mapped
/// little-endian `u32` arrays directly to id slices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize`, for indexing side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an edge within one [`Graph`]. Dense, starting at zero.
///
/// `repr(transparent)` over `u32`: see [`NodeId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The id as a `usize`, for indexing side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A directed labelled edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
    /// Interned edge label (an IRI, or a variable in query graphs).
    pub label: LabelId,
}

/// A labelled directed multigraph with interned labels and dual adjacency.
#[derive(Debug, Default, Clone)]
pub struct Graph {
    vocab: Vocabulary,
    node_labels: Vec<LabelId>,
    edges: Vec<Edge>,
    out_adj: Vec<Vec<EdgeId>>,
    in_adj: Vec<Vec<EdgeId>>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty graph with room for `nodes` nodes and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Graph {
            vocab: Vocabulary::new(),
            node_labels: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            out_adj: Vec::with_capacity(nodes),
            in_adj: Vec::with_capacity(nodes),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_labels.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The label vocabulary of this graph.
    #[inline]
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Mutable access to the vocabulary (used by builders to pre-intern).
    #[inline]
    pub fn vocab_mut(&mut self) -> &mut Vocabulary {
        &mut self.vocab
    }

    /// Add a node labelled by `term`, always creating a fresh node even if
    /// another node carries the same label.
    pub fn add_node(&mut self, term: &Term) -> Result<NodeId> {
        let label = self.vocab.intern(term);
        self.add_node_with_label(label)
    }

    /// Add a fresh node with an already-interned label.
    pub fn add_node_with_label(&mut self, label: LabelId) -> Result<NodeId> {
        if self.node_labels.len() > u32::MAX as usize - 1 {
            return Err(RdfError::CapacityExceeded("nodes"));
        }
        let id = NodeId(self.node_labels.len() as u32);
        self.node_labels.push(label);
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        Ok(id)
    }

    /// Add a directed edge `from --term--> to`.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, term: &Term) -> Result<EdgeId> {
        let label = self.vocab.intern(term);
        self.add_edge_with_label(from, to, label)
    }

    /// Add a directed edge with an already-interned label.
    pub fn add_edge_with_label(
        &mut self,
        from: NodeId,
        to: NodeId,
        label: LabelId,
    ) -> Result<EdgeId> {
        self.check_node(from)?;
        self.check_node(to)?;
        if self.edges.len() > u32::MAX as usize - 1 {
            return Err(RdfError::CapacityExceeded("edges"));
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { from, to, label });
        self.out_adj[from.index()].push(id);
        self.in_adj[to.index()].push(id);
        Ok(id)
    }

    #[inline]
    fn check_node(&self, n: NodeId) -> Result<()> {
        if n.index() < self.node_labels.len() {
            Ok(())
        } else {
            Err(RdfError::UnknownNode(n.0))
        }
    }

    /// The interned label of a node.
    ///
    /// # Panics
    /// Panics if `n` is out of range; use ids obtained from this graph.
    #[inline]
    pub fn node_label(&self, n: NodeId) -> LabelId {
        self.node_labels[n.index()]
    }

    /// The interned label of every node, by node id.
    #[inline]
    pub fn node_labels(&self) -> &[LabelId] {
        &self.node_labels
    }

    /// The owned [`Term`] labelling a node.
    pub fn node_term(&self, n: NodeId) -> Term {
        self.vocab.term(self.node_label(n))
    }

    /// The edge record for an id.
    ///
    /// # Panics
    /// Panics if `e` is out of range; use ids obtained from this graph.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e.index()]
    }

    /// The owned [`Term`] labelling an edge.
    pub fn edge_term(&self, e: EdgeId) -> Term {
        self.vocab.term(self.edge(e).label)
    }

    /// Outgoing edge ids of `n`, in insertion order.
    #[inline]
    pub fn out_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.out_adj[n.index()]
    }

    /// Incoming edge ids of `n`, in insertion order.
    #[inline]
    pub fn in_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.in_adj[n.index()]
    }

    /// Number of outgoing edges of `n`.
    #[inline]
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.out_adj[n.index()].len()
    }

    /// Number of incoming edges of `n`.
    #[inline]
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.in_adj[n.index()].len()
    }

    /// Iterate over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_labels.len() as u32).map(NodeId)
    }

    /// Iterate over all `(EdgeId, Edge)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, &e)| (EdgeId(i as u32), e))
    }

    /// *Sources*: nodes with no incoming edges (paper, Section 3.2).
    ///
    /// Isolated nodes qualify — they decompose into single-node paths.
    pub fn sources(&self) -> Vec<NodeId> {
        self.nodes().filter(|&n| self.in_degree(n) == 0).collect()
    }

    /// *Sinks*: nodes with no outgoing edges (paper, Section 3.2).
    pub fn sinks(&self) -> Vec<NodeId> {
        self.nodes().filter(|&n| self.out_degree(n) == 0).collect()
    }

    /// *Hubs*: nodes maximizing `out_degree - in_degree` (paper, Section
    /// 3.2). Promoted to act as sources when the graph has none (e.g. a
    /// cycle). Empty only for the empty graph.
    pub fn hubs(&self) -> Vec<NodeId> {
        let best = self
            .nodes()
            .map(|n| self.out_degree(n) as i64 - self.in_degree(n) as i64)
            .max();
        match best {
            None => Vec::new(),
            Some(best) => self
                .nodes()
                .filter(|&n| self.out_degree(n) as i64 - self.in_degree(n) as i64 == best)
                .collect(),
        }
    }

    /// The starting points for path navigation: [`Graph::sources`] when
    /// present, otherwise [`Graph::hubs`].
    pub fn effective_sources(&self) -> Vec<NodeId> {
        let sources = self.sources();
        if sources.is_empty() {
            self.hubs()
        } else {
            sources
        }
    }

    /// Build the subgraph induced by a set of edges (the union of their
    /// endpoints plus the edges themselves). Node and edge labels are
    /// re-interned into a fresh vocabulary. Used to assemble answers.
    ///
    /// Returns the subgraph together with the mapping from original node
    /// ids to subgraph node ids.
    pub fn subgraph_from_edges(&self, edge_ids: &[EdgeId]) -> (Graph, Vec<(NodeId, NodeId)>) {
        let mut sub = Graph::new();
        let mut mapping: Vec<(NodeId, NodeId)> = Vec::new();
        let map_node =
            |graph: &Graph, sub: &mut Graph, mapping: &mut Vec<(NodeId, NodeId)>, n: NodeId| {
                if let Some(&(_, mapped)) = mapping.iter().find(|&&(orig, _)| orig == n) {
                    return mapped;
                }
                let term = graph.node_term(n);
                let mapped = sub
                    .add_node(&term)
                    .expect("subgraph cannot exceed parent capacity");
                mapping.push((n, mapped));
                mapped
            };
        for &e in edge_ids {
            let edge = self.edge(e);
            let from = map_node(self, &mut sub, &mut mapping, edge.from);
            let to = map_node(self, &mut sub, &mut mapping, edge.to);
            let term = self.edge_term(e);
            sub.add_edge(from, to, &term)
                .expect("subgraph cannot exceed parent capacity");
        }
        (sub, mapping)
    }

    /// Render as sorted N-Triples-style lines (stable across label ids),
    /// mainly for tests and debugging.
    pub fn to_sorted_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .edges()
            .map(|(_, e)| {
                format!(
                    "{} {} {}",
                    self.vocab.term(self.node_label(e.from)),
                    self.vocab.term(e.label),
                    self.vocab.term(self.node_label(e.to)),
                )
            })
            .collect();
        lines.sort();
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `a --p--> b --q--> c`, plus isolated `d`.
    fn chain() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let a = g.add_node(&Term::iri("a")).unwrap();
        let b = g.add_node(&Term::iri("b")).unwrap();
        let c = g.add_node(&Term::iri("c")).unwrap();
        let d = g.add_node(&Term::iri("d")).unwrap();
        g.add_edge(a, b, &Term::iri("p")).unwrap();
        g.add_edge(b, c, &Term::iri("q")).unwrap();
        (g, vec![a, b, c, d])
    }

    #[test]
    fn counts_and_degrees() {
        let (g, n) = chain();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_degree(n[0]), 1);
        assert_eq!(g.in_degree(n[0]), 0);
        assert_eq!(g.out_degree(n[1]), 1);
        assert_eq!(g.in_degree(n[1]), 1);
        assert_eq!(g.out_degree(n[3]), 0);
        assert_eq!(g.in_degree(n[3]), 0);
    }

    #[test]
    fn sources_and_sinks() {
        let (g, n) = chain();
        assert_eq!(g.sources(), vec![n[0], n[3]]);
        assert_eq!(g.sinks(), vec![n[2], n[3]]);
        assert_eq!(g.effective_sources(), vec![n[0], n[3]]);
    }

    #[test]
    fn hubs_promoted_on_cycle() {
        // a → b → c → a, plus extra out-edge a → d makes `a` the hub.
        let mut g = Graph::new();
        let a = g.add_node(&Term::iri("a")).unwrap();
        let b = g.add_node(&Term::iri("b")).unwrap();
        let c = g.add_node(&Term::iri("c")).unwrap();
        let d = g.add_node(&Term::iri("d")).unwrap();
        let p = Term::iri("p");
        g.add_edge(a, b, &p).unwrap();
        g.add_edge(b, c, &p).unwrap();
        g.add_edge(c, a, &p).unwrap();
        g.add_edge(a, d, &p).unwrap(); // a: out 2 / in 1 → the unique hub
        assert!(g.sources().is_empty());
        assert_eq!(g.hubs(), vec![a]);
        assert_eq!(g.effective_sources(), vec![a]);
    }

    #[test]
    fn hubs_on_empty_graph() {
        let g = Graph::new();
        assert!(g.hubs().is_empty());
        assert!(g.effective_sources().is_empty());
    }

    #[test]
    fn multi_edges_allowed() {
        let mut g = Graph::new();
        let a = g.add_node(&Term::iri("a")).unwrap();
        let b = g.add_node(&Term::iri("b")).unwrap();
        g.add_edge(a, b, &Term::iri("p")).unwrap();
        g.add_edge(a, b, &Term::iri("p")).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_edges(a).len(), 2);
    }

    #[test]
    fn unknown_node_rejected() {
        let mut g = Graph::new();
        let a = g.add_node(&Term::iri("a")).unwrap();
        let err = g.add_edge(a, NodeId(99), &Term::iri("p")).unwrap_err();
        assert_eq!(err, RdfError::UnknownNode(99));
    }

    #[test]
    fn shared_labels_make_distinct_nodes() {
        let mut g = Graph::new();
        let a1 = g.add_node(&Term::literal("Term 10/21/94")).unwrap();
        let a2 = g.add_node(&Term::literal("Term 10/21/94")).unwrap();
        assert_ne!(a1, a2);
        assert_eq!(g.node_label(a1), g.node_label(a2));
    }

    #[test]
    fn subgraph_from_edges() {
        let (g, _) = chain();
        let first_edge = EdgeId(0);
        let (sub, mapping) = g.subgraph_from_edges(&[first_edge]);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.edge_count(), 1);
        assert_eq!(mapping.len(), 2);
        assert_eq!(sub.to_sorted_lines(), vec!["a p b".to_string()]);
    }

    #[test]
    fn subgraph_shares_nodes_between_edges() {
        let (g, _) = chain();
        let (sub, _) = g.subgraph_from_edges(&[EdgeId(0), EdgeId(1)]);
        assert_eq!(sub.node_count(), 3); // b shared by both edges
        assert_eq!(sub.edge_count(), 2);
    }

    #[test]
    fn sorted_lines_are_stable() {
        let (g, _) = chain();
        assert_eq!(
            g.to_sorted_lines(),
            vec!["a p b".to_string(), "b q c".to_string()]
        );
    }
}
