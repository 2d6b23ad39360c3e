//! Path representation (paper, Definition 5).
//!
//! A path is a sequence `ln1 - le1 - ln2 - … - le(k-1) - lnk` of node and
//! edge labels from a source to a sink. An index stores the underlying
//! edge ids and the sink (needed to assemble answers and to compute the
//! common-node function `χ`) and reads the node ids through the edges,
//! as a [`PathNodes`]; the alignment loop reads the labels through a
//! [`LabelsRef`]: each node id looked up in the label-per-node table,
//! and the edge-label sequence interned once at indexing time.

use rdf_model::EdgeId;
use rdf_model::{Graph, LabelId, NodeId};
use std::fmt;

/// Identifier of a path within one [`crate::PathIndex`] (or extraction
/// result). Dense, starting at zero.
///
/// `repr(transparent)` over `u32`, like [`rdf_model::NodeId`]: the
/// mapped index hands out its stored postings as
/// `&[PathId]` cast from the image's `u32` arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct PathId(pub u32);

impl PathId {
    /// The id as a `usize`, for indexing side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A concrete path through a graph: `k` nodes joined by `k-1` edges.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    /// Node ids `n1 … nk`; `n1` is the source end, `nk` the sink end.
    pub nodes: Box<[NodeId]>,
    /// Edge ids `e1 … e(k-1)`; `e_i` connects `n_i` to `n_{i+1}`.
    pub edges: Box<[EdgeId]>,
}

impl Path {
    /// Build a path from node and edge id sequences.
    ///
    /// # Panics
    /// Panics if `edges.len() + 1 != nodes.len()` or `nodes` is empty —
    /// those are construction bugs, not runtime conditions.
    pub fn new(nodes: Vec<NodeId>, edges: Vec<EdgeId>) -> Self {
        assert!(!nodes.is_empty(), "a path has at least one node");
        assert_eq!(
            edges.len() + 1,
            nodes.len(),
            "a path with k nodes has k-1 edges"
        );
        Path {
            nodes: nodes.into_boxed_slice(),
            edges: edges.into_boxed_slice(),
        }
    }

    /// A single-node path (an isolated node that is both source and sink).
    pub fn single(node: NodeId) -> Self {
        Path {
            nodes: Box::new([node]),
            edges: Box::new([]),
        }
    }

    /// The paper's *length*: the number of nodes.
    ///
    /// (The example path `JR-sponsor-A1589-aTo-B0532-subject-HC` has
    /// length 4.)
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` only for the degenerate case forbidden by construction;
    /// present for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The source-end node.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// The sink-end node.
    #[inline]
    pub fn sink(&self) -> NodeId {
        *self.nodes.last().expect("paths are non-empty")
    }

    /// The paper's 1-based *position* of a node in this path, if present.
    pub fn position(&self, node: NodeId) -> Option<usize> {
        self.nodes.iter().position(|&n| n == node).map(|i| i + 1)
    }

    /// Materialize the label sequences of this path against its graph.
    pub fn labels(&self, graph: &Graph) -> PathLabels {
        let steps = 0..self.edges.len() as u32;
        PathLabels {
            node_labels: self.nodes.iter().map(|&n| graph.node_label(n)).collect(),
            edge_labels: self.edges.iter().map(|&e| graph.edge(e).label).collect(),
            steps: steps.clone().map(EdgeId).collect(),
            tails: steps.map(NodeId).collect(),
        }
    }

    /// Render as the paper's `label-label-…` display form.
    pub fn display<'a>(&'a self, graph: &'a Graph) -> PathDisplay<'a> {
        PathDisplay { path: self, graph }
    }
}

/// The label sequences of a path: what alignment and scoring operate on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathLabels {
    /// Node labels `ln1 … lnk`.
    pub node_labels: Box<[LabelId]>,
    /// Edge labels `le1 … le(k-1)`.
    pub edge_labels: Box<[LabelId]>,
    /// `0 … k-2` as edge ids, and `0 … k-2` as node ids: the edges and
    /// tails [`PathLabels::view`] reads nodes `0 … k-2` through, so node
    /// `i` is position `i` of `node_labels` (the sink is `k-1`).
    steps: Box<[EdgeId]>,
    tails: Box<[NodeId]>,
}

impl PathLabels {
    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.node_labels.len()
    }

    /// `true` if there are no node labels (cannot occur for well-formed
    /// paths; present for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.node_labels.is_empty()
    }

    /// The label at the sink end.
    #[inline]
    pub fn sink_label(&self) -> LabelId {
        *self.node_labels.last().expect("paths are non-empty")
    }

    /// Borrow as a [`LabelsRef`] — the form the alignment loop consumes:
    /// node `i` is position `i` of `node_labels`.
    #[inline]
    pub fn view(&self) -> LabelsRef<'_> {
        LabelsRef {
            nodes: PathNodes {
                edges: &self.steps,
                edge_from: &self.tails,
                sink: NodeId(self.steps.len() as u32),
            },
            node_table: &self.node_labels,
            edge_labels: &self.edge_labels,
        }
    }
}

/// The node ids of a path, read through its edges: node `j` is the tail
/// of edge `j`, `edge_from[edges[j]]`, for every node but the last, and
/// the last is the stored sink. A path with no edges (a node whose only
/// out-edges loop back onto it, a walk cut at one node, an isolated
/// node) is its sink alone.
///
/// A borrowed view, no copy: an index serves it from its edge pool, its
/// `edge-from` column and its sink per path. Two views are equal, and
/// order, as their node sequences do.
#[derive(Clone, Copy)]
pub struct PathNodes<'a> {
    /// Edge ids `e1 … e(k-1)`; `e_j` leaves node `j`.
    pub edges: &'a [EdgeId],
    /// The tail node of every edge, by edge id.
    pub edge_from: &'a [NodeId],
    /// Node `nk`, the sink end.
    pub sink: NodeId,
}

impl<'a> PathNodes<'a> {
    /// Number of nodes: one more than the edges.
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len() + 1
    }

    /// Always `false`: a path has its sink.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Node `i` (0 = source end).
    ///
    /// # Panics
    /// If `i ≥ len()`, or an edge id is not in `edge_from`.
    #[inline]
    pub fn get(&self, i: usize) -> NodeId {
        match self.edges.get(i) {
            Some(edge) => self.edge_from[edge.index()],
            None => {
                assert_eq!(i, self.edges.len(), "node {i} of a path of {}", self.len());
                self.sink
            }
        }
    }

    /// The sink-end node.
    #[inline]
    pub fn last(&self) -> NodeId {
        self.sink
    }

    /// Nodes `n1 … nk`, source end first.
    #[inline]
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = NodeId> + use<'a> {
        let edge_from = self.edge_from;
        self.edges
            .iter()
            .map(move |edge| edge_from[edge.index()])
            .chain(std::iter::once(self.sink))
    }

    /// The nodes, copied out.
    pub fn to_vec(&self) -> Vec<NodeId> {
        let mut nodes = Vec::with_capacity(self.len());
        nodes.extend(self.iter());
        nodes
    }
}

impl PartialEq for PathNodes<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.edges.len() == other.edges.len() && self.iter().eq(other.iter())
    }
}

impl Eq for PathNodes<'_> {}

impl PartialOrd for PathNodes<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Lexicographic by node sequence, as slices of the node ids compare.
impl Ord for PathNodes<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.iter().cmp(other.iter())
    }
}

impl fmt::Debug for PathNodes<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A borrowed view of a path's label sequences.
///
/// This is the lingua franca between indexes and the alignment loop.
/// A path's node labels are not stored per path: node `i` carries
/// `node_table[nodes.get(i)]`, a gather through the label of every node
/// of the graph, so the zero-copy mapped index serves a view straight
/// out of its edge pool, its sinks and its node-label section, with no
/// copy and no allocation. An owned [`PathLabels`] lends one via
/// [`PathLabels::view`].
///
/// Two views are equal when their label sequences are, whatever ids and
/// tables they read them through.
#[derive(Clone, Copy)]
pub struct LabelsRef<'a> {
    /// Node ids `n1 … nk`, indexes into `node_table`.
    pub nodes: PathNodes<'a>,
    /// The label of every node, by node id.
    pub node_table: &'a [LabelId],
    /// Edge labels `le1 … le(k-1)`.
    pub edge_labels: &'a [LabelId],
}

impl<'a> LabelsRef<'a> {
    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if there are no nodes (cannot occur for well-formed
    /// paths; present for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The label of node `i` (0 = source end).
    ///
    /// # Panics
    /// If `i ≥ len()`, or the node id is not in the table.
    #[inline]
    pub fn node_label(&self, i: usize) -> LabelId {
        self.node_table[self.nodes.get(i).index()]
    }

    /// Node labels `ln1 … lnk`.
    #[inline]
    pub fn node_labels(&self) -> impl DoubleEndedIterator<Item = LabelId> + use<'a> {
        let table = self.node_table;
        self.nodes.iter().map(move |n| table[n.index()])
    }

    /// The label at the sink end.
    #[inline]
    pub fn sink_label(&self) -> LabelId {
        self.node_table[self.nodes.sink.index()]
    }
}

impl PartialEq for LabelsRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.edge_labels == other.edge_labels && self.node_labels().eq(other.node_labels())
    }
}

impl Eq for LabelsRef<'_> {}

impl fmt::Debug for LabelsRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LabelsRef")
            .field("node_labels", &self.node_labels().collect::<Vec<_>>())
            .field("edge_labels", &self.edge_labels)
            .finish()
    }
}

/// Displays a path in the paper's `JR-sponsor-A1589-aTo-B0532` form.
pub struct PathDisplay<'a> {
    path: &'a Path,
    graph: &'a Graph,
}

impl fmt::Display for PathDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_parts(
            f,
            self.graph,
            self.path.nodes.iter().copied(),
            &self.path.edges,
        )
    }
}

/// Render a borrowed path — its node view and edge ids — in the paper's
/// display form, without constructing an owned [`Path`]. Used by
/// consumers that read ids straight out of an index.
pub fn display_parts<'a>(
    graph: &'a Graph,
    nodes: PathNodes<'a>,
    edges: &'a [EdgeId],
) -> PathPartsDisplay<'a> {
    PathPartsDisplay {
        graph,
        nodes,
        edges,
    }
}

/// Display adapter returned by [`display_parts`].
pub struct PathPartsDisplay<'a> {
    graph: &'a Graph,
    nodes: PathNodes<'a>,
    edges: &'a [EdgeId],
}

impl fmt::Display for PathPartsDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_parts(f, self.graph, self.nodes.iter(), self.edges)
    }
}

/// `n1-le1-n2-…-nk`: each node's term, joined by the label of the edge
/// between them.
fn write_parts(
    f: &mut fmt::Formatter<'_>,
    graph: &Graph,
    nodes: impl Iterator<Item = NodeId>,
    edges: &[EdgeId],
) -> fmt::Result {
    for (i, n) in nodes.enumerate() {
        if i > 0 {
            let e = edges[i - 1];
            write!(f, "-{}-", graph.vocab().term(graph.edge(e).label))?;
        }
        write!(f, "{}", graph.vocab().term(graph.node_label(n)))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::Term;

    fn sample() -> (Graph, Path) {
        let mut g = Graph::new();
        let jr = g.add_node(&Term::iri("JR")).unwrap();
        let a = g.add_node(&Term::iri("A1589")).unwrap();
        let b = g.add_node(&Term::iri("B0532")).unwrap();
        let hc = g.add_node(&Term::literal("HC")).unwrap();
        let e1 = g.add_edge(jr, a, &Term::iri("sponsor")).unwrap();
        let e2 = g.add_edge(a, b, &Term::iri("aTo")).unwrap();
        let e3 = g.add_edge(b, hc, &Term::iri("subject")).unwrap();
        let p = Path::new(vec![jr, a, b, hc], vec![e1, e2, e3]);
        (g, p)
    }

    #[test]
    fn length_is_node_count() {
        let (_, p) = sample();
        assert_eq!(p.len(), 4); // the paper's example pz has length 4
    }

    #[test]
    fn positions_are_one_based() {
        let (_, p) = sample();
        assert_eq!(p.position(NodeId(1)), Some(2)); // A1589 at position 2
        assert_eq!(p.position(NodeId(0)), Some(1));
        assert_eq!(p.position(NodeId(99)), None);
    }

    #[test]
    fn endpoints() {
        let (_, p) = sample();
        assert_eq!(p.source(), NodeId(0));
        assert_eq!(p.sink(), NodeId(3));
    }

    #[test]
    fn labels_materialize() {
        let (g, p) = sample();
        let labels = p.labels(&g);
        assert_eq!(labels.len(), 4);
        assert_eq!(labels.edge_labels.len(), 3);
        assert_eq!(g.vocab().lexical(labels.sink_label()), "HC");
    }

    #[test]
    fn display_form() {
        let (g, p) = sample();
        assert_eq!(
            p.display(&g).to_string(),
            "JR-sponsor-A1589-aTo-B0532-subject-\"HC\""
        );
    }

    #[test]
    fn single_node_path() {
        let p = Path::single(NodeId(7));
        assert_eq!(p.len(), 1);
        assert_eq!(p.source(), p.sink());
        assert!(!p.is_empty());
    }

    #[test]
    #[should_panic(expected = "k-1 edges")]
    fn mismatched_arity_panics() {
        let _ = Path::new(vec![NodeId(0), NodeId(1)], vec![]);
    }
}
