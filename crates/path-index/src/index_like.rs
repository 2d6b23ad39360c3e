//! What the query-answering pipeline asks of an index: the
//! [`IndexLike`] trait, implemented in the library by the one index a
//! query reads — a `SAMAIDX2` image, [`crate::MappedIndex`] — and the
//! [`ConstantLookup`] it resolves query constants through.

use crate::ic::IcTable;
use crate::path::{LabelsRef, PathId};
use crate::synonyms::SynonymProvider;
use rdf_model::{DataGraph, EdgeId, LabelId, NodeId, TermKind, Vocabulary};

/// Resolves a query constant's lexical form to a data label id — all
/// that query decomposition, IC stamping and synonym widening need
/// from the data side. [`Vocabulary`] and every [`IndexLike`] implement
/// it, so the pipeline takes either an interned vocabulary or an index
/// that answers from its own bytes.
pub trait ConstantLookup {
    /// [`Vocabulary::get_constant`] semantics: the IRI, then the
    /// literal, then the blank label with this lexical form; among
    /// duplicate entries of one kind the lowest id wins.
    fn get_constant(&self, lexical: &str) -> Option<LabelId>;
}

impl ConstantLookup for Vocabulary {
    fn get_constant(&self, lexical: &str) -> Option<LabelId> {
        Vocabulary::get_constant(self, lexical)
    }
}

impl<I: IndexLike + ?Sized> ConstantLookup for I {
    fn get_constant(&self, lexical: &str) -> Option<LabelId> {
        self.constant_label(lexical)
    }
}

/// Everything the query-answering pipeline needs from an index. The
/// library's one implementation is the zero-copy
/// [`crate::MappedIndex`]; the trait stays a seam so a test can wrap
/// that index and watch what a query reads.
///
/// All per-path accessors return *borrowed slices* so an implementation
/// backed by a read-only file mapping can serve the hot alignment and
/// conformity loops directly out of its on-disk arrays, with no
/// per-lookup allocation or materialization.
///
/// # Panics
/// The per-path accessors panic if `id` is out of range; use ids
/// produced by the same index.
pub trait IndexLike {
    /// The indexed data graph. A mapped index rebuilds it on first call
    /// (every string interned, adjacency re-created), so the query path
    /// does not ask for it: it reads labels through the four label
    /// accessors below. What still needs a graph — path display and
    /// `Answer::subgraph` — calls this.
    fn data(&self) -> &DataGraph;

    /// The data label a query constant names, with
    /// [`Vocabulary::get_constant`] semantics (see [`ConstantLookup`]).
    fn constant_label(&self, lexical: &str) -> Option<LabelId> {
        self.data().vocab().get_constant(lexical)
    }

    /// The lexical form of a data label.
    fn label_lexical(&self, label: LabelId) -> &str {
        self.data().vocab().lexical(label)
    }

    /// The term kind of a data label.
    fn label_kind(&self, label: LabelId) -> TermKind {
        self.data().vocab().kind(label)
    }

    /// The `(subject, predicate, object)` labels of a data edge.
    fn edge_labels(&self, edge: EdgeId) -> (LabelId, LabelId, LabelId) {
        let graph = self.data().as_graph();
        let e = graph.edge(edge);
        (graph.node_label(e.from), e.label, graph.node_label(e.to))
    }

    /// Total number of indexed paths.
    fn total_paths(&self) -> usize;

    /// Node ids of a path, source end first.
    fn path_nodes(&self, id: PathId) -> &[NodeId];

    /// Edge ids of a path (`len() - 1` entries).
    fn path_edges(&self, id: PathId) -> &[EdgeId];

    /// The label sequences of a path (what alignment compares).
    fn labels(&self, id: PathId) -> LabelsRef<'_>;

    /// The path's node ids sorted ascending and deduplicated (what the
    /// conformity function `χ` intersects).
    fn sorted_nodes(&self, id: PathId) -> &[NodeId];

    /// The path's *shape*: its edge-label sequence, interned when the
    /// index was built. Two paths of this index have the same shape id
    /// exactly when `labels(a).edge_labels == labels(b).edge_labels`;
    /// ids are dense in `0..shape_count()`. The cluster fill keys its
    /// alignment memo on it.
    fn path_shape(&self, id: PathId) -> u32;

    /// Number of distinct shapes among the indexed paths.
    fn shape_count(&self) -> usize;

    /// The edge-label sequence of shape `shape` (`< shape_count()`):
    /// `labels(id).edge_labels` of every path `id` of that shape. The
    /// cluster fill prices the candidates no query constant touches by
    /// their shape alone.
    fn shape_edge_labels(&self, shape: u32) -> &[LabelId];

    /// Paths whose sink label matches `lexical` (or a synonym).
    ///
    /// This and the two lists below are in *path-content order*: strictly
    /// ascending by `(path_nodes, path_edges)` (distinct paths never
    /// share both). The cluster fill relies on it — a candidate's
    /// position is its tie-break, and a fill whose heap is full at λ = 0
    /// stops there.
    fn sink_matching(&self, lexical: &str, synonyms: &dyn SynonymProvider) -> Vec<PathId>;

    /// Paths containing a label matching `lexical` (or a synonym), in
    /// path-content order.
    fn label_matching(&self, lexical: &str, synonyms: &dyn SynonymProvider) -> Vec<PathId>;

    /// Every path id (the clustering full-scan fallback), in path-content
    /// order.
    fn all_path_ids(&self) -> Vec<PathId>;

    /// Banding shape of the attached MinHash/LSH candidate tier (see
    /// [`crate::lsh`]), or `None` when the index has no LSH structure
    /// — callers then fall back to the exact scan.
    fn lsh_params(&self) -> Option<crate::lsh::LshParams> {
        None
    }

    /// Bucket-collision candidates for a query signature, each scored
    /// by matching signature rows (the Jaccard-estimate numerator).
    /// Unsorted; empty when no LSH tier is attached.
    fn lsh_probe(&self, signature: &[u32]) -> Vec<crate::lsh::LshCandidate> {
        let _ = signature;
        Vec::new()
    }

    /// The corpus-derived IC weight table (see [`crate::ic`]), or
    /// `None` when the index cannot provide one — callers then price
    /// every label mismatch uniformly.
    fn ic_table(&self) -> Option<IcTable> {
        None
    }
}
