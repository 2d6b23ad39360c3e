//! What the query-answering pipeline asks of an index: the
//! [`IndexLike`] trait, implemented by the index the builder holds
//! ([`PathIndex`]) and the one a file maps ([`crate::MappedIndex`]),
//! and the [`ConstantLookup`] it resolves query constants through.

use crate::ic::IcTable;
use crate::index::PathIndex;
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

/// The paths `lookup` lists for `lexical` and for each of its synonyms,
/// in path-content order and deduplicated — the admission rule behind
/// [`IndexLike::sink_matching`] and [`IndexLike::label_matching`].
pub(crate) fn match_via<I: IndexLike + ?Sized>(
    index: &I,
    lexical: &str,
    synonyms: &dyn SynonymProvider,
    mut lookup: impl FnMut(LabelId, &mut Vec<PathId>),
) -> Vec<PathId> {
    let mut out: Vec<PathId> = Vec::new();
    let mut lists = 0;
    let widened = synonyms.synonyms(lexical);
    let labels = std::iter::once(lexical)
        .chain(widened.iter().map(String::as_str))
        .filter_map(|lexical| index.constant_label(lexical));
    for label in labels {
        let before = out.len();
        lookup(label, &mut out);
        lists += usize::from(out.len() > before);
    }
    // One posting list is in content order and duplicate-free as it is;
    // only a union of several needs the merge.
    if lists > 1 {
        out.sort_unstable_by_key(|&p| (index.path_nodes(p), index.path_edges(p)));
        out.dedup();
    }
    out
}

/// The lookup interface shared by the owned [`PathIndex`] and the
/// zero-copy [`crate::MappedIndex`], its two implementations —
/// everything the query-answering pipeline needs from an index.
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
    /// accessors below. What still needs a graph — path display,
    /// `Answer::subgraph`, index updates — calls this.
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

impl IndexLike for PathIndex {
    fn data(&self) -> &DataGraph {
        self.graph()
    }

    fn total_paths(&self) -> usize {
        self.path_count()
    }

    fn path_nodes(&self, id: PathId) -> &[NodeId] {
        &self.path(id).path.nodes
    }

    fn path_edges(&self, id: PathId) -> &[EdgeId] {
        &self.path(id).path.edges
    }

    fn labels(&self, id: PathId) -> LabelsRef<'_> {
        self.path(id).labels.view()
    }

    fn sorted_nodes(&self, id: PathId) -> &[NodeId] {
        self.path(id).sorted_nodes()
    }

    fn path_shape(&self, id: PathId) -> u32 {
        PathIndex::path_shape(self, id)
    }

    fn shape_count(&self) -> usize {
        PathIndex::shape_count(self)
    }

    fn sink_matching(&self, lexical: &str, synonyms: &dyn SynonymProvider) -> Vec<PathId> {
        self.paths_with_sink_matching(lexical, synonyms)
    }

    fn label_matching(&self, lexical: &str, synonyms: &dyn SynonymProvider) -> Vec<PathId> {
        self.paths_with_label_matching(lexical, synonyms)
    }

    fn all_path_ids(&self) -> Vec<PathId> {
        self.content_order().to_vec()
    }

    fn lsh_params(&self) -> Option<crate::lsh::LshParams> {
        self.lsh().map(|sidecar| sidecar.params())
    }

    fn lsh_probe(&self, signature: &[u32]) -> Vec<crate::lsh::LshCandidate> {
        self.lsh()
            .map(|sidecar| sidecar.probe(signature))
            .unwrap_or_default()
    }

    fn ic_table(&self) -> Option<IcTable> {
        Some(PathIndex::ic_table(self).clone())
    }
}
