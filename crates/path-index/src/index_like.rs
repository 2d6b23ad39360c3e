//! What the query-answering pipeline asks of an index: the
//! [`IndexLike`] trait, implemented in the library by the one index a
//! query reads — a `SAMAIDX2` image, [`crate::MappedIndex`] — the
//! [`ConstantLookup`] it resolves query constants through, and
//! [`display_path`], which prints a path from the index's labels.

use crate::ic::IcTable;
use crate::path::{LabelsRef, PathId};
use rdf_model::{EdgeId, LabelId, NodeId, TermKind, Vocabulary};
use std::borrow::Cow;
use std::fmt;

/// Resolves a query constant's lexical form to a data label id — all
/// that query decomposition (synonym widening included) needs from the
/// data side. [`Vocabulary`] and every [`IndexLike`] implement
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
/// It speaks in label ids: a lexical form becomes a label once, in
/// [`IndexLike::constant_label`], and retrieval, scoring and display
/// read ids and the labels behind them — no data graph.
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
    /// The data label a query constant names, with
    /// [`Vocabulary::get_constant`] semantics (see [`ConstantLookup`]).
    /// Query decomposition is its one caller on the query path: every
    /// later step reads the label ids it chose.
    fn constant_label(&self, lexical: &str) -> Option<LabelId>;

    /// The lexical form of a data label.
    fn label_lexical(&self, label: LabelId) -> &str;

    /// The term kind of a data label.
    fn label_kind(&self, label: LabelId) -> TermKind;

    /// The `(subject, predicate, object)` labels of a data edge.
    fn edge_labels(&self, edge: EdgeId) -> (LabelId, LabelId, LabelId);

    /// Total number of indexed paths.
    fn total_paths(&self) -> usize;

    /// Node ids of a path, source end first.
    fn path_nodes(&self, id: PathId) -> &[NodeId];

    /// Edge ids of a path (`len() - 1` entries).
    fn path_edges(&self, id: PathId) -> &[EdgeId];

    /// The label sequences of a path (what alignment compares).
    fn labels(&self, id: PathId) -> LabelsRef<'_>;

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

    /// Paths whose sink carries one of `labels`, each once.
    ///
    /// This and the two lists below are in *path-content order*: strictly
    /// ascending by `(path_nodes, path_edges)` (distinct paths never
    /// share both). The cluster fill relies on it — a candidate's
    /// position is its tie-break, and a fill whose heap is full at λ = 0
    /// stops there.
    ///
    /// The list of a single label is its stored posting list, borrowed
    /// from the index; only a union of several labels' lists (a synonym
    /// group) is built and owned.
    fn paths_ending_in(&self, labels: &[LabelId]) -> Cow<'_, [PathId]>;

    /// Paths with a node or an edge carrying one of `labels`, each once,
    /// in path-content order; borrowed or owned as
    /// [`IndexLike::paths_ending_in`].
    fn paths_containing(&self, labels: &[LabelId]) -> Cow<'_, [PathId]>;

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

/// Render path `id` of `index` in the paper's `JR-sponsor-A1589-aTo-B0532`
/// form from the index's labels, each printed as [`TermKind::display`]
/// prints it — what `Term`'s `Display` prints, with no graph.
pub fn display_path<I: IndexLike + ?Sized>(index: &I, id: PathId) -> impl fmt::Display + '_ {
    fmt::from_fn(move |f| {
        let label = |l: LabelId| index.label_kind(l).display(index.label_lexical(l));
        let labels = index.labels(id);
        for (i, node) in labels.node_labels().enumerate() {
            if i > 0 {
                write!(f, "-{}-", label(labels.edge_labels[i - 1]))?;
            }
            write!(f, "{}", label(node))?;
        }
        Ok(())
    })
}
