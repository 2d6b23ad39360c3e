//! The path index (paper, Section 6.1): the off-line structure that lets
//! query answering "skip the expensive graph traversal at runtime".
//!
//! Three steps, as in the paper: (i) hashing of all node and edge labels
//! (our inverted label map), (ii) identification of sources and sinks,
//! and (iii) computation of all source→sink paths (kept with their
//! materialized label sequences). A sink-label map supports the
//! clustering step's "group the paths of `G` having a sink that matches
//! the sink of `q`" lookup, and the full label map supports the fallback
//! "paths containing a label matching `v`".
//!
//! [`PathIndex`] is the builder's side of the index: what `build`,
//! `insert_triples` and `decode_v2` produce and [`crate::encode_v2`]
//! writes. Queries read the written image, through
//! [`crate::MappedIndex`] — the one [`crate::IndexLike`].

use crate::extract::{extract_paths, ExtractionConfig};
use crate::hypergraph::HyperGraphView;
use crate::ic::IcCounts;
use crate::path::{Path, PathId, PathLabels};
use crate::stats::IndexStats;
use rdf_model::{DataGraph, FxHashMap, LabelId, NodeId};
use std::time::Instant;

/// A path plus its materialized label sequences and the sorted set of
/// its node ids (what the conformity function `χ` intersects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexedPath {
    /// Node/edge ids in the data graph.
    pub path: Path,
    /// Node/edge label sequences (what alignment compares).
    pub labels: PathLabels,
    /// The path's node ids sorted ascending and deduplicated,
    /// precomputed at index-build time so `χ` between two indexed paths
    /// is a linear merge-intersection with no hashing or sorting.
    sorted_nodes: Box<[NodeId]>,
}

impl IndexedPath {
    /// Index a path: materializes the sorted node set alongside the
    /// given label sequences.
    pub fn new(path: Path, labels: PathLabels) -> Self {
        let mut sorted_nodes: Vec<NodeId> = path.nodes.to_vec();
        sorted_nodes.sort_unstable();
        sorted_nodes.dedup();
        IndexedPath {
            path,
            labels,
            sorted_nodes: sorted_nodes.into_boxed_slice(),
        }
    }

    /// The path's node ids, sorted ascending, deduplicated.
    #[inline]
    pub fn sorted_nodes(&self) -> &[NodeId] {
        &self.sorted_nodes
    }
}

/// The complete off-line index over one data graph, as the builder
/// holds it: the input to [`crate::encode_v2`], and what
/// [`crate::decode_v2`] gives back for an update.
///
/// Every list of path ids it hands out — postings, `all_path_ids` — is
/// in *path-content order*: ascending by `(path.nodes, path.edges)`.
/// Two distinct paths never share both, so the order is strict.
#[derive(Debug, Clone)]
pub struct PathIndex {
    graph: DataGraph,
    paths: Vec<IndexedPath>,
    /// Every path id, in path-content order.
    order: Vec<PathId>,
    /// label → paths containing it (as node or edge label), content order.
    by_label: FxHashMap<LabelId, Vec<PathId>>,
    /// sink label → paths ending in it, content order.
    by_sink: FxHashMap<LabelId, Vec<PathId>>,
    /// Shape id per path: two paths share an id exactly when they share
    /// an edge-label sequence. Dense, numbered by first occurrence in
    /// path-id order.
    path_shapes: Vec<u32>,
    /// The first path of each shape: shape `s` *is*
    /// `paths[shape_reps[s]].labels.edge_labels`, so no sequence is
    /// stored twice.
    shape_reps: Vec<PathId>,
    stats: IndexStats,
}

impl PathIndex {
    /// Build with default extraction limits.
    pub fn build(graph: DataGraph) -> Self {
        Self::build_with_config(graph, &ExtractionConfig::default())
    }

    /// Build with explicit extraction limits: extract, materialize
    /// labels, and assemble through `from_parts` — the one place that
    /// builds the inverted maps and the shape table.
    pub fn build_with_config(graph: DataGraph, config: &ExtractionConfig) -> Self {
        let build_span = sama_obs::span!("index.build_ns");
        let start = Instant::now();
        let extraction = extract_paths(graph.as_graph(), config);
        let paths: Vec<IndexedPath> = extraction
            .paths
            .into_iter()
            .map(|path| {
                let labels = path.labels(graph.as_graph());
                IndexedPath::new(path, labels)
            })
            .collect();
        let hyper = HyperGraphView::build(
            graph.as_graph(),
            &paths.iter().map(|ip| ip.path.clone()).collect::<Vec<_>>(),
        );
        let stats = IndexStats {
            triples: graph.edge_count(),
            hyper_vertices: hyper.vertex_count,
            hyper_edges: hyper.edge_count(),
            path_count: paths.len(),
            build_time: std::time::Duration::ZERO,
            serialized_bytes: None,
            depth_truncated: extraction.depth_truncated,
            dropped: extraction.dropped,
        };
        let mut index = Self::from_parts(graph, paths, stats);
        index.stats.build_time = start.elapsed();
        drop(build_span);
        sama_obs::counter_add("index.builds_total", 1);
        sama_obs::gauge_set("index.paths", index.stats.path_count as i64);
        sama_obs::gauge_set("index.triples", index.stats.triples as i64);
        index
    }

    /// Reassemble an index from its parts (used by [`crate::storage`]).
    pub(crate) fn from_parts(graph: DataGraph, paths: Vec<IndexedPath>, stats: IndexStats) -> Self {
        let order = content_order(&paths);
        let mut by_label: FxHashMap<LabelId, Vec<PathId>> = FxHashMap::default();
        let mut by_sink: FxHashMap<LabelId, Vec<PathId>> = FxHashMap::default();
        // One buffer for every path's label set: an allocation per path
        // was a quarter of this loop.
        let mut seen: Vec<LabelId> = Vec::new();
        for &id in &order {
            let ip = &paths[id.index()];
            seen.clear();
            seen.extend(ip.labels.node_labels.iter().chain(&*ip.labels.edge_labels));
            seen.sort_unstable();
            seen.dedup();
            for &label in &seen {
                by_label.entry(label).or_default().push(id);
            }
            by_sink.entry(ip.labels.sink_label()).or_default().push(id);
        }
        // Intern the edge-label sequences: the map borrows them from
        // `paths`, so a distinct sequence costs one id, not a copy.
        let mut shape_of: FxHashMap<&[LabelId], u32> = FxHashMap::default();
        let mut shape_reps = Vec::new();
        let path_shapes = paths
            .iter()
            .enumerate()
            .map(|(i, ip)| {
                *shape_of.entry(&ip.labels.edge_labels).or_insert_with(|| {
                    shape_reps.push(PathId(i as u32));
                    shape_reps.len() as u32 - 1
                })
            })
            .collect();
        PathIndex {
            graph,
            paths,
            order,
            by_label,
            by_sink,
            path_shapes,
            shape_reps,
            stats,
        }
    }

    /// The indexed data graph.
    #[inline]
    pub fn graph(&self) -> &DataGraph {
        &self.graph
    }

    /// Number of indexed paths.
    #[inline]
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// Look up one indexed path.
    ///
    /// # Panics
    /// Panics if `id` is out of range; use ids produced by this index.
    #[inline]
    pub fn path(&self, id: PathId) -> &IndexedPath {
        &self.paths[id.index()]
    }

    /// Iterate over all `(PathId, &IndexedPath)` pairs.
    pub fn paths(&self) -> impl Iterator<Item = (PathId, &IndexedPath)> + '_ {
        self.paths
            .iter()
            .enumerate()
            .map(|(i, p)| (PathId(i as u32), p))
    }

    /// The shape id of a path: equal for two paths exactly when their
    /// edge-label sequences are equal; dense in `0..shape_count()`.
    #[inline]
    pub fn path_shape(&self, id: PathId) -> u32 {
        self.path_shapes[id.index()]
    }

    /// Number of distinct edge-label sequences among the indexed paths.
    #[inline]
    pub fn shape_count(&self) -> usize {
        self.shape_reps.len()
    }

    /// The distinct edge-label sequences, in shape-id order (v2 encoder
    /// input).
    pub(crate) fn shapes(&self) -> impl Iterator<Item = &[LabelId]> + '_ {
        self.shape_reps
            .iter()
            .map(|&rep| &*self.path(rep).labels.edge_labels)
    }

    /// Every path id, in path-content order (the v2 encoder's
    /// `path-order` section).
    #[inline]
    pub fn content_order(&self) -> &[PathId] {
        &self.order
    }

    /// Paths containing `label` anywhere (node or edge position).
    pub fn paths_with_label(&self, label: LabelId) -> &[PathId] {
        self.by_label.get(&label).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Paths whose sink carries `label`.
    pub fn paths_with_sink(&self, label: LabelId) -> &[PathId] {
        self.by_sink.get(&label).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Label occurrence counts over the indexed paths — the input to
    /// the IC-weighted cost model and the `ic-counts` section of the
    /// v2 format (see [`crate::ic`]).
    pub fn ic_counts(&self) -> IcCounts {
        IcCounts::tally(
            self.graph.vocab().len(),
            self.paths.iter().map(|ip| {
                ip.labels
                    .node_labels
                    .iter()
                    .copied()
                    .chain(ip.labels.edge_labels.iter().copied())
            }),
        )
    }

    /// Build statistics (Table 1's row for this dataset).
    #[inline]
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }

    /// Record the serialized size (called by [`crate::storage`]).
    pub(crate) fn set_serialized_bytes(&mut self, bytes: usize) {
        self.stats.serialized_bytes = Some(bytes);
    }

    /// The inverted label → paths map (read-only; v2 encoder input).
    pub(crate) fn label_map(&self) -> &FxHashMap<LabelId, Vec<PathId>> {
        &self.by_label
    }

    /// The inverted sink-label → paths map (read-only; v2 encoder input).
    pub(crate) fn sink_map(&self) -> &FxHashMap<LabelId, Vec<PathId>> {
        &self.by_sink
    }
}

/// The ids of `paths` ascending by `(nodes, edges)`. Extraction emits
/// paths grouped by source, sources ascending, so sorting each source's
/// run is all it takes; the final check confirms that, and a list that
/// came some other way gets the full sort.
fn content_order(paths: &[IndexedPath]) -> Vec<PathId> {
    let key = |id: &PathId| {
        let path = &paths[id.index()].path;
        (&*path.nodes, &*path.edges)
    };
    let mut order: Vec<PathId> = (0..paths.len() as u32).map(PathId).collect();
    for run in order.chunk_by_mut(|a, b| key(a).0[0] == key(b).0[0]) {
        run.sort_unstable_by(|a, b| key(a).cmp(&key(b)));
    }
    if !order.windows(2).all(|w| key(&w[0]) < key(&w[1])) {
        order.sort_unstable_by(|a, b| key(a).cmp(&key(b)));
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::Term;

    fn sample_index() -> PathIndex {
        let mut b = DataGraph::builder();
        b.triple_str("CB", "sponsor", "A0056").unwrap();
        b.triple_str("A0056", "aTo", "B1432").unwrap();
        b.triple_str("B1432", "subject", "\"HC\"").unwrap();
        b.triple_str("PD", "sponsor", "B1432").unwrap();
        b.triple_str("PD", "gender", "\"Male\"").unwrap();
        PathIndex::build(b.build())
    }

    #[test]
    fn total_budget_respected_by_build_with_config() {
        // Three paths available, room for two: the index holds exactly
        // the cap and says what it left out.
        let mut b = DataGraph::builder();
        for (s, o) in [("a", "b"), ("c", "d"), ("e", "f")] {
            b.triple_str(s, "p", o).unwrap();
        }
        let config = ExtractionConfig {
            max_total_paths: 2,
            ..Default::default()
        };
        let idx = PathIndex::build_with_config(b.build(), &config);
        assert_eq!(idx.path_count(), 2);
        assert!(idx.stats().dropped > 0);
    }

    #[test]
    fn builds_expected_paths() {
        let idx = sample_index();
        // Sources: CB, PD. Paths: CB-…-HC, PD-sponsor-B1432-subject-HC,
        // PD-gender-Male.
        assert_eq!(idx.path_count(), 3);
        let rendered: Vec<String> = idx
            .paths()
            .map(|(_, ip)| ip.path.display(idx.graph().as_graph()).to_string())
            .collect();
        assert!(rendered.contains(&"PD-gender-\"Male\"".to_string()));
    }

    #[test]
    fn sink_lookup() {
        let idx = sample_index();
        let hc = idx.graph().vocab().get(&Term::literal("HC")).unwrap();
        assert_eq!(idx.paths_with_sink(hc).len(), 2);
        let male = idx.graph().vocab().get(&Term::literal("Male")).unwrap();
        assert_eq!(idx.paths_with_sink(male).len(), 1);
    }

    #[test]
    fn label_lookup_deduplicates() {
        let idx = sample_index();
        let sponsor = idx.graph().vocab().get(&Term::iri("sponsor")).unwrap();
        let hits = idx.paths_with_label(sponsor);
        // Two paths contain `sponsor`, each listed once.
        assert_eq!(hits.len(), 2);
        let b1432 = idx.graph().vocab().get(&Term::iri("B1432")).unwrap();
        assert_eq!(idx.paths_with_label(b1432).len(), 2);
    }

    #[test]
    fn stats_populated() {
        let idx = sample_index();
        let s = idx.stats();
        assert_eq!(s.triples, 5);
        assert_eq!(s.path_count, 3);
        assert_eq!(s.hyper_vertices, idx.graph().node_count());
        assert!(s.hyper_edges >= s.path_count);
        assert!(!s.is_truncated());
    }

    #[test]
    fn from_parts_rebuilds_maps() {
        let idx = sample_index();
        let rebuilt =
            PathIndex::from_parts(idx.graph.clone(), idx.paths.clone(), idx.stats.clone());
        let sponsor = rebuilt.graph().vocab().get(&Term::iri("sponsor")).unwrap();
        assert_eq!(
            rebuilt.paths_with_label(sponsor),
            idx.paths_with_label(sponsor)
        );
    }
}
