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
//! writes. It holds its paths the way the `SAMAIDX2` image does — flat
//! pools with offsets, one shape pool, postings as arrays indexed by
//! label id — so a build allocates per pool, not per path, and the
//! encoder copies sections. Queries read the written image, through
//! [`crate::MappedIndex`] — the one [`crate::IndexLike`].

use crate::extract::{extract_into, ExtractionConfig};
use crate::ic::IcCounts;
use crate::path::{display_parts, LabelsRef, PathId, PathPartsDisplay};
use crate::stats::IndexStats;
use crate::v2::IndexView;
use rdf_model::hash::FxHasher;
use rdf_model::{DataGraph, EdgeId, Graph, LabelId, NodeId};
use std::hash::Hasher;
use std::time::Instant;

/// One indexed path, borrowed from the index's pools: its node and edge
/// ids and its label sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexedPath<'a> {
    /// Node ids `n1 … nk`; `n1` is the source end, `nk` the sink end.
    pub nodes: &'a [NodeId],
    /// Edge ids `e1 … e(k-1)`; `e_i` connects `n_i` to `n_{i+1}`.
    pub edges: &'a [EdgeId],
    /// Node/edge label sequences (what alignment compares).
    pub labels: LabelsRef<'a>,
}

impl<'a> IndexedPath<'a> {
    /// Render in the paper's `JR-sponsor-A1589-aTo-B0532` form.
    pub fn display(&self, graph: &'a Graph) -> PathPartsDisplay<'a> {
        display_parts(graph, self.nodes, self.edges)
    }
}

/// The path store, laid out as sections 8–13 of the image: path `i`'s
/// nodes are `offs[i]..offs[i + 1]` of their pool, its edges the same
/// span less `i` and one shorter, its edge labels its shape's run of
/// the shape pool. Its node labels are no pool: they are the graph's
/// labels of its nodes ([`LabelsRef`]).
#[derive(Debug, Clone)]
pub(crate) struct Pools {
    pub(crate) offs: Vec<usize>,
    pub(crate) nodes: Vec<NodeId>,
    pub(crate) edges: Vec<EdgeId>,
    /// Shape id per path: two paths share an id exactly when they share
    /// an edge-label sequence. Dense, numbered by first occurrence in
    /// path-id order.
    pub(crate) shapes: Vec<u32>,
    pub(crate) shape_offs: Vec<usize>,
    /// Each distinct edge-label sequence once, in shape-id order.
    pub(crate) shape_labels: Vec<LabelId>,
}

impl Default for Pools {
    fn default() -> Self {
        Pools {
            offs: vec![0],
            nodes: Vec::new(),
            edges: Vec::new(),
            shapes: Vec::new(),
            shape_offs: vec![0],
            shape_labels: Vec::new(),
        }
    }
}

impl Pools {
    #[inline]
    fn len(&self) -> usize {
        self.shapes.len()
    }

    #[inline]
    fn nodes_of(&self, id: PathId) -> &[NodeId] {
        &self.nodes[self.offs[id.index()]..self.offs[id.index() + 1]]
    }

    #[inline]
    fn edges_of(&self, id: PathId) -> &[EdgeId] {
        let i = id.index();
        &self.edges[self.offs[i] - i..self.offs[i + 1] - i - 1]
    }

    #[inline]
    pub(crate) fn shape(&self, shape: u32) -> &[LabelId] {
        let s = shape as usize;
        &self.shape_labels[self.shape_offs[s]..self.shape_offs[s + 1]]
    }

    /// Path `id`'s labels, its node labels read through `node_table`,
    /// the label of every node of the graph.
    #[inline]
    fn labels_of<'a>(&'a self, id: PathId, node_table: &'a [LabelId]) -> LabelsRef<'a> {
        LabelsRef {
            nodes: self.nodes_of(id),
            node_table,
            edge_labels: self.shape(self.shapes[id.index()]),
        }
    }
}

/// Appends extracted paths to [`Pools`], interning each edge-label
/// sequence in an open-addressing table of shape ids keyed by the
/// sequence's run of the shape pool, so no sequence is stored twice.
struct PoolBuilder<'g> {
    graph: &'g Graph,
    pools: Pools,
    /// Shape ids, `u32::MAX` for empty; at most half full.
    shape_slots: Vec<u32>,
    /// The edge labels of the path being appended.
    edge_labels: Vec<LabelId>,
}

impl PoolBuilder<'_> {
    fn push(&mut self, nodes: &[NodeId], edges: &[EdgeId]) {
        let graph = self.graph;
        let p = &mut self.pools;
        p.nodes.extend_from_slice(nodes);
        p.edges.extend_from_slice(edges);
        p.offs.push(p.nodes.len());

        self.edge_labels.clear();
        self.edge_labels
            .extend(edges.iter().map(|&e| graph.edge(e).label));
        let shape = self.intern_shape();
        self.pools.shapes.push(shape);
    }

    fn slot_of(labels: &[LabelId], cap: usize) -> usize {
        let mut hasher = FxHasher::default();
        for label in labels {
            hasher.write_u32(label.0);
        }
        hasher.write_usize(labels.len());
        // Fx multiplies last, so the high bits are the mixed ones.
        (hasher.finish() >> (64 - cap.trailing_zeros())) as usize
    }

    /// The shape id of `edge_labels`, appending it to the shape pool when
    /// it is new.
    fn intern_shape(&mut self) -> u32 {
        let count = self.pools.shape_offs.len() - 1;
        if 2 * (count + 1) > self.shape_slots.len() {
            let cap = (2 * self.shape_slots.len()).max(16);
            self.shape_slots.clear();
            self.shape_slots.resize(cap, u32::MAX);
            for shape in 0..count as u32 {
                let mut slot = Self::slot_of(self.pools.shape(shape), cap);
                while self.shape_slots[slot] != u32::MAX {
                    slot = (slot + 1) & (cap - 1);
                }
                self.shape_slots[slot] = shape;
            }
        }
        let cap = self.shape_slots.len();
        let mut slot = Self::slot_of(&self.edge_labels, cap);
        loop {
            let shape = self.shape_slots[slot];
            if shape == u32::MAX {
                let shape = count as u32;
                self.shape_slots[slot] = shape;
                let p = &mut self.pools;
                p.shape_labels.extend_from_slice(&self.edge_labels);
                p.shape_offs.push(p.shape_labels.len());
                return shape;
            }
            if self.pools.shape(shape) == self.edge_labels.as_slice() {
                return shape;
            }
            slot = (slot + 1) & (cap - 1);
        }
    }
}

/// Path ids by label id: the run of label `l` is
/// `ids[offs[l]..offs[l + 1]]`, in path-content order.
#[derive(Debug, Clone)]
pub(crate) struct Postings {
    pub(crate) offs: Vec<usize>,
    pub(crate) ids: Vec<PathId>,
}

impl Postings {
    /// Count each path once per distinct label `labels` yields for it,
    /// then fill the runs walking `order`, so each run keeps its order.
    fn build<L: Iterator<Item = LabelId>>(
        vocab_len: usize,
        order: &[PathId],
        labels: impl Fn(PathId) -> L,
    ) -> Postings {
        // `stamp[l]` is the last position in `order` that counted `l`.
        let mut stamp = vec![usize::MAX; vocab_len];
        let mut offs = vec![0usize; vocab_len + 1];
        for (pos, &id) in order.iter().enumerate() {
            for label in labels(id) {
                if std::mem::replace(&mut stamp[label.index()], pos) != pos {
                    offs[label.index() + 1] += 1;
                }
            }
        }
        for l in 0..vocab_len {
            offs[l + 1] += offs[l];
        }
        // Fill with `offs[l]` as the cursor of run `l`, which leaves it
        // at the run's end: the start of `l + 1`.
        let mut ids = vec![PathId(0); offs[vocab_len]];
        stamp.fill(usize::MAX);
        for (pos, &id) in order.iter().enumerate() {
            for label in labels(id) {
                let l = label.index();
                if std::mem::replace(&mut stamp[l], pos) != pos {
                    ids[offs[l]] = id;
                    offs[l] += 1;
                }
            }
        }
        offs.copy_within(0..vocab_len, 1);
        offs[0] = 0;
        Postings { offs, ids }
    }

    #[inline]
    fn get(&self, label: LabelId) -> &[PathId] {
        match self.offs.get(label.index()..label.index() + 2) {
            Some(&[a, b]) => &self.ids[a..b],
            _ => &[],
        }
    }
}

/// The complete off-line index over one data graph, as the builder
/// holds it: the input to [`crate::encode_v2`], and what
/// [`crate::decode_v2`] gives back for an update.
///
/// Every list of path ids it hands out — postings, `content_order` — is
/// in *path-content order*: ascending by `(nodes, edges)`. Two distinct
/// paths never share both, so the order is strict.
#[derive(Debug, Clone)]
pub struct PathIndex {
    graph: DataGraph,
    pools: Pools,
    /// Every path id, in path-content order.
    order: Vec<PathId>,
    /// label → paths containing it (as node or edge label).
    by_label: Postings,
    /// sink label → paths ending in it.
    by_sink: Postings,
    stats: IndexStats,
}

impl PathIndex {
    /// Build with default extraction limits.
    pub fn build(graph: DataGraph) -> Self {
        Self::build_with_config(graph, &ExtractionConfig::default())
    }

    /// Build with explicit extraction limits: extract into the pools,
    /// then order the paths and fill the label and sink postings in
    /// that order.
    pub fn build_with_config(graph: DataGraph, config: &ExtractionConfig) -> Self {
        let build_span = sama_obs::span!(sama_obs::metrics::INDEX_BUILD_NS);
        let start = Instant::now();
        let g = graph.as_graph();
        let mut builder = PoolBuilder {
            graph: g,
            pools: Pools::default(),
            shape_slots: Vec::new(),
            edge_labels: Vec::new(),
        };
        let counts = extract_into(g, config, |nodes, edges| builder.push(nodes, edges));
        let pools = builder.pools;
        // Table 1's hypergraph: a vertex per node, a hyperedge per node
        // with out-neighbours (its star) and per path.
        let stars = g.nodes().filter(|&n| !g.out_edges(n).is_empty()).count();
        let stats = IndexStats {
            triples: graph.edge_count(),
            hyper_vertices: g.node_count(),
            hyper_edges: stars + pools.len(),
            path_count: pools.len(),
            build_time: std::time::Duration::ZERO,
            serialized_bytes: None,
            depth_truncated: counts.depth_truncated,
            dropped: counts.dropped,
        };
        let order = content_order(&pools);
        let vocab_len = graph.vocab().len();
        let node_table = g.node_labels();
        let by_label = Postings::build(vocab_len, &order, |id| {
            let labels = pools.labels_of(id, node_table);
            labels
                .node_labels()
                .chain(labels.edge_labels.iter().copied())
        });
        let by_sink = Postings::build(vocab_len, &order, |id| {
            std::iter::once(pools.labels_of(id, node_table).sink_label())
        });
        let mut index = PathIndex {
            graph,
            pools,
            order,
            by_label,
            by_sink,
            stats,
        };
        index.stats.build_time = start.elapsed();
        drop(build_span);
        sama_obs::metrics::INDEX_BUILDS_TOTAL.add(1);
        sama_obs::metrics::INDEX_PATHS.set(index.stats.path_count as i64);
        sama_obs::metrics::INDEX_TRIPLES.set(index.stats.triples as i64);
        index
    }

    /// Copy a validated image's path store, order and postings back
    /// into pools (used by [`crate::decode_v2`]).
    pub(crate) fn from_view(view: &IndexView<'_>, graph: DataGraph, stats: IndexStats) -> Self {
        let widen = |offs: &[u32]| offs.iter().map(|&o| o as usize).collect();
        let pools = Pools {
            offs: widen(view.path_offs),
            nodes: view.path_nodes.to_vec(),
            edges: view.path_edges.to_vec(),
            shapes: view.path_shapes.to_vec(),
            shape_offs: widen(view.shape_offs),
            shape_labels: view.shape_labels.to_vec(),
        };
        PathIndex {
            order: view.path_order.to_vec(),
            by_label: Postings {
                offs: widen(view.label_offs),
                ids: view.label_posts.to_vec(),
            },
            by_sink: Postings {
                offs: widen(view.sink_offs),
                ids: view.sink_posts.to_vec(),
            },
            graph,
            pools,
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
        self.pools.len()
    }

    /// Look up one indexed path.
    ///
    /// # Panics
    /// Panics if `id` is out of range; use ids produced by this index.
    #[inline]
    pub fn path(&self, id: PathId) -> IndexedPath<'_> {
        let p = &self.pools;
        IndexedPath {
            nodes: p.nodes_of(id),
            edges: p.edges_of(id),
            labels: p.labels_of(id, self.graph.as_graph().node_labels()),
        }
    }

    /// Iterate over all `(PathId, IndexedPath)` pairs, in id order.
    pub fn paths(&self) -> impl Iterator<Item = (PathId, IndexedPath<'_>)> + '_ {
        (0..self.path_count() as u32).map(|i| (PathId(i), self.path(PathId(i))))
    }

    /// The shape id of a path: equal for two paths exactly when their
    /// edge-label sequences are equal; dense in `0..shape_count()`.
    #[inline]
    pub fn path_shape(&self, id: PathId) -> u32 {
        self.pools.shapes[id.index()]
    }

    /// Number of distinct edge-label sequences among the indexed paths.
    #[inline]
    pub fn shape_count(&self) -> usize {
        self.pools.shape_offs.len() - 1
    }

    /// Every path id, in path-content order (the v2 encoder's
    /// `path-order` section).
    #[inline]
    pub fn content_order(&self) -> &[PathId] {
        &self.order
    }

    /// Paths containing `label` anywhere (node or edge position).
    pub fn paths_with_label(&self, label: LabelId) -> &[PathId] {
        self.by_label.get(label)
    }

    /// Paths whose sink carries `label`.
    pub fn paths_with_sink(&self, label: LabelId) -> &[PathId] {
        self.by_sink.get(label)
    }

    /// Label occurrence counts over the indexed paths — the input to
    /// the IC-weighted cost model and the `ic-counts` section of the
    /// v2 format (see [`crate::ic`]). A shape's labels count once per
    /// path that has it.
    pub fn ic_counts(&self) -> IcCounts {
        let p = &self.pools;
        let mut counts = vec![0u64; self.graph.vocab().len()];
        let node_table = self.graph.as_graph().node_labels();
        for node in &p.nodes {
            counts[node_table[node.index()].index()] += 1;
        }
        let mut uses = vec![0u64; self.shape_count()];
        for &shape in &p.shapes {
            uses[shape as usize] += 1;
        }
        for (shape, &n) in uses.iter().enumerate() {
            for label in p.shape(shape as u32) {
                counts[label.index()] += n;
            }
        }
        let total = counts.iter().sum();
        IcCounts { counts, total }
    }

    /// Build statistics (Table 1's row for this dataset).
    #[inline]
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }

    /// Record the serialized size (called by [`crate::serialize_index_v2`]).
    pub(crate) fn set_serialized_bytes(&mut self, bytes: usize) {
        self.stats.serialized_bytes = Some(bytes);
    }

    /// The path store (v2 encoder input).
    pub(crate) fn pools(&self) -> &Pools {
        &self.pools
    }

    /// The label postings (v2 encoder input).
    pub(crate) fn label_postings(&self) -> &Postings {
        &self.by_label
    }

    /// The sink postings (v2 encoder input).
    pub(crate) fn sink_postings(&self) -> &Postings {
        &self.by_sink
    }
}

/// The path ids ascending by `(nodes, edges)`. Extraction emits paths
/// grouped by source, sources ascending, so sorting each source's run
/// is all it takes; the final check confirms that, and a list that came
/// some other way gets the full sort.
fn content_order(pools: &Pools) -> Vec<PathId> {
    let key = |id: &PathId| (pools.nodes_of(*id), pools.edges_of(*id));
    let mut order: Vec<PathId> = (0..pools.len() as u32).map(PathId).collect();
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
    use crate::extract::extract_paths;
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
            .map(|(_, ip)| ip.display(idx.graph().as_graph()).to_string())
            .collect();
        assert!(rendered.contains(&"PD-gender-\"Male\"".to_string()));
    }

    #[test]
    fn pools_hold_what_extraction_emits() {
        let idx = sample_index();
        let g = idx.graph().as_graph();
        let paths = extract_paths(g, &ExtractionConfig::default()).paths;
        assert_eq!(paths.len(), idx.path_count());
        for (path, (_, ip)) in paths.iter().zip(idx.paths()) {
            assert_eq!(ip.nodes, &*path.nodes);
            assert_eq!(ip.edges, &*path.edges);
            assert_eq!(ip.labels, path.labels(g).view());
        }
    }

    #[test]
    fn sink_lookup() {
        let idx = sample_index();
        let hc = idx.graph().vocab().get(&Term::literal("HC")).unwrap();
        assert_eq!(idx.paths_with_sink(hc).len(), 2);
        let male = idx.graph().vocab().get(&Term::literal("Male")).unwrap();
        assert_eq!(idx.paths_with_sink(male).len(), 1);
        // An id past the vocabulary misses cleanly.
        assert!(idx.paths_with_sink(LabelId(9999)).is_empty());
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
    fn shapes_are_interned_past_table_growth() {
        // 40 distinct predicates, each on two chains: 40 shapes, each
        // shared by two paths, across several growths of the table.
        let mut b = DataGraph::builder();
        for i in 0..80 {
            b.triple_str(&format!("s{i}"), &format!("p{}", i % 40), &format!("o{i}"))
                .unwrap();
        }
        let idx = PathIndex::build(b.build());
        assert_eq!(idx.path_count(), 80);
        assert_eq!(idx.shape_count(), 40);
        for (id, ip) in idx.paths() {
            let shape = idx.path_shape(id);
            assert_eq!(idx.pools().shape(shape), ip.labels.edge_labels);
        }
        for i in 0..40 {
            let p = idx
                .graph()
                .vocab()
                .get(&Term::iri(format!("p{i}")))
                .unwrap();
            let [a, b] = idx.paths_with_label(p) else {
                panic!("p{i} is on two paths");
            };
            assert_eq!(idx.path_shape(*a), idx.path_shape(*b));
        }
    }

    #[test]
    fn ic_counts_tally_every_position() {
        let idx = sample_index();
        let want = IcCounts::tally(
            idx.graph().vocab().len(),
            idx.paths().map(|(_, ip)| {
                ip.labels
                    .node_labels()
                    .chain(ip.labels.edge_labels.iter().copied())
                    .collect::<Vec<_>>()
            }),
        );
        assert_eq!(idx.ic_counts(), want);
    }
}
