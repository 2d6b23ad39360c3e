//! Sharded indexing — the paper's future work: "we plan to implement
//! the approach in a Grid environment (for instance using
//! Hadoop/Hbase)".
//!
//! The path model distributes naturally: every source→sink path lives
//! entirely within the walk of one source, so partitioning the *source
//! set* across shards partitions the *path set* with no replication
//! and no cross-shard paths. A [`ShardedIndex`] builds one
//! [`PathIndex`] per shard (in parallel — each shard stands in for a
//! grid node), fans lookups out, and exposes a single global `PathId`
//! space, so query answering over a sharded index produces *bit-equal
//! scores* to the single-index engine (integration-tested).
//!
//! The shards share the global node-id space (each holds a replica of
//! the data graph, as a distributed store would replicate its
//! dictionary), which is what keeps the conformity function `χ` —
//! common *nodes* between paths of different shards — exact.

use crate::extract::{extract_paths_from_sources, ExtractionConfig};
use crate::ic::{IcCounts, IcTable};
use crate::index::{IndexedPath, PathIndex};
use crate::path::{LabelsRef, PathId};
use crate::stats::IndexStats;
use crate::synonyms::SynonymProvider;
use rdf_model::{DataGraph, EdgeId, FxHashMap, LabelId, NodeId, TermKind, Vocabulary};
use std::sync::OnceLock;

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
/// ascending and deduplicated — the admission rule behind
/// [`IndexLike::sink_matching`] and [`IndexLike::label_matching`].
pub(crate) fn match_via(
    labels: &(impl ConstantLookup + ?Sized),
    lexical: &str,
    synonyms: &dyn SynonymProvider,
    mut lookup: impl FnMut(LabelId, &mut Vec<PathId>),
) -> Vec<PathId> {
    let mut out: Vec<PathId> = Vec::new();
    if let Some(label) = labels.get_constant(lexical) {
        lookup(label, &mut out);
    }
    for synonym in synonyms.synonyms(lexical) {
        if let Some(label) = labels.get_constant(&synonym) {
            lookup(label, &mut out);
        }
    }
    // One posting list is ascending and duplicate-free as it is; only a
    // union of several needs the merge.
    if !out.windows(2).all(|w| w[0] < w[1]) {
        out.sort_unstable();
        out.dedup();
    }
    out
}

/// The lookup interface shared by [`PathIndex`], [`ShardedIndex`] and
/// the zero-copy [`crate::MappedIndex`] — everything the
/// query-answering pipeline needs from an index.
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
    fn sink_matching(&self, lexical: &str, synonyms: &dyn SynonymProvider) -> Vec<PathId>;

    /// Paths containing a label matching `lexical` (or a synonym).
    fn label_matching(&self, lexical: &str, synonyms: &dyn SynonymProvider) -> Vec<PathId>;

    /// Every path id (the clustering full-scan fallback).
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
        self.paths().map(|(id, _)| id).collect()
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

/// A collection of per-source-partition shards behind one global
/// `PathId` space. Shards are any [`IndexLike`] — owned [`PathIndex`]es
/// built in-process, or [`crate::MappedIndex`]es sharing read-only file
/// mappings.
#[derive(Debug, Clone)]
pub struct ShardedIndex<I: IndexLike = PathIndex> {
    shards: Vec<I>,
    /// `offsets[i]` = first global id of shard `i`; a final entry holds
    /// the total, so `offsets.len() == shards.len() + 1`.
    offsets: Vec<u32>,
    /// `shape_maps[i][s]` = the global shape id of shard `i`'s shape
    /// `s`: each shard interned its own edge-label sequences, and equal
    /// sequences of different shards must share one id.
    shape_maps: Vec<Vec<u32>>,
    shape_count: usize,
    /// Merged IC weight table, derived lazily. Shards partition the
    /// path set disjointly over a shared vocabulary, so summing their
    /// per-label counts reproduces the single-index table exactly.
    ic: OnceLock<IcTable>,
}

impl ShardedIndex {
    /// Partition the sources of `graph` round-robin into `shard_count`
    /// shards and index each independently. Shard builds run on a
    /// worker pool capped at `available_parallelism` — a 64-shard build
    /// on an 8-core box runs 8 builds at a time instead of spawning 64
    /// OS threads that fight over the cores.
    ///
    /// # Panics
    /// Panics if `shard_count` is zero.
    pub fn build(graph: DataGraph, shard_count: usize, config: &ExtractionConfig) -> Self {
        assert!(shard_count > 0, "at least one shard");
        let _span = sama_obs::span!("shard.build_ns");
        sama_obs::gauge_set("shard.count", shard_count as i64);
        let sources = graph.as_graph().effective_sources();
        let mut partitions: Vec<Vec<rdf_model::NodeId>> = vec![Vec::new(); shard_count];
        for (i, &s) in sources.iter().enumerate() {
            partitions[i % shard_count].push(s);
        }

        let build_one = |partition: &[rdf_model::NodeId]| -> PathIndex {
            let graph = graph.clone();
            let extraction = extract_paths_from_sources(graph.as_graph(), partition, config);
            let paths: Vec<IndexedPath> = extraction
                .paths
                .into_iter()
                .map(|path| {
                    let labels = path.labels(graph.as_graph());
                    IndexedPath::new(path, labels)
                })
                .collect();
            let stats = IndexStats {
                triples: graph.edge_count(),
                path_count: paths.len(),
                depth_truncated: extraction.depth_truncated,
                dropped: extraction.dropped,
                ..Default::default()
            };
            PathIndex::from_parts(graph, paths, stats)
        };

        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(shard_count);
        let shards: Vec<PathIndex> = if threads <= 1 {
            partitions.iter().map(|p| build_one(p)).collect()
        } else {
            // Fixed pool of `threads` workers claiming partitions off an
            // atomic cursor; slot `i` always receives partition `i`'s
            // index, so shard order (and the global id space) is
            // independent of scheduling.
            use std::sync::atomic::{AtomicUsize, Ordering};
            use std::sync::Mutex;
            let cursor = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<PathIndex>>> =
                partitions.iter().map(|_| Mutex::new(None)).collect();
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(partition) = partitions.get(i) else {
                            break;
                        };
                        let shard = build_one(partition);
                        *slots[i].lock().expect("shard slot poisoned") = Some(shard);
                    });
                }
            });
            slots
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .expect("shard slot poisoned")
                        .expect("every shard built")
                })
                .collect()
        };
        Self::from_shards(shards)
    }
}

impl<I: IndexLike> ShardedIndex<I> {
    /// Assemble a sharded index from pre-built per-partition indexes
    /// (e.g. shards deserialized from disk, or the build pool above).
    /// Shards may be empty — an empty shard occupies zero ids, so its
    /// offset equals the next shard's (the id→shard lookup steps past
    /// such duplicate offsets to the shard that owns the id).
    ///
    /// # Panics
    /// Panics if `shards` is empty — [`IndexLike::data`] needs at least
    /// one shard's graph replica.
    pub fn from_shards(shards: Vec<I>) -> Self {
        assert!(!shards.is_empty(), "at least one shard");
        let mut offsets = Vec::with_capacity(shards.len() + 1);
        let mut total = 0u32;
        for shard in &shards {
            offsets.push(total);
            total += shard.total_paths() as u32;
        }
        offsets.push(total);
        // Unify the shards' shape ids: walk each shard's paths and
        // intern the sequence of every local shape on first sight.
        let mut global: FxHashMap<Box<[LabelId]>, u32> = FxHashMap::default();
        let shape_maps = shards
            .iter()
            .map(|shard| {
                let mut map = vec![u32::MAX; shard.shape_count()];
                for local in (0..shard.total_paths() as u32).map(PathId) {
                    let slot = &mut map[shard.path_shape(local) as usize];
                    if *slot == u32::MAX {
                        let next = global.len() as u32;
                        *slot = *global
                            .entry(shard.labels(local).edge_labels.into())
                            .or_insert(next);
                    }
                }
                map
            })
            .collect();
        ShardedIndex {
            shards,
            offsets,
            shape_maps,
            shape_count: global.len(),
            ic: OnceLock::new(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards themselves (read-only).
    pub fn shards(&self) -> &[I] {
        &self.shards
    }

    /// `(shard, local id)` for a global id.
    ///
    /// An empty shard (a partition that extracted zero paths — e.g.
    /// more shards than sources) contributes a *duplicate* offset:
    /// `offsets[i] == offsets[i + 1]`. `partition_point` returns the
    /// first offset *greater* than `id`, so stepping back one lands on
    /// the **last** shard whose offset is `≤ id` — exactly the one
    /// non-empty owner among any run of equal offsets. Regression-
    /// tested in `locate_skips_empty_shards` for empty shards at the
    /// head, middle, and tail, and at every shard boundary.
    fn locate(&self, id: PathId) -> (usize, PathId) {
        debug_assert!(
            id.0 < *self.offsets.last().expect("offsets non-empty"),
            "path id {id:?} out of range"
        );
        let shard = self
            .offsets
            .partition_point(|&off| off <= id.0)
            .saturating_sub(1);
        (shard, PathId(id.0 - self.offsets[shard]))
    }

    fn globalize(&self, shard: usize, ids: Vec<PathId>) -> Vec<PathId> {
        let offset = self.offsets[shard];
        ids.into_iter().map(|id| PathId(id.0 + offset)).collect()
    }

    fn fan_out(&self, lookup: impl Fn(&I) -> Vec<PathId>) -> Vec<PathId> {
        let _span = sama_obs::span!("shard.fan_out_ns");
        sama_obs::counter_add("shard.fan_outs_total", 1);
        let mut out = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            out.extend(self.globalize(i, lookup(shard)));
        }
        out
    }
}

impl<I: IndexLike> IndexLike for ShardedIndex<I> {
    fn data(&self) -> &DataGraph {
        self.shards[0].data()
    }

    // Every shard holds a replica of the graph and its dictionary, so
    // shard 0 answers the label-level reads.
    fn constant_label(&self, lexical: &str) -> Option<LabelId> {
        self.shards[0].constant_label(lexical)
    }

    fn label_lexical(&self, label: LabelId) -> &str {
        self.shards[0].label_lexical(label)
    }

    fn label_kind(&self, label: LabelId) -> TermKind {
        self.shards[0].label_kind(label)
    }

    fn edge_labels(&self, edge: EdgeId) -> (LabelId, LabelId, LabelId) {
        self.shards[0].edge_labels(edge)
    }

    fn total_paths(&self) -> usize {
        *self.offsets.last().expect("offsets non-empty") as usize
    }

    fn path_nodes(&self, id: PathId) -> &[NodeId] {
        let (shard, local) = self.locate(id);
        self.shards[shard].path_nodes(local)
    }

    fn path_edges(&self, id: PathId) -> &[EdgeId] {
        let (shard, local) = self.locate(id);
        self.shards[shard].path_edges(local)
    }

    fn labels(&self, id: PathId) -> LabelsRef<'_> {
        let (shard, local) = self.locate(id);
        self.shards[shard].labels(local)
    }

    fn sorted_nodes(&self, id: PathId) -> &[NodeId] {
        let (shard, local) = self.locate(id);
        self.shards[shard].sorted_nodes(local)
    }

    fn path_shape(&self, id: PathId) -> u32 {
        let (shard, local) = self.locate(id);
        self.shape_maps[shard][self.shards[shard].path_shape(local) as usize]
    }

    fn shape_count(&self) -> usize {
        self.shape_count
    }

    fn sink_matching(&self, lexical: &str, synonyms: &dyn SynonymProvider) -> Vec<PathId> {
        self.fan_out(|shard| shard.sink_matching(lexical, synonyms))
    }

    fn label_matching(&self, lexical: &str, synonyms: &dyn SynonymProvider) -> Vec<PathId> {
        self.fan_out(|shard| shard.label_matching(lexical, synonyms))
    }

    fn all_path_ids(&self) -> Vec<PathId> {
        (0..self.total_paths() as u32).map(PathId).collect()
    }

    fn lsh_params(&self) -> Option<crate::lsh::LshParams> {
        // Probes only work when every shard carries an LSH tier built
        // with the same banding shape — signatures must live in one
        // hash space for match counts to be comparable across shards.
        let mut params = None;
        for shard in &self.shards {
            match (params, shard.lsh_params()) {
                (_, None) => return None,
                (None, found) => params = found,
                (Some(p), Some(q)) if p != q => return None,
                _ => {}
            }
        }
        params
    }

    fn lsh_probe(&self, signature: &[u32]) -> Vec<crate::lsh::LshCandidate> {
        let mut out = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            let offset = self.offsets[i];
            out.extend(shard.lsh_probe(signature).into_iter().map(|mut c| {
                c.path = PathId(c.path.0 + offset);
                c
            }));
        }
        out
    }

    fn ic_table(&self) -> Option<IcTable> {
        Some(
            self.ic
                .get_or_init(|| {
                    // Tally over the global id space: every path lives in
                    // exactly one shard and the vocabulary is shared, so
                    // this is the single-index tally verbatim.
                    let counts = IcCounts::tally(
                        self.data().vocab().len(),
                        (0..self.total_paths() as u32).map(|i| {
                            let l = self.labels(PathId(i));
                            l.node_labels
                                .iter()
                                .copied()
                                .chain(l.edge_labels.iter().copied())
                        }),
                    );
                    IcTable::from_counts(&counts)
                })
                .clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synonyms::NoSynonyms;
    use rdf_model::Term;

    fn sample_graph() -> DataGraph {
        let mut b = DataGraph::builder();
        for i in 0..12 {
            b.triple_str(&format!("s{i}"), "p", &format!("m{}", i % 4))
                .unwrap();
        }
        for m in 0..4 {
            b.triple_str(&format!("m{m}"), "q", "\"leaf\"").unwrap();
        }
        b.build()
    }

    #[test]
    fn sharding_partitions_all_paths() {
        let graph = sample_graph();
        let single = PathIndex::build(graph.clone());
        for shard_count in [1usize, 2, 3, 5] {
            let sharded =
                ShardedIndex::build(graph.clone(), shard_count, &ExtractionConfig::default());
            assert_eq!(sharded.shard_count(), shard_count);
            assert_eq!(
                sharded.total_paths(),
                single.path_count(),
                "{shard_count} shards"
            );

            // Same path multiset, possibly different order.
            let render = |paths: Vec<String>| {
                let mut v = paths;
                v.sort();
                v
            };
            let single_paths = render(
                single
                    .paths()
                    .map(|(_, ip)| ip.path.display(single.graph().as_graph()).to_string())
                    .collect(),
            );
            let sharded_paths = render(
                (0..sharded.total_paths() as u32)
                    .map(|i| {
                        crate::path::display_parts(
                            sharded.data().as_graph(),
                            sharded.path_nodes(PathId(i)),
                            sharded.path_edges(PathId(i)),
                        )
                        .to_string()
                    })
                    .collect(),
            );
            assert_eq!(single_paths, sharded_paths);
        }
    }

    #[test]
    fn lookups_agree_with_single_index() {
        let graph = sample_graph();
        let single = PathIndex::build(graph.clone());
        let sharded = ShardedIndex::build(graph, 3, &ExtractionConfig::default());
        let render = |index: &dyn Fn(PathId) -> String, ids: Vec<PathId>| -> Vec<String> {
            let mut v: Vec<String> = ids.into_iter().map(index).collect();
            v.sort();
            v
        };
        let single_render = |id: PathId| {
            single
                .path(id)
                .path
                .display(single.graph().as_graph())
                .to_string()
        };
        let sharded_render = |id: PathId| {
            crate::path::display_parts(
                sharded.data().as_graph(),
                sharded.path_nodes(id),
                sharded.path_edges(id),
            )
            .to_string()
        };
        for probe in ["leaf", "m1", "p"] {
            assert_eq!(
                render(&single_render, single.sink_matching(probe, &NoSynonyms)),
                render(&sharded_render, sharded.sink_matching(probe, &NoSynonyms)),
                "sink {probe}"
            );
            assert_eq!(
                render(&single_render, single.label_matching(probe, &NoSynonyms)),
                render(&sharded_render, sharded.label_matching(probe, &NoSynonyms)),
                "label {probe}"
            );
        }
    }

    #[test]
    fn locate_roundtrips_every_id() {
        let sharded = ShardedIndex::build(sample_graph(), 4, &ExtractionConfig::default());
        for i in 0..sharded.total_paths() as u32 {
            let (_, _) = sharded.locate(PathId(i)); // must not panic
            let _ = sharded.path_nodes(PathId(i));
        }
    }

    #[test]
    fn single_shard_equals_plain_index() {
        let graph = sample_graph();
        let single = PathIndex::build(graph.clone());
        let sharded = ShardedIndex::build(graph, 1, &ExtractionConfig::default());
        assert_eq!(sharded.total_paths(), single.path_count());
    }

    #[test]
    fn more_shards_than_sources_is_fine() {
        let mut b = DataGraph::builder();
        b.triple_str("a", "p", "b").unwrap();
        let sharded = ShardedIndex::build(b.build(), 8, &ExtractionConfig::default());
        assert_eq!(sharded.total_paths(), 1);
        assert_eq!(sharded.shard_count(), 8);
        // Seven of the eight shards are empty; the one path still
        // resolves (and the empty shards contribute duplicate offsets).
        let _ = sharded.path_nodes(PathId(0));
        assert!(sharded.offsets.windows(2).any(|w| w[0] == w[1]));
    }

    /// A shard over `graph` holding zero paths (a grid node whose
    /// partition extracted nothing).
    fn empty_shard(graph: &DataGraph) -> PathIndex {
        PathIndex::from_parts(graph.clone(), Vec::new(), IndexStats::default())
    }

    /// A shard holding exactly the paths of the given sources.
    fn shard_of(graph: &DataGraph, sources: &[rdf_model::NodeId]) -> PathIndex {
        let extraction =
            extract_paths_from_sources(graph.as_graph(), sources, &ExtractionConfig::default());
        let paths: Vec<IndexedPath> = extraction
            .paths
            .into_iter()
            .map(|path| {
                let labels = path.labels(graph.as_graph());
                IndexedPath::new(path, labels)
            })
            .collect();
        PathIndex::from_parts(graph.clone(), paths, IndexStats::default())
    }

    #[test]
    fn locate_skips_empty_shards() {
        let graph = sample_graph();
        let sources = graph.as_graph().effective_sources();
        assert!(sources.len() >= 4);
        let (first, rest) = sources.split_at(2);
        // Empty shards at the head, in the middle, and at the tail:
        // offsets carry duplicate entries at every empty slot.
        let sharded = ShardedIndex::from_shards(vec![
            empty_shard(&graph),
            shard_of(&graph, first),
            empty_shard(&graph),
            empty_shard(&graph),
            shard_of(&graph, rest),
            empty_shard(&graph),
        ]);
        let single = PathIndex::build(graph.clone());
        assert_eq!(sharded.total_paths(), single.path_count());

        // Every id resolves to a non-empty shard, ids are dense, and
        // the path multiset matches the single index.
        let mut rendered: Vec<String> = (0..sharded.total_paths() as u32)
            .map(|i| {
                let (shard, local) = sharded.locate(PathId(i));
                assert!(
                    sharded.shards()[shard].path_count() > 0,
                    "id {i} resolved to empty shard {shard}"
                );
                assert!((local.0 as usize) < sharded.shards()[shard].path_count());
                crate::path::display_parts(
                    sharded.data().as_graph(),
                    sharded.path_nodes(PathId(i)),
                    sharded.path_edges(PathId(i)),
                )
                .to_string()
            })
            .collect();
        rendered.sort();
        let mut expected: Vec<String> = single
            .paths()
            .map(|(_, ip)| ip.path.display(single.graph().as_graph()).to_string())
            .collect();
        expected.sort();
        assert_eq!(rendered, expected);

        // Shard-boundary ids in particular: the first and last path of
        // each non-empty shard round-trip through globalize/locate.
        let mut global = 0u32;
        for (si, shard) in sharded.shards().iter().enumerate() {
            if shard.path_count() == 0 {
                continue;
            }
            let first_id = PathId(global);
            let last_id = PathId(global + shard.path_count() as u32 - 1);
            assert_eq!(sharded.locate(first_id), (si, PathId(0)));
            assert_eq!(
                sharded.locate(last_id),
                (si, PathId(shard.path_count() as u32 - 1))
            );
            global += shard.path_count() as u32;
        }
    }

    #[test]
    fn build_caps_threads_but_keeps_all_shards() {
        // 64 shards on any machine: the pool must still produce every
        // shard, in order, with the same global path set.
        let graph = sample_graph();
        let single = PathIndex::build(graph.clone());
        let sharded = ShardedIndex::build(graph, 64, &ExtractionConfig::default());
        assert_eq!(sharded.shard_count(), 64);
        assert_eq!(sharded.total_paths(), single.path_count());
    }

    #[test]
    fn vocabulary_is_shared_across_shards() {
        let graph = sample_graph();
        let sharded = ShardedIndex::build(graph, 3, &ExtractionConfig::default());
        let leaf = sharded
            .data()
            .vocab()
            .get(&Term::literal("leaf"))
            .expect("label interned");
        // Every shard resolves the same label id identically.
        for shard in sharded.shards() {
            assert_eq!(
                shard.graph().vocab().get(&Term::literal("leaf")),
                Some(leaf)
            );
        }
    }
}
