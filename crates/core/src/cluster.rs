//! The clustering step (paper, Section 5 "Clustering").
//!
//! One cluster per query path `q ∈ PQ`. Candidate data paths are
//! retrieved through the index: paths whose *sink* carries a label the
//! sink of `q` accepts; if there are none, paths containing a label
//! that the first constant found scanning `q` backward from the sink
//! accepts — the labels decomposition resolved each constant to (its
//! own and its synonyms'). Each admitted path is scored against `q`
//! ("before the insertion of a path p in the cluster for q, we evaluate
//! the alignment needed to obtain p from q") and clusters are kept
//! sorted by alignment quality, best (lowest λ) first. An entry is a
//! path and its λ: the search combines entries by λ and χ alone, and
//! aligns in full only the paths an answer chooses.

use crate::align::{align_lambda, AlignmentMode};
use crate::deadline::QueryBudget;
use crate::frontier::{from_total_order_key, total_order_key};
use crate::params::ScoreParams;
use crate::qpath::{QueryLabel, QueryPath};
use crate::score::deletion_lambda;
use path_index::{IndexLike, LabelsRef, LshCandidate, PathId, PathNodes, SynonymProvider};
use rdf_model::{EdgeId, FxHashMap, LabelId, NodeId};
use std::borrow::Cow;
use std::collections::BinaryHeap;

/// Default banding shape of [`Retrieval::Lsh`]: bands. Matches
/// `path_index::LshParams::default()` — band-collision counts are the
/// ranking signal, and 32 of them give enough resolution to order
/// same-sink candidates that 8 could not separate.
pub const LSH_DEFAULT_BANDS: u32 = 32;
/// Default banding shape of [`Retrieval::Lsh`]: rows per band.
pub const LSH_DEFAULT_ROWS: u32 = 2;
/// Default candidate cap of [`Retrieval::Lsh`].
pub const LSH_DEFAULT_TOP_M: usize = 128;
/// Below this many viable LSH candidates (bucket collisions that the
/// exact anchor scan would also admit) the cluster falls back to the
/// exact scan: a near-empty bucket union means the signature carried
/// too little information for the pruning to be trustworthy.
pub const LSH_MIN_CANDIDATES: usize = 8;

/// How the clustering step turns the anchor scan into the candidate
/// list that is actually aligned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Retrieval {
    /// Align every path the anchor scan retrieves — the paper's
    /// behavior, and the `I` of its `O(h·I²)` complexity.
    #[default]
    Exact,
    /// MinHash/LSH candidate tier (see `path_index::lsh`): keep only
    /// the `top_m` anchor-scan candidates with the highest estimated
    /// Jaccard similarity to the query path's label n-grams, ranked by
    /// matching signature rows. A strict filter over the exact scan —
    /// never admits a path the exact scan would not — so answers are a
    /// subset-or-equal of the exact answers, and bit-identical once
    /// `top_m` covers the whole scan. Falls back to the exact scan per
    /// cluster when the index has no LSH tier, the query path hashes
    /// to nothing, or fewer than [`LSH_MIN_CANDIDATES`] viable
    /// candidates collide.
    Lsh {
        /// Bands the stored signatures are grouped into (index-build
        /// shape; query-time probes always use the shape stored in the
        /// attached tier).
        bands: u32,
        /// Signature rows per band.
        rows: u32,
        /// Keep at most this many candidates per cluster.
        top_m: usize,
    },
}

impl Retrieval {
    /// The default LSH tier: 32 bands × 2 rows, `top_m` = 128.
    pub const DEFAULT_LSH: Retrieval = Retrieval::Lsh {
        bands: LSH_DEFAULT_BANDS,
        rows: LSH_DEFAULT_ROWS,
        top_m: LSH_DEFAULT_TOP_M,
    };
}

/// Limits for cluster construction.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Keep at most this many entries per cluster (best-λ first). The
    /// search step only ever combines cluster members, so this bounds
    /// both memory and the search branching factor.
    pub max_cluster_size: usize,
    /// Align at most this many candidates per cluster (an upstream cap
    /// for pathological label frequencies). The index hands candidates
    /// out in path-content order, so the cap keeps the first
    /// `max_candidates` of them in that order.
    pub max_candidates: usize,
    /// When a query path contains no constant at all (pure variable
    /// path), fall back to scanning every indexed path. Disable to make
    /// such clusters empty instead.
    pub allow_full_scan: bool,
    /// Candidate-retrieval tier: exact anchor scan, or LSH-pruned
    /// top-m (ignored when [`ClusterConfig::exhaustive`] is set — an
    /// exhaustive run is explicitly asking for every path).
    pub retrieval: Retrieval,
    /// Skip anchor-based retrieval entirely and align every indexed
    /// path against every query path. Exhaustive and expensive —
    /// intended for small graphs and for verifying properties (e.g.
    /// Theorem 1's end-to-end monotonicity) that the paper's anchor
    /// heuristic does not preserve.
    pub exhaustive: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            max_cluster_size: 256,
            max_candidates: 1 << 17,
            allow_full_scan: true,
            retrieval: Retrieval::Exact,
            exhaustive: false,
        }
    }
}

/// Which retrieval tier produced a cluster's entry list — recorded in
/// EXPLAIN traces so every answer is attributable to the tier that
/// found it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClusterTier {
    /// The exact anchor scan (the paper's behavior), including every
    /// fallback path that ends up aligning the full scan.
    #[default]
    Exact,
    /// The MinHash/LSH tier pruned the anchor scan before alignment.
    Lsh,
}

impl ClusterTier {
    /// Stable lowercase name, used by EXPLAIN traces and diagnostics.
    pub fn as_str(self) -> &'static str {
        match self {
            ClusterTier::Exact => "exact",
            ClusterTier::Lsh => "lsh",
        }
    }
}

/// One scored cluster member: a data path and its λ against the
/// cluster's query path — `align(q, labels, params, mode).lambda`, bit
/// for bit. The full alignment (counts, bindings) is computed only for
/// the paths an answer chooses ([`crate::AlignedPath`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterEntry {
    /// The indexed data path.
    pub path_id: PathId,
    /// Its alignment quality `λ`.
    pub lambda: f64,
}

impl ClusterEntry {
    /// The entry's alignment quality `λ`.
    #[inline]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

/// The cluster of one query path.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Index of the query path in `PQ`.
    pub qpath_index: usize,
    /// Entries sorted ascending by `(λ, path content)` — best first.
    pub entries: Vec<ClusterEntry>,
    /// Cost of covering this query path with nothing at all (cluster
    /// empty, or deliberate skip): full deletion of the path.
    pub deletion_lambda: f64,
    /// Candidates dropped by [`ClusterConfig::max_candidates`] or left
    /// unscored by an expired budget.
    pub candidates_dropped: usize,
    /// Candidates the index retrieved before any cap — the cluster's
    /// contribution to the paper's `I` (Figure 7a's x-axis).
    pub candidates_retrieved: usize,
    /// Candidates the [`Retrieval::Lsh`] tier pruned before alignment
    /// (0 under [`Retrieval::Exact`] or when the tier fell back).
    pub lsh_pruned: usize,
    /// Candidates the fill scored. Fewer than it was given when the
    /// budget expired, or when it stopped early: once
    /// [`ClusterConfig::max_cluster_size`] entries sit at or below the
    /// lowest λ a later candidate can still take, none of them can
    /// enter, and those passed over are neither dropped nor a truncation.
    pub scanned: usize,
    /// Of the [`Cluster::scanned`] candidates, those scored from their
    /// labels: every one of a cluster that fits in
    /// [`ClusterConfig::max_cluster_size`]; in a streamed one, those
    /// holding a label that a constant node of the query path other than
    /// its sink accepts. The other `scanned − touched` were priced by
    /// their shape.
    pub touched: usize,
    /// Alignments computed to score the candidates: one per candidate
    /// of a cluster that fits in [`ClusterConfig::max_cluster_size`]; for
    /// a streamed one, one per path shape (per sink bit read) for the
    /// shape price table plus one per *distinguishable* touched candidate
    /// (see [`memoised_lambdas`]).
    pub alignments_computed: usize,
    /// The retrieval tier that produced [`Cluster::entries`].
    pub tier: ClusterTier,
    /// The alignment mode the entries were scored in; the search aligns
    /// the paths an answer chooses in it.
    pub mode: AlignmentMode,
}

impl Cluster {
    /// The best (lowest) λ available for this cluster, falling back to
    /// the deletion cost when empty — the search lower bound.
    pub fn best_lambda(&self) -> f64 {
        self.entries
            .first()
            .map(ClusterEntry::lambda)
            .unwrap_or(self.deletion_lambda)
    }

    /// `true` if no data path was admitted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Build all clusters for the decomposed query `qpaths` against `index`,
/// on the calling thread.
///
/// `synonyms` is unused: `qpaths` already accept every synonym's label,
/// decomposition put them there. The parameter stays because the frozen
/// performance ledger calls this signature; delete with ROADMAP 1a.
pub fn build_clusters<I: IndexLike>(
    qpaths: &[QueryPath],
    index: &I,
    synonyms: &dyn SynonymProvider,
    params: &ScoreParams,
    mode: AlignmentMode,
    config: &ClusterConfig,
) -> Vec<Cluster> {
    let _ = synonyms;
    build_clusters_budgeted(
        qpaths,
        index,
        params,
        mode,
        config,
        &QueryBudget::unlimited(),
    )
}

/// [`build_clusters`] under a deadline/cancellation budget, polled
/// between clusters and every [`ALIGN_CHECK_INTERVAL`]-th alignment.
/// On expiry the remaining candidates (and clusters) are skipped —
/// their entries simply never exist, which prices the affected query
/// paths closer to deletion, and the skipped candidates are counted in
/// [`Cluster::candidates_dropped`]. An unlimited budget reads no clock
/// and yields bit-identical clusters to [`build_clusters`].
#[allow(clippy::too_many_arguments)]
pub fn build_clusters_budgeted<I: IndexLike>(
    qpaths: &[QueryPath],
    index: &I,
    params: &ScoreParams,
    mode: AlignmentMode,
    config: &ClusterConfig,
    budget: &QueryBudget,
) -> Vec<Cluster> {
    qpaths
        .iter()
        .map(|q| {
            if !budget.is_unlimited() && budget.exceeded().is_some() {
                return Cluster {
                    qpath_index: q.index,
                    entries: Vec::new(),
                    deletion_lambda: deletion_lambda(q.len(), params),
                    candidates_dropped: 0,
                    candidates_retrieved: 0,
                    lsh_pruned: 0,
                    scanned: 0,
                    touched: 0,
                    alignments_computed: 0,
                    tier: ClusterTier::Exact,
                    mode,
                };
            }
            build_cluster(q, index, params, mode, config, budget)
        })
        .collect()
}

/// Candidate alignments between polls of an attached [`QueryBudget`]
/// during clustering.
pub const ALIGN_CHECK_INTERVAL: usize = 256;

fn build_cluster<I: IndexLike>(
    q: &QueryPath,
    index: &I,
    params: &ScoreParams,
    mode: AlignmentMode,
    config: &ClusterConfig,
    budget: &QueryBudget,
) -> Cluster {
    sama_obs::fault::point("cluster.align");
    let retrieve_span = sama_obs::span!(sama_obs::metrics::CLUSTER_RETRIEVE_NS);
    let (exact, sink) = retrieve_candidates(q, index, config);
    let retrieved = exact.len();
    let (candidates, lsh_pruned) = lsh_filter(q, index, exact, config);
    drop(retrieve_span);
    sama_obs::metrics::CLUSTER_CANDIDATES_RETRIEVED.record(retrieved as u64);
    let mut dropped = 0usize;
    let considered: &[PathId] = if candidates.len() > config.max_candidates {
        dropped = candidates.len() - config.max_candidates;
        &candidates[..config.max_candidates]
    } else {
        &candidates
    };

    let align_span = sama_obs::span!(sama_obs::metrics::CLUSTER_ALIGN_NS);
    // The LSH tier and the cap keep a sublist: the sink bit holds for it.
    let fill = fill_chunk(
        q,
        index,
        considered,
        sink,
        params,
        mode,
        config.max_cluster_size,
        budget,
    );
    dropped += fill.unscored;
    // At most `max_cluster_size` entries come back, in candidate order —
    // path-content order — so a stable sort by λ puts them in
    // `(λ, path content)` order.
    let mut entries = fill.entries;
    entries.sort_by(|x, y| x.lambda().total_cmp(&y.lambda()));
    drop(align_span);

    sama_obs::metrics::CLUSTER_BUILDS_TOTAL.add(1);
    sama_obs::metrics::CLUSTER_CANDIDATES_RETRIEVED_TOTAL.add(retrieved as u64);
    sama_obs::metrics::CLUSTER_CANDIDATES_DROPPED_TOTAL.add(dropped as u64);
    sama_obs::metrics::CLUSTER_ALIGNMENTS_COMPUTED_TOTAL.add(fill.computed as u64);

    Cluster {
        qpath_index: q.index,
        entries,
        deletion_lambda: deletion_lambda(q.len(), params),
        candidates_dropped: dropped,
        candidates_retrieved: retrieved,
        lsh_pruned,
        scanned: fill.scanned,
        touched: fill.touched,
        alignments_computed: fill.computed,
        tier: if lsh_pruned > 0 {
            ClusterTier::Lsh
        } else {
            ClusterTier::Exact
        },
        mode,
    }
}

/// The [`Retrieval::Lsh`] tier: prune the exact anchor scan down to
/// the `top_m` candidates with the most matching signature rows.
///
/// Only paths the exact scan retrieved survive (bucket collisions are
/// intersected with `exact`), so downstream answers are always a
/// subset-or-equal of the exact run's — and when the scan already fits
/// in `top_m` it is returned untouched, making the two retrieval modes
/// bit-identical there. Returns the surviving candidates, still in the
/// exact scan's path-content order, plus the number of paths pruned; an
/// unpruned list is passed through untouched.
fn lsh_filter<'a, I: IndexLike + ?Sized>(
    q: &QueryPath,
    index: &I,
    exact: Cow<'a, [PathId]>,
    config: &ClusterConfig,
) -> (Cow<'a, [PathId]>, usize) {
    let Retrieval::Lsh { top_m, .. } = config.retrieval else {
        return (exact, 0);
    };
    if config.exhaustive || exact.len() <= top_m {
        return (exact, 0);
    }
    let Some(params) = index.lsh_params() else {
        sama_obs::metrics::CLUSTER_LSH_FALLBACK_TOTAL.add(1);
        return (exact, 0);
    };
    let shingles = query_shingles(q);
    if shingles.is_empty() {
        // A pure-variable path hashes to nothing; its signature would
        // collide with the empty-path bucket only.
        sama_obs::metrics::CLUSTER_LSH_FALLBACK_TOTAL.add(1);
        return (exact, 0);
    }
    let signature = path_index::lsh::signature_of_shingles(&shingles, params);
    let probe_span = sama_obs::span!(sama_obs::metrics::CLUSTER_LSH_PROBE_NS);
    let collisions = index.lsh_probe(&signature);
    drop(probe_span);
    // Intersect through a bitset over path ids: first with the exact
    // scan, then — holding the `top_m` winners — back over it, so the
    // survivors keep its order.
    let mut marked = PathSet::new(index.total_paths());
    exact.iter().for_each(|&p| marked.insert(p));
    let mut viable: Vec<LshCandidate> = collisions
        .into_iter()
        .filter(|c| marked.contains(c.path))
        .collect();
    sama_obs::metrics::CLUSTER_LSH_CANDIDATES.record(viable.len() as u64);
    if viable.len() < LSH_MIN_CANDIDATES.min(top_m) {
        sama_obs::metrics::CLUSTER_LSH_FALLBACK_TOTAL.add(1);
        return (exact, 0);
    }
    viable.sort_by(|a, b| b.matches.cmp(&a.matches).then(a.path.cmp(&b.path)));
    viable.truncate(top_m);
    marked.clear();
    viable.iter().for_each(|c| marked.insert(c.path));
    let kept: Vec<PathId> = exact
        .iter()
        .copied()
        .filter(|&p| marked.contains(p))
        .collect();
    let pruned = exact.len() - kept.len();
    (Cow::Owned(kept), pruned)
}

/// A set of path ids, one bit per id of the index (`PathSet::default()`:
/// the empty set, with no bits at all).
#[derive(Default)]
struct PathSet(Vec<u64>);

impl PathSet {
    fn new(paths: usize) -> Self {
        PathSet(vec![0; paths.div_ceil(64)])
    }

    fn insert(&mut self, p: PathId) {
        self.0[p.index() / 64] |= 1 << (p.index() % 64);
    }

    #[inline]
    fn contains(&self, p: PathId) -> bool {
        self.0
            .get(p.index() / 64)
            .is_some_and(|word| word >> (p.index() % 64) & 1 == 1)
    }

    fn clear(&mut self) {
        self.0.fill(0);
    }
}

/// MinHash shingles of a *query* path: every accepted data label of
/// every constant contributes a unigram, and every adjacent pair of
/// constant positions (in the node/edge interleaved order the index
/// shingles data paths in) contributes the cross product of their
/// accepted labels as bigrams. Variables contribute nothing — they
/// match anything, so they carry no selectivity.
fn query_shingles(q: &QueryPath) -> Vec<u64> {
    use path_index::lsh::{bigram_shingle, unigram_shingle};
    let mut seq: Vec<&QueryLabel> = Vec::with_capacity(q.nodes.len() + q.edges.len());
    for i in 0..q.nodes.len() {
        seq.push(&q.nodes[i]);
        if i < q.edges.len() {
            seq.push(&q.edges[i]);
        }
    }
    let mut shingles = Vec::new();
    for accepted in seq.iter().filter_map(|label| label.accepted()) {
        shingles.extend(accepted.iter().map(|&l| unigram_shingle(l)));
    }
    for pair in seq.windows(2) {
        if let (Some(a), Some(b)) = (pair[0].accepted(), pair[1].accepted()) {
            for &x in a.iter() {
                shingles.extend(b.iter().map(|&y| bigram_shingle(x, y)));
            }
        }
    }
    shingles.sort_unstable();
    shingles.dedup();
    shingles
}

/// What one run of [`fill_chunk`] did.
struct Fill {
    /// The entries that make the cut, with the λ the fill scored them
    /// at, in candidate order.
    entries: Vec<ClusterEntry>,
    /// Candidates scored ([`Cluster::scanned`]).
    scanned: usize,
    /// Of those, the ones scored from their labels ([`Cluster::touched`]).
    touched: usize,
    /// Candidates an expired budget left unscored; 0 when the fill ran
    /// to the end of the chunk or stopped at its floor.
    unscored: usize,
    /// Alignments the scoring computed.
    computed: usize,
}

/// The cluster-fill kernel: the entries of `chunk` that make the
/// `cap`-entry cut of a stable sort by λ. `chunk` is in path-content
/// order (every [`IndexLike`] list is: its ids ascend, and an index
/// numbers its paths in content order), so candidate position *is* the
/// content tie-break: the cut is the paper's `(λ, path content)` one.
///
/// `budget` is polled every [`ALIGN_CHECK_INTERVAL`]-th candidate, the
/// first included; on expiry the rest of the chunk is skipped.
///
/// A chunk that fits in `cap` is simply scored, each candidate by
/// [`align_lambda`]. A longer one is
/// streamed, and most of its candidates are priced without reading
/// their labels. [`align_lambda`] sees a path only through its
/// [`LambdaMemo`] key: its shape, its sink bit, and which inner constant
/// nodes of `q` admit its other node labels. A candidate that no inner
/// constant touches has no inner bit set, and `sink` — what the
/// retrieval rule fixed — gives its sink bit, so its λ is its shape's
/// entry in a [`ShapePrices`] table, bit for bit. The [`Touched`]
/// candidates are found through the inner constants' label postings and
/// scored up front through the memo. The scan then reads one shape id
/// per untouched candidate (and its sink label where the rule fixed no
/// bit) and offers `(λ, position)` to a `cap`-bounded max-heap. A tie
/// with the heap's worst loses — it comes later — so λ alone decides,
/// and no path content is read. The scan stops once the heap is full
/// and its worst is at or below the *floor*: the least shape price and
/// the least λ of a touched candidate not yet passed. Every later
/// candidate takes one of those values, so none can enter — under any
/// weights, negative ones included. A survivor keeps its heap key as its
/// λ. No candidate is aligned in full here: the search does that for
/// the paths an answer chooses.
///
/// Kept out of line: inlined into [`build_cluster`], its one caller, the
/// streaming loop ran ≈5% slower on the ledger's `lubm_mix` (six of six
/// rounds; EXPERIMENTS.md "Ledger — PR 21").
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn fill_chunk<I: IndexLike + ?Sized>(
    q: &QueryPath,
    index: &I,
    chunk: &[PathId],
    sink: SinkBit,
    params: &ScoreParams,
    mode: AlignmentMode,
    cap: usize,
    budget: &QueryBudget,
) -> Fill {
    let expired = |position| position % ALIGN_CHECK_INTERVAL == 0 && budget.exceeded().is_some();
    if chunk.len() <= cap {
        let mut entries = Vec::with_capacity(chunk.len());
        for (position, &pid) in chunk.iter().enumerate() {
            if expired(position) {
                break;
            }
            entries.push(ClusterEntry {
                path_id: pid,
                lambda: align_lambda(q, index.labels(pid), params, mode),
            });
        }
        let scanned = entries.len();
        return Fill {
            entries,
            scanned,
            touched: scanned,
            unscored: chunk.len() - scanned,
            computed: scanned,
        };
    }
    let none_scored = |computed| Fill {
        entries: Vec::new(),
        scanned: 0,
        touched: 0,
        unscored: chunk.len(),
        computed,
    };
    // Position 0 is polled before the up-front scoring: a budget that
    // expires during it is noticed at the next poll.
    if expired(0) {
        return none_scored(0);
    }
    let prices = ShapePrices::new(q, index, sink, params, mode);
    let mut memo = LambdaMemo::new(q, index, params, mode);
    let Some(mut touched) = Touched::score(&mut memo, sink, budget) else {
        return none_scored(prices.computed + memo.computed);
    };
    let mut floor = prices.floor.min(touched.floor());
    let mut best: BinaryHeap<(i64, usize)> = BinaryHeap::with_capacity(cap);
    let (mut scanned, mut met, mut unscored) = (0, 0, 0);
    for (position, &pid) in chunk.iter().enumerate() {
        if position > 0 && expired(position) {
            unscored = chunk.len() - position;
            break;
        }
        scanned += 1;
        let lambda = match touched.take(pid) {
            Some(lambda) => {
                met += 1;
                floor = prices.floor.min(touched.floor());
                lambda
            }
            None => prices.price(pid),
        };
        if best.len() < cap {
            best.push((lambda, position));
        } else if best.peek().is_some_and(|&(worst, _)| lambda < worst) {
            *best.peek_mut().expect("the heap is full") = (lambda, position);
        }
        // (`cap` = 0: the heap is "full" but has no worst; no stop.)
        if best.len() == cap && best.peek().is_some_and(|&(worst, _)| worst <= floor) {
            break;
        }
    }
    let mut survivors = best.into_vec();
    survivors.sort_unstable_by_key(|&(_, position)| position);
    Fill {
        entries: survivors
            .into_iter()
            .map(|(key, position)| ClusterEntry {
                path_id: chunk[position],
                lambda: from_total_order_key(key),
            })
            .collect(),
        scanned,
        touched: met,
        unscored,
        computed: prices.computed + memo.computed,
    }
}

/// What the retrieval rule fixes about the sink bit of a list's
/// candidates — part (ii) of the [`LambdaMemo`] key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SinkBit {
    /// Every candidate has this bit. A variable sink has no bit, which
    /// prices as `Fixed(false)`.
    Fixed(bool),
    /// The rule fixes nothing: read each candidate's sink label.
    PerCandidate,
}

/// A label id no data label has (ids are below the vocabulary length, a
/// `u32`), so no constant admits it.
const NO_LABEL: LabelId = LabelId(u32::MAX);

/// The λ of every *untouched* candidate of a streamed cluster: per sink
/// bit the list can show and per path shape, what [`align_lambda`]
/// gives a path of that shape whose other nodes carry a label no
/// constant admits ([`NO_LABEL`]) and whose sink label has that bit. By
/// the [`LambdaMemo`] key that is the λ of every path of the shape with
/// that sink bit and no inner bit set. Such a synthetic path is node ids
/// `0 … 0, 1` over the two-entry table `[NO_LABEL, sink label]`: edges
/// `0 … 0` whose one tail is node 0, and sink node 1.
struct ShapePrices<'a, I: ?Sized> {
    index: &'a I,
    sink_label: &'a QueryLabel,
    sink: SinkBit,
    shapes: usize,
    /// `total_order_key` of λ at `bit × shapes + shape`; a row the list
    /// cannot show holds `i64::MAX`.
    keys: Vec<i64>,
    /// The least key of the table: no untouched candidate scores lower.
    floor: i64,
    /// Alignments computed to fill the table.
    computed: usize,
}

impl<'a, I: IndexLike + ?Sized> ShapePrices<'a, I> {
    fn new(
        q: &'a QueryPath,
        index: &'a I,
        sink: SinkBit,
        params: &ScoreParams,
        mode: AlignmentMode,
    ) -> Self {
        let shapes = index.shape_count();
        let bits: &[bool] = match sink {
            SinkBit::Fixed(false) => &[false],
            SinkBit::Fixed(true) => &[true],
            SinkBit::PerCandidate => &[false, true],
        };
        let mut keys = vec![i64::MAX; 2 * shapes];
        let mut edges = Vec::new();
        for &bit in bits {
            let sink_label = match q.sink().accepted() {
                Some(&[first, ..]) if bit => first,
                _ => NO_LABEL,
            };
            let node_table = [NO_LABEL, sink_label];
            for shape in 0..shapes {
                let edge_labels = index.shape_edge_labels(shape as u32);
                edges.clear();
                edges.resize(edge_labels.len(), EdgeId(0));
                let path = LabelsRef {
                    nodes: PathNodes {
                        edges: &edges,
                        edge_from: &[NodeId(0)],
                        sink: NodeId(1),
                    },
                    node_table: &node_table,
                    edge_labels,
                };
                keys[usize::from(bit) * shapes + shape] =
                    total_order_key(align_lambda(q, path, params, mode));
            }
        }
        ShapePrices {
            index,
            sink_label: q.sink(),
            sink,
            shapes,
            floor: keys.iter().copied().min().unwrap_or(i64::MAX),
            keys,
            computed: bits.len() * shapes,
        }
    }

    /// The key of untouched candidate `pid`: a shape id read, and its
    /// sink label where the list's rule fixed no bit.
    #[inline]
    fn price(&self, pid: PathId) -> i64 {
        let bit = match self.sink {
            SinkBit::Fixed(bit) => bit,
            SinkBit::PerCandidate => self.sink_label.admits(self.index.labels(pid).sink_label()),
        };
        self.keys[usize::from(bit) * self.shapes + self.index.path_shape(pid) as usize]
    }
}

/// The *touched* candidates of a streamed cluster — paths with a label
/// that an inner constant node of `q` admits — each scored up front
/// through the memo. They are read from the accepted labels' postings,
/// so the set may hold paths the list does not: those only keep the
/// floor low (the scan never passes them), they never misprice a
/// candidate. A path whose sink bit differs from one the rule fixed
/// cannot be in the list and is left out.
struct Touched {
    /// Membership, one bit per path id (no bits when there is none).
    members: PathSet,
    /// Each member's level in `levels`.
    level_of: FxHashMap<PathId, usize>,
    /// The members' distinct λ keys, ascending, each with the number of
    /// members the scan has not passed yet.
    levels: Vec<(i64, usize)>,
    /// The first level with a member left.
    lowest: usize,
}

impl Touched {
    /// Find and score the touched candidates, polling `budget` at every
    /// [`ALIGN_CHECK_INTERVAL`]-th one after the first. `None` once it
    /// expired.
    fn score<I: IndexLike + ?Sized>(
        memo: &mut LambdaMemo<'_, I>,
        sink: SinkBit,
        budget: &QueryBudget,
    ) -> Option<Touched> {
        let (q, index) = (memo.q, memo.index);
        let mut labels: Vec<LabelId> = memo
            .inner_consts
            .iter()
            .flat_map(|constant| constant.accepted().unwrap_or_default())
            .copied()
            .collect();
        labels.sort_unstable();
        labels.dedup();
        let wanted_sink = match sink {
            SinkBit::Fixed(bit) if !q.sink().is_var() => Some(bit),
            _ => None,
        };
        let mut scored: FxHashMap<PathId, i64> = FxHashMap::default();
        let mut read = 0usize;
        for label in labels {
            for &pid in index.paths_containing(&[label]).iter() {
                if scored.contains_key(&pid) {
                    continue;
                }
                read += 1;
                if read.is_multiple_of(ALIGN_CHECK_INTERVAL) && budget.exceeded().is_some() {
                    return None;
                }
                let path = index.labels(pid);
                if wanted_sink.is_some_and(|bit| q.sink().admits(path.sink_label()) != bit) {
                    continue;
                }
                scored.insert(pid, total_order_key(memo.score(pid, path)));
            }
        }
        let mut keys: Vec<i64> = scored.values().copied().collect();
        keys.sort_unstable();
        keys.dedup();
        let mut levels: Vec<(i64, usize)> = keys.iter().map(|&key| (key, 0)).collect();
        let mut members = if scored.is_empty() {
            PathSet::default()
        } else {
            PathSet::new(index.total_paths())
        };
        let level_of = scored
            .into_iter()
            .map(|(pid, key)| {
                let level = keys.binary_search(&key).expect("a member's key");
                levels[level].1 += 1;
                members.insert(pid);
                (pid, level)
            })
            .collect();
        Some(Touched {
            members,
            level_of,
            levels,
            lowest: 0,
        })
    }

    /// The level of `pid` if it is a member.
    #[inline]
    fn level(&self, pid: PathId) -> Option<usize> {
        self.members.contains(pid).then(|| self.level_of[&pid])
    }

    /// The key of `pid` if it is a member.
    fn key(&self, pid: PathId) -> Option<i64> {
        self.level(pid).map(|level| self.levels[level].0)
    }

    /// [`Touched::key`], and the member counts as passed.
    #[inline]
    fn take(&mut self, pid: PathId) -> Option<i64> {
        let level = self.level(pid)?;
        let key = self.levels[level].0;
        self.levels[level].1 -= 1;
        while self
            .levels
            .get(self.lowest)
            .is_some_and(|&(_, left)| left == 0)
        {
            self.lowest += 1;
        }
        Some(key)
    }

    /// The least key of a member not passed yet (`i64::MAX`: none left).
    fn floor(&self) -> i64 {
        self.levels
            .get(self.lowest)
            .map_or(i64::MAX, |&(key, _)| key)
    }
}

/// The streaming fill's scorer on its own: the λ it gives each of
/// `candidates` against `q` — `align_lambda` of each, bit for bit — and
/// how many alignments it computed to do so. Touched candidates go
/// through the memo, the rest through the shape price table; the sink
/// label of every untouched candidate is read (no retrieval rule fixed
/// its bit). Public so that tests and measurements can hold the scorer
/// to that contract directly; a cluster only ever shows the survivors'
/// λ.
pub fn memoised_lambdas<I: IndexLike + ?Sized>(
    q: &QueryPath,
    index: &I,
    candidates: &[PathId],
    params: &ScoreParams,
    mode: AlignmentMode,
) -> (Vec<f64>, usize) {
    let sink = sink_bit(q);
    let prices = ShapePrices::new(q, index, sink, params, mode);
    let mut memo = LambdaMemo::new(q, index, params, mode);
    let touched =
        Touched::score(&mut memo, sink, &QueryBudget::unlimited()).expect("no budget to expire");
    let lambdas = candidates
        .iter()
        .map(|&pid| from_total_order_key(touched.key(pid).unwrap_or_else(|| prices.price(pid))))
        .collect();
    (lambdas, prices.computed + memo.computed)
}

/// λ for the touched candidates of one streamed cluster, computed once
/// per *distinguishable* candidate.
///
/// [`align_lambda`] reads a data path only through (i) its edge labels
/// — its shape; (ii) whether the query sink admits its sink label (both
/// modes anchor sink on sink, and compare the query sink with nothing
/// else); (iii) which of the query's other constant nodes admit each of
/// its other node labels — a variable admits every label, and its
/// binding is not recorded when only λ is asked for. The memo key is
/// exactly that: the shape id, one bit for (ii) and `|other data
/// nodes| × |other constant query nodes|` bits for (iii), each present
/// only when the query has such a constant. Equal keys make the
/// scan (or the DP) take the same branches and add the same terms in
/// the same order, so a miss stores what [`align_lambda`] returns for
/// that candidate and every hit is that λ bit for bit, whatever the
/// mode, the IC weights or the synonym-widened accepted sets. The same
/// argument prices an untouched candidate by its shape
/// ([`ShapePrices`]). There is no cheaper bound to reject candidates
/// with: the greedy scan is not monotone in node compatibility (a unit
/// that becomes compatible is matched where it was skipped, which
/// shifts every later pairing), so "every constant admitted" is not a
/// lower bound on λ — and the exact key does not need one.
/// A path whose bits do not fit the packed word is scored directly.
struct LambdaMemo<'a, I: ?Sized> {
    q: &'a QueryPath,
    index: &'a I,
    params: &'a ScoreParams,
    mode: AlignmentMode,
    sink_is_const: bool,
    /// The constant node labels of `q` other than its sink.
    inner_consts: Vec<&'a QueryLabel>,
    seen: FxHashMap<(u32, u64), f64>,
    /// [`align_lambda`] calls so far (the misses).
    computed: usize,
}

impl<'a, I: IndexLike + ?Sized> LambdaMemo<'a, I> {
    fn new(q: &'a QueryPath, index: &'a I, params: &'a ScoreParams, mode: AlignmentMode) -> Self {
        let (sink, inner) = q.nodes.split_last().expect("paths are non-empty");
        LambdaMemo {
            q,
            index,
            params,
            mode,
            sink_is_const: !sink.is_var(),
            inner_consts: inner.iter().filter(|label| !label.is_var()).collect(),
            seen: FxHashMap::default(),
            computed: 0,
        }
    }

    /// `align_lambda(q, labels, params, mode)`, where `labels` are the
    /// labels of `pid`.
    fn score(&mut self, pid: PathId, labels: LabelsRef<'_>) -> f64 {
        let key = self
            .node_bits(labels)
            .map(|bits| (self.index.path_shape(pid), bits));
        if let Some(&lambda) = key.and_then(|key| self.seen.get(&key)) {
            return lambda;
        }
        self.computed += 1;
        let lambda = align_lambda(self.q, labels, self.params, self.mode);
        if let Some(key) = key {
            self.seen.insert(key, lambda);
        }
        lambda
    }

    /// Parts (ii) and (iii) of the key, or `None` when they exceed the
    /// word. The layout is a function of the shape (which fixes the
    /// node count), so equal keys mean equal bits at equal places.
    fn node_bits(&self, labels: LabelsRef<'_>) -> Option<u64> {
        let inner = labels.len() - 1;
        let width = usize::from(self.sink_is_const) + inner * self.inner_consts.len();
        if width > u64::BITS as usize {
            return None;
        }
        let mut bits = u64::from(self.sink_is_const && self.q.sink().admits(labels.sink_label()));
        for label in labels.node_labels().take(inner) {
            for constant in &self.inner_consts {
                bits = bits << 1 | u64::from(constant.admits(label));
            }
        }
        Some(bits)
    }
}

/// The paper's retrieval rule, extended into a cascade so approximate
/// queries whose anchors are absent from the data still retrieve
/// candidates:
///
/// 1. sink constant → the paths ending in a label it accepts;
/// 2. each constant scanning backward from the sink (including the sink
///    itself) → the paths containing a label it accepts, first non-empty
///    wins;
/// 3. pure-variable path, or no constant accepting a label on any path
///    → full scan if allowed.
///
/// Returns the list and the sink bit the rule fixes for it: every path
/// of step 1 ends in an accepted label, and no path does once step 1
/// found none.
fn retrieve_candidates<'a, I: IndexLike>(
    q: &QueryPath,
    index: &'a I,
    config: &ClusterConfig,
) -> (Cow<'a, [PathId]>, SinkBit) {
    if config.exhaustive {
        return (Cow::Owned(index.all_path_ids()), sink_bit(q));
    }
    if let Some(accepted) = q.sink().accepted() {
        let by_sink = index.paths_ending_in(accepted);
        if !by_sink.is_empty() {
            return (by_sink, SinkBit::Fixed(true));
        }
    }
    let anchored = q
        .constants_from_sink()
        .map(|anchor| index.paths_containing(anchor.accepted().expect("anchor is a constant")))
        .find(|hits| !hits.is_empty());
    let list = anchored.unwrap_or_else(|| match config.allow_full_scan {
        true => Cow::Owned(index.all_path_ids()),
        false => Cow::Borrowed(&[]),
    });
    (list, SinkBit::Fixed(false))
}

/// The sink bit of a list that owes nothing to the sink postings
/// (`exhaustive`, [`memoised_lambdas`]): read per candidate, unless the
/// sink accepts no label at all.
fn sink_bit(q: &QueryPath) -> SinkBit {
    match q.sink().accepted() {
        Some([_, ..]) => SinkBit::PerCandidate,
        _ => SinkBit::Fixed(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qpath::decompose_query;
    use path_index::{ExtractionConfig, LshParams, LshSidecar, MappedIndex, NoSynonyms, Thesaurus};
    use rdf_model::{DataGraph, QueryGraph};

    /// The full Figure 1 GovTrack-style fragment restricted to what the
    /// clustering example (Figure 3) exercises: six amendment chains,
    /// four direct sponsorships, four gender edges.
    fn figure1_data() -> DataGraph {
        let mut b = DataGraph::builder();
        // Amendment chains: X-sponsor-A-aTo-B-subject-HC
        for (person, amendment, bill) in [
            ("CB", "A0056", "B1432"),
            ("JR", "A1589", "B0532"),
            ("KF", "A1232", "B0045"),
            ("JM", "A0772", "B0045"),
            ("JM", "A1232b", "B0045"), // JM sponsors two amendments
            ("PD", "A0467", "B0532"),
        ] {
            b.triple_str(person, "sponsor", amendment).unwrap();
            b.triple_str(amendment, "aTo", bill).unwrap();
        }
        for bill in ["B1432", "B0532", "B0045"] {
            b.triple_str(bill, "subject", "\"HC\"").unwrap();
        }
        // Direct bill sponsorships: X-sponsor-B-subject-HC
        for (person, bill) in [
            ("JR2", "B0045"),
            ("PT", "B0532"),
            ("AN", "B1432"),
            ("PD", "B1432"),
        ] {
            b.triple_str(person, "sponsor", bill).unwrap();
        }
        // Genders.
        for person in ["JR", "KF", "JM", "PD"] {
            b.triple_str(person, "gender", "\"Male\"").unwrap();
        }
        b.build()
    }

    fn q1() -> QueryGraph {
        let mut b = QueryGraph::builder();
        b.triple_str("CB", "sponsor", "?v1").unwrap();
        b.triple_str("?v1", "aTo", "?v2").unwrap();
        b.triple_str("?v2", "subject", "\"HC\"").unwrap();
        b.triple_str("?v3", "sponsor", "?v2").unwrap();
        b.triple_str("?v3", "gender", "\"Male\"").unwrap();
        b.build()
    }

    fn setup() -> (MappedIndex, Vec<QueryPath>) {
        let data = figure1_data();
        let index = MappedIndex::build(data).unwrap();
        let q = q1();
        let qpaths = decompose_query(&q, &index, &NoSynonyms, &ExtractionConfig::default());
        (index, qpaths)
    }

    fn cluster_for<'a>(clusters: &'a [Cluster], qpaths: &[QueryPath], len: usize) -> &'a Cluster {
        let qi = qpaths.iter().position(|p| p.len() == len).unwrap();
        clusters.iter().find(|c| c.qpath_index == qi).unwrap()
    }

    #[test]
    fn figure3_cluster_scores() {
        let (index, qpaths) = setup();
        let clusters = build_clusters(
            &qpaths,
            &index,
            &NoSynonyms,
            &ScoreParams::paper(),
            AlignmentMode::Greedy,
            &ClusterConfig::default(),
        );
        assert_eq!(clusters.len(), 3);

        // cl1 (q1, the 4-node path): best entry λ=0 (p1 = CB chain),
        // the other five amendment chains at λ=1.
        let cl1 = cluster_for(&clusters, &qpaths, 4);
        let lambdas: Vec<f64> = cl1.entries.iter().map(ClusterEntry::lambda).collect();
        assert_eq!(lambdas[0], 0.0);
        assert_eq!(lambdas.iter().filter(|&&l| l == 1.0).count(), 5);

        // cl2 (q2, 3-node): four λ=0 direct sponsorships, six λ=1.5
        // amendment chains.
        let cl2 = cluster_for(&clusters, &qpaths, 3);
        let lambdas: Vec<f64> = cl2.entries.iter().map(ClusterEntry::lambda).collect();
        assert_eq!(lambdas.iter().filter(|&&l| l == 0.0).count(), 4);
        assert_eq!(lambdas.iter().filter(|&&l| l == 1.5).count(), 6);

        // cl3 (q3, gender): four λ=0.
        let cl3 = cluster_for(&clusters, &qpaths, 2);
        assert_eq!(cl3.entries.len(), 4);
        assert!(cl3.entries.iter().all(|e| e.lambda() == 0.0));
    }

    #[test]
    fn entries_sorted_best_first() {
        let (index, qpaths) = setup();
        let clusters = build_clusters(
            &qpaths,
            &index,
            &NoSynonyms,
            &ScoreParams::paper(),
            AlignmentMode::Greedy,
            &ClusterConfig::default(),
        );
        for c in &clusters {
            for w in c.entries.windows(2) {
                assert!(w[0].lambda() <= w[1].lambda());
            }
        }
    }

    #[test]
    fn same_path_in_two_clusters_with_different_scores() {
        // The paper highlights p1 in both cl1 (λ=0) and cl2 (λ=1.5).
        let (index, qpaths) = setup();
        let clusters = build_clusters(
            &qpaths,
            &index,
            &NoSynonyms,
            &ScoreParams::paper(),
            AlignmentMode::Greedy,
            &ClusterConfig::default(),
        );
        let cl1 = cluster_for(&clusters, &qpaths, 4);
        let cl2 = cluster_for(&clusters, &qpaths, 3);
        let p1 = cl1.entries[0].path_id; // the CB chain, λ=0 in cl1
        let in_cl2 = cl2.entries.iter().find(|e| e.path_id == p1).unwrap();
        assert_eq!(in_cl2.lambda(), 1.5);
    }

    #[test]
    fn max_cluster_size_truncates() {
        let (index, qpaths) = setup();
        let clusters = build_clusters(
            &qpaths,
            &index,
            &NoSynonyms,
            &ScoreParams::paper(),
            AlignmentMode::Greedy,
            &ClusterConfig {
                max_cluster_size: 2,
                ..Default::default()
            },
        );
        assert!(clusters.iter().all(|c| c.entries.len() <= 2));
    }

    #[test]
    fn empty_cluster_reports_deletion_cost() {
        let (index, _) = setup();
        let mut b = QueryGraph::builder();
        b.triple_str("?x", "owns", "\"Spaceship\"").unwrap();
        let q = b.build();
        let qpaths = decompose_query(&q, &index, &NoSynonyms, &ExtractionConfig::default());
        let clusters = build_clusters(
            &qpaths,
            &index,
            &NoSynonyms,
            &ScoreParams::paper(),
            AlignmentMode::Greedy,
            &ClusterConfig {
                allow_full_scan: false,
                ..Default::default()
            },
        );
        assert!(clusters[0].is_empty());
        // 2 nodes + 1 edge: 2·1 + 1·2 = 4.
        assert_eq!(clusters[0].best_lambda(), 4.0);

        // With the full-scan fallback (the default) the cluster fills
        // with label-mismatched candidates instead.
        let fallback = build_clusters(
            &qpaths,
            &index,
            &NoSynonyms,
            &ScoreParams::paper(),
            AlignmentMode::Greedy,
            &ClusterConfig::default(),
        );
        assert!(!fallback[0].is_empty());
        // Best candidate: a 2-node path with sink and edge mismatches
        // (1 + 2 = 3), cheaper than deleting the whole path (4).
        assert_eq!(fallback[0].best_lambda(), 3.0);
    }

    #[test]
    fn synonym_admits_related_sink() {
        let (index, _) = setup();
        let mut b = QueryGraph::builder();
        b.triple_str("?v3", "gender", "\"M\"").unwrap();
        let q = b.build();
        let mut t = Thesaurus::new();
        t.group(["M", "Male"]);
        let qpaths = decompose_query(&q, &index, &t, &ExtractionConfig::default());
        let clusters = build_clusters(
            &qpaths,
            &index,
            &t,
            &ScoreParams::paper(),
            AlignmentMode::Greedy,
            &ClusterConfig::default(),
        );
        assert_eq!(clusters[0].entries.len(), 4);
        // Synonym match is not a mismatch: λ stays 0.
        assert!(clusters[0].entries.iter().all(|e| e.lambda() == 0.0));
    }

    /// Why the anchor is the paper's sink-first rule and not "the
    /// constant that retrieves the fewest paths": under `?w`, the first
    /// constant from the sink is `p1`, which retrieves both paths, and
    /// the `n6` path is a second answer at λ = 1 (one mismatched source).
    /// Anchoring on `n8`, the rarer constant, retrieved one path and lost
    /// that answer — the testkit counterexample that retired the
    /// most-selective rule.
    #[test]
    fn variable_sink_anchors_on_the_first_constant_from_the_sink() {
        let mut b = DataGraph::builder();
        b.triple_str("n6", "p1", "n7").unwrap();
        b.triple_str("n8", "p1", "n3").unwrap();
        let index = MappedIndex::build(b.build()).unwrap();
        let mut qb = QueryGraph::builder();
        qb.triple_str("n8", "p1", "?w").unwrap();
        let qpaths = decompose_query(
            &qb.build(),
            &index,
            &NoSynonyms,
            &ExtractionConfig::default(),
        );
        let clusters = build_clusters(
            &qpaths,
            &index,
            &NoSynonyms,
            &ScoreParams::paper(),
            AlignmentMode::Greedy,
            &ClusterConfig::default(),
        );
        assert_eq!(clusters[0].candidates_retrieved, 2);
        let lambdas: Vec<f64> = clusters[0]
            .entries
            .iter()
            .map(ClusterEntry::lambda)
            .collect();
        assert_eq!(lambdas, [0.0, 1.0]);
    }

    /// `chains` sponsor chains sharing the `"HC"` sink, so the sink
    /// anchor retrieves every chain, plus a query matching chain 0.
    fn lsh_setup(chains: usize) -> (MappedIndex, Vec<QueryPath>) {
        let mut b = DataGraph::builder();
        for i in 0..chains {
            b.triple_str(&format!("P{i}"), "sponsor", &format!("A{i}"))
                .unwrap();
            b.triple_str(&format!("A{i}"), "aTo", &format!("B{i}"))
                .unwrap();
            b.triple_str(&format!("B{i}"), "subject", "\"HC\"").unwrap();
        }
        let index = MappedIndex::build(b.build()).unwrap();
        let mut qb = QueryGraph::builder();
        qb.triple_str("P0", "sponsor", "?v1").unwrap();
        qb.triple_str("?v1", "aTo", "?v2").unwrap();
        qb.triple_str("?v2", "subject", "\"HC\"").unwrap();
        let q = qb.build();
        let qpaths = decompose_query(&q, &index, &NoSynonyms, &ExtractionConfig::default());
        (index, qpaths)
    }

    fn attach_lsh(index: &mut MappedIndex, params: LshParams) {
        let bytes = path_index::build_lsh_bytes(&*index, params).unwrap();
        index
            .attach_lsh(LshSidecar::from_bytes(&bytes).unwrap())
            .unwrap();
    }

    fn clusters_with(
        index: &MappedIndex,
        qpaths: &[QueryPath],
        retrieval: Retrieval,
    ) -> Vec<Cluster> {
        build_clusters(
            qpaths,
            index,
            &NoSynonyms,
            &ScoreParams::paper(),
            AlignmentMode::Greedy,
            &ClusterConfig {
                retrieval,
                ..Default::default()
            },
        )
    }

    #[test]
    fn lsh_converges_to_exact_at_large_top_m() {
        let (mut index, qpaths) = lsh_setup(32);
        attach_lsh(&mut index, LshParams::default());
        let exact = clusters_with(&index, &qpaths, Retrieval::Exact);
        let lsh = clusters_with(
            &index,
            &qpaths,
            Retrieval::Lsh {
                bands: 8,
                rows: 2,
                top_m: 1 << 20,
            },
        );
        for (e, l) in exact.iter().zip(&lsh) {
            assert_eq!(e.entries, l.entries);
            assert_eq!(e.candidates_retrieved, l.candidates_retrieved);
            assert_eq!(l.lsh_pruned, 0);
        }
    }

    #[test]
    fn lsh_prunes_but_keeps_the_best_candidate() {
        let (mut index, qpaths) = lsh_setup(64);
        // The default 64-row signature separates the one true match
        // from 63 same-sink chains with deterministic margin.
        attach_lsh(&mut index, LshParams { bands: 32, rows: 2 });
        let exact = clusters_with(&index, &qpaths, Retrieval::Exact);
        let lsh = clusters_with(
            &index,
            &qpaths,
            Retrieval::Lsh {
                bands: 32,
                rows: 2,
                top_m: 8,
            },
        );
        let (e, l) = (&exact[0], &lsh[0]);
        assert_eq!(e.candidates_retrieved, 64);
        assert_eq!(l.candidates_retrieved, 64, "retrieved counts the scan");
        assert!(l.lsh_pruned > 0);
        assert!(l.entries.len() <= 8);
        // Every LSH entry also exists, same score, in the exact run.
        for entry in &l.entries {
            assert!(e.entries.contains(entry));
        }
        // The λ=0 chain (shares every constant with the query) must
        // out-collide the rest and survive the pruning.
        assert_eq!(l.best_lambda(), 0.0);
        assert_eq!(l.entries[0], e.entries[0]);
    }

    #[test]
    fn lsh_without_sidecar_falls_back_to_exact() {
        let (index, qpaths) = lsh_setup(64);
        let exact = clusters_with(&index, &qpaths, Retrieval::Exact);
        let lsh = clusters_with(&index, &qpaths, Retrieval::DEFAULT_LSH);
        for (e, l) in exact.iter().zip(&lsh) {
            assert_eq!(e.entries, l.entries);
            assert_eq!(l.lsh_pruned, 0);
        }
    }

    #[test]
    fn pure_variable_query_falls_back_under_lsh() {
        let (mut index, _) = lsh_setup(64);
        attach_lsh(&mut index, LshParams::default());
        let mut b = QueryGraph::builder();
        b.triple_str("?a", "?p", "?b").unwrap();
        let q = b.build();
        let qpaths = decompose_query(&q, &index, &NoSynonyms, &ExtractionConfig::default());
        let exact = clusters_with(&index, &qpaths, Retrieval::Exact);
        let lsh = clusters_with(
            &index,
            &qpaths,
            Retrieval::Lsh {
                bands: 8,
                rows: 2,
                top_m: 8,
            },
        );
        // No constants → no shingles → the tier must fall back, not
        // return an empty cluster.
        assert_eq!(exact[0].entries, lsh[0].entries);
        assert_eq!(lsh[0].lsh_pruned, 0);
    }

    #[test]
    fn pure_variable_path_full_scan() {
        let (index, _) = setup();
        let mut b = QueryGraph::builder();
        b.triple_str("?a", "?p", "?b").unwrap();
        let q = b.build();
        let qpaths = decompose_query(&q, &index, &NoSynonyms, &ExtractionConfig::default());
        let clusters = build_clusters(
            &qpaths,
            &index,
            &NoSynonyms,
            &ScoreParams::paper(),
            AlignmentMode::Greedy,
            &ClusterConfig::default(),
        );
        assert!(!clusters[0].is_empty());

        let no_scan = build_clusters(
            &qpaths,
            &index,
            &NoSynonyms,
            &ScoreParams::paper(),
            AlignmentMode::Greedy,
            &ClusterConfig {
                allow_full_scan: false,
                ..Default::default()
            },
        );
        assert!(no_scan[0].is_empty());
    }
}
