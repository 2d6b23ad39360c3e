//! The clustering step (paper, Section 5 "Clustering").
//!
//! One cluster per query path `q ∈ PQ`. Candidate data paths are
//! retrieved through the index: paths whose *sink* matches the sink of
//! `q`; if the sink of `q` is a variable, paths containing a label
//! matching the first constant found scanning `q` backward from the
//! sink. Each admitted path is aligned against `q` ("before the
//! insertion of a path p in the cluster for q, we evaluate the
//! alignment needed to obtain p from q") and clusters are kept sorted
//! by alignment quality, best (lowest λ) first.

use crate::align::{align, align_lambda, Alignment, AlignmentMode};
use crate::deadline::QueryBudget;
use crate::frontier::total_order_key;
use crate::params::ScoreParams;
use crate::qpath::{QueryLabel, QueryPath};
use crate::score::deletion_lambda;
use path_index::{IndexLike, LabelsRef, LshCandidate, PathId, SynonymProvider};
use rdf_model::{FxHashMap, LabelId};
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
        /// sidecar).
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
    /// The synonym relaxation tier rebuilt a thin cluster with a
    /// thesaurus-widened query path.
    Synonym,
}

impl ClusterTier {
    /// Stable lowercase name, used by EXPLAIN traces and diagnostics.
    pub fn as_str(self) -> &'static str {
        match self {
            ClusterTier::Exact => "exact",
            ClusterTier::Lsh => "lsh",
            ClusterTier::Synonym => "synonym",
        }
    }
}

/// One scored cluster member.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterEntry {
    /// The indexed data path.
    pub path_id: PathId,
    /// Its alignment against the cluster's query path.
    pub alignment: Alignment,
}

impl ClusterEntry {
    /// The entry's alignment quality `λ`.
    #[inline]
    pub fn lambda(&self) -> f64 {
        self.alignment.lambda
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
    /// [`ClusterConfig::max_cluster_size`] entries sit at λ = 0, no later
    /// candidate can enter, and those passed over are neither dropped
    /// nor a truncation.
    pub scanned: usize,
    /// Alignments computed to score the candidates: one per candidate
    /// of a cluster that fits in [`ClusterConfig::max_cluster_size`],
    /// one per *distinguishable* candidate of a streamed one (see
    /// [`memoised_lambdas`]). The survivors' binding pass is not counted.
    pub alignments_computed: usize,
    /// The retrieval tier that produced [`Cluster::entries`].
    pub tier: ClusterTier,
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
pub fn build_clusters<I: IndexLike>(
    qpaths: &[QueryPath],
    index: &I,
    synonyms: &dyn SynonymProvider,
    params: &ScoreParams,
    mode: AlignmentMode,
    config: &ClusterConfig,
) -> Vec<Cluster> {
    build_clusters_budgeted(
        qpaths,
        index,
        synonyms,
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
    synonyms: &dyn SynonymProvider,
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
                    alignments_computed: 0,
                    tier: ClusterTier::Exact,
                };
            }
            build_cluster(q, index, synonyms, params, mode, config, budget)
        })
        .collect()
}

/// Candidate alignments between polls of an attached [`QueryBudget`]
/// during clustering.
pub const ALIGN_CHECK_INTERVAL: usize = 256;

#[allow(clippy::too_many_arguments)]
fn build_cluster<I: IndexLike>(
    q: &QueryPath,
    index: &I,
    synonyms: &dyn SynonymProvider,
    params: &ScoreParams,
    mode: AlignmentMode,
    config: &ClusterConfig,
    budget: &QueryBudget,
) -> Cluster {
    sama_obs::fault::point("cluster.align");
    let retrieve_span = sama_obs::span!("cluster.retrieve_ns");
    let exact = retrieve_candidates(q, index, synonyms, config);
    let retrieved = exact.len();
    let (candidates, lsh_pruned) = lsh_filter(q, index, exact, config);
    drop(retrieve_span);
    sama_obs::observe("cluster.candidates_retrieved", retrieved as u64);
    let mut dropped = 0usize;
    let considered: &[PathId] = if candidates.len() > config.max_candidates {
        dropped = candidates.len() - config.max_candidates;
        &candidates[..config.max_candidates]
    } else {
        &candidates
    };

    let align_span = sama_obs::span!("cluster.align_ns");
    let fill = fill_chunk(
        q,
        index,
        considered,
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

    sama_obs::counter_add("cluster.builds_total", 1);
    sama_obs::counter_add("cluster.candidates_retrieved_total", retrieved as u64);
    sama_obs::counter_add("cluster.candidates_dropped_total", dropped as u64);
    sama_obs::counter_add("cluster.alignments_computed_total", fill.computed as u64);

    Cluster {
        qpath_index: q.index,
        entries,
        deletion_lambda: deletion_lambda(q.len(), params),
        candidates_dropped: dropped,
        candidates_retrieved: retrieved,
        lsh_pruned,
        scanned: fill.scanned,
        alignments_computed: fill.computed,
        tier: if lsh_pruned > 0 {
            ClusterTier::Lsh
        } else {
            ClusterTier::Exact
        },
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
/// exact scan's path-content order, plus the number of paths pruned.
fn lsh_filter<I: IndexLike + ?Sized>(
    q: &QueryPath,
    index: &I,
    exact: Vec<PathId>,
    config: &ClusterConfig,
) -> (Vec<PathId>, usize) {
    let Retrieval::Lsh { top_m, .. } = config.retrieval else {
        return (exact, 0);
    };
    if config.exhaustive || exact.len() <= top_m {
        return (exact, 0);
    }
    let Some(params) = index.lsh_params() else {
        sama_obs::counter_add("cluster.lsh_fallback_total", 1);
        return (exact, 0);
    };
    let shingles = query_shingles(q);
    if shingles.is_empty() {
        // A pure-variable path hashes to nothing; its signature would
        // collide with the empty-path bucket only.
        sama_obs::counter_add("cluster.lsh_fallback_total", 1);
        return (exact, 0);
    }
    let signature = path_index::lsh::signature_of_shingles(&shingles, params);
    let probe_span = sama_obs::span!("cluster.lsh_probe_ns");
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
    sama_obs::observe("cluster.lsh_candidates", viable.len() as u64);
    if viable.len() < LSH_MIN_CANDIDATES.min(top_m) {
        sama_obs::counter_add("cluster.lsh_fallback_total", 1);
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
    (kept, pruned)
}

/// A set of path ids, one bit per id of the index.
struct PathSet(Vec<u64>);

impl PathSet {
    fn new(paths: usize) -> Self {
        PathSet(vec![0; paths.div_ceil(64)])
    }

    fn insert(&mut self, p: PathId) {
        self.0[p.index() / 64] |= 1 << (p.index() % 64);
    }

    fn contains(&self, p: PathId) -> bool {
        self.0[p.index() / 64] >> (p.index() % 64) & 1 == 1
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
    for label in &seq {
        if let QueryLabel::Const { accepted, .. } = label {
            shingles.extend(accepted.iter().map(|&l| unigram_shingle(l)));
        }
    }
    for pair in seq.windows(2) {
        if let (QueryLabel::Const { accepted: a, .. }, QueryLabel::Const { accepted: b, .. }) =
            (pair[0], pair[1])
        {
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
    /// The entries that make the cut, fully aligned, in candidate order.
    entries: Vec<ClusterEntry>,
    /// Candidates scored ([`Cluster::scanned`]).
    scanned: usize,
    /// Candidates an expired budget left unscored; 0 when the fill ran
    /// to the end of the chunk or stopped at λ = 0.
    unscored: usize,
    /// Alignments the scoring computed.
    computed: usize,
}

/// The cluster-fill kernel: the entries of `chunk` that make the
/// `cap`-entry cut of a stable sort by λ. `chunk` is in path-content
/// order (every [`IndexLike`] list is), so candidate position *is* the
/// content tie-break: the cut is the paper's `(λ, path content)` one,
/// the same entry set whatever the path ids — an index rebuilt after an
/// update numbers its paths differently.
///
/// `budget` is polled every [`ALIGN_CHECK_INTERVAL`]-th candidate, the
/// first included; on expiry the rest of the chunk is skipped.
///
/// A chunk that fits in `cap` is simply aligned. A longer one is
/// streamed: each candidate is scored through a [`LambdaMemo`] (the
/// λ of [`align_lambda`], computed once per distinguishable candidate)
/// and offered to a `cap`-bounded max-heap of `(λ, position)`. A tie
/// with the heap's worst loses — it comes later — so λ alone decides,
/// and no path content is read. Once the heap is full at λ = 0 nothing
/// later can enter ([`lambda_floor_is_zero`]) and the scan stops. Only
/// the survivors get the full [`align`].
///
/// Kept out of line: inlined into [`build_cluster`], its one caller, the
/// streaming loop ran ≈5% slower on the ledger's `lubm_mix` (six of six
/// rounds; EXPERIMENTS.md "Ledger — PR 21").
#[inline(never)]
fn fill_chunk<I: IndexLike + ?Sized>(
    q: &QueryPath,
    index: &I,
    chunk: &[PathId],
    params: &ScoreParams,
    mode: AlignmentMode,
    cap: usize,
    budget: &QueryBudget,
) -> Fill {
    let entry = |pid| ClusterEntry {
        path_id: pid,
        alignment: align(q, index.labels(pid), params, mode),
    };
    let expired = |position| position % ALIGN_CHECK_INTERVAL == 0 && budget.exceeded().is_some();
    if chunk.len() <= cap {
        let mut entries = Vec::with_capacity(chunk.len());
        for (position, &pid) in chunk.iter().enumerate() {
            if expired(position) {
                break;
            }
            entries.push(entry(pid));
        }
        let scanned = entries.len();
        return Fill {
            entries,
            scanned,
            unscored: chunk.len() - scanned,
            computed: scanned,
        };
    }
    let floor = lambda_floor_is_zero(q, params).then(|| total_order_key(0.0));
    let mut memo = LambdaMemo::new(q, index, params, mode);
    let mut best: BinaryHeap<(i64, usize)> = BinaryHeap::with_capacity(cap);
    let mut scanned = 0;
    let mut unscored = 0;
    for (position, &pid) in chunk.iter().enumerate() {
        if expired(position) {
            unscored = chunk.len() - position;
            break;
        }
        scanned += 1;
        let lambda = total_order_key(memo.lambda(pid));
        if best.len() < cap {
            best.push((lambda, position));
        } else if best.peek().is_some_and(|&(worst, _)| lambda < worst) {
            *best.peek_mut().expect("the heap is full") = (lambda, position);
        } else {
            // Not better than the worst, or `cap` is 0: nothing changed.
            continue;
        }
        // (A `None` floor is below every `Some`: no stop.)
        if best.len() == cap && best.peek().is_some_and(|&(worst, _)| Some(worst) <= floor) {
            break;
        }
    }
    let mut survivors: Vec<usize> = best.into_iter().map(|(_, position)| position).collect();
    survivors.sort_unstable();
    Fill {
        entries: survivors
            .into_iter()
            .map(|position| entry(chunk[position]))
            .collect(),
        scanned,
        unscored,
        computed: memo.computed,
    }
}

/// `true` when no candidate can score below λ = 0 against `q`, so a fill
/// whose heap is full at λ = 0 may stop: λ (Eq. 1) sums products of the
/// cost parameters, the query path's IC weights and operation counts,
/// and here none of them is negative. (A `-0.0` parameter can only make
/// λ `-0.0` when all six are, and then for every candidate alike.)
/// `SamaEngine::with_params` asserts [`ScoreParams::is_valid`] and IC
/// weights are never negative, so every engine query qualifies.
fn lambda_floor_is_zero(q: &QueryPath, params: &ScoreParams) -> bool {
    let mut weights = [&q.node_weights, &q.edge_weights]
        .into_iter()
        .flatten()
        .flat_map(|weights| weights.iter());
    params.is_valid() && weights.all(|w| w.is_finite() && *w >= 0.0)
}

/// The streaming fill's scorer on its own: the λ it gives each of
/// `candidates` against `q` — `align_lambda` of each, bit for bit —
/// and how many alignments it computed to do so. Public so that tests
/// and measurements can hold the memo to that contract directly; a
/// cluster only ever shows the survivors' λ.
pub fn memoised_lambdas<I: IndexLike + ?Sized>(
    q: &QueryPath,
    index: &I,
    candidates: &[PathId],
    params: &ScoreParams,
    mode: AlignmentMode,
) -> (Vec<f64>, usize) {
    let mut memo = LambdaMemo::new(q, index, params, mode);
    let lambdas = candidates.iter().map(|&pid| memo.lambda(pid)).collect();
    (lambdas, memo.computed)
}

/// λ for the candidates of one streamed cluster, computed once per
/// *distinguishable* candidate.
///
/// [`align_lambda`] reads a data path only through (i) its edge labels
/// — its shape; (ii) whether the query sink admits its sink label (both
/// modes anchor sink on sink, and compare the query sink with nothing
/// else); (iii) which of the query's other constant nodes admit each of
/// its other node labels — a variable admits every label, and its
/// binding is not recorded when only λ is asked for. The memo key is
/// exactly that: the shape id, one bit for (ii) and `|other data
/// nodes| × |other constant query nodes|` bits for (iii), each present
/// only when the query has such a constant — so a query path without
/// constant nodes touches no label pool at all. Equal keys make the
/// scan (or the DP) take the same branches and add the same terms in
/// the same order, so a miss stores what [`align_lambda`] returns for
/// that candidate and every hit is that λ bit for bit, whatever the
/// mode, the IC weights or the synonym-widened accepted sets. There is
/// no cheaper bound to reject candidates with: the greedy scan is not
/// monotone in node compatibility (a unit that becomes compatible is
/// matched where it was skipped, which shifts every later pairing), so
/// "every constant admitted" is not a lower bound on λ — and the exact
/// key does not need one.
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
    /// Per shape, the bits last looked up and their λ: a path's bits
    /// are nearly always those of the previous path of its shape (none
    /// admitted), so most lookups end here, one load short of a hash
    /// probe.
    recent: Vec<Option<(u64, f64)>>,
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
            recent: vec![None; index.shape_count()],
            computed: 0,
        }
    }

    /// `align_lambda(q, index.labels(pid), params, mode)`. Reads the
    /// candidate's labels at most once, and only its shape id on a hit
    /// when `q` has no constant node.
    #[inline]
    fn lambda(&mut self, pid: PathId) -> f64 {
        let index = self.index;
        let reads_nodes = self.sink_is_const || !self.inner_consts.is_empty();
        let labels = reads_nodes.then(|| index.labels(pid));
        let bits = match labels {
            Some(labels) => self.node_bits(labels.node_labels),
            None => Some(0),
        };
        let Some(bits) = bits else {
            return self.miss(pid, labels, None);
        };
        let shape = index.path_shape(pid);
        if let Some((_, lambda)) = self.recent[shape as usize].filter(|recent| recent.0 == bits) {
            return lambda;
        }
        let lambda = match self.seen.get(&(shape, bits)) {
            Some(&lambda) => lambda,
            None => self.miss(pid, labels, Some((shape, bits))),
        };
        self.recent[shape as usize] = Some((bits, lambda));
        lambda
    }

    /// The rare side of [`LambdaMemo::lambda`], out of line so the hit
    /// path stays a hash probe: align, and remember the λ under `key`
    /// (`None`: too long for the packed word, scored but not kept).
    #[cold]
    fn miss(&mut self, pid: PathId, labels: Option<LabelsRef<'_>>, key: Option<(u32, u64)>) -> f64 {
        self.computed += 1;
        let labels = labels.unwrap_or_else(|| self.index.labels(pid));
        let lambda = align_lambda(self.q, labels, self.params, self.mode);
        if let Some(key) = key {
            self.seen.insert(key, lambda);
        }
        lambda
    }

    /// Parts (ii) and (iii) of the key, or `None` when they exceed the
    /// word. The layout is a function of the shape (which fixes the
    /// node count), so equal keys mean equal bits at equal places.
    fn node_bits(&self, node_labels: &[LabelId]) -> Option<u64> {
        let (&sink, inner) = node_labels.split_last().expect("paths are non-empty");
        let width = usize::from(self.sink_is_const) + inner.len() * self.inner_consts.len();
        if width > u64::BITS as usize {
            return None;
        }
        let mut bits = u64::from(self.sink_is_const && self.q.sink().admits(sink));
        for &label in inner {
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
/// 1. sink constant → sink-label lookup;
/// 2. each constant scanning backward from the sink (including the sink
///    itself) → containment lookup, first non-empty wins;
/// 3. pure-variable path, or every constant absent → full scan if
///    allowed.
fn retrieve_candidates<I: IndexLike>(
    q: &QueryPath,
    index: &I,
    synonyms: &dyn SynonymProvider,
    config: &ClusterConfig,
) -> Vec<PathId> {
    if config.exhaustive {
        return index.all_path_ids();
    }
    if let Some(lexical) = q.sink().lexical() {
        let by_sink = index.sink_matching(lexical, synonyms);
        if !by_sink.is_empty() {
            return by_sink;
        }
    }
    for anchor in q.constants_from_sink() {
        let lexical = anchor.lexical().expect("anchor is a constant");
        let hits = index.label_matching(lexical, synonyms);
        if !hits.is_empty() {
            return hits;
        }
    }
    if config.allow_full_scan {
        index.all_path_ids()
    } else {
        Vec::new()
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
