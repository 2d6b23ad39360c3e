//! Top-k answer search (paper, Section 5 "Search").
//!
//! "The last step aims at generating the most relevant solutions by
//! combining the paths in the clusters built in the previous step …
//! generating directly the top-k solutions by trying to minimize the
//! number of combinations between paths."
//!
//! We implement the combination as a best-first branch-and-bound over
//! prefix assignments: clusters are assigned in `PQ` order; a state's
//! priority is
//!
//! ```text
//! f(state) = Λ(assigned) + Ψ(assigned pairs)           (exact so far)
//!          + Σ_{unassigned clusters} best λ            (admissible bound)
//! ```
//!
//! Expansion uses *lazy successors* (the classic top-k join scheme):
//! popping a state pushes at most two new states — its **child** (the
//! next cluster assigned its best entry) and its **sibling** (the same
//! prefix with the last choice advanced to the next-best entry). Since
//! cluster entries are sorted by λ and penalties are non-negative,
//! every state's priority lower-bounds every assignment in its
//! subtree, so completed states pop in non-decreasing score order —
//! the *monotone emission* property behind the paper's reciprocal-rank
//! experiment — while the frontier stays linear in the number of pops
//! instead of multiplying by cluster width.
//!
//! # What an expansion costs
//!
//! Among equal priorities the search pops *deeper* states first (drive
//! toward completion instead of fanning out shallow siblings), then
//! older insertions, for determinism. With the paper's parameters every
//! priority is a multiple of 0.5, and IC weights only add the sums of a
//! few per-label weights, so a frontier that grows to ≈198 000 states
//! holds a handful of distinct `(priority, depth)` pairs. The frontier
//! is therefore a [`Frontier`]: one FIFO bucket per pair — insertion
//! numbers only grow, so appending to a bucket *is* "older first" and the
//! pop sequence is the one a binary heap under that ordering produces
//! (`tests/search_frontier.rs`) — at a cost that does not depend on the
//! frontier's size.
//!
//! A queued state is 8 bytes and owns nothing: it names the last link
//! of its choice list, a chain of 16-byte (parent, choice, cost) links
//! shared with the states it was derived from and read back (≤ one link
//! per cluster) when it is popped. A link holds the exact cost of the
//! prefix that ends at it, so a state's cost, and its sibling's starting
//! cost, are read from the arena rather than carried through the
//! frontier. Pushing a state therefore copies and allocates nothing; the
//! only growth is the amortised doubling of the link arena and of a
//! bucket. What is left per expansion is mostly χ, and a χ lookup first
//! tests two 64-bit node masks, merging the node sets only when the
//! masks share a bit. DESIGN §5 has the measurements, including what a
//! workload of all-distinct priorities — the case buckets are worst at —
//! costs.

use crate::align::align;
use crate::answer::{AlignedPath, Answer, ChosenPath};
use crate::cluster::Cluster;
use crate::deadline::QueryBudget;
use crate::frontier::Frontier;
use crate::igraph::IntersectionGraph;
use crate::params::ScoreParams;
use crate::qpath::QueryPath;
use crate::score::{chi_count_sorted, PairConformity, ScoreBreakdown};
use path_index::IndexLike;
use rdf_model::NodeId;
use std::borrow::Cow;
use std::collections::HashSet;

/// Limits for the combination search.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Maximum number of state expansions before giving up (the
    /// already-emitted answers are returned with `truncated = true`).
    pub max_expansions: usize,
    /// Cap on the frontier size; the worst states are discarded when it
    /// overflows (can only affect answers beyond the cap's horizon).
    pub max_frontier: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            max_expansions: 200_000,
            max_frontier: 1 << 20,
        }
    }
}

/// Why the exact combination search stopped before exhausting the
/// space (recorded in [`SearchOutcome`] and the per-query
/// [`crate::ExplainTrace`]). The *first* limit hit wins — a frontier
/// overflow followed by the expansion budget reports the overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncationReason {
    /// [`SearchConfig::max_expansions`] was reached: the budget for
    /// state pops ran out before the space was exhausted.
    ExpansionLimit,
    /// [`SearchConfig::max_frontier`] overflowed and the worst frontier
    /// states were discarded, so later answers may be missing.
    FrontierOverflow,
    /// The query's wall-clock budget ([`crate::QueryBudget`]) expired;
    /// the answers emitted so far plus a greedy completion of the
    /// frontier are returned as the best-effort partial top-k.
    DeadlineExceeded,
    /// The query's [`crate::CancelToken`] fired; the partial result is
    /// assembled exactly as for a deadline expiry.
    Cancelled,
}

impl TruncationReason {
    /// Stable machine-readable name (used in the EXPLAIN trace JSON).
    pub fn as_str(&self) -> &'static str {
        match self {
            TruncationReason::ExpansionLimit => "expansion_limit",
            TruncationReason::FrontierOverflow => "frontier_overflow",
            TruncationReason::DeadlineExceeded => "deadline_exceeded",
            TruncationReason::Cancelled => "cancelled",
        }
    }
}

/// `|χ|` evaluations of one search. Every lookup is computed: a test of
/// two node masks of the search's `ChiSets`, then, only when the masks
/// share a bit, a sorted merge over the two node sets (~10 ns), which no
/// memo beat in the ledger (DESIGN §5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChiStats {
    pub(crate) lookups: u64,
    /// Always 0: there is no χ cache to hit. Read by the ledger's
    /// `core.search.chi_hit_rate`; goes with its next revision.
    pub hits: u64,
    /// Always 0, as [`ChiStats::hits`].
    pub shared_hits: u64,
}

impl ChiStats {
    /// Total `|χ|` evaluations.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }
}

/// The search result.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Up to `k` answers. While `truncated` is `false` these are the
    /// exact top-k in non-decreasing score order; after truncation the
    /// tail is filled by greedy completion of the best frontier states
    /// (still sorted, but optimality is no longer guaranteed).
    pub answers: Vec<Answer>,
    /// Number of expansions performed.
    pub expansions: usize,
    /// `true` if a limit stopped the exact search early.
    pub truncated: bool,
    /// Which limit stopped the search (`None` while `truncated` is
    /// `false`).
    pub truncation: Option<TruncationReason>,
    /// `|χ|` evaluations of this search.
    pub chi_stats: ChiStats,
}

/// A frontier state: a prefix assignment of the first `depth` clusters
/// (the depth is the state's frontier key, not stored here).
///
/// A state *covers* two sets of assignments: the completions of its own
/// prefix, and (until the sibling is pushed) the subtree where its last
/// choice is advanced to later cluster entries. Its frontier priority is
/// the minimum of the two subtrees' lower bounds; popping a state whose
/// priority came from the sibling bound pushes the sibling and
/// re-inserts the state with its own (tighter) bound.
///
/// Its costs live in the arena: the prefix's is its link's
/// [`Link::g`], the sibling's starting cost that of the link's parent.
#[derive(Debug, Clone, Copy)]
struct State {
    /// The [`Link`] holding the last choice; its parents hold the rest.
    link: u32,
    /// `true` once the sibling subtree has its own frontier entry.
    sibling_pushed: bool,
}

/// One slot of a state's choice list, linked to the slot before it, so
/// that pushing a state copies nothing: a child's list is its parent's
/// plus one link, a sibling's is all but the last link of its twin's.
/// Links live in [`SearchStream::links`] until the stream is dropped —
/// at most two are added per expansion.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// The link of the previous cluster's choice ([`NO_LINK`] at depth 1).
    parent: u32,
    /// Entry index in this cluster; [`DELETED`] encodes deletion (only
    /// used for empty clusters).
    choice: u32,
    /// Exact cost of the prefix that ends at this link (Λ + Ψ among
    /// its choices).
    g: f64,
}

// The frontier moves states, and the arena grows by a link per push: a
// cost that creeps back into the queued state fails the build here.
const _: () = assert!(std::mem::size_of::<State>() == 8);
const _: () = assert!(std::mem::size_of::<Link>() == 16);

const DELETED: u32 = u32::MAX;
const NO_LINK: u32 = u32::MAX;

/// Expansion pops between polls of an attached [`QueryBudget`] (the
/// first pop always polls, so an already-expired budget does no work).
/// One poll is a clock read — at this interval the amortized cost is
/// well under the cost of a single expansion.
pub const BUDGET_CHECK_INTERVAL: u32 = 16;

/// The node set of every entry of every cluster an IG edge touches,
/// sorted ascending and deduplicated: what `χ`, "the set of common
/// nodes of two paths" (paper §4, Eq. 2), intersects. Built once when a
/// search starts, so a χ lookup merges two runs of this arena instead
/// of reading the index; the clusters no IG edge touches take no part
/// in any χ and have no runs. The combination forest reads it too.
///
/// Each run also has a 64-bit mask, one bit per node ([`node_bit`]):
/// two runs whose masks share no bit share no node, so [`ChiSets::chi`]
/// answers 0 for them without the merge. The mask is a property of one
/// run, computed with it; nothing is remembered between lookups.
pub(crate) struct ChiSets {
    /// Per cluster, the run of its entry 0 (entry `e` is run
    /// `first + e`); unused for a cluster no IG edge touches.
    first: Vec<usize>,
    /// Run `r` is `nodes[offs[r]..offs[r + 1]]`.
    offs: Vec<usize>,
    /// Run `r`'s node mask: the [`node_bit`] of each of its nodes.
    masks: Vec<u64>,
    nodes: Vec<NodeId>,
}

/// The mask bit of `node`: the top six bits of a multiplicative hash of
/// its id pick one of 64.
#[inline]
fn node_bit(node: NodeId) -> u64 {
    1 << (u64::from(node.0).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
}

impl ChiSets {
    pub(crate) fn build<I: IndexLike + ?Sized>(
        clusters: &[Cluster],
        ig: &IntersectionGraph,
        index: &I,
    ) -> ChiSets {
        let mut touched = vec![false; clusters.len()];
        for edge in &ig.edges {
            touched[edge.qi] = true;
            touched[edge.qj] = true;
        }
        let mut sets = ChiSets {
            first: Vec::with_capacity(clusters.len()),
            offs: vec![0],
            masks: Vec::new(),
            nodes: Vec::new(),
        };
        let mut set = Vec::new();
        for (cluster, touched) in clusters.iter().zip(touched) {
            sets.first.push(sets.masks.len());
            if !touched {
                continue;
            }
            for entry in &cluster.entries {
                set.clear();
                set.extend_from_slice(index.path_nodes(entry.path_id));
                set.sort_unstable();
                set.dedup();
                sets.push_run(&set);
            }
        }
        sets
    }

    /// Append the run of the sorted, deduplicated node set `set`.
    fn push_run(&mut self, set: &[NodeId]) {
        self.masks
            .push(set.iter().fold(0, |mask, &node| mask | node_bit(node)));
        self.nodes.extend_from_slice(set);
        self.offs.push(self.nodes.len());
    }

    #[inline]
    fn run(&self, run: usize) -> &[NodeId] {
        &self.nodes[self.offs[run]..self.offs[run + 1]]
    }

    /// `|χ|` of entry `entry_a` of cluster `cluster_a` and entry
    /// `entry_b` of cluster `cluster_b`: 0 when their masks share no
    /// bit, the sorted merge of their node sets otherwise.
    #[inline]
    pub(crate) fn chi(
        &self,
        (cluster_a, entry_a): (usize, u32),
        (cluster_b, entry_b): (usize, u32),
    ) -> usize {
        let a = self.first[cluster_a] + entry_a as usize;
        let b = self.first[cluster_b] + entry_b as usize;
        if self.masks[a] & self.masks[b] == 0 {
            return 0;
        }
        chi_count_sorted(self.run(a), self.run(b))
    }
}

/// A resumable combination search: answers pop lazily in
/// non-decreasing score order. Holds the decomposition artefacts
/// (`PQ`, IG, clusters) — owned when built with [`SearchStream::new`],
/// so the stream can outlive the call that created it — the node sets
/// it reads the index for once, at the start, and the index itself,
/// which it reads again only to align the paths an answer chooses.
///
/// Obtained from [`crate::SamaEngine::answer_stream`] or built directly;
/// [`search_top_k`] is the batch wrapper.
pub struct SearchStream<'a> {
    index: &'a dyn IndexLike,
    qpaths: Cow<'a, [QueryPath]>,
    ig: Cow<'a, IntersectionGraph>,
    clusters: Cow<'a, [Cluster]>,
    chi_sets: ChiSets,
    params: ScoreParams,
    config: SearchConfig,
    /// Suffix sums of per-cluster lower bounds.
    bound: Vec<f64>,
    frontier: Frontier<State>,
    links: Vec<Link>,
    /// The choice list of the state being expanded, read out of `links`
    /// once per pop; `choices.len()` is the number of clusters.
    choices: Vec<u32>,
    expansions: usize,
    truncated: bool,
    truncation: Option<TruncationReason>,
    /// `|χ|` evaluations so far.
    chi_lookups: u64,
    /// Deadline/cancellation budget; unlimited by default, in which
    /// case no clock is ever read.
    budget: QueryBudget,
    /// Pops until the next budget poll (0 = poll on the next pop, so
    /// an already-expired budget is noticed before any work).
    budget_countdown: u32,
}

impl<'a> SearchStream<'a> {
    /// Start a search over pre-built decomposition artefacts.
    pub fn new<I: IndexLike>(
        qpaths: Vec<QueryPath>,
        ig: IntersectionGraph,
        clusters: Vec<Cluster>,
        index: &'a I,
        params: ScoreParams,
        config: SearchConfig,
    ) -> Self {
        Self::start(
            Cow::Owned(qpaths),
            Cow::Owned(ig),
            Cow::Owned(clusters),
            index,
            params,
            config,
        )
    }

    fn start<I: IndexLike>(
        qpaths: Cow<'a, [QueryPath]>,
        ig: Cow<'a, IntersectionGraph>,
        clusters: Cow<'a, [Cluster]>,
        index: &'a I,
        params: ScoreParams,
        config: SearchConfig,
    ) -> Self {
        debug_assert_eq!(qpaths.len(), clusters.len());
        let n = clusters.len();
        let mut bound = vec![0.0f64; n + 1];
        for i in (0..n).rev() {
            bound[i] = bound[i + 1] + clusters[i].best_lambda();
        }
        let chi_sets = ChiSets::build(&clusters, &ig, index);
        let mut stream = SearchStream {
            index,
            qpaths,
            ig,
            clusters,
            chi_sets,
            params,
            config,
            bound,
            frontier: Frontier::new(),
            links: Vec::new(),
            choices: vec![0; n],
            expansions: 0,
            truncated: false,
            truncation: None,
            chi_lookups: 0,
            budget: QueryBudget::unlimited(),
            budget_countdown: 0,
        };
        if n > 0 {
            let first = first_choice(&stream.clusters[0]);
            stream.push_state(NO_LINK, 0, first);
        }
        stream
    }

    /// Attach a deadline/cancellation budget, polled on the first
    /// expansion pop and every [`BUDGET_CHECK_INTERVAL`]-th thereafter.
    /// The default unlimited budget costs nothing.
    pub fn with_budget(mut self, budget: QueryBudget) -> Self {
        self.budget = budget;
        self.budget_countdown = 0;
        self
    }

    /// The decomposed query paths.
    pub fn query_paths(&self) -> &[QueryPath] {
        &self.qpaths
    }

    /// The intersection query graph.
    pub fn intersection_graph(&self) -> &IntersectionGraph {
        &self.ig
    }

    /// The clusters, in `PQ` order.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Expansions performed so far.
    pub fn expansions(&self) -> usize {
        self.expansions
    }

    /// `true` once a limit has stopped the exact search (no further
    /// answers will be produced by [`SearchStream::next_answer`]).
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// Which limit stopped the exact search, if one did. The first
    /// limit hit is kept when both eventually trigger.
    pub fn truncation_reason(&self) -> Option<TruncationReason> {
        self.truncation
    }

    /// Record `reason` the first time a limit trips.
    fn mark_truncated(&mut self, reason: TruncationReason) {
        self.truncated = true;
        self.truncation.get_or_insert(reason);
    }

    /// `|χ|` evaluations so far.
    pub fn chi_stats(&self) -> ChiStats {
        ChiStats {
            lookups: self.chi_lookups,
            ..ChiStats::default()
        }
    }

    /// Read the `depth` choices ending at `link` into
    /// `self.choices[..depth]`.
    fn load_choices(&mut self, mut link: u32, depth: usize) {
        for slot in (0..depth).rev() {
            let Link { parent, choice, .. } = self.links[link as usize];
            self.choices[slot] = choice;
            link = parent;
        }
    }

    /// The exact cost of the prefix whose last link is `link` (0 for
    /// the empty prefix, [`NO_LINK`]).
    #[inline]
    fn cost_at(&self, link: u32) -> f64 {
        if link == NO_LINK {
            0.0
        } else {
            self.links[link as usize].g
        }
    }

    /// Push the state that assigns `choice` to cluster `slot` on top of
    /// the prefix `self.choices[..slot]`, whose last link is `parent`.
    fn push_state(&mut self, parent: u32, slot: usize, choice: u32) {
        let g_prefix = self.cost_at(parent);
        let g = g_prefix
            + choice_cost(
                &self.choices[..slot],
                choice,
                slot,
                &self.ig,
                &self.clusters,
                &self.chi_sets,
                &self.params,
                &mut self.chi_lookups,
            );
        let own = g + self.bound[slot + 1];
        // The *sibling* subtree cannot beat the next entry's λ with zero
        // conformity penalty (deletion has no next entry).
        let next = if choice == DELETED {
            None
        } else {
            self.clusters[slot].entries.get(choice as usize + 1)
        };
        let priority = next.map_or(own, |next| {
            own.min(g_prefix + next.lambda() + self.bound[slot + 1])
        });
        let link = u32::try_from(self.links.len()).expect("fewer than 2^32 states are pushed");
        self.links.push(Link { parent, choice, g });
        self.frontier.push(
            priority,
            slot as u32 + 1,
            State {
                link,
                sibling_pushed: false,
            },
        );
    }

    /// Produce the next answer in non-decreasing score order, or `None`
    /// when the space is exhausted or a budget was hit (check
    /// [`SearchStream::is_truncated`] to tell the two apart).
    pub fn next_answer(&mut self) -> Option<Answer> {
        let n = self.clusters.len();
        if n == 0 || self.truncated {
            return None;
        }
        while let Some((priority, depth, mut state)) = self.frontier.pop() {
            sama_obs::fault::point("search.expand");
            if !self.budget.is_unlimited() {
                let due = self.budget_countdown == 0;
                self.budget_countdown = if due {
                    BUDGET_CHECK_INTERVAL - 1
                } else {
                    self.budget_countdown - 1
                };
                if due {
                    if let Some(reason) = self.budget.exceeded() {
                        // Put the state back so the anytime fallback can
                        // greedily complete the frontier.
                        self.frontier.push(priority, depth, state);
                        self.mark_truncated(reason);
                        return None;
                    }
                }
            }
            if self.expansions >= self.config.max_expansions {
                // Put the state back so the anytime fallback can use it.
                self.frontier.push(priority, depth, state);
                self.mark_truncated(TruncationReason::ExpansionLimit);
                return None;
            }
            self.expansions += 1;

            let t = depth as usize;
            let Link { parent, g, .. } = self.links[state.link as usize];
            let own = g + self.bound[t];
            self.load_choices(state.link, t);

            // Materialize the sibling subtree as its own entry (once).
            if !state.sibling_pushed {
                let last_slot = t - 1;
                let last_choice = self.choices[last_slot];
                if last_choice != DELETED
                    && (last_choice as usize + 1) < self.clusters[last_slot].entries.len()
                {
                    self.push_state(parent, last_slot, last_choice + 1);
                }
                state.sibling_pushed = true;
            }

            // If the sibling bound drove the priority, this state itself
            // is not yet proven minimal: re-insert with its own bound.
            if priority + 1e-12 < own {
                self.frontier.push(own, depth, state);
                continue;
            }

            if t == n {
                return Some(materialize(
                    &self.choices,
                    g,
                    self.index,
                    &self.qpaths,
                    &self.ig,
                    &self.clusters,
                    &self.chi_sets,
                    &self.params,
                    &mut self.chi_lookups,
                ));
            } else {
                // Child: assign the next cluster its best entry.
                let first = first_choice(&self.clusters[t]);
                self.push_state(state.link, t, first);
            }

            if self.frontier.len() > self.config.max_frontier {
                self.frontier.truncate(self.config.max_frontier / 2);
                self.mark_truncated(TruncationReason::FrontierOverflow);
            }
        }
        None
    }

    /// Drain up to `budget` frontier states, best first, as (choice
    /// list, exact cost) — used by the batch wrapper's anytime fill
    /// after truncation.
    fn drain_frontier(&mut self, budget: usize) -> Vec<(Vec<u32>, f64)> {
        let mut frontier = Vec::with_capacity(budget.min(self.frontier.len()));
        while frontier.len() < budget {
            let Some((_, depth, state)) = self.frontier.pop() else {
                break;
            };
            let depth = depth as usize;
            self.load_choices(state.link, depth);
            frontier.push((
                self.choices[..depth].to_vec(),
                self.links[state.link as usize].g,
            ));
        }
        frontier
    }

    /// Greedily complete `frontier` states (per remaining cluster, the
    /// entry with the cheapest incremental cost) and append the
    /// results, deduplicated and sorted, to `outcome.answers` — the
    /// anytime fallback after truncation.
    fn fill_greedy(
        &mut self,
        outcome: &mut SearchOutcome,
        mut frontier: Vec<(Vec<u32>, f64)>,
        k: usize,
    ) {
        let n = self.clusters.len();
        for (choices, g) in &mut frontier {
            while choices.len() < n {
                let slot = choices.len();
                let cluster = &self.clusters[slot];
                let mut cost_of = |choice| {
                    choice_cost(
                        choices,
                        choice,
                        slot,
                        &self.ig,
                        &self.clusters,
                        &self.chi_sets,
                        &self.params,
                        &mut self.chi_lookups,
                    )
                };
                let (best_choice, best_cost) = if cluster.is_empty() {
                    (DELETED, cost_of(DELETED))
                } else {
                    // Entries are λ-sorted; scanning a bounded prefix finds
                    // a low-penalty choice without quadratic blowup.
                    (0..cluster.entries.len().min(32) as u32)
                        .map(|c| (c, cost_of(c)))
                        .min_by(|a, b| a.1.total_cmp(&b.1))
                        .expect("cluster is non-empty")
                };
                *g += best_cost;
                choices.push(best_choice);
            }
        }
        frontier.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut added: HashSet<&[u32]> = HashSet::new();
        for (choices, g) in &frontier {
            if outcome.answers.len() >= k {
                break;
            }
            if !added.insert(choices) {
                continue;
            }
            outcome.answers.push(materialize(
                choices,
                *g,
                self.index,
                &self.qpaths,
                &self.ig,
                &self.clusters,
                &self.chi_sets,
                &self.params,
                &mut self.chi_lookups,
            ));
        }
    }
}

impl Iterator for SearchStream<'_> {
    type Item = Answer;

    fn next(&mut self) -> Option<Answer> {
        self.next_answer()
    }
}

/// Run the top-k combination search (the batch wrapper over
/// [`SearchStream`], with the anytime greedy fill on truncation).
pub fn search_top_k<I: IndexLike>(
    qpaths: &[QueryPath],
    ig: &IntersectionGraph,
    clusters: &[Cluster],
    index: &I,
    params: &ScoreParams,
    k: usize,
    config: &SearchConfig,
) -> SearchOutcome {
    search_top_k_budgeted(
        qpaths,
        ig,
        clusters,
        index,
        params,
        k,
        config,
        &QueryBudget::unlimited(),
    )
}

/// [`search_top_k`] under a deadline/cancellation budget: when the
/// budget expires mid-search, the answers emitted so far plus a greedy
/// completion of the best frontier states are returned, flagged with
/// the budget's [`TruncationReason`]. An unlimited budget adds zero
/// cost (no clock is read). The decomposition is borrowed, not copied.
#[allow(clippy::too_many_arguments)]
pub fn search_top_k_budgeted<I: IndexLike>(
    qpaths: &[QueryPath],
    ig: &IntersectionGraph,
    clusters: &[Cluster],
    index: &I,
    params: &ScoreParams,
    k: usize,
    config: &SearchConfig,
    budget: &QueryBudget,
) -> SearchOutcome {
    let mut outcome = SearchOutcome {
        answers: Vec::with_capacity(k.min(1024)),
        expansions: 0,
        truncated: false,
        truncation: None,
        chi_stats: ChiStats::default(),
    };
    if clusters.is_empty() || k == 0 {
        return outcome;
    }
    let mut stream = SearchStream::start(
        Cow::Borrowed(qpaths),
        Cow::Borrowed(ig),
        Cow::Borrowed(clusters),
        index,
        *params,
        *config,
    )
    .with_budget(budget.clone());
    while outcome.answers.len() < k {
        match stream.next_answer() {
            Some(answer) => outcome.answers.push(answer),
            None => break,
        }
    }
    outcome.expansions = stream.expansions();
    outcome.truncated = stream.is_truncated();
    outcome.truncation = stream.truncation_reason();
    if outcome.truncated && outcome.answers.len() < k {
        // Anytime fallback: greedily complete the best frontier states
        // so the caller still receives k answers (the paper's search is
        // itself a bounded heuristic combination).
        let budget = (k - outcome.answers.len()).saturating_mul(2);
        let frontier = stream.drain_frontier(budget);
        stream.fill_greedy(&mut outcome, frontier, k);
    }
    outcome.chi_stats = stream.chi_stats();
    outcome
}

/// The best entry of a cluster (deletion when empty).
fn first_choice(cluster: &Cluster) -> u32 {
    if cluster.is_empty() {
        DELETED
    } else {
        0
    }
}

/// Exact cost contribution of assigning `choice` to cluster `slot`
/// given the `prefix` choices of clusters `0..slot`: the entry's λ plus
/// conformity penalties against assigned IG neighbors.
#[allow(clippy::too_many_arguments)]
fn choice_cost(
    prefix: &[u32],
    choice: u32,
    slot: usize,
    ig: &IntersectionGraph,
    clusters: &[Cluster],
    chi_sets: &ChiSets,
    params: &ScoreParams,
    chi_lookups: &mut u64,
) -> f64 {
    let cluster = &clusters[slot];
    let mut cost = if choice == DELETED {
        cluster.deletion_lambda
    } else {
        cluster.entries[choice as usize].lambda()
    };
    for edge in ig.earlier_edges_of(slot) {
        let other = if edge.qi == slot { edge.qj } else { edge.qi };
        debug_assert!(other < slot);
        if other >= prefix.len() {
            continue;
        }
        let chi_p = pair_chi_p(prefix[other], other, choice, slot, chi_sets, chi_lookups);
        cost += crate::score::conformity_penalty(edge.chi_q(), chi_p, params.e);
    }
    cost
}

/// `|χ(p_i, p_j)|` for two cluster choices (0 if either is deleted),
/// counted as one lookup.
fn pair_chi_p(
    choice_a: u32,
    cluster_a: usize,
    choice_b: u32,
    cluster_b: usize,
    chi_sets: &ChiSets,
    chi_lookups: &mut u64,
) -> usize {
    if choice_a == DELETED || choice_b == DELETED {
        return 0;
    }
    *chi_lookups += 1;
    chi_sets.chi((cluster_a, choice_a), (cluster_b, choice_b))
}

/// The answer for the complete assignment `state_choices`, whose
/// incrementally computed cost is `g`: each chosen path aligned in full
/// against its query path (IC weights included) in the mode its cluster
/// was scored in.
#[allow(clippy::too_many_arguments)]
fn materialize(
    state_choices: &[u32],
    g: f64,
    index: &dyn IndexLike,
    qpaths: &[QueryPath],
    ig: &IntersectionGraph,
    clusters: &[Cluster],
    chi_sets: &ChiSets,
    params: &ScoreParams,
    chi_lookups: &mut u64,
) -> Answer {
    let mut lambda_total = 0.0;
    let mut choices = Vec::with_capacity(state_choices.len());
    for (i, &c) in state_choices.iter().enumerate() {
        if c == DELETED {
            lambda_total += clusters[i].deletion_lambda;
            choices.push(ChosenPath {
                qpath_index: qpaths[i].index,
                entry: None,
            });
        } else {
            let entry = clusters[i].entries[c as usize];
            let alignment = align(
                &qpaths[i],
                index.labels(entry.path_id),
                params,
                clusters[i].mode,
            );
            debug_assert_eq!(
                alignment.lambda.to_bits(),
                entry.lambda.to_bits(),
                "the answer's alignment prices its path as the fill did"
            );
            lambda_total += entry.lambda;
            choices.push(ChosenPath {
                qpath_index: qpaths[i].index,
                entry: Some(AlignedPath {
                    path_id: entry.path_id,
                    alignment,
                }),
            });
        }
    }
    let mut pairs = Vec::with_capacity(ig.edges.len());
    let mut psi_total = 0.0;
    for edge in &ig.edges {
        let chi_p = pair_chi_p(
            state_choices[edge.qi],
            edge.qi,
            state_choices[edge.qj],
            edge.qj,
            chi_sets,
            chi_lookups,
        );
        let pair = PairConformity::evaluate(edge.qi, edge.qj, edge.chi_q(), chi_p, params.e);
        psi_total += pair.penalty;
        pairs.push(pair);
    }
    debug_assert!(
        (lambda_total + psi_total - g).abs() < 1e-9,
        "incremental cost must agree with the full evaluation"
    );
    Answer {
        choices,
        breakdown: ScoreBreakdown {
            lambda_total,
            psi_total,
            pairs,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::AlignmentMode;
    use crate::cluster::{build_clusters, ClusterConfig};
    use crate::qpath::decompose_query;
    use crate::test_dag::arb_dag_triples;
    use path_index::{ExtractionConfig, NoSynonyms};
    use proptest::prelude::*;
    use rdf_model::{DataGraph, QueryGraph};

    fn figure1_data() -> DataGraph {
        let mut b = DataGraph::builder();
        for (person, amendment, bill) in [
            ("CB", "A0056", "B1432"),
            ("JR", "A1589", "B0532"),
            ("KF", "A1232", "B0045"),
            ("JM", "A0772", "B0045"),
            ("PD", "A0467", "B0532"),
        ] {
            b.triple_str(person, "sponsor", amendment).unwrap();
            b.triple_str(amendment, "aTo", bill).unwrap();
            b.triple_str(bill, "subject", "\"HC\"").unwrap();
        }
        for (person, bill) in [
            ("JR", "B0045"),
            ("PT", "B0532"),
            ("AN", "B1432"),
            ("PD", "B1432"),
        ] {
            b.triple_str(person, "sponsor", bill).unwrap();
        }
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

    fn run(k: usize) -> (path_index::MappedIndex, Vec<QueryPath>, SearchOutcome) {
        let index = path_index::MappedIndex::build(figure1_data()).unwrap();
        let q = q1();
        let qpaths = decompose_query(&q, &index, &NoSynonyms, &ExtractionConfig::default());
        let ig = IntersectionGraph::build(&qpaths);
        let params = ScoreParams::paper();
        let clusters = build_clusters(
            &qpaths,
            &index,
            &NoSynonyms,
            &params,
            AlignmentMode::Greedy,
            &ClusterConfig::default(),
        );
        let outcome = search_top_k(
            &qpaths,
            &ig,
            &clusters,
            &index,
            &params,
            k,
            &SearchConfig::default(),
        );
        (index, qpaths, outcome)
    }

    #[test]
    fn first_solution_is_the_papers() {
        // The paper: "the first solution is obtained by combining the
        // paths p1, p10 and p20" — the CB amendment chain, PD's direct
        // sponsorship of the same bill, PD's gender — with perfect
        // alignment and conformity.
        let (index, _qpaths, outcome) = run(1);
        assert_eq!(outcome.answers.len(), 1);
        let best = &outcome.answers[0];
        assert_eq!(best.score(), 0.0);
        assert!(best.is_exact());

        let graph = index.data().as_graph();
        let rendered: Vec<String> = best
            .path_ids()
            .into_iter()
            .flatten()
            .map(|pid| {
                path_index::display_parts(graph, index.path_nodes(pid), index.path_edges(pid))
                    .to_string()
            })
            .collect();
        assert!(rendered.contains(&"CB-sponsor-A0056-aTo-B1432-subject-\"HC\"".to_string()));
        assert!(rendered.contains(&"PD-sponsor-B1432-subject-\"HC\"".to_string()));
        assert!(rendered.contains(&"PD-gender-\"Male\"".to_string()));
    }

    #[test]
    fn emission_is_monotone() {
        let (_, _, outcome) = run(25);
        assert!(!outcome.truncated);
        assert!(outcome.truncation.is_none());
        for w in outcome.answers.windows(2) {
            assert!(
                w[0].score() <= w[1].score() + 1e-12,
                "scores must be non-decreasing: {} then {}",
                w[0].score(),
                w[1].score()
            );
        }
    }

    #[test]
    fn top_k_is_prefix_of_top_k_plus_1() {
        let (_, _, small) = run(5);
        let (_, _, large) = run(10);
        for (a, b) in small.answers.iter().zip(large.answers.iter()) {
            assert_eq!(a.score(), b.score());
        }
    }

    #[test]
    fn expansion_limit_truncates() {
        let index = path_index::MappedIndex::build(figure1_data()).unwrap();
        let q = q1();
        let qpaths = decompose_query(&q, &index, &NoSynonyms, &ExtractionConfig::default());
        let ig = IntersectionGraph::build(&qpaths);
        let params = ScoreParams::paper();
        let clusters = build_clusters(
            &qpaths,
            &index,
            &NoSynonyms,
            &params,
            AlignmentMode::Greedy,
            &ClusterConfig::default(),
        );
        let outcome = search_top_k(
            &qpaths,
            &ig,
            &clusters,
            &index,
            &params,
            1_000_000,
            &SearchConfig {
                max_expansions: 2,
                ..Default::default()
            },
        );
        assert!(outcome.truncated);
        assert_eq!(outcome.truncation, Some(TruncationReason::ExpansionLimit));

        // A tiny frontier cap instead reports the overflow.
        let outcome = search_top_k(
            &qpaths,
            &ig,
            &clusters,
            &index,
            &params,
            1_000_000,
            &SearchConfig {
                max_frontier: 2,
                ..Default::default()
            },
        );
        assert!(outcome.truncated);
        assert_eq!(outcome.truncation, Some(TruncationReason::FrontierOverflow));
    }

    #[test]
    fn zero_k_returns_nothing() {
        let (_, _, outcome) = run(0);
        assert!(outcome.answers.is_empty());
    }

    #[test]
    fn uncovered_query_path_priced_as_deletion() {
        // With the full-scan fallback disabled, a query path whose
        // labels are all absent gets an empty cluster and is priced as
        // a full deletion, and its IG edge cannot conform.
        let index = path_index::MappedIndex::build(figure1_data()).unwrap();
        let mut b = QueryGraph::builder();
        b.triple_str("?v3", "gender", "\"Male\"").unwrap();
        b.triple_str("?v3", "owns", "\"Spaceship\"").unwrap();
        let q = b.build();
        let qpaths = decompose_query(&q, &index, &NoSynonyms, &ExtractionConfig::default());
        let ig = IntersectionGraph::build(&qpaths);
        let params = ScoreParams::paper();
        let clusters = build_clusters(
            &qpaths,
            &index,
            &NoSynonyms,
            &params,
            AlignmentMode::Greedy,
            &ClusterConfig {
                allow_full_scan: false,
                ..Default::default()
            },
        );
        let outcome = search_top_k(
            &qpaths,
            &ig,
            &clusters,
            &index,
            &params,
            3,
            &SearchConfig::default(),
        );
        assert!(!outcome.answers.is_empty());
        let best = &outcome.answers[0];
        // One path covered (gender, λ=0), one deleted (2·1 + 1·2 = 4),
        // and the ?v3 intersection cannot conform (χq = 1): Ψ = 1.
        assert_eq!(best.lambda(), 4.0);
        assert_eq!(best.psi(), 1.0);
        assert_eq!(best.score(), 5.0);
    }

    #[test]
    fn fallback_scan_beats_deletion() {
        // Same query with the default full-scan fallback: the `owns`
        // path aligns against a gender path (sink mismatch 1 + edge
        // mismatch 2 = 3), and picking the same person keeps Ψ = 0.
        let index = path_index::MappedIndex::build(figure1_data()).unwrap();
        let mut b = QueryGraph::builder();
        b.triple_str("?v3", "gender", "\"Male\"").unwrap();
        b.triple_str("?v3", "owns", "\"Spaceship\"").unwrap();
        let q = b.build();
        let qpaths = decompose_query(&q, &index, &NoSynonyms, &ExtractionConfig::default());
        let ig = IntersectionGraph::build(&qpaths);
        let params = ScoreParams::paper();
        let clusters = build_clusters(
            &qpaths,
            &index,
            &NoSynonyms,
            &params,
            AlignmentMode::Greedy,
            &ClusterConfig::default(),
        );
        let outcome = search_top_k(
            &qpaths,
            &ig,
            &clusters,
            &index,
            &params,
            1,
            &SearchConfig::default(),
        );
        let best = &outcome.answers[0];
        assert_eq!(best.lambda(), 3.0);
        assert_eq!(best.psi(), 0.0);
        assert_eq!(best.score(), 3.0);
        assert!(best.choices.iter().all(|c| c.entry.is_some()));
    }

    /// One cluster whose entries are `sets`, each sorted and deduplicated.
    fn chi_sets_of(sets: &[Vec<NodeId>]) -> ChiSets {
        let mut chi_sets = ChiSets {
            first: vec![0],
            offs: vec![0],
            masks: Vec::new(),
            nodes: Vec::new(),
        };
        for set in sets {
            let mut set = set.clone();
            set.sort_unstable();
            set.dedup();
            chi_sets.push_run(&set);
        }
        chi_sets
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Over every pair of indexed paths, in both orders, the masked
        /// lookup is the sorted merge, and disjoint masks mean χ = 0.
        #[test]
        fn masked_chi_is_the_sorted_merge(triples in arb_dag_triples(9, 16)) {
            let index = path_index::MappedIndex::build(
                DataGraph::from_triples(&triples).expect("ground"),
            )
            .expect("small index");
            let sets: Vec<Vec<NodeId>> = index
                .all_path_ids()
                .into_iter()
                .map(|id| index.path_nodes(id).to_vec())
                .collect();
            let chi_sets = chi_sets_of(&sets);
            for a in 0..sets.len() {
                for b in 0..sets.len() {
                    let merged = chi_count_sorted(chi_sets.run(a), chi_sets.run(b));
                    let masked = chi_sets.chi((0, a as u32), (0, b as u32));
                    prop_assert_eq!(masked, merged);
                    if chi_sets.masks[a] & chi_sets.masks[b] == 0 {
                        prop_assert_eq!(merged, 0);
                    }
                }
            }
        }
    }

    #[test]
    fn colliding_masks_of_disjoint_sets_still_merge_to_zero() {
        let first = NodeId(0);
        let twin = (1..)
            .map(NodeId)
            .find(|&node| node_bit(node) == node_bit(first))
            .expect("64 bits cannot tell every id apart");
        let chi_sets = chi_sets_of(&[vec![first], vec![twin]]);
        assert_ne!(chi_sets.masks[0] & chi_sets.masks[1], 0);
        assert_eq!(chi_sets.chi((0, 0), (0, 1)), 0);
        assert_eq!(chi_sets.chi((0, 1), (0, 0)), 0);
        assert_eq!(chi_sets.chi((0, 0), (0, 0)), 1);
    }
}
