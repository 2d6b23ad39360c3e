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

use crate::answer::{Answer, ChosenPath};
use crate::cluster::Cluster;
use crate::deadline::QueryBudget;
use crate::igraph::IntersectionGraph;
use crate::params::ScoreParams;
use crate::qpath::QueryPath;
use crate::score::{chi_count_sorted, PairConformity, ScoreBreakdown};
use path_index::IndexLike;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Limits for the combination search.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Maximum number of state expansions before giving up (the
    /// already-emitted answers are returned with `truncated = true`).
    pub max_expansions: usize,
    /// Cap on the frontier size; the worst states are discarded when it
    /// overflows (can only affect answers beyond the cap's horizon).
    pub max_frontier: usize,
    /// Emit only answers with *distinct data-path sets*: combinations
    /// that assemble the same set of paths (and therefore the same
    /// answer subgraph) as an already emitted answer are skipped.
    /// An answer-construction improvement the paper lists as future
    /// work; off by default to match the paper's enumeration.
    pub distinct_paths: bool,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            max_expansions: 200_000,
            max_frontier: 1 << 20,
            distinct_paths: false,
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

/// `|χ|` evaluations of one search. Every lookup is computed — a ~10 ns
/// sorted merge over node sets the index already stores, which no memo
/// beat in the ledger (DESIGN §5).
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

/// A frontier state: the first `choices.len()` clusters are assigned.
///
/// A state *covers* two sets of assignments: the completions of its own
/// prefix, and (until the sibling is pushed) the subtree where its last
/// choice is advanced to later cluster entries. Its heap priority is
/// the minimum of the two subtrees' lower bounds; popping a state whose
/// priority came from the sibling bound pushes the sibling and
/// re-inserts the state with its own (tighter) bound.
#[derive(Debug, Clone)]
struct State {
    /// Entry index per assigned cluster; `u32::MAX` encodes deletion
    /// (only used for empty clusters).
    choices: Vec<u32>,
    /// Exact cost of the prefix *excluding* the last choice — the
    /// sibling successor re-prices only the last slot.
    g_before_last: f64,
    /// Exact cost of the assigned prefix (Λ + Ψ among assigned).
    g: f64,
    /// `true` once the sibling subtree has its own heap entry.
    sibling_pushed: bool,
}

struct QueueItem {
    state: State,
    /// The admissible priority this item was inserted with.
    priority: f64,
    seq: u64,
}

impl PartialEq for QueueItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for QueueItem {}
impl PartialOrd for QueueItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for min-priority. Among
        // equal priorities prefer *deeper* states (drive toward
        // completion instead of fanning out shallow siblings), then
        // older insertions for determinism.
        other
            .priority
            .total_cmp(&self.priority)
            .then_with(|| self.state.choices.len().cmp(&other.state.choices.len()))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

const DELETED: u32 = u32::MAX;

/// Expansion pops between polls of an attached [`QueryBudget`] (the
/// first pop always polls, so an already-expired budget does no work).
/// One poll is a clock read — at this interval the amortized cost is
/// well under the cost of a single expansion.
pub const BUDGET_CHECK_INTERVAL: u32 = 16;

/// A resumable combination search: answers pop lazily in
/// non-decreasing score order. Owns the decomposition artefacts
/// (`PQ`, IG, clusters) and borrows only the index, so it can outlive
/// the call that created it.
///
/// Obtained from [`crate::SamaEngine::answer_stream`] or built directly;
/// [`search_top_k`] is the batch wrapper.
pub struct SearchStream<'a, I: IndexLike> {
    qpaths: Vec<QueryPath>,
    ig: IntersectionGraph,
    clusters: Vec<Cluster>,
    index: &'a I,
    params: ScoreParams,
    config: SearchConfig,
    /// Suffix sums of per-cluster lower bounds.
    bound: Vec<f64>,
    heap: BinaryHeap<QueueItem>,
    seq: u64,
    emitted_sets: Vec<Vec<u32>>,
    expansions: usize,
    truncated: bool,
    truncation: Option<TruncationReason>,
    /// `|χ|` evaluations so far.
    chi_lookups: u64,
    /// Retired `choices` vectors, reused by later pushes so the steady
    /// state of the expansion loop allocates nothing.
    pool: Vec<Vec<u32>>,
    /// Deadline/cancellation budget; unlimited by default, in which
    /// case no clock is ever read.
    budget: QueryBudget,
    /// Pops until the next budget poll (0 = poll on the next pop, so
    /// an already-expired budget is noticed before any work).
    budget_countdown: u32,
}

impl<'a, I: IndexLike> SearchStream<'a, I> {
    /// Start a search over pre-built decomposition artefacts.
    pub fn new(
        qpaths: Vec<QueryPath>,
        ig: IntersectionGraph,
        clusters: Vec<Cluster>,
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
        let mut stream = SearchStream {
            qpaths,
            ig,
            clusters,
            index,
            params,
            config,
            bound,
            heap: BinaryHeap::new(),
            seq: 0,
            emitted_sets: Vec::new(),
            expansions: 0,
            truncated: false,
            truncation: None,
            chi_lookups: 0,
            pool: Vec::new(),
            budget: QueryBudget::unlimited(),
            budget_countdown: 0,
        };
        if n > 0 {
            let first = first_choice(&stream.clusters[0]);
            stream.push_state(&[], 0.0, 0, first);
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

    /// The sorted multiset of data paths an assignment uses (for
    /// `distinct_paths`).
    fn path_set_key(&self, choices: &[u32]) -> Vec<u32> {
        let mut key: Vec<u32> = choices
            .iter()
            .enumerate()
            .map(|(slot, &c)| {
                if c == DELETED {
                    u32::MAX
                } else {
                    self.clusters[slot].entries[c as usize].path_id.0
                }
            })
            .collect();
        key.sort_unstable();
        key
    }

    /// The λ a state's *sibling* subtree cannot beat: the next entry's
    /// λ with zero conformity penalty.
    fn sibling_lower(&self, state: &State) -> Option<f64> {
        let last_slot = state.choices.len() - 1;
        let last_choice = state.choices[last_slot];
        if last_choice == DELETED {
            return None; // deletion has no successor entry
        }
        let next = last_choice as usize + 1;
        let entries = &self.clusters[last_slot].entries;
        if next >= entries.len() {
            return None;
        }
        Some(state.g_before_last + entries[next].lambda() + self.bound[last_slot + 1])
    }

    /// Push the state `prefix ++ [choice]` for cluster index `slot`;
    /// `g_prefix` is the exact cost of `prefix` alone.
    fn push_state(&mut self, prefix: &[u32], g_prefix: f64, slot: usize, choice: u32) {
        let g = g_prefix
            + choice_cost(
                prefix,
                choice,
                slot,
                &self.ig,
                &self.clusters,
                self.index,
                &self.params,
                &mut self.chi_lookups,
            );
        let mut choices = self.pool.pop().unwrap_or_default();
        choices.clear();
        choices.extend_from_slice(prefix);
        choices.push(choice);
        let state = State {
            choices,
            g_before_last: g_prefix,
            g,
            sibling_pushed: false,
        };
        let own = g + self.bound[slot + 1];
        let priority = match self.sibling_lower(&state) {
            Some(sib) => own.min(sib),
            None => own,
        };
        self.seq += 1;
        self.heap.push(QueueItem {
            state,
            priority,
            seq: self.seq,
        });
    }

    /// Produce the next answer in non-decreasing score order, or `None`
    /// when the space is exhausted or a budget was hit (check
    /// [`SearchStream::is_truncated`] to tell the two apart).
    pub fn next_answer(&mut self) -> Option<Answer> {
        let n = self.clusters.len();
        if n == 0 || self.truncated {
            return None;
        }
        while let Some(QueueItem {
            mut state,
            priority,
            ..
        }) = self.heap.pop()
        {
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
                        self.seq += 1;
                        self.heap.push(QueueItem {
                            state,
                            priority,
                            seq: self.seq,
                        });
                        self.mark_truncated(reason);
                        return None;
                    }
                }
            }
            if self.expansions >= self.config.max_expansions {
                // Put the state back so the anytime fallback can use it.
                self.seq += 1;
                self.heap.push(QueueItem {
                    state,
                    priority,
                    seq: self.seq,
                });
                self.mark_truncated(TruncationReason::ExpansionLimit);
                return None;
            }
            self.expansions += 1;

            let t = state.choices.len();
            let own = state.g + self.bound[t];

            // Materialize the sibling subtree as its own heap entry (once).
            if !state.sibling_pushed {
                let last_slot = t - 1;
                let last_choice = state.choices[last_slot];
                if last_choice != DELETED
                    && (last_choice as usize + 1) < self.clusters[last_slot].entries.len()
                {
                    // `state` was moved out of the heap, so its prefix
                    // can be borrowed directly across the push.
                    let (prefix, _) = state.choices.split_at(last_slot);
                    self.push_state(prefix, state.g_before_last, last_slot, last_choice + 1);
                }
                state.sibling_pushed = true;
            }

            // If the sibling bound drove the priority, this state itself
            // is not yet proven minimal: re-insert with its own bound.
            if priority + 1e-12 < own {
                self.seq += 1;
                self.heap.push(QueueItem {
                    state,
                    priority: own,
                    seq: self.seq,
                });
                continue;
            }

            if t == n {
                let emit = if self.config.distinct_paths {
                    let key = self.path_set_key(&state.choices);
                    if self.emitted_sets.contains(&key) {
                        false
                    } else {
                        self.emitted_sets.push(key);
                        true
                    }
                } else {
                    true
                };
                if emit {
                    let answer = materialize(
                        &state,
                        &self.qpaths,
                        &self.ig,
                        &self.clusters,
                        self.index,
                        &self.params,
                        &mut self.chi_lookups,
                    );
                    self.pool.push(state.choices);
                    return Some(answer);
                }
                self.pool.push(state.choices);
            } else {
                // Child: assign the next cluster its best entry. The
                // child copies the prefix out of `state` itself, so no
                // intermediate clone is needed.
                let first = first_choice(&self.clusters[t]);
                self.push_state(&state.choices, state.g, t, first);
                self.pool.push(state.choices);
            }

            if self.heap.len() > self.config.max_frontier {
                self.shrink_frontier(self.config.max_frontier / 2);
                self.mark_truncated(TruncationReason::FrontierOverflow);
            }
        }
        None
    }

    /// Drain up to `budget` frontier states (used by the batch
    /// wrapper's anytime fill after truncation).
    fn drain_frontier(&mut self, budget: usize) -> Vec<State> {
        let mut frontier = Vec::with_capacity(budget);
        while frontier.len() < budget {
            match self.heap.pop() {
                Some(item) => frontier.push(item.state),
                None => break,
            }
        }
        frontier
    }

    /// Keep the best `keep` frontier items, recycling the rest.
    fn shrink_frontier(&mut self, keep: usize) {
        let mut kept: Vec<QueueItem> = Vec::with_capacity(keep);
        for _ in 0..keep {
            match self.heap.pop() {
                Some(item) => kept.push(item),
                None => break,
            }
        }
        self.pool
            .extend(self.heap.drain().map(|item| item.state.choices));
        self.heap.extend(kept);
    }

    /// Greedily complete `frontier` states (per remaining cluster, the
    /// entry with the cheapest incremental cost) and append the
    /// results, deduplicated and sorted, to `outcome.answers` — the
    /// anytime fallback after truncation.
    fn fill_greedy(&mut self, outcome: &mut SearchOutcome, frontier: Vec<State>, k: usize) {
        let n = self.clusters.len();
        let mut filled: Vec<State> = Vec::new();
        for mut state in frontier {
            while state.choices.len() < n {
                let slot = state.choices.len();
                let cluster = &self.clusters[slot];
                let (best_choice, best_cost) = if cluster.is_empty() {
                    (
                        DELETED,
                        choice_cost(
                            &state.choices,
                            DELETED,
                            slot,
                            &self.ig,
                            &self.clusters,
                            self.index,
                            &self.params,
                            &mut self.chi_lookups,
                        ),
                    )
                } else {
                    // Entries are λ-sorted; scanning a bounded prefix finds
                    // a low-penalty choice without quadratic blowup.
                    (0..cluster.entries.len().min(32) as u32)
                        .map(|c| {
                            (
                                c,
                                choice_cost(
                                    &state.choices,
                                    c,
                                    slot,
                                    &self.ig,
                                    &self.clusters,
                                    self.index,
                                    &self.params,
                                    &mut self.chi_lookups,
                                ),
                            )
                        })
                        .min_by(|a, b| a.1.total_cmp(&b.1))
                        .expect("cluster is non-empty")
                };
                state.g_before_last = state.g;
                state.g += best_cost;
                state.choices.push(best_choice);
            }
            filled.push(state);
        }
        filled.sort_by(|a, b| a.g.total_cmp(&b.g));
        let mut added: Vec<Vec<u32>> = Vec::new();
        for state in &filled {
            if outcome.answers.len() >= k {
                break;
            }
            if added.contains(&state.choices) {
                continue;
            }
            added.push(state.choices.clone());
            outcome.answers.push(materialize(
                state,
                &self.qpaths,
                &self.ig,
                &self.clusters,
                self.index,
                &self.params,
                &mut self.chi_lookups,
            ));
        }
    }
}

impl<I: IndexLike> Iterator for SearchStream<'_, I> {
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
/// cost (no clock is read).
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
    let mut stream = SearchStream::new(
        qpaths.to_vec(),
        ig.clone(),
        clusters.to_vec(),
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
fn choice_cost<I: IndexLike + ?Sized>(
    prefix: &[u32],
    choice: u32,
    slot: usize,
    ig: &IntersectionGraph,
    clusters: &[Cluster],
    index: &I,
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
        let chi_p = pair_chi_p(
            prefix[other],
            other,
            choice,
            slot,
            clusters,
            index,
            chi_lookups,
        );
        cost += crate::score::conformity_penalty(edge.chi_q(), chi_p, params.e);
    }
    cost
}

/// `|χ(p_i, p_j)|` for two cluster choices (0 if either is deleted):
/// the sorted merge over the node sets the index stores.
fn pair_chi_p<I: IndexLike + ?Sized>(
    choice_a: u32,
    cluster_a: usize,
    choice_b: u32,
    cluster_b: usize,
    clusters: &[Cluster],
    index: &I,
    chi_lookups: &mut u64,
) -> usize {
    if choice_a == DELETED || choice_b == DELETED {
        return 0;
    }
    let pa = clusters[cluster_a].entries[choice_a as usize].path_id;
    let pb = clusters[cluster_b].entries[choice_b as usize].path_id;
    *chi_lookups += 1;
    chi_count_sorted(index.sorted_nodes(pa), index.sorted_nodes(pb))
}

fn materialize<I: IndexLike + ?Sized>(
    state: &State,
    qpaths: &[QueryPath],
    ig: &IntersectionGraph,
    clusters: &[Cluster],
    index: &I,
    params: &ScoreParams,
    chi_lookups: &mut u64,
) -> Answer {
    let mut lambda_total = 0.0;
    let mut choices = Vec::with_capacity(state.choices.len());
    for (i, &c) in state.choices.iter().enumerate() {
        if c == DELETED {
            lambda_total += clusters[i].deletion_lambda;
            choices.push(ChosenPath {
                qpath_index: qpaths[i].index,
                entry: None,
            });
        } else {
            let entry = clusters[i].entries[c as usize].clone();
            lambda_total += entry.lambda();
            choices.push(ChosenPath {
                qpath_index: qpaths[i].index,
                entry: Some(entry),
            });
        }
    }
    let mut pairs = Vec::with_capacity(ig.edges.len());
    let mut psi_total = 0.0;
    for edge in &ig.edges {
        let chi_p = pair_chi_p(
            state.choices[edge.qi],
            edge.qi,
            state.choices[edge.qj],
            edge.qj,
            clusters,
            index,
            chi_lookups,
        );
        let pair = PairConformity::evaluate(edge.qi, edge.qj, edge.chi_q(), chi_p, params.e);
        psi_total += pair.penalty;
        pairs.push(pair);
    }
    debug_assert!(
        (lambda_total + psi_total - state.g).abs() < 1e-9,
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
    use path_index::{ExtractionConfig, NoSynonyms};
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

    fn run(k: usize) -> (path_index::PathIndex, Vec<QueryPath>, SearchOutcome) {
        let index = path_index::PathIndex::build(figure1_data());
        let q = q1();
        let qpaths = decompose_query(
            &q,
            index.graph().vocab(),
            &NoSynonyms,
            &ExtractionConfig::default(),
        );
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

        let graph = index.graph().as_graph();
        let rendered: Vec<String> = best
            .path_ids()
            .into_iter()
            .flatten()
            .map(|pid| index.path(pid).path.display(graph).to_string())
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
        let index = path_index::PathIndex::build(figure1_data());
        let q = q1();
        let qpaths = decompose_query(
            &q,
            index.graph().vocab(),
            &NoSynonyms,
            &ExtractionConfig::default(),
        );
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
    fn distinct_paths_deduplicates_subgraphs() {
        // Q2-like single-path query: with one cluster there are no
        // duplicates; build a two-path query whose clusters overlap so
        // the same path set can be assembled twice.
        let index = path_index::PathIndex::build(figure1_data());
        let mut b = QueryGraph::builder();
        b.triple_str("?a", "sponsor", "?v").unwrap();
        b.triple_str("?b", "sponsor", "?v").unwrap();
        let q = b.build();
        let qpaths = decompose_query(
            &q,
            index.graph().vocab(),
            &NoSynonyms,
            &ExtractionConfig::default(),
        );
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
        let plain = search_top_k(
            &qpaths,
            &ig,
            &clusters,
            &index,
            &params,
            40,
            &SearchConfig::default(),
        );
        let distinct = search_top_k(
            &qpaths,
            &ig,
            &clusters,
            &index,
            &params,
            40,
            &SearchConfig {
                distinct_paths: true,
                ..Default::default()
            },
        );
        let key = |a: &crate::answer::Answer| {
            let mut ids: Vec<_> = a.path_ids();
            ids.sort();
            ids
        };
        // The distinct run has no repeated path sets…
        let mut seen = Vec::new();
        for a in &distinct.answers {
            let k = key(a);
            assert!(!seen.contains(&k), "duplicate path set emitted");
            seen.push(k);
        }
        // …while the plain run does (both clusters draw from the same
        // candidate pool).
        let mut plain_keys: Vec<_> = plain.answers.iter().map(key).collect();
        let total = plain_keys.len();
        plain_keys.sort();
        plain_keys.dedup();
        assert!(
            plain_keys.len() < total,
            "expected duplicates without dedup"
        );
        // Scores still emit monotonically under dedup.
        for w in distinct.answers.windows(2) {
            assert!(w[0].score() <= w[1].score() + 1e-12);
        }
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
        let index = path_index::PathIndex::build(figure1_data());
        let mut b = QueryGraph::builder();
        b.triple_str("?v3", "gender", "\"Male\"").unwrap();
        b.triple_str("?v3", "owns", "\"Spaceship\"").unwrap();
        let q = b.build();
        let qpaths = decompose_query(
            &q,
            index.graph().vocab(),
            &NoSynonyms,
            &ExtractionConfig::default(),
        );
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
        let index = path_index::PathIndex::build(figure1_data());
        let mut b = QueryGraph::builder();
        b.triple_str("?v3", "gender", "\"Male\"").unwrap();
        b.triple_str("?v3", "owns", "\"Spaceship\"").unwrap();
        let q = b.build();
        let qpaths = decompose_query(
            &q,
            index.graph().vocab(),
            &NoSynonyms,
            &ExtractionConfig::default(),
        );
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
}
