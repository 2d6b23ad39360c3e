//! The bucketed FIFO frontier against what it replaced.
//!
//! (a) Frontier level: `sama_core::frontier::Frontier` pops in exactly
//! the order of a `BinaryHeap` under the ordering the search used to
//! define on its queue items (priority by `total_cmp`, deeper first,
//! older insertion first), over random interleavings of the four things
//! the search does to its frontier, with priorities drawn from a small
//! set so that ties dominate.
//!
//! (b) Search level: answers, expansion counts, truncation reasons and
//! `χ` lookup counts of `search_top_k_budgeted` equal the values in
//! `search_frontier.table`, which the commit *before* the frontier
//! change generated with this same code — across expansion and frontier
//! limits, paper and IC-weighted costs, and a cancellation tripped
//! mid-search, in the expansion that makes a given χ lookup. Any change
//! to the pop
//! order, to the truncation point or to the states the anytime fill
//! drains shows up as a different row.

mod support;

use path_index::{encode_v2, ExtractionConfig, IndexLike, MappedIndex, NoSynonyms, PathIndex};
use proptest::prelude::*;
use proptest::TestRng;
use rdf_model::{DataGraph, QueryGraph};
use sama_core::frontier::Frontier;
use sama_core::{
    apply_ic_weights, build_clusters, decompose_query, search_top_k_budgeted, AlignmentMode,
    CancelToken, ClusterConfig, IntersectionGraph, QueryBudget, ScoreParams, SearchConfig,
    SearchOutcome, SearchStream, TruncationReason,
};
use sama_obs::fault::{self, FaultAction, FaultPlan};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::sync::Arc;
use support::{arb_dag_triples, figure1_data};

// ---------------------------------------------------------------- (a)

/// The reference: the queue item of the search before the bucketed
/// frontier, with its `Ord` copied verbatim (`BinaryHeap` is a max-heap,
/// hence the reversed priority and `seq`).
struct HeapItem {
    priority: f64,
    depth: u32,
    seq: u64,
    id: u32,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .priority
            .total_cmp(&self.priority)
            .then_with(|| self.depth.cmp(&other.depth))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Default)]
struct ReferenceHeap {
    heap: BinaryHeap<HeapItem>,
    seq: u64,
}

impl ReferenceHeap {
    fn push(&mut self, priority: f64, depth: u32, id: u32) {
        self.seq += 1;
        self.heap.push(HeapItem {
            priority,
            depth,
            seq: self.seq,
            id,
        });
    }

    fn pop(&mut self) -> Option<(f64, u32, u32)> {
        self.heap.pop().map(|i| (i.priority, i.depth, i.id))
    }

    /// The old `shrink_frontier`: pop the best `keep`, drop the rest,
    /// put the kept ones back under their old insertion numbers.
    fn shrink(&mut self, keep: usize) {
        let mut kept = Vec::with_capacity(keep);
        for _ in 0..keep {
            match self.heap.pop() {
                Some(item) => kept.push(item),
                None => break,
            }
        }
        self.heap.clear();
        self.heap.extend(kept);
    }
}

/// Few values, so most pushes tie; signed zeros, subnormals and the
/// largest finite value sit where a float-to-integer key could go wrong.
const PRIORITIES: [f64; 10] = [
    -0.0,
    0.0,
    5e-324,
    1e-310,
    0.5,
    1.0,
    1.5,
    1.500_000_000_000_000_2,
    4.0,
    f64::MAX,
];

#[derive(Debug, Clone, Copy)]
enum Op {
    Push {
        priority: usize,
        depth: u32,
    },
    Pop,
    /// Pop, then queue the same item again at a higher priority — the
    /// search's re-insert of a state under its own, tighter bound.
    Reinsert {
        raise: usize,
    },
    ShrinkToHalf,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op =
        (0usize..10, 0..PRIORITIES.len(), 1u32..=12).prop_map(
            |(kind, priority, depth)| match kind {
                0..=4 => Op::Push { priority, depth },
                5..=6 => Op::Pop,
                7..=8 => Op::Reinsert { raise: priority },
                _ => Op::ShrinkToHalf,
            },
        );
    proptest::collection::vec(op, 1..=300)
}

fn bits(popped: Option<(f64, u32, u32)>) -> Option<(u64, u32, u32)> {
    popped.map(|(p, d, id)| (p.to_bits(), d, id))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn frontier_pops_like_the_binary_heap(ops in arb_ops()) {
        let mut frontier = Frontier::new();
        let mut reference = ReferenceHeap::default();
        let mut next_id = 0u32;
        for op in ops {
            match op {
                Op::Push { priority, depth } => {
                    frontier.push(PRIORITIES[priority], depth, next_id);
                    reference.push(PRIORITIES[priority], depth, next_id);
                    next_id += 1;
                }
                Op::Pop => {
                    prop_assert_eq!(bits(frontier.pop()), bits(reference.pop()));
                }
                Op::Reinsert { raise } => {
                    let got = frontier.pop();
                    prop_assert_eq!(bits(got), bits(reference.pop()));
                    if let Some((priority, depth, id)) = got {
                        let raised = PRIORITIES[raise].max(priority);
                        frontier.push(raised, depth, id);
                        reference.push(raised, depth, id);
                    }
                }
                Op::ShrinkToHalf => {
                    let keep = frontier.len() / 2;
                    frontier.truncate(keep);
                    reference.shrink(keep);
                }
            }
            prop_assert_eq!(frontier.len(), reference.heap.len());
            prop_assert_eq!(frontier.is_empty(), reference.heap.is_empty());
        }
        loop {
            let got = bits(frontier.pop());
            prop_assert_eq!(got, bits(reference.pop()));
            if got.is_none() {
                break;
            }
        }
    }
}

// ---------------------------------------------------------------- (b)

const K: usize = 1000;
const MAX_EXPANSIONS: [Option<usize>; 5] = [Some(1), Some(2), Some(7), Some(50), None];
const MAX_FRONTIER: [Option<usize>; 3] = [Some(2), Some(8), None];
/// χ lookups after which the cancel rows trip their token.
const CANCEL_AFTER_LOOKUPS: [u64; 2] = [1, 40];

fn query(triples: &[(&str, &str, &str)]) -> QueryGraph {
    let mut b = QueryGraph::builder();
    for (s, p, o) in triples {
        b.triple_str(s, p, o).unwrap();
    }
    b.build()
}

struct Case {
    name: String,
    data: DataGraph,
    query: QueryGraph,
    /// The full limits matrix with cancellation rows, or (for the one
    /// case that never finishes) three limit pairs only.
    full_matrix: bool,
}

fn cases() -> Vec<Case> {
    let mut cases = vec![
        Case {
            name: "figure1-q1".into(),
            data: figure1_data(),
            query: query(&[
                ("CB", "sponsor", "?v1"),
                ("?v1", "aTo", "?v2"),
                ("?v2", "subject", "\"HC\""),
                ("?v3", "sponsor", "?v2"),
                ("?v3", "gender", "\"Male\""),
            ]),
            full_matrix: true,
        },
        // Both clusters draw from one candidate pool, so the same path
        // set can be assembled twice.
        Case {
            name: "figure1-cosponsors".into(),
            data: figure1_data(),
            query: query(&[("?a", "sponsor", "?v"), ("?b", "sponsor", "?v")]),
            full_matrix: true,
        },
    ];
    // The shim's generator is a fixed-seed stream, so these are the
    // same six graphs on every run and on every commit.
    let mut rng = TestRng::seeded_from("search_frontier::pinned");
    let strategy = arb_dag_triples(12, 48);
    for i in 0..6 {
        let triples = strategy.generate(&mut rng);
        cases.push(Case {
            name: format!("dag{i}"),
            data: DataGraph::from_triples(&triples).expect("ground"),
            query: if i % 2 == 0 {
                query(&[("?a", "p0", "?v"), ("?b", "p1", "?v"), ("?v", "p2", "?c")])
            } else {
                query(&[("n0", "p0", "?x"), ("?x", "p1", "?y"), ("?z", "p2", "?y")])
            },
            full_matrix: true,
        });
    }
    // Twenty query paths through one hub over three-way clusters: deeper
    // than any inline choice array would be, and 3^20 combinations, so
    // every run of it ends at its expansion limit with a wide frontier.
    let mut wide_data = DataGraph::builder();
    let mut wide_query = QueryGraph::builder();
    for i in 0..20 {
        wide_query
            .triple_str(&format!("?s{i}"), &format!("r{}", i % 4), "?hub")
            .unwrap();
    }
    for hub in 0..3 {
        for r in 0..4 {
            wide_data
                .triple_str(
                    &format!("s{hub}_{r}"),
                    &format!("r{r}"),
                    &format!("hub{hub}"),
                )
                .unwrap();
        }
    }
    cases.push(Case {
        name: "wide20".into(),
        data: wide_data.build(),
        query: wide_query.build(),
        full_matrix: false,
    });
    cases
}

/// Everything the search takes, built the way the engine builds it.
struct Prepared {
    qpaths: Vec<sama_core::QueryPath>,
    ig: IntersectionGraph,
    clusters: Vec<sama_core::Cluster>,
}

fn prepare<I: IndexLike + Sync>(index: &I, query: &QueryGraph, ic: bool) -> Prepared {
    let mut qpaths = decompose_query(query, index, &NoSynonyms, &ExtractionConfig::default());
    if ic {
        let table = index.ic_table().expect("a mapped index has IC counts");
        apply_ic_weights(&mut qpaths, &table);
    }
    let ig = IntersectionGraph::build(&qpaths);
    let clusters = build_clusters(
        &qpaths,
        index,
        &NoSynonyms,
        &ScoreParams::paper(),
        AlignmentMode::Greedy,
        &ClusterConfig::default(),
    );
    Prepared {
        qpaths,
        ig,
        clusters,
    }
}

fn search<I: IndexLike>(
    prepared: &Prepared,
    index: &I,
    config: &SearchConfig,
    budget: &QueryBudget,
) -> SearchOutcome {
    search_top_k_budgeted(
        &prepared.qpaths,
        &prepared.ig,
        &prepared.clusters,
        index,
        &ScoreParams::paper(),
        K,
        config,
        budget,
    )
}

/// `expansions/truncation/χ lookups/answers/hash of the answer list` —
/// the hash is FNV-1a over bit-exact fingerprint lines (score, λ, ψ
/// bits, exactness, and each chosen path's node and edge ids, `None` for
/// a gap). A path is named by its content, not its id, so the table
/// holds whatever order the index numbers its paths in.
fn cell<I: IndexLike>(outcome: &SearchOutcome, index: &I) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for a in &outcome.answers {
        let paths: Vec<_> = a
            .path_ids()
            .into_iter()
            .map(|id| id.map(|id| (index.path_nodes(id), index.path_edges(id))))
            .collect();
        let line = format!(
            "s={:016x} l={:016x} p={:016x} exact={} paths={paths:?}\n",
            a.score().to_bits(),
            a.lambda().to_bits(),
            a.psi().to_bits(),
            a.is_exact(),
        );
        for byte in line.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
    assert_eq!(outcome.truncated, outcome.truncation.is_some());
    let truncation = match outcome.truncation {
        None => '-',
        Some(TruncationReason::ExpansionLimit) => 'E',
        Some(TruncationReason::FrontierOverflow) => 'F',
        Some(TruncationReason::DeadlineExceeded) => 'D',
        Some(TruncationReason::Cancelled) => 'C',
    };
    format!(
        "{}/{truncation}/{}/{}/{hash:016x}",
        outcome.expansions,
        outcome.chi_stats.lookups(),
        outcome.answers.len(),
    )
}

/// One table row: a cell per (max_expansions, max_frontier) pair, in
/// `limits` order.
fn limit_row<I: IndexLike + Sync>(
    out: &mut String,
    label: &str,
    index: &I,
    query: &QueryGraph,
    ic: bool,
    limits: &[(Option<usize>, Option<usize>)],
) {
    let prepared = prepare(index, query, ic);
    write!(out, "{label} {} plain", if ic { "ic" } else { "paper" }).unwrap();
    for &(max_expansions, max_frontier) in limits {
        let default = SearchConfig::default();
        let config = SearchConfig {
            max_expansions: max_expansions.unwrap_or(default.max_expansions),
            max_frontier: max_frontier.unwrap_or(default.max_frontier),
        };
        let outcome = search(&prepared, index, &config, &QueryBudget::unlimited());
        write!(out, " {}", cell(&outcome, index)).unwrap();
    }
    out.push('\n');
}

thread_local! {
    /// The trip of this thread's cancel-row search: expansions to go
    /// until its token is cancelled, and the token.
    static TRIP: RefCell<Option<(usize, Arc<CancelToken>)>> = const { RefCell::new(None) };
}

/// Called at every `search.expand` hit — the top of each expansion, just
/// before the search polls its budget — while the table is computed.
fn count_expansion() {
    TRIP.with_borrow_mut(|trip| {
        // A trip that has fired stays at 0: the search runs on to its
        // next budget poll after the cancel.
        if let Some((left @ 1.., token)) = trip {
            *left -= 1;
            if *left == 0 {
                token.cancel();
            }
        }
    });
}

/// The expansion (1-based) in which the search makes its `n`-th χ
/// lookup: the fewest expansions a limit must allow for the search to
/// have made `n`. `None` when the whole search makes fewer.
fn expansion_of_lookup<I: IndexLike>(prepared: &Prepared, index: &I, n: u64) -> Option<usize> {
    let mut max_expansions = 0;
    loop {
        max_expansions += 1;
        let mut stream = SearchStream::new(
            prepared.qpaths.clone(),
            prepared.ig.clone(),
            prepared.clusters.clone(),
            index,
            ScoreParams::paper(),
            SearchConfig {
                max_expansions,
                ..SearchConfig::default()
            },
        );
        while stream.next_answer().is_some() {}
        if stream.chi_stats().lookups() >= n {
            return Some(max_expansions);
        }
        if !stream.is_truncated() {
            return None;
        }
    }
}

/// One row: the search with a token cancelled in the expansion that
/// makes χ lookup `lookups + 1` — cancelling it at the top of the next
/// expansion, before that one polls, is the same: the search notices at
/// its next poll either way, puts the popped state back and greedily
/// completes the frontier.
fn cancel_row<I: IndexLike + Sync>(
    out: &mut String,
    label: &str,
    index: &I,
    query: &QueryGraph,
    ic: bool,
) {
    let prepared = prepare(index, query, ic);
    write!(out, "{label} {} cancel", if ic { "ic" } else { "paper" }).unwrap();
    for lookups in CANCEL_AFTER_LOOKUPS {
        let token = CancelToken::new();
        let trip = expansion_of_lookup(&prepared, index, lookups + 1);
        TRIP.set(trip.map(|expansion| (expansion + 1, token.clone())));
        let budget = QueryBudget::unlimited().cancelled_by(token);
        let outcome = search(&prepared, index, &SearchConfig::default(), &budget);
        TRIP.set(None);
        write!(out, " {}", cell(&outcome, index)).unwrap();
    }
    out.push('\n');
}

fn actual_table() -> String {
    // Every expansion of every search in this process counts down its
    // own thread's trip, if it has one; no other fault fires.
    fault::install(FaultPlan::single(
        "search.expand",
        FaultAction::Call(count_expansion),
        1,
    ));
    let mut out = String::new();
    for case in cases() {
        let image = encode_v2(&PathIndex::build(case.data.clone())).expect("encodes");
        let index = MappedIndex::from_bytes(&image).expect("own image");
        let label = format!("{} mapped", case.name);
        if !case.full_matrix {
            let limits = [(Some(50), None), (Some(3000), None), (Some(3000), Some(8))];
            for ic in [false, true] {
                limit_row(&mut out, &label, &index, &case.query, ic, &limits);
            }
            continue;
        }
        let limits: Vec<_> = MAX_EXPANSIONS
            .iter()
            .flat_map(|&e| MAX_FRONTIER.iter().map(move |&f| (e, f)))
            .collect();
        for ic in [false, true] {
            limit_row(&mut out, &label, &index, &case.query, ic, &limits);
            cancel_row(&mut out, &label, &index, &case.query, ic);
        }
    }
    fault::reset_to_env();
    out
}

#[test]
fn search_outcomes_equal_the_table_pinned_before_the_change() {
    let pinned: String = include_str!("search_frontier.table")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    let actual = actual_table();
    // The matrix must reach what it is there for.
    for reason in ["/E/", "/F/", "/C/", "/-/"] {
        assert!(actual.contains(reason), "no {reason} cell in the table");
    }
    if actual == pinned {
        return;
    }
    let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("search_frontier.actual");
    std::fs::write(&dump, &actual).expect("writable target tmpdir");
    for (row, (want, got)) in pinned.lines().zip(actual.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "row {row} differs from search_frontier.table (cells are \
             expansions/truncation/chi lookups/answers/answer hash); \
             the whole table as computed is in {}",
            dump.display()
        );
    }
    panic!(
        "search_frontier.table has {} rows, computed {}; see {}",
        pinned.lines().count(),
        actual.lines().count(),
        dump.display()
    );
}
