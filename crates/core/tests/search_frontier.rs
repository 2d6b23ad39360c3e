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
//! mid-search. Any change to the pop
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
    ClusterConfig, IntersectionGraph, QueryBudget, ScoreParams, SearchConfig, SearchOutcome,
    TruncationReason,
};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use support::{arb_dag_triples, Probe};

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
const CANCEL_AFTER_LOOKUPS: [usize; 2] = [1, 40];

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
/// the hash is FNV-1a over the bit-exact fingerprint lines the other
/// equivalence tests compare (score, λ, ψ bits, exactness, path ids).
fn cell(outcome: &SearchOutcome) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for a in &outcome.answers {
        let line = format!(
            "s={:016x} l={:016x} p={:016x} exact={} paths={:?}\n",
            a.score().to_bits(),
            a.lambda().to_bits(),
            a.psi().to_bits(),
            a.is_exact(),
            a.path_ids(),
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
        write!(out, " {}", cell(&outcome)).unwrap();
    }
    out.push('\n');
}

/// One row: the search over a probe that cancels the budget's token
/// after a fixed number of χ lookups — the search notices at its next
/// poll, puts the popped state back and greedily completes the frontier.
fn cancel_row(out: &mut String, label: &str, image: &[u8], query: &QueryGraph, ic: bool) {
    let open = || MappedIndex::from_bytes(image).expect("own image");
    let prepared = prepare(&open(), query, ic);
    write!(out, "{label} {} cancel", if ic { "ic" } else { "paper" }).unwrap();
    for lookups in CANCEL_AFTER_LOOKUPS {
        let mut probe = Probe::new(open());
        probe.trip_at_sorted_nodes = 2 * lookups + 1;
        let budget = QueryBudget::unlimited().cancelled_by(probe.token.clone());
        let outcome = search(&prepared, &probe, &SearchConfig::default(), &budget);
        write!(out, " {}", cell(&outcome)).unwrap();
    }
    out.push('\n');
}

fn actual_table() -> String {
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
            cancel_row(&mut out, &label, &image, &case.query, ic);
        }
    }
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
