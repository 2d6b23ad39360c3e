//! Path alignment (paper, Sections 3.2, 4.1, 4.3).
//!
//! An alignment turns a query path `q` into a data path `p` through a
//! variable substitution `φ` plus a transformation `τ`. We count its
//! effects in an [`AlignmentCounts`]:
//!
//! * `nodes_mismatched` / `edges_mismatched` — `n⁻N` / `n⁻E`: elements
//!   of `p` not present in `q` (a constant label of `q` aligned against
//!   a different data label);
//! * `nodes_inserted` / `edges_inserted` — `nʸN` / `nʸE`: elements
//!   inserted into `q` by `τ` (structure of `p` with no counterpart);
//! * `nodes_deleted` / `edges_deleted` — query structure with no
//!   counterpart in `p` (the paper's examples never exercise this; we
//!   price it via [`ScoreParams::del_node`]/[`ScoreParams::del_edge`]).
//!
//! The quality `λ(p,q)` of Equation 1 is then
//! `a·n⁻N + b·nʸN + c·n⁻E + d·nʸE` (+ deletion terms).
//!
//! ## Unit model
//!
//! Following the paper's "scan contrary to the direction of the edges"
//! (Section 4.3), both paths are viewed sink-first as *units*: unit 0 is
//! the sink node alone; unit `i ≥ 1` is the pair *(upstream edge,
//! node)*. Clustering anchors sinks, so unit 0 of `q` is always aligned
//! with unit 0 of `p`; the remaining units are aligned by:
//!
//! * [`AlignmentMode::Greedy`] — the paper's linear-time scan: match
//!   when the unit is compatible, insert (from `p`) while `p` has
//!   surplus units, delete (from `q`) while `q` has surplus, otherwise
//!   match with mismatch counting. `O(|p| + |q|)`.
//! * [`AlignmentMode::Optimal`] — a dynamic program over units that
//!   minimizes `λ` exactly. `O(|p|·|q|)`. Used to validate the greedy
//!   scan and by the `ablation_alignment` benchmark.

use crate::params::ScoreParams;
use crate::qpath::{QueryLabel, QueryPath};
use path_index::LabelsRef;
use rdf_model::LabelId;

/// The per-operation counters of one alignment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlignmentCounts {
    /// `n⁻N`: nodes of `p` mismatching constant query node labels.
    pub nodes_mismatched: u32,
    /// `nʸN`: nodes inserted into `q`.
    pub nodes_inserted: u32,
    /// `n⁻E`: edges of `p` mismatching constant query edge labels.
    pub edges_mismatched: u32,
    /// `nʸE`: edges inserted into `q`.
    pub edges_inserted: u32,
    /// Query nodes with no counterpart in `p`.
    pub nodes_deleted: u32,
    /// Query edges with no counterpart in `p`.
    pub edges_deleted: u32,
}

impl AlignmentCounts {
    /// Equation 1: the alignment quality `λ`.
    pub fn lambda(&self, params: &ScoreParams) -> f64 {
        params.a * f64::from(self.nodes_mismatched)
            + params.b * f64::from(self.nodes_inserted)
            + params.c * f64::from(self.edges_mismatched)
            + params.d * f64::from(self.edges_inserted)
            + params.del_node * f64::from(self.nodes_deleted)
            + params.del_edge * f64::from(self.edges_deleted)
    }

    /// Total number of basic update operations in `τ` (plus mismatches).
    pub fn total_ops(&self) -> u32 {
        self.nodes_mismatched
            + self.nodes_inserted
            + self.edges_mismatched
            + self.edges_inserted
            + self.nodes_deleted
            + self.edges_deleted
    }

    /// `true` if the alignment is exact: `τ` is empty and every constant
    /// matched (the answer path is an exact image of the query path).
    pub fn is_exact(&self) -> bool {
        self.total_ops() == 0
    }
}

/// A computed alignment: counters, cost, and the variable bindings of
/// `φ` (query variable label → data label).
#[derive(Debug, Clone, PartialEq)]
pub struct Alignment {
    /// Operation counters.
    pub counts: AlignmentCounts,
    /// `λ(p, q)` under the parameters the alignment was computed with.
    pub lambda: f64,
    /// Variable bindings collected from matched positions. If a variable
    /// occurs at several matched positions, the binding closest to the
    /// sink wins (recorded first).
    pub bindings: Vec<(LabelId, LabelId)>,
}

/// Alignment algorithm selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlignmentMode {
    /// The paper's linear-time backward scan.
    #[default]
    Greedy,
    /// Exact minimum-λ alignment by dynamic programming.
    Optimal,
}

/// Align data path `p` (label view) to query path `q` and price it with
/// `params`.
pub fn align(
    q: &QueryPath,
    p: LabelsRef<'_>,
    params: &ScoreParams,
    mode: AlignmentMode,
) -> Alignment {
    align_with(q, p, params, mode, true)
}

/// `align(q, p, params, mode).lambda`, bit for bit, without the
/// bindings: the same tally arithmetic in the same order, but no
/// `φ` is recorded, so the greedy scan allocates nothing. This is what
/// the cluster fill scores candidates with; only the paths an answer
/// chooses get a full [`align`], in the search. ([`AlignmentMode::Optimal`]
/// still replays its back-trace: the DP's `cost` cell sums the same
/// terms in path order, not in the tally's order.)
pub fn align_lambda(
    q: &QueryPath,
    p: LabelsRef<'_>,
    params: &ScoreParams,
    mode: AlignmentMode,
) -> f64 {
    align_with(q, p, params, mode, false).lambda
}

fn align_with(
    q: &QueryPath,
    p: LabelsRef<'_>,
    params: &ScoreParams,
    mode: AlignmentMode,
    bind: bool,
) -> Alignment {
    match mode {
        AlignmentMode::Greedy => align_greedy(q, p, params, bind),
        AlignmentMode::Optimal => align_optimal(q, p, params, bind),
    }
}

/// Number of units of a path with `k` nodes: the sink node plus `k-1`
/// (edge, node) pairs.
#[inline]
fn unit_count(node_count: usize) -> usize {
    node_count
}

/// Query unit `u ≥ 1` of path `q`: (edge, node) walking backward from
/// the sink. Unit indices count from the sink: unit `u` covers node
/// `k-1-u` and edge `k-1-u` (the node's downstream edge is consumed by
/// unit `u-1`; its upstream edge belongs to unit `u+1` — concretely,
/// unit `u` pairs node `k-1-u` with edge `k-1-u`, the edge linking it
/// forward).
#[inline]
fn q_unit(q: &QueryPath, u: usize) -> (&QueryLabel, &QueryLabel) {
    let k = q.nodes.len();
    (&q.edges[k - 1 - u], &q.nodes[k - 1 - u])
}

#[inline]
fn p_unit(p: LabelsRef<'_>, u: usize) -> (LabelId, LabelId) {
    let k = p.len();
    (p.edge_labels[k - 1 - u], p.node_label(k - 1 - u))
}

/// IC weights of query unit `u`: `(edge weight, node weight)` — the
/// positions mirror [`q_unit`].
#[inline]
fn q_unit_weights(q: &QueryPath, u: usize) -> (f64, f64) {
    let k = q.nodes.len();
    (q.edge_weight(k - 1 - u), q.node_weight(k - 1 - u))
}

struct Tally {
    counts: AlignmentCounts,
    /// IC-weighted mismatch mass: each node mismatch contributes its
    /// query position's weight instead of `1`. Under uniform weights
    /// this is exactly `f64::from(counts.nodes_mismatched)` (a sum of
    /// ones over integers below 2^53), so the weighted λ degenerates
    /// bit-for-bit to [`AlignmentCounts::lambda`].
    node_mismatch_weight: f64,
    /// As above, for edge mismatches.
    edge_mismatch_weight: f64,
    /// `false` for a score-only run ([`align_lambda`]): `bindings`
    /// stays empty (and unallocated).
    record_bindings: bool,
    bindings: Vec<(LabelId, LabelId)>,
}

impl Tally {
    fn new(record_bindings: bool) -> Self {
        Tally {
            counts: AlignmentCounts::default(),
            node_mismatch_weight: 0.0,
            edge_mismatch_weight: 0.0,
            record_bindings,
            bindings: Vec::new(),
        }
    }

    fn match_node(&mut self, q: &QueryLabel, p: LabelId, weight: f64) {
        match q {
            QueryLabel::Var(v) => self.bind(*v, p),
            c if c.admits(p) => {}
            _ => {
                self.counts.nodes_mismatched += 1;
                self.node_mismatch_weight += weight;
            }
        }
    }

    fn match_edge(&mut self, q: &QueryLabel, p: LabelId, weight: f64) {
        match q {
            QueryLabel::Var(v) => self.bind(*v, p),
            c if c.admits(p) => {}
            _ => {
                self.counts.edges_mismatched += 1;
                self.edge_mismatch_weight += weight;
            }
        }
    }

    #[inline]
    fn bind(&mut self, var: LabelId, p: LabelId) {
        if self.record_bindings {
            self.bindings.push((var, p));
        }
    }

    fn insert_unit(&mut self) {
        self.counts.nodes_inserted += 1;
        self.counts.edges_inserted += 1;
    }

    fn delete_unit(&mut self) {
        self.counts.nodes_deleted += 1;
        self.counts.edges_deleted += 1;
    }

    fn finish(self, params: &ScoreParams) -> Alignment {
        // Same terms in the same order as [`AlignmentCounts::lambda`],
        // with the mismatch counters replaced by their weighted sums —
        // insertions and deletions stay unweighted (IC prices *label*
        // disagreement, not structure).
        let lambda = params.a * self.node_mismatch_weight
            + params.b * f64::from(self.counts.nodes_inserted)
            + params.c * self.edge_mismatch_weight
            + params.d * f64::from(self.counts.edges_inserted)
            + params.del_node * f64::from(self.counts.nodes_deleted)
            + params.del_edge * f64::from(self.counts.edges_deleted);
        Alignment {
            counts: self.counts,
            lambda,
            bindings: self.bindings,
        }
    }
}

fn unit_compatible(q: (&QueryLabel, &QueryLabel), p: (LabelId, LabelId)) -> bool {
    q.0.admits(p.0) && q.1.admits(p.1)
}

fn align_greedy(q: &QueryPath, p: LabelsRef<'_>, params: &ScoreParams, bind: bool) -> Alignment {
    let m = unit_count(p.len());
    let n = unit_count(q.nodes.len());
    let mut tally = Tally::new(bind);

    // Anchor: sink node against sink node.
    tally.match_node(q.sink(), p.sink_label(), q.node_weight(q.nodes.len() - 1));

    let (mut i, mut j) = (1usize, 1usize);
    while i < m && j < n {
        let pu = p_unit(p, i);
        let qu = q_unit(q, j);
        let qw = q_unit_weights(q, j);
        if unit_compatible(qu, pu) {
            tally.match_edge(qu.0, pu.0, qw.0);
            tally.match_node(qu.1, pu.1, qw.1);
            i += 1;
            j += 1;
        } else if m - i > n - j {
            tally.insert_unit();
            i += 1;
        } else if m - i < n - j {
            tally.delete_unit();
            j += 1;
        } else {
            tally.match_edge(qu.0, pu.0, qw.0);
            tally.match_node(qu.1, pu.1, qw.1);
            i += 1;
            j += 1;
        }
    }
    while i < m {
        tally.insert_unit();
        i += 1;
    }
    while j < n {
        tally.delete_unit();
        j += 1;
    }
    tally.finish(params)
}

/// DP cell provenance for count/binding reconstruction.
#[derive(Clone, Copy, PartialEq)]
enum Step {
    Start,
    Match,
    Insert,
    Delete,
}

fn align_optimal(q: &QueryPath, p: LabelsRef<'_>, params: &ScoreParams, bind: bool) -> Alignment {
    let m = unit_count(p.len());
    let n = unit_count(q.nodes.len());

    // dp[i][j] = min cost aligning p units 1..=i with q units 1..=j
    // (unit 0 is the anchored sink pair, handled outside the DP).
    let cols = n; // j in 0..n  (j counts consumed q units beyond the anchor)
    let rows = m;
    let idx = |i: usize, j: usize| i * cols + j;
    let insert_cost = params.b + params.d;
    let delete_cost = params.del_node + params.del_edge;

    let mut cost = vec![0.0f64; rows * cols];
    let mut step = vec![Step::Start; rows * cols];
    for i in 1..rows {
        cost[idx(i, 0)] = i as f64 * insert_cost;
        step[idx(i, 0)] = Step::Insert;
    }
    for j in 1..cols {
        cost[idx(0, j)] = j as f64 * delete_cost;
        step[idx(0, j)] = Step::Delete;
    }
    for i in 1..rows {
        let pu = p_unit(p, i);
        for j in 1..cols {
            let qu = q_unit(q, j);
            let qw = q_unit_weights(q, j);
            // Under uniform weights `x * 1.0 == x` bit-for-bit, so the
            // DP takes exactly the legacy decisions.
            let edge_cost = if qu.0.is_var() || qu.0.admits(pu.0) {
                0.0
            } else {
                params.c * qw.0
            };
            let node_cost = if qu.1.is_var() || qu.1.admits(pu.1) {
                0.0
            } else {
                params.a * qw.1
            };
            let match_cost = cost[idx(i - 1, j - 1)] + edge_cost + node_cost;
            let ins = cost[idx(i - 1, j)] + insert_cost;
            let del = cost[idx(i, j - 1)] + delete_cost;
            let (best, s) = if match_cost <= ins && match_cost <= del {
                (match_cost, Step::Match)
            } else if ins <= del {
                (ins, Step::Insert)
            } else {
                (del, Step::Delete)
            };
            cost[idx(i, j)] = best;
            step[idx(i, j)] = s;
        }
    }

    // Backtrace, collecting counts and bindings sink-first.
    let mut tally = Tally::new(bind);
    tally.match_node(q.sink(), p.sink_label(), q.node_weight(q.nodes.len() - 1));
    let (mut i, mut j) = (rows - 1, cols - 1);
    let mut trace: Vec<Step> = Vec::with_capacity(rows + cols);
    while i > 0 || j > 0 {
        let s = if i == 0 {
            Step::Delete
        } else if j == 0 {
            Step::Insert
        } else {
            step[idx(i, j)]
        };
        trace.push(s);
        match s {
            Step::Match => {
                i -= 1;
                j -= 1;
            }
            Step::Insert => i -= 1,
            Step::Delete => j -= 1,
            Step::Start => break,
        }
    }
    // Replay sink-first (the backtrace is already sink-first order
    // reversed from source; we want bindings sink-first, and the trace
    // is collected from the far end toward the sink — reverse it).
    let mut pi = 1usize;
    let mut pj = 1usize;
    for s in trace.into_iter().rev() {
        match s {
            Step::Match => {
                let pu = p_unit(p, pi);
                let qu = q_unit(q, pj);
                let qw = q_unit_weights(q, pj);
                tally.match_edge(qu.0, pu.0, qw.0);
                tally.match_node(qu.1, pu.1, qw.1);
                pi += 1;
                pj += 1;
            }
            Step::Insert => {
                tally.insert_unit();
                pi += 1;
            }
            Step::Delete => {
                tally.delete_unit();
                pj += 1;
            }
            Step::Start => {}
        }
    }
    tally.finish(params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qpath::decompose_query;
    use path_index::{extract_paths, ExtractionConfig, NoSynonyms, PathLabels};
    use rdf_model::{DataGraph, QueryGraph};

    /// Build the paper's running-example fragment: data path
    /// `p = CB-sponsor-A0056-aTo-B1432-subject-HC` plus the mismatching
    /// `p' = JR-sponsor-A1589-aTo-B0532-subject-HC`.
    fn data() -> DataGraph {
        let mut b = DataGraph::builder();
        b.triple_str("CB", "sponsor", "A0056").unwrap();
        b.triple_str("A0056", "aTo", "B1432").unwrap();
        b.triple_str("B1432", "subject", "\"HC\"").unwrap();
        b.triple_str("JR", "sponsor", "A1589").unwrap();
        b.triple_str("A1589", "aTo", "B0532").unwrap();
        b.triple_str("B0532", "subject", "\"HC\"").unwrap();
        b.build()
    }

    fn query() -> QueryGraph {
        // q1: CB-sponsor-?v1-aTo-?v2-subject-HC
        // q2: ?v3-sponsor-?v2-subject-HC
        let mut b = QueryGraph::builder();
        b.triple_str("CB", "sponsor", "?v1").unwrap();
        b.triple_str("?v1", "aTo", "?v2").unwrap();
        b.triple_str("?v2", "subject", "\"HC\"").unwrap();
        b.triple_str("?v3", "sponsor", "?v2").unwrap();
        b.build()
    }

    fn setup() -> (DataGraph, Vec<crate::qpath::QueryPath>, Vec<PathLabels>) {
        let d = data();
        let q = query();
        let qpaths = decompose_query(&q, d.vocab(), &NoSynonyms, &ExtractionConfig::default());
        let dpaths: Vec<PathLabels> = extract_paths(d.as_graph(), &ExtractionConfig::default())
            .paths
            .iter()
            .map(|p| p.labels(d.as_graph()))
            .collect();
        (d, qpaths, dpaths)
    }

    fn find_q(qpaths: &[crate::qpath::QueryPath], len: usize) -> &crate::qpath::QueryPath {
        qpaths.iter().find(|p| p.len() == len).unwrap()
    }

    fn find_p<'a>(d: &DataGraph, dpaths: &'a [PathLabels], source_label: &str) -> &'a PathLabels {
        dpaths
            .iter()
            .find(|p| d.vocab().lexical(p.node_labels[0]) == source_label)
            .unwrap()
    }

    #[test]
    fn paper_example_q1_exact() {
        // λ(p, q1) = 0 (pure substitution).
        let (d, qpaths, dpaths) = setup();
        let q1 = find_q(&qpaths, 4);
        let p = find_p(&d, &dpaths, "CB");
        for mode in [AlignmentMode::Greedy, AlignmentMode::Optimal] {
            let a = align(q1, p.view(), &ScoreParams::paper(), mode);
            assert_eq!(a.lambda, 0.0, "mode {mode:?}");
            assert!(a.counts.is_exact());
            // φ binds ?v1→A0056 and ?v2→B1432.
            assert_eq!(a.bindings.len(), 2);
        }
    }

    #[test]
    fn paper_example_q2_insertion() {
        // λ(p, q2) = b + d = 1.5 (insert aTo-B1432).
        let (d, qpaths, dpaths) = setup();
        let q2 = find_q(&qpaths, 3);
        let p = find_p(&d, &dpaths, "CB");
        for mode in [AlignmentMode::Greedy, AlignmentMode::Optimal] {
            let a = align(q2, p.view(), &ScoreParams::paper(), mode);
            assert_eq!(a.lambda, 1.5, "mode {mode:?}");
            assert_eq!(a.counts.nodes_inserted, 1);
            assert_eq!(a.counts.edges_inserted, 1);
            assert_eq!(a.counts.nodes_mismatched, 0);
        }
    }

    #[test]
    fn paper_example_q1_mismatch() {
        // λ(p', q1) = a = 1 (CB vs JR).
        let (d, qpaths, dpaths) = setup();
        let q1 = find_q(&qpaths, 4);
        let p2 = find_p(&d, &dpaths, "JR");
        for mode in [AlignmentMode::Greedy, AlignmentMode::Optimal] {
            let a = align(q1, p2.view(), &ScoreParams::paper(), mode);
            assert_eq!(a.lambda, 1.0, "mode {mode:?}");
            assert_eq!(a.counts.nodes_mismatched, 1);
            assert_eq!(a.counts.nodes_inserted, 0);
        }
    }

    #[test]
    fn query_longer_than_data_deletes() {
        let d = data();
        let mut b = QueryGraph::builder();
        // 5-node query path vs 2-node data path PD-gender-Male... use
        // CB chain: query CB-sponsor-?a-aTo-?b-x-?c-subject-HC (5 nodes).
        b.triple_str("CB", "sponsor", "?a").unwrap();
        b.triple_str("?a", "aTo", "?b").unwrap();
        b.triple_str("?b", "x", "?c").unwrap();
        b.triple_str("?c", "subject", "\"HC\"").unwrap();
        let q = b.build();
        let qpaths = decompose_query(&q, d.vocab(), &NoSynonyms, &ExtractionConfig::default());
        let dpaths: Vec<PathLabels> = extract_paths(d.as_graph(), &ExtractionConfig::default())
            .paths
            .iter()
            .map(|p| p.labels(d.as_graph()))
            .collect();
        let p = find_p(&d, &dpaths, "CB"); // 4 nodes
        let a = align(
            &qpaths[0],
            p.view(),
            &ScoreParams::paper(),
            AlignmentMode::Optimal,
        );
        assert_eq!(a.counts.nodes_deleted, 1);
        assert_eq!(a.counts.edges_deleted, 1);
    }

    #[test]
    fn greedy_never_beats_optimal() {
        let (d, qpaths, dpaths) = setup();
        let params = ScoreParams::paper();
        for q in &qpaths {
            for p in &dpaths {
                let g = align(q, p.view(), &params, AlignmentMode::Greedy);
                let o = align(q, p.view(), &params, AlignmentMode::Optimal);
                assert!(
                    g.lambda >= o.lambda - 1e-12,
                    "greedy {} < optimal {} for q={} p={:?}",
                    g.lambda,
                    o.lambda,
                    q.index,
                    p.node_labels
                        .iter()
                        .map(|&l| d.vocab().lexical(l))
                        .collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn single_node_paths() {
        let d = data();
        let mut b = QueryGraph::builder();
        b.triple_str("?x", "subject", "\"HC\"").unwrap();
        let q = b.build();
        let qpaths = decompose_query(&q, d.vocab(), &NoSynonyms, &ExtractionConfig::default());
        let p = find_p(
            &d,
            &extract_paths(d.as_graph(), &ExtractionConfig::default())
                .paths
                .iter()
                .map(|p| p.labels(d.as_graph()))
                .collect::<Vec<_>>(),
            "CB",
        )
        .clone();
        // 2-node query vs 4-node data: two inserted units.
        let a = align(
            &qpaths[0],
            p.view(),
            &ScoreParams::paper(),
            AlignmentMode::Optimal,
        );
        assert_eq!(a.counts.nodes_inserted, 2);
        assert_eq!(a.counts.edges_inserted, 2);
        assert_eq!(a.lambda, 2.0 * (0.5 + 1.0));
    }

    #[test]
    fn exactness_flag() {
        let counts = AlignmentCounts::default();
        assert!(counts.is_exact());
        let counts = AlignmentCounts {
            edges_inserted: 1,
            ..Default::default()
        };
        assert!(!counts.is_exact());
    }

    #[test]
    fn explicit_uniform_weights_are_bit_identical_to_none() {
        // Stamping all-ones weight vectors must not perturb a single
        // bit of λ in either mode — this is the legacy-compatibility
        // contract the IC tier rests on.
        let (_, qpaths, dpaths) = setup();
        let params = ScoreParams::paper();
        for q in &qpaths {
            let mut weighted = q.clone();
            weighted.node_weights = Some(vec![1.0; q.nodes.len()].into());
            weighted.edge_weights = Some(vec![1.0; q.edges.len()].into());
            for p in &dpaths {
                for mode in [AlignmentMode::Greedy, AlignmentMode::Optimal] {
                    let plain = align(q, p.view(), &params, mode);
                    let ic = align(&weighted, p.view(), &params, mode);
                    assert_eq!(plain.lambda.to_bits(), ic.lambda.to_bits(), "mode {mode:?}");
                    assert_eq!(plain.counts, ic.counts);
                    assert_eq!(plain.bindings, ic.bindings);
                }
            }
        }
    }

    #[test]
    fn ic_weights_scale_mismatch_costs_only() {
        // λ(p', q1) = a·1 unweighted (CB vs JR at the source node);
        // tripling that position's weight triples the mismatch term but
        // leaves insertions (q2 against p) untouched.
        let (d, qpaths, dpaths) = setup();
        let params = ScoreParams::paper();

        let mut q1 = find_q(&qpaths, 4).clone();
        q1.node_weights = Some(vec![3.0, 1.0, 1.0, 1.0].into());
        q1.edge_weights = Some(vec![1.0; q1.edges.len()].into());
        let p2 = find_p(&d, &dpaths, "JR");
        for mode in [AlignmentMode::Greedy, AlignmentMode::Optimal] {
            let a = align(&q1, p2.view(), &params, mode);
            assert_eq!(a.lambda, 3.0, "mode {mode:?}");
            assert_eq!(a.counts.nodes_mismatched, 1);
        }

        let mut q2 = find_q(&qpaths, 3).clone();
        q2.node_weights = Some(vec![5.0; q2.nodes.len()].into());
        q2.edge_weights = Some(vec![5.0; q2.edges.len()].into());
        let p = find_p(&d, &dpaths, "CB");
        for mode in [AlignmentMode::Greedy, AlignmentMode::Optimal] {
            let a = align(&q2, p.view(), &params, mode);
            assert_eq!(a.lambda, 1.5, "insertions stay unweighted, mode {mode:?}");
        }
    }

    #[test]
    fn optimal_dp_prefers_cheap_weighted_mismatch() {
        // With a heavy constant in the query, the DP must route the
        // alignment so the heavy position lands on an admitted label
        // when possible — i.e. weights steer the argmin, not only the
        // reported cost.
        let (d, qpaths, dpaths) = setup();
        let q1 = find_q(&qpaths, 4);
        let p = find_p(&d, &dpaths, "CB");
        let mut heavy = q1.clone();
        heavy.node_weights = Some(vec![100.0; heavy.nodes.len()].into());
        heavy.edge_weights = Some(vec![100.0; heavy.edges.len()].into());
        // Exact image: every constant matches, so even enormous weights
        // leave λ at zero.
        let a = align(
            &heavy,
            p.view(),
            &ScoreParams::paper(),
            AlignmentMode::Optimal,
        );
        assert_eq!(a.lambda, 0.0);
        assert!(a.counts.is_exact());
    }

    #[test]
    fn lambda_weights_each_counter() {
        let params = ScoreParams {
            a: 1.0,
            b: 2.0,
            c: 4.0,
            d: 8.0,
            e: 0.0,
            del_node: 16.0,
            del_edge: 32.0,
        };
        let counts = AlignmentCounts {
            nodes_mismatched: 1,
            nodes_inserted: 1,
            edges_mismatched: 1,
            edges_inserted: 1,
            nodes_deleted: 1,
            edges_deleted: 1,
        };
        assert_eq!(counts.lambda(&params), 63.0);
    }
}
