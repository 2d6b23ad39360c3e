//! Query decomposition (paper, Section 5 "Preprocessing").
//!
//! "Given a query graph Q, the set PQ of all paths is computed on the
//! fly by traversing Q from each source to any sinks." We reuse the
//! same extraction machinery as the data index, then translate each
//! query path's labels into a *data-vocabulary view*: every constant
//! label is resolved (together with its synonyms) to the set of data
//! label ids it may match, so the alignment inner loop compares plain
//! integers.

use crate::error::SamaError;
use path_index::{extract_paths, ConstantLookup, ExtractionConfig, IcTable, Path, SynonymProvider};
use rdf_model::{LabelId, QueryGraph};

/// A query-path label as seen by alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryLabel {
    /// A variable (id in the *query* vocabulary); matches any data label.
    Var(LabelId),
    /// A constant; matches any of the listed *data* label ids (the label
    /// itself plus synonym expansion). Empty if the constant does not
    /// occur in the data at all.
    Const {
        /// Acceptable data labels, sorted ascending.
        accepted: Box<[LabelId]>,
        /// The data label the lexical form itself resolves to, apart
        /// from its synonyms' (`None` if the data lacks it). One of
        /// `accepted` when present; what IC weighting prices.
        own: Option<LabelId>,
        /// The constant's lexical form (for display).
        lexical: Box<str>,
    },
}

impl QueryLabel {
    /// `true` if this label admits `data_label`.
    #[inline]
    pub fn admits(&self, data_label: LabelId) -> bool {
        self.accepted()
            .is_none_or(|accepted| accepted.binary_search(&data_label).is_ok())
    }

    /// `true` if this is a variable.
    #[inline]
    pub fn is_var(&self) -> bool {
        matches!(self, QueryLabel::Var(_))
    }

    /// The data labels a constant accepts; `None` for a variable.
    #[inline]
    pub fn accepted(&self) -> Option<&[LabelId]> {
        match self {
            QueryLabel::Var(_) => None,
            QueryLabel::Const { accepted, .. } => Some(accepted),
        }
    }

    /// The constant's lexical form, if a constant.
    pub fn lexical(&self) -> Option<&str> {
        match self {
            QueryLabel::Var(_) => None,
            QueryLabel::Const { lexical, .. } => Some(lexical),
        }
    }
}

/// One decomposed query path with its data-vocabulary label view.
#[derive(Debug, Clone)]
pub struct QueryPath {
    /// Position of this path in `PQ` (cluster index).
    pub index: usize,
    /// The node/edge ids of the path *in the query graph* (used by the
    /// intersection query graph `χ` computation).
    pub path: Path,
    /// Node labels, sink-anchored views.
    pub nodes: Box<[QueryLabel]>,
    /// Edge labels.
    pub edges: Box<[QueryLabel]>,
    /// Optional per-node-position IC mismatch weights (parallel to
    /// `nodes`), stamped by [`apply_ic_weights`]. `None` — the default
    /// — means every position weighs `1.0`, which is the paper's
    /// uniform cost model bit-for-bit.
    pub node_weights: Option<Box<[f64]>>,
    /// Optional per-edge-position IC mismatch weights (parallel to
    /// `edges`).
    pub edge_weights: Option<Box<[f64]>>,
}

impl QueryPath {
    /// Paper "length": number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The mismatch weight of node position `i` (`1.0` unless IC
    /// weights were stamped).
    #[inline]
    pub fn node_weight(&self, i: usize) -> f64 {
        self.node_weights.as_ref().map_or(1.0, |w| w[i])
    }

    /// The mismatch weight of edge position `i`.
    #[inline]
    pub fn edge_weight(&self, i: usize) -> f64 {
        self.edge_weights.as_ref().map_or(1.0, |w| w[i])
    }

    /// `true` if the path has no nodes (cannot occur; API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The label at the sink end.
    #[inline]
    pub fn sink(&self) -> &QueryLabel {
        self.nodes.last().expect("paths are non-empty")
    }

    /// All *constant* labels scanning from the sink backwards (nodes and
    /// edges interleaved: node k, edge k-1, node k-1, …) — the
    /// clustering anchor cascade.
    pub fn constants_from_sink(&self) -> impl Iterator<Item = &QueryLabel> + '_ {
        let k = self.nodes.len();
        (0..k).rev().flat_map(move |i| {
            let node = (!self.nodes[i].is_var()).then_some(&self.nodes[i]);
            let edge = (i > 0 && !self.edges[i - 1].is_var()).then(|| &self.edges[i - 1]);
            node.into_iter().chain(edge)
        })
    }
}

/// Decompose `query` into `PQ` and translate labels against
/// `data_vocab` (+ synonyms) — the data graph's [`rdf_model::Vocabulary`],
/// or the index itself ([`path_index::IndexLike`]), which resolves
/// constants without materializing one.
pub fn decompose_query(
    query: &QueryGraph,
    data_vocab: &(impl ConstantLookup + ?Sized),
    synonyms: &dyn SynonymProvider,
    config: &ExtractionConfig,
) -> Vec<QueryPath> {
    let extraction = extract_paths(query.as_graph(), config);
    extraction
        .paths
        .into_iter()
        .enumerate()
        .map(|(index, path)| {
            let labels = path.labels(query.as_graph());
            let nodes = labels
                .node_labels
                .iter()
                .map(|&l| translate(query, data_vocab, synonyms, l))
                .collect();
            let edges = labels
                .edge_labels
                .iter()
                .map(|&l| translate(query, data_vocab, synonyms, l))
                .collect();
            QueryPath {
                index,
                path,
                nodes,
                edges,
                node_weights: None,
                edge_weights: None,
            }
        })
        .collect()
}

/// Stamp IC mismatch weights onto each decomposed query path: a
/// constant label weighs the information content of its own data label
/// in the corpus — not its synonyms' — (absent constants weigh
/// [`IcTable::absent_weight`], maximal); variables weigh `1.0` — a
/// variable never mismatches, so the value is inert and kept neutral.
pub fn apply_ic_weights(qpaths: &mut [QueryPath], table: &IcTable) {
    let weight_of = |label: &QueryLabel| -> f64 {
        match label {
            QueryLabel::Var(_) => 1.0,
            QueryLabel::Const { own, .. } => {
                own.map_or(table.absent_weight(), |id| table.weight(id))
            }
        }
    };
    for qp in qpaths {
        qp.node_weights = Some(qp.nodes.iter().map(weight_of).collect());
        qp.edge_weights = Some(qp.edges.iter().map(weight_of).collect());
    }
}

/// [`decompose_query`] with validation: a query that yields no usable
/// `PQ` — no triple patterns at all, or an extraction that produces no
/// source→sink paths (e.g. every path exceeds the extraction limits) —
/// is reported as [`SamaError::InvalidQuery`] instead of flowing into
/// the pipeline as an empty decomposition.
pub fn decompose_query_checked(
    query: &QueryGraph,
    data_vocab: &(impl ConstantLookup + ?Sized),
    synonyms: &dyn SynonymProvider,
    config: &ExtractionConfig,
) -> Result<Vec<QueryPath>, SamaError> {
    if query.edge_count() == 0 {
        return Err(SamaError::InvalidQuery(
            "query has no triple patterns".to_string(),
        ));
    }
    let qpaths = decompose_query(query, data_vocab, synonyms, config);
    if qpaths.is_empty() {
        return Err(SamaError::InvalidQuery(
            "query decomposition produced no source\u{2192}sink paths \
             (check the extraction limits)"
                .to_string(),
        ));
    }
    debug_assert!(qpaths.iter().enumerate().all(|(i, p)| p.index == i));
    Ok(qpaths)
}

fn translate(
    query: &QueryGraph,
    data_vocab: &(impl ConstantLookup + ?Sized),
    synonyms: &dyn SynonymProvider,
    label: LabelId,
) -> QueryLabel {
    let qv = query.vocab();
    if !qv.is_constant(label) {
        return QueryLabel::Var(label);
    }
    let lexical = qv.lexical(label);
    let own = data_vocab.get_constant(lexical);
    let mut accepted: Vec<LabelId> = own.into_iter().collect();
    for synonym in synonyms.synonyms(lexical) {
        if let Some(id) = data_vocab.get_constant(&synonym) {
            accepted.push(id);
        }
    }
    accepted.sort_unstable();
    accepted.dedup();
    QueryLabel::Const {
        accepted: accepted.into_boxed_slice(),
        own,
        lexical: Box::from(lexical),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use path_index::{NoSynonyms, Thesaurus};
    use rdf_model::{DataGraph, Vocabulary};

    fn data_vocab() -> Vocabulary {
        let mut b = DataGraph::builder();
        b.triple_str("CB", "sponsor", "A0056").unwrap();
        b.triple_str("A0056", "aTo", "B1432").unwrap();
        b.triple_str("B1432", "subject", "\"HC\"").unwrap();
        b.build().vocab().clone()
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

    #[test]
    fn decomposes_into_three_paths() {
        let q = q1();
        let paths = decompose_query(&q, &data_vocab(), &NoSynonyms, &Default::default());
        // q1: CB-sponsor-?v1-aTo-?v2-subject-HC (4 nodes)
        // q2: ?v3-sponsor-?v2-subject-HC (3 nodes)
        // q3: ?v3-gender-Male (2 nodes)
        let mut lens: Vec<usize> = paths.iter().map(|p| p.len()).collect();
        lens.sort_unstable();
        assert_eq!(lens, vec![2, 3, 4]);
        assert_eq!(paths.len(), 3);
    }

    #[test]
    fn constants_resolve_into_data_vocab() {
        let q = q1();
        let vocab = data_vocab();
        let paths = decompose_query(&q, &vocab, &NoSynonyms, &Default::default());
        let long = paths.iter().find(|p| p.len() == 4).unwrap();
        // Sink HC resolves to the data literal.
        match long.sink() {
            QueryLabel::Const {
                accepted,
                own,
                lexical,
            } => {
                assert_eq!(&**lexical, "HC");
                assert_eq!(accepted.len(), 1);
                assert_eq!(*own, Some(accepted[0]));
            }
            other => panic!("expected constant sink, got {other:?}"),
        }
    }

    #[test]
    fn absent_constants_have_empty_accepted() {
        let q = q1();
        let vocab = data_vocab(); // has no "Male"
        let paths = decompose_query(&q, &vocab, &NoSynonyms, &Default::default());
        let male_path = paths.iter().find(|p| p.len() == 2).unwrap();
        match male_path.sink() {
            QueryLabel::Const { accepted, .. } => assert!(accepted.is_empty()),
            other => panic!("expected constant, got {other:?}"),
        }
    }

    #[test]
    fn synonyms_extend_accepted() {
        let q = q1();
        let vocab = data_vocab();
        let mut t = Thesaurus::new();
        t.group(["HC", "HealthCare"]); // no effect: HC already present
        t.group(["Male", "CB"]); // silly but exercises the expansion
        let paths = decompose_query(&q, &vocab, &t, &Default::default());
        let male_path = paths.iter().find(|p| p.len() == 2).unwrap();
        match male_path.sink() {
            // `Male` is absent: it accepts `CB`'s label, and has none of
            // its own.
            QueryLabel::Const { accepted, own, .. } => {
                assert_eq!(&accepted[..], &[vocab.get_constant("CB").unwrap()]);
                assert_eq!(*own, None);
            }
            other => panic!("expected constant, got {other:?}"),
        }
    }

    #[test]
    fn variable_sink_falls_back_to_first_constant() {
        let mut b = QueryGraph::builder();
        b.triple_str("\"Root\"", "p", "?x").unwrap();
        b.triple_str("?x", "q", "?y").unwrap();
        let q = b.build();
        let vocab = data_vocab();
        let paths = decompose_query(&q, &vocab, &NoSynonyms, &Default::default());
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert!(p.sink().is_var());
        let anchor = p.constants_from_sink().next().unwrap();
        // Scanning backward: ?y (var), q (edge, constant) → anchor = q.
        assert_eq!(anchor.lexical(), Some("q"));
    }

    #[test]
    fn all_variable_path_has_no_anchor() {
        let mut b = QueryGraph::builder();
        b.triple_str("?a", "?p", "?b").unwrap();
        let q = b.build();
        let paths = decompose_query(&q, &data_vocab(), &NoSynonyms, &Default::default());
        assert_eq!(paths.len(), 1);
        assert!(paths[0].constants_from_sink().next().is_none());
    }

    #[test]
    fn ic_weights_stamp_constants_and_leave_variables_neutral() {
        let q = q1();
        let vocab = data_vocab();
        let mut paths = decompose_query(&q, &vocab, &NoSynonyms, &Default::default());
        // Non-uniform table: every label gets a distinct weight.
        let counts: Vec<u64> = (0..vocab.len() as u64).map(|i| i + 1).collect();
        let total = counts.iter().sum();
        let table = path_index::IcTable::from_counts(&path_index::IcCounts { counts, total });
        apply_ic_weights(&mut paths, &table);
        for p in &paths {
            let nw = p.node_weights.as_ref().unwrap();
            assert_eq!(nw.len(), p.nodes.len());
            for (i, label) in p.nodes.iter().enumerate() {
                match label.lexical() {
                    None => assert_eq!(p.node_weight(i), 1.0, "variables stay neutral"),
                    Some(lex) => match vocab.get_constant(lex) {
                        Some(id) => assert_eq!(p.node_weight(i), table.weight(id)),
                        None => assert_eq!(p.node_weight(i), table.absent_weight()),
                    },
                }
            }
        }
        // "Male" is absent from the data vocabulary → maximal weight.
        let male_path = paths.iter().find(|p| p.len() == 2).unwrap();
        assert_eq!(
            male_path.node_weight(male_path.len() - 1),
            table.absent_weight()
        );
    }

    /// A synonym widens what a constant accepts, not what it weighs: an
    /// absent `Male` that accepts `HC`'s label still weighs as absent.
    #[test]
    fn ic_weights_price_a_constants_own_label() {
        let vocab = data_vocab();
        let mut t = Thesaurus::new();
        t.group(["Male", "HC"]);
        let mut paths = decompose_query(&q1(), &vocab, &t, &Default::default());
        let counts: Vec<u64> = (0..vocab.len() as u64).map(|i| i + 1).collect();
        let total = counts.iter().sum();
        let table = path_index::IcTable::from_counts(&path_index::IcCounts { counts, total });
        apply_ic_weights(&mut paths, &table);
        let hc = vocab.get_constant("HC").unwrap();
        let male_path = paths.iter().find(|p| p.len() == 2).unwrap();
        assert!(male_path.sink().admits(hc));
        assert_eq!(male_path.node_weight(1), table.absent_weight());
        let long = paths.iter().find(|p| p.len() == 4).unwrap();
        assert_eq!(long.node_weight(3), table.weight(hc));
    }

    #[test]
    fn unstamped_paths_weigh_one_everywhere() {
        let q = q1();
        let paths = decompose_query(&q, &data_vocab(), &NoSynonyms, &Default::default());
        for p in &paths {
            for i in 0..p.nodes.len() {
                assert_eq!(p.node_weight(i), 1.0);
            }
            for i in 0..p.edges.len() {
                assert_eq!(p.edge_weight(i), 1.0);
            }
        }
    }

    #[test]
    fn admits_checks_membership() {
        let c = QueryLabel::Const {
            accepted: Box::new([LabelId(3), LabelId(7)]),
            own: Some(LabelId(3)),
            lexical: Box::from("x"),
        };
        assert!(c.admits(LabelId(3)));
        assert!(c.admits(LabelId(7)));
        assert!(!c.admits(LabelId(5)));
        assert!(QueryLabel::Var(LabelId(0)).admits(LabelId(42)));
    }
}
