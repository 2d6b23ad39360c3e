//! Answers (paper, Definition 3): subgraphs of the data graph obtained
//! from the query by a substitution plus a transformation — here
//! represented as the combination of one data path per query path,
//! together with the full score breakdown.

use crate::align::Alignment;
use crate::score::ScoreBreakdown;
use path_index::{IndexLike, PathId};
use rdf_model::{EdgeId, FxHashMap, Graph, LabelId, NodeId, Term};
use std::ops::Range;

const WITHIN_PARENT: &str = "subgraph cannot exceed parent capacity";

/// A data path an answer chose, with its full alignment against the
/// query path: `align(q, labels, params, mode)` in the mode its cluster
/// was scored in, so `alignment.lambda` is the cluster entry's λ bit for
/// bit.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignedPath {
    /// The indexed data path.
    pub path_id: PathId,
    /// Its alignment: operation counts, λ and the variable bindings.
    pub alignment: Alignment,
}

impl AlignedPath {
    /// The path's alignment quality `λ`.
    #[inline]
    pub fn lambda(&self) -> f64 {
        self.alignment.lambda
    }
}

/// The path chosen for one query path.
#[derive(Debug, Clone, PartialEq)]
pub struct ChosenPath {
    /// Index of the query path in `PQ`.
    pub qpath_index: usize,
    /// The chosen data path, aligned, or `None` if the query path is
    /// uncovered (empty cluster) and priced as a full deletion.
    pub entry: Option<AlignedPath>,
}

/// One ranked answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// One choice per query path, in `PQ` order.
    pub choices: Vec<ChosenPath>,
    /// The full score decomposition.
    pub breakdown: ScoreBreakdown,
}

impl Answer {
    /// `score = Λ + Ψ`; lower is better.
    #[inline]
    pub fn score(&self) -> f64 {
        self.breakdown.score()
    }

    /// The `Λ` component.
    #[inline]
    pub fn lambda(&self) -> f64 {
        self.breakdown.lambda_total
    }

    /// The `Ψ` component.
    #[inline]
    pub fn psi(&self) -> f64 {
        self.breakdown.psi_total
    }

    /// `true` if this is an *exact* answer (Definition 3 with empty τ):
    /// every query path aligned with no operations and full conformity.
    pub fn is_exact(&self) -> bool {
        self.choices.iter().all(|c| {
            c.entry
                .as_ref()
                .is_some_and(|e| e.alignment.counts.is_exact())
        }) && self.breakdown.psi_total == 0.0
    }

    /// The chosen data path ids, in `PQ` order (`None` = uncovered).
    pub fn path_ids(&self) -> Vec<Option<PathId>> {
        self.choices
            .iter()
            .map(|c| c.entry.as_ref().map(|e| e.path_id))
            .collect()
    }

    /// Merge the variable bindings of all chosen alignments. If two
    /// paths bind the same variable differently, the binding from the
    /// earlier query path wins (conformity already penalized the
    /// disagreement).
    pub fn bindings(&self) -> Vec<(LabelId, LabelId)> {
        let mut out: Vec<(LabelId, LabelId)> = Vec::new();
        for c in &self.choices {
            if let Some(e) = &c.entry {
                for &(var, value) in &e.alignment.bindings {
                    if !out.iter().any(|&(v, _)| v == var) {
                        out.push((var, value));
                    }
                }
            }
        }
        out
    }

    /// The data edges of the answer with their endpoints: the union of
    /// the edges of all chosen paths, ascending by edge id, each once.
    /// Single-node paths and uncovered query paths contribute none.
    pub(crate) fn edges(&self, index: &impl IndexLike) -> Vec<(EdgeId, NodeId, NodeId)> {
        let mut edges = Vec::new();
        for e in self.choices.iter().filter_map(|c| c.entry.as_ref()) {
            // Edge `i` of a path runs from its node `i` to its node `i + 1`.
            let nodes = index.path_nodes(e.path_id);
            let path_edges = index.path_edges(e.path_id).iter().enumerate();
            edges.extend(path_edges.map(|(i, &edge)| (edge, nodes[i], nodes[i + 1])));
        }
        edges.sort_unstable_by_key(|&(edge, ..)| edge);
        edges.dedup_by_key(|&mut (edge, ..)| edge);
        edges
    }

    /// Assemble the answer subgraph `G' ⊆ G` — the union of the edges
    /// of all chosen paths — from the index's labels, mapping nodes by
    /// node id in the order the edges (ascending by id) first reach
    /// them, as [`Graph::subgraph_from_edges`] does.
    /// Answers made purely of single-node paths produce an empty graph.
    /// To print an answer use [`Answer::triple_lines`], which builds no
    /// graph.
    pub fn subgraph(&self, index: &impl IndexLike) -> Graph {
        let term = |label| Term::from_parts(index.label_kind(label), index.label_lexical(label));
        let (mut sub, mut mapped) = (Graph::new(), FxHashMap::<NodeId, NodeId>::default());
        for (edge, from, to) in self.edges(index) {
            let (s, p, o) = index.edge_labels(edge);
            let [from, to] = [(from, s), (to, o)].map(|(n, label)| {
                *mapped
                    .entry(n)
                    .or_insert_with(|| sub.add_node(&term(label)).expect(WITHIN_PARENT))
            });
            sub.add_edge(from, to, &term(p)).expect(WITHIN_PARENT);
        }
        sub
    }

    /// The answer's triples as sorted `s p o` lines — what
    /// `self.subgraph(index).to_sorted_lines()` prints, formatted
    /// straight from the index's labels with no graph in between. The
    /// one emitter behind the JSON `"triples"` array and the CLI's
    /// plain-text answers.
    pub fn triple_lines(&self, index: &impl IndexLike) -> Vec<String> {
        let (mut text, mut lines) = (String::new(), Vec::new());
        self.write_triple_lines(index, &mut text, &mut lines);
        lines
            .into_iter()
            .map(|line| text[line].to_string())
            .collect()
    }

    /// [`Answer::triple_lines`] without a `String` per line: the lines
    /// go into `text` (cleared first), and `lines` (cleared too) gets
    /// their byte ranges, sorted by content — the order sorting the
    /// lines as `String`s gives.
    pub(crate) fn write_triple_lines(
        &self,
        index: &impl IndexLike,
        text: &mut String,
        lines: &mut Vec<Range<usize>>,
    ) {
        text.clear();
        lines.clear();
        for (edge, ..) in self.edges(index) {
            let start = text.len();
            let (s, p, o) = index.edge_labels(edge);
            for (i, label) in [s, p, o].into_iter().enumerate() {
                if i > 0 {
                    text.push(' ');
                }
                let (before, after) = index.label_kind(label).affixes();
                text.push_str(before);
                text.push_str(index.label_lexical(label));
                text.push_str(after);
            }
            lines.push(start..text.len());
        }
        lines.sort_unstable_by(|a, b| text[a.clone()].cmp(&text[b.clone()]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::AlignmentCounts;
    use crate::score::PairConformity;

    fn entry(path_id: u32, lambda: f64, bindings: Vec<(LabelId, LabelId)>) -> AlignedPath {
        AlignedPath {
            path_id: PathId(path_id),
            alignment: Alignment {
                counts: AlignmentCounts::default(),
                lambda,
                bindings,
            },
        }
    }

    fn answer_with(choices: Vec<ChosenPath>, lambda: f64, psi: f64) -> Answer {
        Answer {
            choices,
            breakdown: ScoreBreakdown {
                lambda_total: lambda,
                psi_total: psi,
                pairs: vec![PairConformity::evaluate(0, 1, 1, 1, 1.0)],
            },
        }
    }

    #[test]
    fn score_components() {
        let a = answer_with(vec![], 1.5, 2.0);
        assert_eq!(a.score(), 3.5);
        assert_eq!(a.lambda(), 1.5);
        assert_eq!(a.psi(), 2.0);
    }

    #[test]
    fn exactness_requires_all_exact_and_conforming() {
        let exact = answer_with(
            vec![ChosenPath {
                qpath_index: 0,
                entry: Some(entry(0, 0.0, vec![])),
            }],
            0.0,
            0.0,
        );
        assert!(exact.is_exact());

        let uncovered = answer_with(
            vec![ChosenPath {
                qpath_index: 0,
                entry: None,
            }],
            4.0,
            0.0,
        );
        assert!(!uncovered.is_exact());

        let nonconforming = answer_with(
            vec![ChosenPath {
                qpath_index: 0,
                entry: Some(entry(0, 0.0, vec![])),
            }],
            0.0,
            1.0,
        );
        assert!(!nonconforming.is_exact());
    }

    #[test]
    fn bindings_first_wins() {
        let a = answer_with(
            vec![
                ChosenPath {
                    qpath_index: 0,
                    entry: Some(entry(0, 0.0, vec![(LabelId(9), LabelId(1))])),
                },
                ChosenPath {
                    qpath_index: 1,
                    entry: Some(entry(
                        1,
                        0.0,
                        vec![(LabelId(9), LabelId(2)), (LabelId(8), LabelId(3))],
                    )),
                },
            ],
            0.0,
            0.0,
        );
        let b = a.bindings();
        assert_eq!(b, vec![(LabelId(9), LabelId(1)), (LabelId(8), LabelId(3))]);
    }

    #[test]
    fn path_ids_preserve_order_and_gaps() {
        let a = answer_with(
            vec![
                ChosenPath {
                    qpath_index: 0,
                    entry: Some(entry(7, 0.0, vec![])),
                },
                ChosenPath {
                    qpath_index: 1,
                    entry: None,
                },
            ],
            0.0,
            0.0,
        );
        assert_eq!(a.path_ids(), vec![Some(PathId(7)), None]);
    }
}
