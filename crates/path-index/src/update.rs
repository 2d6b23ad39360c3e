//! Index maintenance: inserting triples into an indexed graph.
//!
//! The index is a pure function of its data graph, so an update is the
//! graph insert followed by [`PathIndex::build_with_config`]. The result
//! is the index — path ids, inverted maps, shape table, serialized image
//! — that a fresh build over the old triples followed by the new ones
//! produces (property-tested in `tests/properties.rs`). Re-extracting
//! only around the new edges does not pay for the second code path:
//! assembling the inverted maps over every path dominates either way
//! (EXPERIMENTS.md, "Ledger — PR 17").

use crate::extract::ExtractionConfig;
use crate::index::PathIndex;
use rdf_model::{RdfError, Triple};

/// What an update did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Edges inserted into the graph.
    pub inserted_edges: usize,
    /// Paths in the rebuilt index.
    pub added_paths: usize,
    /// Paths in the index it replaced.
    pub removed_paths: usize,
}

impl PathIndex {
    /// Insert ground triples and rebuild the index over the grown graph.
    ///
    /// # Errors
    /// Fails (without modifying anything) if any triple contains a
    /// variable.
    pub fn insert_triples(
        &mut self,
        triples: &[Triple],
        config: &ExtractionConfig,
    ) -> Result<UpdateStats, RdfError> {
        if let Some(bad) = triples.iter().find(|t| t.has_variable()) {
            return Err(RdfError::VariableInDataGraph(bad.to_string()));
        }
        let mut graph = self.graph().clone();
        let inserted_edges = graph.insert_triples(triples)?.len();
        let removed_paths = self.path_count();
        *self = PathIndex::build_with_config(graph, config);
        Ok(UpdateStats {
            inserted_edges,
            added_paths: self.path_count(),
            removed_paths,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::DataGraph;

    fn index_of(triples: &[(&str, &str, &str)]) -> PathIndex {
        let mut b = DataGraph::builder();
        for &(s, p, o) in triples {
            b.triple_str(s, p, o).unwrap();
        }
        PathIndex::build(b.build())
    }

    fn sorted_paths(index: &PathIndex) -> Vec<String> {
        let g = index.graph().as_graph();
        let mut v: Vec<String> = index
            .paths()
            .map(|(_, ip)| ip.display(g).to_string())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn variable_triple_rejected_without_mutation() {
        let mut index = index_of(&[("a", "p", "b")]);
        let before = sorted_paths(&index);
        let err = index.insert_triples(
            &[Triple::parse("?x", "p", "b")],
            &ExtractionConfig::default(),
        );
        assert!(err.is_err());
        assert_eq!(sorted_paths(&index), before);
    }

    /// The inverted maps after an update agree with a fresh build for
    /// *every* label: same paths under `paths_with_label`, same paths
    /// under `paths_with_sink`. (The rebuilt index shares the updated
    /// graph, so label ids are comparable.)
    #[test]
    fn inverted_maps_match_fresh_build_for_every_label() {
        let mut index = index_of(&[("a", "p", "b"), ("c", "q", "b"), ("b", "r", "d")]);
        index
            .insert_triples(
                &[
                    Triple::parse("d", "s", "e"),
                    Triple::parse("x", "p", "b"),
                    Triple::parse("e", "t", "\"leaf\""),
                ],
                &ExtractionConfig::default(),
            )
            .unwrap();
        let rebuilt = PathIndex::build(index.graph().clone());

        let render = |idx: &PathIndex, ids: &[crate::path::PathId]| -> Vec<String> {
            let g = idx.graph().as_graph();
            let mut v: Vec<String> = ids
                .iter()
                .map(|&id| idx.path(id).display(g).to_string())
                .collect();
            v.sort();
            v
        };
        let label_count = index.graph().vocab().len();
        assert_eq!(rebuilt.graph().vocab().len(), label_count);
        for raw in 0..label_count {
            let label = rdf_model::LabelId(raw as u32);
            assert_eq!(
                render(&index, index.paths_with_label(label)),
                render(&rebuilt, rebuilt.paths_with_label(label)),
                "paths_with_label diverge for label {raw}"
            );
            assert_eq!(
                render(&index, index.paths_with_sink(label)),
                render(&rebuilt, rebuilt.paths_with_sink(label)),
                "paths_with_sink diverge for label {raw}"
            );
        }
    }
}
