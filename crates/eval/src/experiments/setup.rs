//! Shared fixtures for the query-execution experiments: the LUBM-style
//! corpus, the 12-query workload, the Sama engine, and the three
//! baseline systems under the configurations used throughout Section 6.

use datasets::{lubm, lubm_workload, NamedQuery};
use graph_match::{BoundedMatcher, DogmaMatcher, MatchResult, Matcher as _, SapperMatcher};
use rdf_model::{DataGraph, Graph, QueryGraph};
use sama_core::SamaEngine;

/// Everything the Figure 6/7/8 experiments need.
pub struct LubmFixture {
    /// The generated dataset (registries included).
    pub dataset: lubm::LubmDataset,
    /// The Sama engine over it.
    pub engine: SamaEngine,
    /// The 12-query workload.
    pub workload: Vec<NamedQuery>,
    /// SAPPER with Δ=1.
    pub sapper: SapperMatcher,
    /// BOUNDED with a 2-hop bound.
    pub bounded: BoundedMatcher,
    /// DOGMA with the default distance horizon.
    pub dogma: DogmaMatcher,
}

impl LubmFixture {
    /// Build the fixture for a corpus of roughly `triples` triples.
    pub fn new(triples: usize, seed: u64) -> Self {
        let dataset = lubm::generate(&lubm::LubmConfig::sized_for(triples, seed));
        let workload = lubm_workload(&dataset);
        let engine = SamaEngine::new(dataset.graph.clone());
        LubmFixture {
            dataset,
            engine,
            workload,
            sapper: SapperMatcher {
                delta: 1,
                ..Default::default()
            },
            bounded: BoundedMatcher {
                hops: 2,
                ..Default::default()
            },
            dogma: DogmaMatcher::default(),
        }
    }

    /// The data graph.
    pub fn data(&self) -> &DataGraph {
        &self.dataset.graph
    }
}

/// Materialize a baseline [`MatchResult`] as an answer subgraph: for
/// every query edge whose endpoints are mapped, include the realizing
/// data edge if one exists (approximate matchers may leave some edges
/// unrealized).
pub fn match_to_graph(data: &DataGraph, query: &QueryGraph, m: &MatchResult) -> Graph {
    let dg = data.as_graph();
    let qg = query.as_graph();
    let mut edge_ids = Vec::new();
    for (_, qe) in qg.edges() {
        let (Some(from), Some(to)) = (m.image(qe.from), m.image(qe.to)) else {
            continue;
        };
        // Any data edge between the images whose label is compatible
        // (match by lexical form of the query label, variable = any).
        let qlabel = qe.label;
        let q_lexical = qg.vocab().lexical(qlabel);
        let q_is_var = !qg.vocab().is_constant(qlabel);
        for &de in dg.out_edges(from) {
            let d = dg.edge(de);
            if d.to != to {
                continue;
            }
            if q_is_var || dg.vocab().lexical(d.label) == q_lexical {
                edge_ids.push(de);
                break;
            }
        }
    }
    edge_ids.sort_unstable();
    edge_ids.dedup();
    let (graph, _) = dg.subgraph_from_edges(&edge_ids);
    graph
}

/// The relevant population for provenance experiments: every region
/// VF2-isomorphic (homomorphic, shared images allowed) to the clean,
/// unperturbed pattern, materialized as answer subgraphs.
pub fn relevant_regions(data: &DataGraph, clean_query: &QueryGraph, cap: usize) -> Vec<Graph> {
    graph_match::Vf2Matcher {
        allow_shared_images: true,
        ..Default::default()
    }
    .find_matches(data, clean_query, cap)
    .into_iter()
    .map(|m| match_to_graph(data, clean_query, &m))
    .collect()
}

/// Triples of a materialized region (for coverage checks).
pub fn graph_triples(g: &Graph) -> Vec<rdf_model::Triple> {
    g.edges()
        .map(|(_, e)| {
            rdf_model::Triple::new(
                g.node_term(e.from),
                g.vocab().term(e.label),
                g.node_term(e.to),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_match::Matcher;
    use path_index::IndexLike;

    #[test]
    fn fixture_builds() {
        let fx = LubmFixture::new(1_500, 1);
        assert!(fx.data().edge_count() > 500);
        assert_eq!(fx.workload.len(), 12);
        assert!(fx.engine.index().total_paths() > 0);
    }

    #[test]
    fn match_to_graph_realizes_edges() {
        let fx = LubmFixture::new(1_000, 2);
        let q = &fx.workload[0].query; // Q1: ?x worksFor dept0, ?x type FullProfessor
        let matches = fx.dogma.find_matches(fx.data(), q, 5);
        assert!(!matches.is_empty());
        let g = match_to_graph(fx.data(), q, &matches[0]);
        assert_eq!(g.edge_count(), q.edge_count());
    }

    #[test]
    fn approximate_match_graph_may_be_partial() {
        let fx = LubmFixture::new(1_000, 3);
        // Q7 uses `lecturesFor`, absent from the data: SAPPER matches
        // with one missing edge, so the answer graph realizes fewer
        // edges than the query has.
        let q7 = &fx.workload[6];
        assert!(q7.approximate);
        let matches = fx.sapper.find_matches(fx.data(), &q7.query, 5);
        if let Some(m) = matches.first() {
            let g = match_to_graph(fx.data(), &q7.query, m);
            assert!(g.edge_count() < q7.query.edge_count());
        }
    }
}
