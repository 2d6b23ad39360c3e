//! The reference check for the search's `χ`: the allocation-free
//! sorted merge over each path's node set — its nodes sorted and
//! deduplicated, as the search holds them — agrees with the hash-based
//! definition on every pair of indexed paths; and the search reads
//! those node sets from the index once, not once per lookup.

mod support;

use path_index::{ExtractionConfig, IndexLike, MappedIndex, NoSynonyms};
use proptest::prelude::*;
use rdf_model::{DataGraph, NodeId, QueryGraph};
use sama_core::{
    build_clusters, decompose_query, search_top_k, AlignmentMode, ClusterConfig, IntersectionGraph,
    ScoreParams, SearchConfig,
};
use std::sync::atomic::Ordering;
use support::{arb_dag_triples, figure1_data, Probe};

/// A path's nodes sorted ascending and deduplicated.
fn node_set(index: &impl IndexLike, id: path_index::PathId) -> Vec<NodeId> {
    let mut set = index.path_nodes(id).to_vec();
    set.sort_unstable();
    set.dedup();
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For every pair of indexed paths, in both argument orders,
    /// `chi_count_sorted` over their node sets agrees with the
    /// reference hash-based `chi_count`, and `chi_sorted` with `chi`.
    #[test]
    fn sorted_chi_equals_reference(triples in arb_dag_triples(9, 16)) {
        let data = DataGraph::from_triples(&triples).expect("ground");
        let index = MappedIndex::build(data).expect("small index");
        let owned = |id| {
            path_index::Path::new(index.path_nodes(id).to_vec(), index.path_edges(id).to_vec())
        };
        for a in index.all_path_ids() {
            for b in index.all_path_ids() {
                let (set_a, set_b) = (node_set(&index, a), node_set(&index, b));
                let (path_a, path_b) = (owned(a), owned(b));
                let reference = sama_core::chi_count(&path_a, &path_b);
                prop_assert_eq!(sama_core::chi_count_sorted(&set_a, &set_b), reference);
                prop_assert_eq!(sama_core::chi_count_sorted(&set_b, &set_a), reference);
                prop_assert_eq!(
                    sama_core::chi_sorted(&set_a, &set_b),
                    sama_core::chi(&path_a, &path_b)
                );
            }
        }
    }
}

/// Over one search, the index serves no more node lists than the
/// clusters an intersection-graph edge touches hold entries — each
/// candidate's set is read once — while the search makes more χ
/// lookups than that.
#[test]
fn the_search_reads_each_node_set_once() {
    let index = Probe::new(MappedIndex::build(figure1_data()).expect("small index"));
    let mut q = QueryGraph::builder();
    q.triple_str("CB", "sponsor", "?v1").unwrap();
    q.triple_str("?v1", "aTo", "?v2").unwrap();
    q.triple_str("?v2", "subject", "\"HC\"").unwrap();
    q.triple_str("?v3", "sponsor", "?v2").unwrap();
    q.triple_str("?v3", "gender", "\"Male\"").unwrap();
    let qpaths = decompose_query(
        &q.build(),
        &index,
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
    let incident: usize = clusters
        .iter()
        .enumerate()
        .filter(|&(i, _)| ig.edges.iter().any(|e| e.qi == i || e.qj == i))
        .map(|(_, cluster)| cluster.entries.len())
        .sum();
    assert!(incident > 0, "the query's paths intersect");

    index.path_nodes_calls.store(0, Ordering::SeqCst);
    let outcome = search_top_k(
        &qpaths,
        &ig,
        &clusters,
        &index,
        &params,
        1000,
        &SearchConfig::default(),
    );
    let reads = index.path_nodes_calls.load(Ordering::SeqCst);
    assert!(
        reads <= incident,
        "{reads} node lists read, {incident} entries"
    );
    let lookups = outcome.chi_stats.lookups();
    assert!(
        lookups > incident as u64,
        "{lookups} χ lookups, {incident} entries"
    );
}
