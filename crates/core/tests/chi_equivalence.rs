//! The reference check for the search's `χ`: the allocation-free
//! sorted merge over the index's stored node sets agrees with the
//! hash-based definition on every pair of indexed paths.

mod support;

use proptest::prelude::*;
use rdf_model::DataGraph;
use support::arb_dag_triples;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For every pair of indexed paths, in both argument orders,
    /// `chi_count_sorted` agrees with the reference hash-based
    /// `chi_count`, and `chi_sorted` with `chi`.
    #[test]
    fn sorted_chi_equals_reference(triples in arb_dag_triples(9, 16)) {
        let data = DataGraph::from_triples(&triples).expect("ground");
        let index = path_index::PathIndex::build(data);
        let owned = |ip: path_index::IndexedPath<'_>| {
            path_index::Path::new(ip.nodes.to_vec(), ip.edges.to_vec())
        };
        for (_, pa) in index.paths() {
            for (_, pb) in index.paths() {
                let (path_a, path_b) = (owned(pa), owned(pb));
                let reference = sama_core::chi_count(&path_a, &path_b);
                prop_assert_eq!(
                    sama_core::chi_count_sorted(pa.sorted_nodes, pb.sorted_nodes),
                    reference
                );
                prop_assert_eq!(
                    sama_core::chi_count_sorted(pb.sorted_nodes, pa.sorted_nodes),
                    reference
                );
                prop_assert_eq!(
                    sama_core::chi_sorted(pa.sorted_nodes, pb.sorted_nodes),
                    sama_core::chi(&path_a, &path_b)
                );
            }
        }
    }
}
