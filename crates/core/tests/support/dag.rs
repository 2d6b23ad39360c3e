//! The random-DAG strategy, on its own so that the library's unit tests
//! include it too (`#[path]` in `src/lib.rs`).

use proptest::prelude::*;
use rdf_model::Triple;

/// Random ground triples over a small closed world, edges pointing from
/// lower to higher node ids so the extracted paths stay acyclic.
pub fn arb_dag_triples(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = Vec<Triple>> {
    proptest::collection::vec((0..max_nodes, 0..max_nodes, 0usize..3), 1..=max_edges)
        .prop_map(|raw| {
            raw.into_iter()
                .filter_map(|(a, b, p)| {
                    let (lo, hi) = if a < b {
                        (a, b)
                    } else if b < a {
                        (b, a)
                    } else {
                        return None;
                    };
                    Some(Triple::parse(
                        &format!("n{lo}"),
                        &format!("p{p}"),
                        &format!("n{hi}"),
                    ))
                })
                .collect()
        })
        .prop_filter("at least one triple", |v: &Vec<Triple>| !v.is_empty())
}
