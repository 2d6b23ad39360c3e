//! Property-based tests for the index substrate: an update must leave
//! the index a fresh build over all the triples would, image for image;
//! the index image must round-trip; and the IC weight table must stay a
//! valid, monotone cost model under any corpus.

use path_index::{decode_v2, encode_v2, ExtractionConfig, IcCounts, IcTable, PathIndex};
use proptest::prelude::*;
use rdf_model::{DataGraph, LabelId, Triple};

/// Random edges `(from, to, predicate)` over a small closed world of
/// `max_nodes` nodes and three predicates, `min_edges..=max_edges` of
/// them.
fn arb_edges(
    max_nodes: usize,
    min_edges: usize,
    max_edges: usize,
) -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    proptest::collection::vec(
        (0..max_nodes, 0..max_nodes, 0usize..3),
        min_edges..=max_edges,
    )
}

fn triples_of(edges: impl IntoIterator<Item = (usize, usize, usize)>) -> Vec<Triple> {
    edges
        .into_iter()
        .map(|(a, b, p)| Triple::parse(&format!("n{a}"), &format!("p{p}"), &format!("n{b}")))
        .collect()
}

/// Random ground triples, any shape: cycles, self-loops, parallel edges
/// and repeats all occur, and many graphs have no true source.
fn arb_triples(
    max_nodes: usize,
    min_edges: usize,
    max_edges: usize,
) -> impl Strategy<Value = Vec<Triple>> {
    arb_edges(max_nodes, min_edges, max_edges).prop_map(triples_of)
}

/// Random ground triples with every edge pointing from a lower to a
/// higher node id: a DAG, so the graph has true sources and sinks.
fn arb_dag_triples(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = Vec<Triple>> {
    arb_edges(max_nodes, 1, max_edges)
        .prop_map(|edges| {
            triples_of(
                edges
                    .into_iter()
                    .filter(|(a, b, _)| a != b)
                    .map(|(a, b, p)| (a.min(b), a.max(b), p)),
            )
        })
        .prop_filter("at least one triple", |v: &Vec<Triple>| !v.is_empty())
}

/// The image with its one run-dependent word — the wall-clock build time
/// closing the `stats` section — zeroed.
fn without_build_time(mut image: Vec<u8>) -> Vec<u8> {
    const STATS_ENTRY: usize = 24 + 21 * 16;
    let stats = u64::from_le_bytes(image[STATS_ENTRY..STATS_ENTRY + 8].try_into().unwrap());
    let stamp = stats as usize + 6 * 8;
    image[stamp..stamp + 8].fill(0);
    image
}

/// The index after `insert_triples(extra)` is the index a fresh build
/// over `base` followed by `extra` produces: the same image, so the same
/// path ids, inverted maps, shape table and statistics.
fn assert_update_is_fresh_build(base: &[Triple], extra: &[Triple]) {
    let mut updated = PathIndex::build(DataGraph::from_triples(base).expect("ground"));
    let before = updated.path_count();
    let stats = updated
        .insert_triples(extra, &ExtractionConfig::default())
        .expect("insert succeeds");
    let all: Vec<Triple> = base.iter().chain(extra).cloned().collect();
    let fresh = PathIndex::build(DataGraph::from_triples(&all).expect("ground"));
    assert_eq!(
        without_build_time(encode_v2(&updated).expect("fits")),
        without_build_time(encode_v2(&fresh).expect("fits")),
        "base {base:?} + {extra:?}"
    );
    assert_eq!(stats.inserted_edges, extra.len());
    assert_eq!(stats.removed_paths, before);
    assert_eq!(stats.added_paths, fresh.path_count());
}

/// Hand-picked batches: each changes which nodes are sources or sinks,
/// or which paths exist, in a different way.
#[test]
fn update_is_fresh_build_on_every_known_shape() {
    type Case = (&'static [[&'static str; 3]], &'static [[&'static str; 3]]);
    const CASES: &[Case] = &[
        // Extend a chain: the old sink is demoted.
        (&[["a", "p", "b"]], &[["b", "q", "c"]]),
        // Add a branch, a new source, a demoted source.
        (&[["a", "p", "b"], ["b", "q", "c"]], &[["b", "r", "d"]]),
        (&[["a", "p", "b"], ["b", "q", "c"]], &[["x", "p", "b"]]),
        (&[["a", "p", "b"], ["a", "q", "c"]], &[["z", "p", "a"]]),
        // Several edges at once; paths crossing more than one of them.
        (
            &[["a", "p", "b"], ["c", "p", "d"]],
            &[["b", "q", "c"], ["d", "r", "e"], ["f", "s", "a"]],
        ),
        (
            &[
                ["a", "p", "b"],
                ["a", "p", "c"],
                ["b", "q", "d"],
                ["c", "q", "d"],
            ],
            &[["d", "r", "e"], ["e", "r", "f"]],
        ),
        // Bridge two components.
        (&[["a", "p", "b"], ["x", "q", "y"]], &[["b", "j", "x"]]),
        // Close a cycle that removes every source, and one that does not.
        (&[["a", "p", "b"], ["b", "p", "c"]], &[["c", "p", "a"]]),
        (&[["a", "p", "b"], ["b", "p", "c"]], &[["c", "p", "b"]]),
        // A hub-promoted base (a pure cycle has no true source).
        (&[["a", "p", "b"], ["b", "p", "a"]], &[["b", "q", "c"]]),
        // A new literal sink.
        (&[["a", "p", "b"]], &[["b", "q", "\"leaf\""]]),
        // The empty batch, a repeated batch entry, a repeated old triple.
        (&[["a", "p", "b"], ["b", "q", "c"]], &[]),
        (&[["a", "p", "b"]], &[["b", "q", "c"], ["b", "q", "c"]]),
        (&[["a", "p", "b"], ["b", "q", "c"]], &[["a", "p", "b"]]),
    ];
    let parse = |rows: &[[&str; 3]]| -> Vec<Triple> {
        rows.iter()
            .map(|[s, p, o]| Triple::parse(s, p, o))
            .collect()
    };
    for (base, extra) in CASES {
        assert_update_is_fresh_build(&parse(base), &parse(extra));
    }

    // Batch after batch, each against the build over everything so far.
    let mut so_far = parse(&[["a", "p", "b"]]);
    for batch in [
        &[["b", "q", "c"]][..],
        &[["c", "r", "d"], ["b", "s", "e"]],
        &[["f", "t", "a"]],
        &[["e", "u", "\"leaf\""]],
    ] {
        assert_update_is_fresh_build(&so_far, &parse(batch));
        so_far.extend(parse(batch));
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Update ≡ fresh build, image for image, on random graphs (cyclic
    /// and hub-promoted ones included) split into a base batch and a
    /// possibly empty update batch.
    #[test]
    fn incremental_update_equals_rebuild(
        base in arb_triples(8, 1, 14),
        extra in arb_triples(8, 0, 6),
    ) {
        assert_update_is_fresh_build(&base, &extra);
    }

    /// The same on DAGs, where every path is anchored at a true source
    /// and sink and updates promote and demote them.
    #[test]
    fn incremental_update_equals_rebuild_on_dags(
        base in arb_dag_triples(8, 14),
        extra in arb_dag_triples(8, 6),
    ) {
        assert_update_is_fresh_build(&base, &extra);
    }

    /// The image round-trips through the owned decode: the same paths,
    /// and the same bytes when encoded again.
    #[test]
    fn image_roundtrips_through_owned_decode(base in arb_triples(10, 1, 20)) {
        let index = PathIndex::build(DataGraph::from_triples(&base).expect("ground"));
        let image = encode_v2(&index).expect("index fits format");
        let owned = decode_v2(&image).expect("image decodes");
        prop_assert_eq!(sorted_paths(&owned), sorted_paths(&index));
        prop_assert_eq!(encode_v2(&owned).expect("index fits format"), image);
    }

    /// Inverted maps agree with a linear scan after arbitrary updates.
    #[test]
    fn inverted_maps_complete_after_update(
        base in arb_dag_triples(8, 12),
        extra in arb_dag_triples(8, 5),
    ) {
        let data = DataGraph::from_triples(&base).expect("ground");
        let mut index = PathIndex::build(data);
        index
            .insert_triples(&extra, &ExtractionConfig::default())
            .expect("insert succeeds");

        for (id, ip) in index.paths() {
            // Every label of the path lists the path.
            for &label in ip
                .labels
                .node_labels
                .iter()
                .chain(ip.labels.edge_labels.iter())
            {
                prop_assert!(
                    index.paths_with_label(label).contains(&id),
                    "path {id} missing from label list"
                );
            }
            prop_assert!(index.paths_with_sink(ip.labels.sink_label()).contains(&id));
        }
    }

    /// IC weights are always finite and non-negative (Theorem 1's
    /// precondition on the cost model), for any count vector.
    #[test]
    fn ic_weights_finite_and_non_negative(counts in proptest::collection::vec(0u64..1_000_000, 0..64)) {
        let total = counts.iter().sum();
        let table = IcTable::from_counts(&IcCounts { counts, total });
        prop_assert!(table.is_valid());
        prop_assert!(table.absent_weight().is_finite() && table.absent_weight() >= 0.0);
    }

    /// IC is monotone in inverse frequency: a strictly rarer label
    /// never weighs less than a more frequent one.
    #[test]
    fn ic_weights_monotone_in_inverse_frequency(counts in proptest::collection::vec(0u64..10_000, 2..32)) {
        let total = counts.iter().sum();
        let table = IcTable::from_counts(&IcCounts { counts: counts.clone(), total });
        for i in 0..counts.len() {
            for j in 0..counts.len() {
                if counts[i] < counts[j] {
                    prop_assert!(
                        table.weight(LabelId(i as u32)) >= table.weight(LabelId(j as u32)),
                        "count {} weighs less than count {}", counts[i], counts[j]
                    );
                }
            }
            // Nothing outweighs a label absent from the corpus.
            prop_assert!(table.absent_weight() >= table.weight(LabelId(i as u32)));
        }
    }

    /// IC counts serialize/deserialize byte-identically.
    #[test]
    fn ic_counts_roundtrip_byte_identical(counts in proptest::collection::vec(0u64..1_000_000, 0..64)) {
        let total = counts.iter().sum();
        let original = IcCounts { counts, total };
        let bytes = original.to_bytes();
        let decoded = IcCounts::from_bytes(&bytes, original.counts.len()).expect("roundtrip");
        prop_assert_eq!(&decoded, &original);
        prop_assert_eq!(decoded.to_bytes(), bytes);
    }

    /// Truncations and bit flips of an encoded IC section produce typed
    /// errors (or, for flips that cancel in the checksum, a valid
    /// decode) — never a panic.
    #[test]
    fn ic_section_corruption_never_panics(
        counts in proptest::collection::vec(0u64..1_000_000, 1..32),
        cut in 0usize..512,
        at in 0usize..512,
        bit in 0u8..8,
    ) {
        let total = counts.iter().sum();
        let original = IcCounts { counts, total };
        let vocab_len = original.counts.len();
        let bytes = original.to_bytes();
        // Truncation: always a typed error.
        let cut = cut % bytes.len();
        prop_assert!(IcCounts::from_bytes(&bytes[..cut], vocab_len).is_err());
        // Bit flip: the checksum must catch any single-bit change.
        let mut flipped = bytes.clone();
        let at = at % flipped.len();
        flipped[at] ^= 1 << bit;
        prop_assert!(IcCounts::from_bytes(&flipped, vocab_len).is_err());
    }
}
