//! The library's index image against the reference builder's on a
//! LUBM graph of the ledger fixture's size (scale 100 000, seed 42:
//! 91 542 triples, 210 820 paths), and on a vocabulary no builder
//! interns. The testkit sweep
//! (`image_round_trip_identity`) does the same on every generated case.

use datasets::lubm::{generate, LubmConfig};
use path_index::{encode_v2, PathIndex};
use rdf_model::{DataGraph, Graph, TermKind};
use sama_testkit::reference_image::{reference_image, without_build_time};

#[test]
fn lubm_image_equals_the_reference_builders() {
    let data = generate(&LubmConfig::sized_for(100_000, 42)).graph;
    assert!(data.edge_count() >= 90_000, "{} triples", data.edge_count());
    let want = without_build_time(&reference_image(&data));
    let got = without_build_time(&encode_v2(&PathIndex::build(data)).unwrap());
    assert_eq!(got.len(), want.len());
    let first = got.iter().zip(&want).position(|(a, b)| a != b);
    assert_eq!(first, None, "first differing byte");
}

/// A vocabulary no builder interns but an image can hold: one form
/// under three kinds, a repeated `(kind, lexical)` pair, and variables,
/// one of them spelled like a constant. The constant table keeps each
/// pair's first label and no variable, as the reference's does.
#[test]
fn repeated_and_variable_labels_equal_the_reference_builders() {
    let mut graph = Graph::new();
    let vocab = graph.vocab_mut();
    let labels = [
        vocab.push_raw(TermKind::Blank, "x"),
        vocab.push_raw(TermKind::Literal, "x"),
        vocab.push_raw(TermKind::Iri, "x"),
        vocab.push_raw(TermKind::Iri, "x"),
        vocab.push_raw(TermKind::Literal, "only"),
        vocab.push_raw(TermKind::Literal, "only"),
    ];
    vocab.push_raw(TermKind::Variable, "only");
    vocab.push_raw(TermKind::Variable, "v");
    let p = vocab.push_raw(TermKind::Iri, "p");
    let nodes: Vec<_> = labels
        .iter()
        .map(|&label| graph.add_node_with_label(label).unwrap())
        .collect();
    for pair in nodes.windows(2) {
        graph.add_edge_with_label(pair[0], pair[1], p).unwrap();
    }
    let data = DataGraph::try_from_graph(graph).unwrap();
    let want = without_build_time(&reference_image(&data));
    let got = without_build_time(&encode_v2(&PathIndex::build(data)).unwrap());
    assert_eq!(got, want);
}
