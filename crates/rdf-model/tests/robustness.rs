//! Robustness properties of the parsers and the model: arbitrary input
//! never panics, and well-formed data round-trips.

use proptest::prelude::*;
use rdf_model::{parse_ntriples, parse_sparql, parse_turtle, to_ntriples, DataGraph, Term, Triple};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parsers are total: any byte soup yields Ok or Err, never a
    /// panic.
    #[test]
    fn ntriples_parser_never_panics(input in ".{0,200}") {
        let _ = parse_ntriples(&input);
    }

    #[test]
    fn turtle_parser_never_panics(input in ".{0,200}") {
        let _ = parse_turtle(&input);
    }

    #[test]
    fn sparql_parser_never_panics(input in ".{0,200}") {
        let _ = parse_sparql(&input);
    }

    /// Structured garbage built from RDF-ish tokens also never panics
    /// (exercises deeper parser states than raw byte soup).
    #[test]
    fn tokenish_garbage_never_panics(
        tokens in proptest::collection::vec(
            prop_oneof![
                Just("<a>".to_string()),
                Just("\"lit\"".to_string()),
                Just("_:b".to_string()),
                Just(".".to_string()),
                Just(";".to_string()),
                Just(",".to_string()),
                Just("@prefix".to_string()),
                Just("p:x".to_string()),
                Just("?v".to_string()),
                Just("SELECT".to_string()),
                Just("WHERE".to_string()),
                Just("{".to_string()),
                Just("}".to_string()),
                Just("^^<dt>".to_string()),
                Just("@en".to_string()),
            ],
            0..20,
        )
    ) {
        let input = tokens.join(" ");
        let _ = parse_ntriples(&input);
        let _ = parse_turtle(&input);
        let _ = parse_sparql(&input);
    }

    /// Ground triples with arbitrary literal content round-trip through
    /// the N-Triples serializer, and the serialized text reads as the
    /// same term in Turtle and, as the object of a basic graph pattern,
    /// in SPARQL. The content mixes `\PC` text (printable ASCII, quotes
    /// and backslashes among it) with tabs and line breaks and with any
    /// other non-control character, in the BMP and outside it.
    #[test]
    fn ntriples_roundtrip_arbitrary_literals(
        subject in "[a-zA-Z][a-zA-Z0-9]{0,10}",
        predicate in "[a-zA-Z][a-zA-Z0-9]{0,10}",
        object in proptest::collection::vec(
            prop_oneof![
                "\\PC",
                "[\t\r\n]",
                "[\u{a0}-\u{d7ff}\u{e000}-\u{fffd}\u{10000}-\u{10ffff}]",
            ],
            0..=40,
        )
        .prop_map(|chars| chars.concat()),
    ) {
        let triples = vec![Triple::new(
            Term::iri(&subject),
            Term::iri(&predicate),
            Term::literal(&object),
        )];
        let text = to_ntriples(&triples);
        let parsed = parse_ntriples(&text).expect("serializer output parses");
        prop_assert_eq!(&parsed, &triples);
        prop_assert_eq!(&parse_turtle(&text).expect("serializer output is Turtle"), &triples);

        let literal = text
            .strip_prefix(&format!("<{subject}> <{predicate}> "))
            .and_then(|rest| rest.strip_suffix(" .\n"))
            .expect("one statement");
        let query = format!("SELECT * WHERE {{ <{subject}> <{predicate}> {literal} . }}");
        let query = parse_sparql(&query).expect("a serialized literal is a SPARQL literal");
        prop_assert_eq!(&query.patterns, &triples);
    }

    /// Any parsed ground document loads into a DataGraph without error
    /// and preserves its triple count.
    #[test]
    fn parsed_documents_always_load(
        spo in proptest::collection::vec(
            ("[a-z]{1,6}", "[a-z]{1,6}", "[a-z]{1,6}"),
            1..15,
        )
    ) {
        let text: String = spo
            .iter()
            .map(|(s, p, o)| format!("<{s}> <{p}> <{o}> .\n"))
            .collect();
        let triples = parse_ntriples(&text).expect("well-formed");
        prop_assert_eq!(triples.len(), spo.len());
        let graph = DataGraph::from_triples(&triples).expect("ground");
        prop_assert_eq!(graph.edge_count(), spo.len());
    }
}
