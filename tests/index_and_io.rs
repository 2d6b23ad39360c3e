//! Integration tests across the I/O boundary: N-Triples and SPARQL in,
//! serialized index on "disk", identical answers back out.

use sama::index::{decode_v2, encode_v2, serialize_index_v2, MappedIndex, PathIndex};
use sama::prelude::*;

const NT_DOC: &str = r#"
# the paper's example fragment, as N-Triples
<CarlaBunes> <sponsor> <A0056> .
<A0056> <aTo> <B1432> .
<B1432> <subject> "Health Care" .
<PierceDickes> <sponsor> <B1432> .
<PierceDickes> <gender> "Male" .
<JeffRyser> <sponsor> <A1589> .
<A1589> <aTo> <B0532> .
<B0532> <subject> "Health Care" .
<JeffRyser> <gender> "Male" .
"#;

const SPARQL_Q: &str = r#"
SELECT ?v1 ?v2 ?v3 WHERE {
    <CarlaBunes> <sponsor> ?v1 .
    ?v1 <aTo> ?v2 .
    ?v2 <subject> "Health Care" .
    ?v3 <sponsor> ?v2 .
    ?v3 <gender> "Male" .
}
"#;

fn load() -> DataGraph {
    let triples = parse_ntriples(NT_DOC).expect("valid N-Triples");
    DataGraph::from_triples(&triples).expect("ground data")
}

#[test]
fn ntriples_to_answers() {
    let engine = SamaEngine::new(load());
    let query = parse_sparql(SPARQL_Q).expect("valid SPARQL");
    assert_eq!(query.projection, vec!["v1", "v2", "v3"]);
    let result = engine.answer(&query.graph, 5);
    let best = result.best().expect("answer exists");
    assert_eq!(best.score(), 0.0);
}

#[test]
fn serialized_engine_gives_identical_answers() {
    let data = load();
    let query = parse_sparql(SPARQL_Q).unwrap();

    let warm = SamaEngine::new(data.clone());
    let warm_result = warm.answer(&query.graph, 10);

    let mut index = PathIndex::build(data);
    let bytes = serialize_index_v2(&mut index).expect("index fits format");
    let cold = SamaEngine::from_index(MappedIndex::from_bytes(&bytes).expect("opens"));
    let cold_result = cold.answer(&query.graph, 10);

    assert_eq!(warm_result.answers.len(), cold_result.answers.len());
    for (a, b) in warm_result.answers.iter().zip(cold_result.answers.iter()) {
        assert_eq!(a.score(), b.score());
        assert_eq!(
            a.subgraph(warm.index()).to_sorted_lines(),
            b.subgraph(cold.index()).to_sorted_lines()
        );
    }
}

#[test]
fn index_file_roundtrip_via_disk() {
    let mut index = PathIndex::build(load());
    let bytes = serialize_index_v2(&mut index).expect("index fits format");
    let path = std::env::temp_dir().join("sama_integration_index.bin");
    std::fs::write(&path, &bytes).expect("write");
    let loaded = decode_v2(&std::fs::read(&path).expect("read")).expect("decode");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.path_count(), index.path_count());
    assert_eq!(
        loaded.stats().serialized_bytes,
        Some(bytes.len()),
        "decode records the serialized size"
    );
}

#[test]
fn ntriples_roundtrip_through_graph() {
    let data = load();
    let triples: Vec<Triple> = data.triples().collect();
    let text = sama::model::to_ntriples(&triples);
    let reparsed = parse_ntriples(&text).expect("valid");
    let data2 = DataGraph::from_triples(&reparsed).expect("ground");
    assert_eq!(
        data.as_graph().to_sorted_lines(),
        data2.as_graph().to_sorted_lines()
    );
}

#[test]
fn sparql_variable_predicate_query() {
    // Q2-style query with a variable edge label through the full stack.
    let engine = SamaEngine::new(load());
    let query = parse_sparql(
        r#"SELECT ?v2 WHERE {
            <CarlaBunes> ?e1 ?v2 .
            ?v2 <subject> "Health Care" .
        }"#,
    )
    .unwrap();
    let result = engine.answer(&query.graph, 5);
    assert!(!result.answers.is_empty());
    // CarlaBunes only reaches bills through amendments: approximate.
    assert!(result.best().unwrap().score() > 0.0);
}

/// Update-then-answer equivalence: an engine over an incrementally
/// updated index returns the same ranked answers as an engine over an
/// index built fresh on the full dataset. (The update batch follows
/// document order, so interning is identical and scores compare
/// exactly.)
#[test]
fn updated_index_answers_like_fresh_build() {
    use sama::index::ExtractionConfig;
    let all = parse_ntriples(NT_DOC).expect("valid N-Triples");
    let (base, extra) = all.split_at(5);
    let query = parse_sparql(SPARQL_Q).unwrap();

    let mut updated = PathIndex::build(DataGraph::from_triples(base).expect("ground"));
    let stats = updated
        .insert_triples(extra, &ExtractionConfig::default())
        .expect("insert succeeds");
    assert_eq!(stats.inserted_edges, extra.len());

    let fresh = PathIndex::build(DataGraph::from_triples(&all).expect("ground"));
    assert_eq!(updated.path_count(), fresh.path_count());

    let answer = |index: &PathIndex| {
        let image = encode_v2(index).expect("index fits format");
        SamaEngine::from_index(MappedIndex::from_bytes(&image).expect("opens"))
            .answer(&query.graph, 10)
    };
    let (updated_result, fresh_result) = (answer(&updated), answer(&fresh));
    assert_eq!(updated_result.answers.len(), fresh_result.answers.len());
    assert!(!updated_result.answers.is_empty());
    for (a, b) in updated_result
        .answers
        .iter()
        .zip(fresh_result.answers.iter())
    {
        assert_eq!(a.score(), b.score());
        assert_eq!(a.lambda(), b.lambda());
        assert_eq!(a.psi(), b.psi());
    }
    assert_eq!(updated_result.best().unwrap().score(), 0.0);
}
