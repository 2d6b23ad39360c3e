//! The answer emitter against the rendering it replaced.
//!
//! `render_result_json` and `Answer::triple_lines` format an answer's
//! triples straight from the index's label accessors, and
//! `Answer::subgraph` builds its graph from them. The reference kept
//! here is the old way: cut the answer's edges out of the data graph
//! rebuilt from the image (`Graph::subgraph_from_edges`, a fresh `Graph`
//! and `Vocabulary` per answer), print its `to_sorted_lines`, and resolve
//! bindings through `data().vocab()`. They must agree — byte for byte,
//! and node for node — on the shapes an answer can take: chosen paths
//! that share edges, single-node paths, uncovered query paths, no
//! answers at all, labels that need JSON escapes.

use path_index::{IndexLike, MappedIndex};
use proptest::prelude::*;
use rdf_model::{DataGraph, Graph, NodeId, QueryGraph, Term, Triple};
use sama_core::{render_result_json, Answer, QueryResult, SamaEngine};

// ---------------------------------------------------------------------------
// The reference: the renderer as it was before the label-level surface.

fn reference_escape(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The answer's edges cut out of the rebuilt data graph.
fn reference_subgraph(index: &MappedIndex, answer: &Answer) -> Graph {
    let mut edges: Vec<_> = answer
        .path_ids()
        .into_iter()
        .flatten()
        .flat_map(|p| index.path_edges(p).to_vec())
        .collect();
    edges.sort_unstable();
    edges.dedup();
    index.data().as_graph().subgraph_from_edges(&edges).0
}

/// A graph node by node and edge by edge, every label as its term.
fn parts(graph: &Graph) -> (Vec<Term>, Vec<(NodeId, NodeId, Term)>) {
    let nodes = graph.nodes().map(|n| graph.node_term(n)).collect();
    let edges = graph
        .edges()
        .map(|(e, edge)| (edge.from, edge.to, graph.edge_term(e)))
        .collect();
    (nodes, edges)
}

fn reference_json(index: &MappedIndex, query: &QueryGraph, result: &QueryResult) -> String {
    let mut out = String::from("{\"answers\":[");
    for (i, answer) in result.answers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rank\":{},\"score\":{},\"lambda\":{},\"psi\":{},\"exact\":{},\"triples\":[",
            i,
            answer.score(),
            answer.lambda(),
            answer.psi(),
            answer.is_exact()
        ));
        let lines: Vec<String> = reference_subgraph(index, answer)
            .to_sorted_lines()
            .iter()
            .map(|line| format!("\"{}\"", reference_escape(line)))
            .collect();
        out.push_str(&lines.join(","));
        out.push_str("],\"bindings\":{");
        let bindings: Vec<String> = answer
            .bindings()
            .iter()
            .map(|(var, value)| {
                format!(
                    "\"{}\":\"{}\"",
                    reference_escape(query.vocab().lexical(*var)),
                    reference_escape(index.data().vocab().lexical(*value))
                )
            })
            .collect();
        out.push_str(&bindings.join(","));
        out.push_str("}}");
    }
    out.push_str(&format!(
        "],\"truncated\":{},\"retrieved_paths\":{}}}\n",
        result.truncated, result.retrieved_paths
    ));
    out
}

// ---------------------------------------------------------------------------
// The emitter held to the reference.

/// Answer `query` over `data` and hold the new emitter to the
/// reference: the JSON document, the plain-text lines, and the same
/// again after `mutate` reshaped the result. Returns the JSON.
fn check(
    data: &DataGraph,
    query: &QueryGraph,
    k: usize,
    mutate: &dyn Fn(&mut QueryResult),
) -> String {
    let engine = SamaEngine::from_index(MappedIndex::build(data.clone()).expect("builds"));
    let mut result = engine.answer(query, k);
    let index = engine.index();
    let json = render_result_json(index, query, &result);
    assert_eq!(json, reference_json(index, query, &result));
    mutate(&mut result);
    assert_eq!(
        render_result_json(index, query, &result),
        reference_json(index, query, &result)
    );
    for answer in &result.answers {
        let subgraph = answer.subgraph(index);
        assert_eq!(answer.triple_lines(index), subgraph.to_sorted_lines());
        assert_eq!(parts(&subgraph), parts(&reference_subgraph(index, answer)));
    }
    json
}

fn keep(_: &mut QueryResult) {}

fn govtrack() -> DataGraph {
    let mut b = DataGraph::builder();
    b.triple_str("CarlaBunes", "sponsor", "A0056").unwrap();
    b.triple_str("A0056", "aTo", "B1432").unwrap();
    b.triple_str("B1432", "subject", "\"Health Care\"").unwrap();
    b.triple_str("PierceDickes", "sponsor", "B1432").unwrap();
    b.triple_str("PierceDickes", "gender", "\"Male\"").unwrap();
    b.triple_str("JeffRyser", "sponsor", "A1589").unwrap();
    b.triple_str("A1589", "aTo", "B0532").unwrap();
    b.triple_str("B0532", "subject", "\"Health Care\"").unwrap();
    b.build()
}

fn q1() -> QueryGraph {
    let mut b = QueryGraph::builder();
    b.triple_str("CarlaBunes", "sponsor", "?v1").unwrap();
    b.triple_str("?v1", "aTo", "?v2").unwrap();
    b.triple_str("?v2", "subject", "\"Health Care\"").unwrap();
    b.triple_str("?v3", "sponsor", "?v2").unwrap();
    b.triple_str("?v3", "gender", "\"Male\"").unwrap();
    b.build()
}

#[test]
fn chosen_paths_that_share_edges_print_each_triple_once() {
    // q1 and q2 of the paper's Q1 both end in `B1432 subject HC`.
    let json = check(&govtrack(), &q1(), 5, &keep);
    let best = json.split("\"rank\":1").next().unwrap();
    assert_eq!(best.matches("B1432 subject \\\"Health Care\\\"").count(), 1);
    assert!(best.contains("\"exact\":true"), "{best}");
    assert!(best.contains("\"v3\":\"PierceDickes\""), "{best}");
}

#[test]
fn uncovered_query_paths_and_empty_results() {
    // Uncover each query path in turn (`entry == None`, priced as a
    // deletion): its edges leave the triples, its bindings the map.
    for uncovered in 0..3 {
        check(&govtrack(), &q1(), 5, &|result| {
            for answer in &mut result.answers {
                answer.choices[uncovered].entry = None;
            }
        });
    }
    // Every path uncovered, and no answers at all.
    check(&govtrack(), &q1(), 5, &|result| {
        for choice in result.answers.iter_mut().flat_map(|a| &mut a.choices) {
            choice.entry = None;
        }
    });
    check(&govtrack(), &q1(), 5, &|result| result.answers.clear());
    let none = check(&govtrack(), &q1(), 0, &keep);
    assert!(none.starts_with("{\"answers\":[],"), "{none}");
}

#[test]
fn single_node_paths_contribute_no_triples() {
    let mut b = DataGraph::builder();
    b.triple_str("a", "p", "b").unwrap();
    b.node(&Term::iri("lonely")).unwrap();
    let data = b.build();
    // The only path ending in `lonely` is the isolated node itself.
    let mut q = QueryGraph::builder();
    q.triple_str("?x", "p", "lonely").unwrap();
    let json = check(&data, &q.build(), 3, &keep);
    assert!(json.contains("\"triples\":[]"), "{json}");
}

#[test]
fn labels_are_escaped_and_kinds_keep_their_sigils() {
    let nasty = "say \"hi\" \\ back\nnext\ttab\r\u{1} ü";
    let triples = [
        Triple::new(Term::iri("s"), Term::iri("p"), Term::literal(nasty)),
        // One lexical form under three kinds: `x`, `"x"`, `_:x`.
        Triple::new(Term::iri("x"), Term::iri("q"), Term::literal("x")),
        Triple::new(Term::Blank("x".into()), Term::iri("q"), Term::iri("x")),
        Triple::new(Term::iri("s"), Term::iri("q"), Term::Blank("x".into())),
    ];
    let data = DataGraph::from_triples(&triples).unwrap();
    let mut q = QueryGraph::builder();
    q.triple(&Triple::new(Term::var("a"), Term::iri("p"), Term::var("b")))
        .unwrap();
    q.triple(&Triple::new(Term::var("a"), Term::iri("q"), Term::var("c")))
        .unwrap();
    let json = check(&data, &q.build(), 10, &keep);
    assert!(json.contains("\\\"hi\\\" \\\\ back\\nnext\\ttab\\r\\u0001 ü"));
    assert!(json.contains("x q \\\"x\\\""), "{json}");
    assert!(json.contains("_:x q x"), "{json}");
    assert!(json.contains("s q _:x"), "{json}");
}

// ---------------------------------------------------------------------------
// Generated graphs.

/// Ground triples over a small closed world, edges from lower to higher
/// node ids (acyclic); some objects are literals that need escaping.
fn arb_data() -> impl Strategy<Value = Vec<Triple>> {
    proptest::collection::vec((0usize..8, 0usize..8, 0usize..3, 0usize..4), 1..=14)
        .prop_map(|raw| {
            raw.into_iter()
                .filter(|(a, b, _, _)| a != b)
                .map(|(a, b, p, lit)| {
                    let object = match lit {
                        0 => Term::literal(format!("n\"{}\"\n", a.max(b))),
                        _ => Term::iri(format!("n{}", a.max(b))),
                    };
                    Triple::new(
                        Term::iri(format!("n{}", a.min(b))),
                        Term::iri(format!("p{p}")),
                        object,
                    )
                })
                .collect()
        })
        .prop_filter("at least one triple", |v: &Vec<Triple>| !v.is_empty())
}

/// A two-branch query: a chain plus a second pattern leaving its first
/// node, so answers combine paths that can share a prefix.
fn arb_query() -> impl Strategy<Value = Vec<Triple>> {
    proptest::collection::vec((0usize..12, 0usize..4), 3..=5).prop_map(|spec| {
        let node = |i: usize, pick: usize| match pick {
            0..=7 => format!("n{pick}"),
            _ => format!("?v{i}"),
        };
        let mut triples: Vec<Triple> = spec
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                Triple::parse(
                    &node(i, w[0].0),
                    &format!("p{}", w[0].1),
                    &node(i + 1, w[1].0),
                )
            })
            .collect();
        triples.push(Triple::parse(
            &node(0, spec[0].0),
            &format!("p{}", spec[1].1),
            "?branch",
        ));
        triples
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn emitter_matches_reference_on_generated_graphs(
        data in arb_data(),
        query in arb_query(),
        uncovered in 0usize..4,
    ) {
        let data = DataGraph::from_triples(&data).expect("ground");
        let Ok(query) = QueryGraph::from_triples(&query) else { return Ok(()) };
        check(&data, &query, 6, &|result| {
            for answer in &mut result.answers {
                if let Some(choice) = answer.choices.get_mut(uncovered) {
                    choice.entry = None;
                }
            }
        });
    }
}
