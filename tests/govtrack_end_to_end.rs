//! End-to-end reproduction of the paper's running example through the
//! public facade: Figure 1's data, queries Q1/Q2, the Figure 3
//! clusters, the Figure 4 forest, and the final answers.

use sama::data::govtrack;
use sama::engine::{IntersectionGraph, PathForest, SamaEngine};
use sama::index::IndexLike;

fn engine() -> SamaEngine {
    SamaEngine::new(govtrack::data_graph())
}

#[test]
fn q1_best_answer_is_the_papers_first_solution() {
    // "The first solution is obtained by combining the paths p1, p10
    // and p20": Carla Bunes' amendment chain to B1432, Pierce Dickes'
    // direct sponsorship of B1432, and Pierce Dickes' gender.
    let engine = engine();
    let result = engine.answer(&govtrack::query_q1(), 1);
    let best = result.best().expect("Q1 has answers");
    assert_eq!(best.score(), 0.0);
    assert!(best.is_exact());

    let lines = best.subgraph(engine.index()).to_sorted_lines();
    assert!(lines.contains(&"CarlaBunes sponsor A0056".to_string()));
    assert!(lines.contains(&"A0056 aTo B1432".to_string()));
    assert!(lines.contains(&"B1432 subject \"Health Care\"".to_string()));
    assert!(lines.contains(&"PierceDickes sponsor B1432".to_string()));
    assert!(lines.contains(&"PierceDickes gender \"Male\"".to_string()));
}

#[test]
fn q1_clusters_match_figure3() {
    let engine = engine();
    let result = engine.answer(&govtrack::query_q1(), 1);
    assert_eq!(result.query_paths.len(), 3);

    // Identify clusters by their query path length: q1 has 4 nodes,
    // q2 has 3, q3 has 2.
    let by_len = |len: usize| {
        let qi = result
            .query_paths
            .iter()
            .position(|p| p.len() == len)
            .expect("query path of that length");
        result
            .clusters
            .iter()
            .find(|c| c.qpath_index == qi)
            .expect("cluster")
    };

    // cl1: p1 at λ=0, p2..p6 at λ=1 (plus direct paths at higher λ).
    let cl1 = by_len(4);
    let zeros = cl1.entries.iter().filter(|e| e.lambda() == 0.0).count();
    let ones = cl1.entries.iter().filter(|e| e.lambda() == 1.0).count();
    assert_eq!(zeros, 1, "only the Carla Bunes chain matches exactly");
    assert_eq!(ones, 5, "the five other amendment chains cost a = 1");

    // cl2: p7..p10 at λ=0, the six chains at λ=1.5.
    let cl2 = by_len(3);
    let zeros = cl2.entries.iter().filter(|e| e.lambda() == 0.0).count();
    let one_fives = cl2.entries.iter().filter(|e| e.lambda() == 1.5).count();
    assert_eq!(zeros, 4);
    assert_eq!(one_fives, 6);

    // cl3: exactly the four Male gender paths at λ=0.
    let cl3 = by_len(2);
    assert_eq!(cl3.entries.len(), 4);
    assert!(cl3.entries.iter().all(|e| e.lambda() == 0.0));
}

#[test]
fn q1_forest_reproduces_figure4_labels() {
    let engine = engine();
    let result = engine.answer(&govtrack::query_q1(), 1);
    let ig = IntersectionGraph::build(&result.query_paths);
    let forest = PathForest::build(&result.clusters, &ig, engine.index(), 4);

    // Figure 4 shows ψ ratios of both 1 (solid) and 0.5 (dashed).
    let ratios: Vec<f64> = forest.edges.iter().map(|e| e.ratio).collect();
    assert!(ratios.contains(&1.0));
    assert!(ratios.contains(&0.5));
    assert!(forest.solid_edge_count() > 0);
}

#[test]
fn q2_has_no_exact_answer_but_returns_q1_region() {
    let engine = engine();
    let result = engine.answer(&govtrack::query_q2(), 10);
    assert!(!result.answers.is_empty());
    assert!(result.best().unwrap().score() > 0.0, "Q2 is approximate");

    // "The same answer of Q1 can be returned to the query Q2": the
    // Carla Bunes region appears among the top answers.
    let found = result.answers.iter().any(|a| {
        a.subgraph(engine.index())
            .to_sorted_lines()
            .contains(&"CarlaBunes sponsor A0056".to_string())
    });
    assert!(found, "Q1's region must surface for Q2");
}

#[test]
fn answers_emit_in_monotone_score_order() {
    let engine = engine();
    for query in [govtrack::query_q1(), govtrack::query_q2()] {
        let result = engine.answer(&query, 20);
        assert!(!result.truncated);
        for w in result.answers.windows(2) {
            assert!(w[0].score() <= w[1].score() + 1e-12);
        }
    }
}

#[test]
fn intersection_graph_matches_figure2() {
    // Figure 2: the IG is the chain q1 — q2 — q3.
    let engine = engine();
    let result = engine.answer(&govtrack::query_q1(), 1);
    let ig = IntersectionGraph::build(&result.query_paths);
    assert_eq!(ig.edges.len(), 2);
    let chis: Vec<usize> = ig.edges.iter().map(|e| e.chi_q()).collect();
    assert!(chis.contains(&2), "q1–q2 share ?v2 and Health Care");
    assert!(chis.contains(&1), "q2–q3 share ?v3");
}

#[test]
fn variable_bindings_of_the_best_answer() {
    let engine = engine();
    let q1 = govtrack::query_q1();
    let result = engine.answer(&q1, 1);
    let best = result.best().unwrap();
    let bindings = best.bindings();
    let lookup = |var: &str| -> Option<String> {
        bindings.iter().find_map(|&(v, value)| {
            (q1.vocab().lexical(v) == var).then(|| engine.index().label_lexical(value).to_string())
        })
    };
    assert_eq!(lookup("v1").as_deref(), Some("A0056"));
    assert_eq!(lookup("v2").as_deref(), Some("B1432"));
    assert_eq!(lookup("v3").as_deref(), Some("PierceDickes"));
}
