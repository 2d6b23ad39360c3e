//! Quickstart: index a small RDF graph and run an approximate query.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use sama::prelude::*;

fn main() {
    // 1. Build an RDF data graph. Any N-Triples document works too:
    //    `parse_ntriples(&std::fs::read_to_string(path)?)`.
    let mut builder = DataGraph::builder();
    for (s, p, o) in [
        ("CarlaBunes", "sponsor", "A0056"),
        ("A0056", "aTo", "B1432"),
        ("B1432", "subject", "\"Health Care\""),
        ("PierceDickes", "sponsor", "B1432"),
        ("PierceDickes", "gender", "\"Male\""),
        ("JeffRyser", "sponsor", "A1589"),
        ("A1589", "aTo", "B0532"),
        ("B0532", "subject", "\"Health Care\""),
    ] {
        builder.triple_str(s, p, o).expect("ground triple");
    }
    let data = builder.build();
    println!(
        "data graph: {} nodes, {} triples",
        data.node_count(),
        data.edge_count()
    );

    // 2. Index it (off-line step: extracts all source→sink paths).
    let engine = SamaEngine::new(data);
    println!("indexed {} paths", engine.index().total_paths());

    // 3. Write a query — SPARQL basic graph patterns are supported.
    //    This one has NO exact answer: `fundedBy` does not exist.
    let query = parse_sparql(
        r#"SELECT ?v1 ?v2 WHERE {
            <CarlaBunes> <sponsor> ?v1 .
            ?v1 <fundedBy> ?v2 .
            ?v2 <subject> "Health Care" .
        }"#,
    )
    .expect("valid SPARQL");

    // 4. Ask for the top-5 approximate answers (lower score = better).
    let result = engine.answer(&query.graph, 5);
    println!("\ntop-{} answers:", result.answers.len());
    for (rank, answer) in result.answers.iter().enumerate() {
        println!(
            "#{rank}  score={:.2} (Λ={:.2}, Ψ={:.2}){}",
            answer.score(),
            answer.lambda(),
            answer.psi(),
            if answer.is_exact() { "  [exact]" } else { "" }
        );
        for line in answer.subgraph(engine.index()).to_sorted_lines() {
            println!("      {line}");
        }
    }

    // 5. Inspect the variable bindings of the best answer.
    let best = result.best().expect("answers exist");
    println!("\nbindings of the best answer:");
    for (var, value) in best.bindings() {
        println!(
            "  ?{} -> {}",
            query.graph.vocab().lexical(var),
            engine.index().label_lexical(value)
        );
    }
}
