//! Run the 12-query LUBM workload through the Sama engine and print
//! per-query timings and answer quality — a miniature of the paper's
//! Section 6.2 experiment.
//!
//! ```text
//! cargo run --release --example lubm_topk [triples]
//! ```

use sama::data::{lubm, lubm_workload};
use sama::prelude::*;

fn main() {
    let triples: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5_000);

    let dataset = lubm::generate(&lubm::LubmConfig::sized_for(triples, 42));
    println!(
        "LUBM-style corpus: {} triples, {} universities, {} students",
        dataset.graph.edge_count(),
        dataset.universities.len(),
        dataset.students.len()
    );

    let start = std::time::Instant::now();
    let engine = SamaEngine::new(dataset.graph.clone());
    println!(
        "indexed {} paths in {:.2?}\n",
        engine.index().total_paths(),
        start.elapsed()
    );

    println!(
        "{:<5} {:>6} {:>6} {:>5}  {:>9} {:>9} {:>10}  kind",
        "query", "nodes", "vars", "k", "time", "best", "answers"
    );
    for nq in lubm_workload(&dataset) {
        let k = 10;
        let result = engine.answer(&nq.query, k);
        let (nodes, _edges, vars) = nq.complexity();
        println!(
            "{:<5} {:>6} {:>6} {:>5}  {:>9.3?} {:>9.2} {:>10}  {}",
            nq.name,
            nodes,
            vars,
            k,
            result.timings.total(),
            result.best().map(|a| a.score()).unwrap_or(f64::NAN),
            result.answers.len(),
            if nq.approximate {
                "approximate"
            } else {
                "exact"
            }
        );
    }

    println!("\nLower score is better; 0.00 = exact answer.");
    println!("Approximate queries (Q7–Q9, Q11, Q12) have no exact answer by");
    println!("construction — Sama still returns their intended regions.");
}
