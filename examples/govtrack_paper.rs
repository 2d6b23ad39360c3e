//! The paper's running example, end to end: Figure 1's GovTrack
//! fragment, queries Q1 and Q2, the clustering of Figure 3, the forest
//! of Figure 4, and the top-k answers.
//!
//! ```text
//! cargo run --example govtrack_paper
//! ```

use sama::data::govtrack;
use sama::engine::{IntersectionGraph, PathForest, SamaEngine};
use sama::index::{display_path, IndexLike, PathId};

fn main() {
    let data = govtrack::data_graph();
    println!(
        "Figure 1 data graph: {} nodes, {} triples, {} sources, {} sinks",
        data.node_count(),
        data.edge_count(),
        data.sources().len(),
        data.sinks().len()
    );

    let engine = SamaEngine::new(data);
    let index = engine.index();
    let path = |id: PathId| display_path(index, id);
    println!("indexed paths:");
    for id in (0..index.total_paths() as u32).map(PathId) {
        println!("  {id}: {}", path(id));
    }

    // ---- Q1: exact answer exists -------------------------------------
    let q1 = govtrack::query_q1();
    let result = engine.answer(&q1, 3);
    println!("\nQ1 — decomposed into {} paths:", result.query_paths.len());
    for qp in &result.query_paths {
        println!("  q{}: {}", qp.index, qp.path.display(q1.as_graph()));
    }

    // The intersection query graph of Figure 2.
    let ig = IntersectionGraph::build(&result.query_paths);
    println!("intersection query graph edges:");
    for e in &ig.edges {
        println!("  (q{}, q{}): |χ| = {}", e.qi, e.qj, e.chi_q());
    }

    // The clusters of Figure 3.
    println!("clusters:");
    for cluster in &result.clusters {
        println!(
            "  cl{} ({} entries):",
            cluster.qpath_index,
            cluster.entries.len()
        );
        // An entry is a path and its λ; the answers below carry the
        // full alignment of the paths they chose.
        for entry in cluster.entries.iter().take(6) {
            println!("    {} [λ = {}]", path(entry.path_id), entry.lambda);
        }
    }

    // The combination forest of Figure 4 (width 2 for readability).
    let forest = PathForest::build(&result.clusters, &ig, engine.index(), 2);
    println!("\nforest (width 2):\n{}", forest.display(engine.index()));

    println!("Q1 top answers:");
    for (rank, a) in result.answers.iter().enumerate() {
        println!(
            "#{rank} score={:.2}{}",
            a.score(),
            if a.is_exact() { " [exact]" } else { "" }
        );
        for line in a.subgraph(engine.index()).to_sorted_lines() {
            println!("    {line}");
        }
    }

    // ---- Q2: no exact answer; approximation returns Q1's region ------
    let q2 = govtrack::query_q2();
    let result = engine.answer(&q2, 5);
    println!("\nQ2 (relaxed; no exact answer) top answers:");
    for (rank, a) in result.answers.iter().enumerate() {
        println!(
            "#{rank} score={:.2} (Λ={:.2}, Ψ={:.2})",
            a.score(),
            a.lambda(),
            a.psi()
        );
        for line in a.subgraph(engine.index()).to_sorted_lines() {
            println!("    {line}");
        }
    }
}
