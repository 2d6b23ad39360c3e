//! Index maintenance: extend an indexed graph with new triples, then
//! query across old and new data. An update is the graph insert plus a
//! rebuild, so the result is the index a build over all the triples
//! gives.
//!
//! ```text
//! cargo run --release --example incremental_updates
//! ```

use sama::engine::SamaEngine;
use sama::index::{encode_v2, ExtractionConfig, MappedIndex, PathIndex};
use sama::model::{parse_sparql, Triple};

fn main() {
    // Day 0: index the GovTrack fragment.
    let data = sama::data::govtrack::data_graph();
    let mut index = PathIndex::build(data);
    println!(
        "day 0: {} triples, {} paths",
        index.stats().triples,
        index.path_count()
    );

    // Day 1: a new amendment chain lands.
    let batch1 = [
        Triple::parse("MariaVasquez", "sponsor", "A9001"),
        Triple::parse("A9001", "aTo", "B1432"),
        Triple::parse("MariaVasquez", "gender", "\"Female\""),
    ];
    let stats = index
        .insert_triples(&batch1, &ExtractionConfig::default())
        .expect("ground triples");
    println!(
        "day 1: +{} edges, {} paths → {} paths",
        stats.inserted_edges, stats.removed_paths, stats.added_paths
    );

    // Day 2: a bill gains a review chain — B1432 stops being a plain
    // interior node and grows a new branch.
    let batch2 = [
        Triple::parse("B1432", "reviewedBy", "CommitteeHealth"),
        Triple::parse("CommitteeHealth", "chairedBy", "PierceDickes"),
    ];
    let stats = index
        .insert_triples(&batch2, &ExtractionConfig::default())
        .expect("ground triples");
    println!(
        "day 2: +{} edges, {} paths → {} paths",
        stats.inserted_edges, stats.removed_paths, stats.added_paths
    );

    // The updated index is written like any other, and its image
    // answers queries that span old and new data.
    let image = encode_v2(&index).expect("index fits format");
    println!("\nserialized: {}", sama::index::format_bytes(image.len()));
    let engine = SamaEngine::from_index(MappedIndex::from_bytes(&image).expect("own image"));
    let query = parse_sparql(
        r#"SELECT ?who ?a WHERE {
            ?who <sponsor> ?a .
            ?a <aTo> <B1432> .
        }"#,
    )
    .expect("valid query");
    let result = engine.answer(&query.graph, 5);
    println!("\nsponsors reaching B1432 through amendments:");
    for answer in &result.answers {
        for line in answer.subgraph(engine.index()).to_sorted_lines() {
            if line.contains("sponsor") {
                println!("  {line} (score {:.2})", answer.score());
            }
        }
    }
}
