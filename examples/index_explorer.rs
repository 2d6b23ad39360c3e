//! Build a path index over a generated corpus, serialize it to disk,
//! reload it, and inspect its contents — the off-line half of the
//! system (paper, Section 6.1).
//!
//! ```text
//! cargo run --release --example index_explorer [triples]
//! ```

use sama::data::bsbm;
use sama::index::{decode_v2, serialize_index_v2, PathIndex};

fn main() {
    let triples: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000);

    let dataset = bsbm::generate(&bsbm::BsbmConfig::sized_for(triples, 11));
    println!(
        "BSBM-style corpus: {} triples, {} products, {} vendors",
        dataset.graph.edge_count(),
        dataset.products.len(),
        dataset.vendors.len()
    );

    // Build and serialize.
    let mut index = PathIndex::build(dataset.graph.clone());
    let bytes = serialize_index_v2(&mut index).expect("index fits format");
    let stats = index.stats();
    println!("\nindex statistics (one Table 1 row):");
    println!("  paths          : {}", stats.path_count);
    println!("  |HV|           : {}", stats.hyper_vertices);
    println!("  |HE|           : {}", stats.hyper_edges);
    println!("  build time     : {:.2?}", stats.build_time);
    println!(
        "  serialized     : {}",
        sama::index::format_bytes(bytes.len())
    );
    println!("  truncated      : {}", stats.is_truncated());

    // |HE| counts a star per node with out-neighbours and one
    // hyperedge per path.
    println!(
        "  hyperedges     : {} stars + {} paths",
        stats.hyper_edges - stats.path_count,
        stats.path_count
    );

    // Round-trip through the disk format.
    let path = std::env::temp_dir().join("sama_index.bin");
    std::fs::write(&path, &bytes).expect("write index file");
    let loaded =
        decode_v2(&std::fs::read(&path).expect("read index file")).expect("index file decodes");
    assert_eq!(loaded.path_count(), index.path_count());
    println!("\nround-trip through {} OK", path.display());

    // Label lookups, the clustering primitive.
    let vocab = loaded.graph().vocab();
    for probe in ["Product0_0", "Vendor0", "feature 1"] {
        match vocab.get_constant(probe) {
            Some(label) => {
                println!(
                    "paths containing {probe:?}: {} (of {} total); ending there: {}",
                    loaded.paths_with_label(label).len(),
                    loaded.path_count(),
                    loaded.paths_with_sink(label).len(),
                );
            }
            None => println!("label {probe:?} not present"),
        }
    }

    // A few example paths.
    println!("\nsample paths:");
    for (id, ip) in loaded.paths().take(5) {
        println!("  {id}: {}", ip.display(loaded.graph().as_graph()));
    }
}
