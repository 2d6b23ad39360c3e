//! Table 1: indexing statistics per dataset.
//!
//! The paper reports, for eight corpora (PBlog 50K … DBLP 26M triples):
//! number of triples, hypergraph vertices `|HV|`, hyperedges `|HE|`,
//! index build time, and on-disk space. Real corpora are substituted by
//! the generators documented in DESIGN.md §2; sizes default to 1/100 of
//! the paper's (scaled further by the `scale` argument) so the table
//! regenerates in minutes, not hours.

use datasets::{bsbm, citation, govtrack, lubm, social};
use path_index::{serialize_index_v2, ExtractionConfig, PathIndex};
use rdf_model::DataGraph;
use std::fmt;
use std::time::Duration;

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Dataset name (paper's corpus it stands in for).
    pub dataset: String,
    /// Number of triples indexed.
    pub triples: usize,
    /// `|HV|`.
    pub hyper_vertices: usize,
    /// `|HE|`.
    pub hyper_edges: usize,
    /// Index build time.
    pub build_time: Duration,
    /// Serialized index size in bytes.
    pub bytes: usize,
    /// `true` if extraction limits truncated the path set.
    pub truncated: bool,
}

/// The regenerated Table 1.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Rows in the paper's order.
    pub rows: Vec<Table1Row>,
}

/// A deferred corpus constructor.
type CorpusBuilder = Box<dyn Fn() -> DataGraph>;

/// The paper's corpora with our substitutes and 1/100-scaled sizes.
fn corpora(scale: f64) -> Vec<(&'static str, CorpusBuilder)> {
    let sz = move |paper_triples: usize| -> usize {
        ((paper_triples as f64 / 100.0) * scale).max(200.0) as usize
    };
    vec![
        (
            "PBlog(social)",
            Box::new(move || {
                social::generate(&social::SocialConfig::sized_for(sz(50_000), 1)).graph
            }) as CorpusBuilder,
        ),
        (
            "GOV(govtrack)",
            Box::new(move || govtrack::scaled(sz(1_000_000), 2)),
        ),
        (
            "KEGG(citation)",
            Box::new(move || {
                citation::generate(&citation::CitationConfig::sized_for(sz(1_000_000), 3)).graph
            }),
        ),
        (
            "Berlin(bsbm)",
            Box::new(move || bsbm::generate(&bsbm::BsbmConfig::sized_for(sz(1_000_000), 4)).graph),
        ),
        (
            "IMDB(bsbm)",
            Box::new(move || bsbm::generate(&bsbm::BsbmConfig::sized_for(sz(6_000_000), 5)).graph),
        ),
        (
            "LUBM(lubm)",
            Box::new(move || lubm::generate(&lubm::LubmConfig::sized_for(sz(12_000_000), 6)).graph),
        ),
        (
            "UOBM(lubm+links)",
            Box::new(move || {
                let mut cfg = lubm::LubmConfig::sized_for(sz(12_000_000), 7);
                cfg.cross_advisor_probability = 0.4; // UOBM adds cross links
                lubm::generate(&cfg).graph
            }),
        ),
        (
            "DBLP(citation)",
            Box::new(move || {
                citation::generate(&citation::CitationConfig::sized_for(sz(26_000_000), 8)).graph
            }),
        ),
    ]
}

/// Extraction limits per corpus family: the social graph (hub-promoted
/// mutual follows) and the citation DAG (multiplicative cite chains)
/// explode combinatorially, so they get tight caps — truncation is
/// reported in the row. This mirrors the paper's own observation that
/// "building the index takes hours for large RDF data graphs".
fn extraction_for(dataset: &str) -> ExtractionConfig {
    if dataset.starts_with("PBlog") {
        ExtractionConfig {
            max_depth: 12,
            max_paths_per_source: 50_000,
            max_total_paths: 1 << 20,
        }
    } else if dataset.starts_with("KEGG") || dataset.starts_with("DBLP") {
        ExtractionConfig {
            max_depth: 10,
            max_paths_per_source: 10_000,
            max_total_paths: 200_000,
        }
    } else {
        ExtractionConfig::default()
    }
}

/// Regenerate Table 1 at the given scale (1.0 = paper/100).
pub fn run(scale: f64) -> Table1 {
    let rows = corpora(scale)
        .into_iter()
        .map(|(name, build)| {
            let graph = build();
            let mut index = PathIndex::build_with_config(graph, &extraction_for(name));
            let bytes = serialize_index_v2(&mut index)
                .expect("index fits format")
                .len();
            let stats = index.stats();
            Table1Row {
                dataset: name.to_string(),
                triples: stats.triples,
                hyper_vertices: stats.hyper_vertices,
                hyper_edges: stats.hyper_edges,
                build_time: stats.build_time,
                bytes,
                truncated: stats.is_truncated(),
            }
        })
        .collect();
    Table1 { rows }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 1 — indexing (substituted corpora, scaled)\n\
             {:<18} {:>10} {:>10} {:>10} {:>12} {:>10}  trunc",
            "dataset", "#triples", "|HV|", "|HE|", "time", "space"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<18} {:>10} {:>10} {:>10} {:>12} {:>10}  {}",
                r.dataset,
                r.triples,
                r.hyper_vertices,
                r.hyper_edges,
                format!("{:.2?}", r.build_time),
                path_index::format_bytes(r.bytes),
                if r.truncated { "yes" } else { "no" },
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scale_produces_all_rows() {
        let table = run(0.01);
        assert_eq!(table.rows.len(), 8);
        for r in &table.rows {
            assert!(r.triples > 0, "{} has no triples", r.dataset);
            assert!(r.hyper_vertices > 0);
            assert!(r.hyper_edges > 0);
            assert!(r.bytes > 0);
        }
    }

    #[test]
    fn sizes_ladder_upward() {
        let table = run(0.01);
        // DBLP (paper 26M) must dwarf PBlog (paper 50K).
        let pblog = table
            .rows
            .iter()
            .find(|r| r.dataset.starts_with("PBlog"))
            .unwrap();
        let dblp = table
            .rows
            .iter()
            .find(|r| r.dataset.starts_with("DBLP"))
            .unwrap();
        assert!(dblp.triples > pblog.triples * 5);
    }

    #[test]
    fn display_renders_all_rows() {
        let table = run(0.01);
        let text = table.to_string();
        for r in &table.rows {
            assert!(text.contains(&r.dataset));
        }
    }
}
