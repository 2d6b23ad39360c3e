//! # sama
//!
//! A Rust reproduction of De Virgilio, Maccioni, Torlone, *"A
//! Similarity Measure for Approximate Querying over RDF data"* (EDBT
//! 2013) — the **Sama** system: a path-alignment similarity measure and
//! a top-k approximate query-answering engine for RDF graphs, together
//! with the substrates and baselines its evaluation depends on.
//!
//! This crate is a facade: it re-exports the workspace's crates under
//! one roof so applications depend on a single name.
//!
//! * [`model`] — RDF terms, triples, data/query graphs, N-Triples and
//!   SPARQL-BGP parsers (`rdf-model`).
//! * [`index`] — source→sink path extraction, the label-indexed path
//!   store the builder holds (`PathIndex`), and its `SAMAIDX2` image,
//!   served in place by `MappedIndex` — the one index a query reads
//!   (`path-index`).
//! * [`engine`] — the similarity measure (λ, ψ, score) and the
//!   preprocessing/clustering/search pipeline (`sama-core`).
//! * [`baselines`] — SAPPER-, BOUNDED- and DOGMA-style matchers, VF2
//!   and exact GED (`graph-match`).
//! * [`data`] — dataset generators and workloads (`datasets`).
//! * [`mod@bench`] — metrics, oracles and the experiment drivers (`eval`).
//!
//! ## Quickstart
//!
//! ```
//! use sama::prelude::*;
//!
//! // Build a data graph and index it (into an in-memory SAMAIDX2 image;
//! // `SamaEngine::from_index(MappedIndex::open(path)?)` serves a file).
//! let mut b = DataGraph::builder();
//! b.triple_str("CarlaBunes", "sponsor", "A0056").unwrap();
//! b.triple_str("A0056", "aTo", "B1432").unwrap();
//! b.triple_str("B1432", "subject", "\"Health Care\"").unwrap();
//! let engine = SamaEngine::new(b.build());
//!
//! // Ask a query (exact here; mismatching queries degrade gracefully).
//! let query = parse_sparql(
//!     r#"SELECT ?v1 ?v2 WHERE {
//!         <CarlaBunes> <sponsor> ?v1 .
//!         ?v1 <aTo> ?v2 .
//!         ?v2 <subject> "Health Care" .
//!     }"#,
//! ).unwrap();
//! let result = engine.answer(&query.graph, 10);
//! assert_eq!(result.best().unwrap().score(), 0.0);
//! ```

#![warn(missing_docs)]

/// RDF model: terms, triples, graphs, parsers (`rdf-model`).
pub mod model {
    pub use rdf_model::*;
}

/// Path extraction, the off-line path index and its mapped image
/// (`path-index`).
pub mod index {
    pub use path_index::*;
}

/// The similarity measure and query-answering engine (`sama-core`).
pub mod engine {
    pub use sama_core::*;
}

/// Metric table, span timers, and exporters (`sama-obs`).
pub mod obs {
    pub use sama_obs::*;
}

/// Zero-dependency HTTP serving layer (`sama-serve`).
pub mod serve {
    pub use sama_serve::*;
}

/// Baseline matchers and exactness/relevance oracles (`graph-match`).
pub mod baselines {
    pub use graph_match::*;
}

/// Dataset generators and query workloads (`datasets`).
pub mod data {
    pub use datasets::*;
}

/// Metrics, oracles and experiment drivers (`eval`).
pub mod bench {
    pub use eval::*;
}

/// The most commonly used items in one import.
pub mod prelude {
    pub use graph_match::{BoundedMatcher, DogmaMatcher, Matcher, SapperMatcher, Vf2Matcher};
    pub use path_index::{ExtractionConfig, IndexLike, MappedIndex, SynonymProvider, Thesaurus};
    pub use rdf_model::{parse_ntriples, parse_sparql, DataGraph, Graph, QueryGraph, Term, Triple};
    pub use sama_core::{Answer, EngineConfig, QueryResult, SamaEngine, ScoreParams};
}
