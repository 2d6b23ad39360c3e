//! # rdf-model
//!
//! The RDF substrate of the Sama workspace: terms, label interning,
//! triples, labelled directed graphs, and parsers.
//!
//! The paper (De Virgilio, Maccioni, Torlone, *"A Similarity Measure for
//! Approximate Querying over RDF data"*, EDBT 2013) models RDF data as a
//! labelled directed graph (Definition 1) and queries as the same graphs
//! extended with variables (Definition 2). This crate provides exactly
//! those two types — [`DataGraph`] and [`QueryGraph`] — on top of a
//! common [`Graph`] core with interned labels, dual adjacency, and the
//! source/sink/hub machinery of Section 3.2.
//!
//! ## Quick tour
//!
//! ```
//! use rdf_model::{DataGraph, QueryGraph};
//!
//! let mut builder = DataGraph::builder();
//! builder.triple_str("CarlaBunes", "sponsor", "A0056").unwrap();
//! builder.triple_str("A0056", "aTo", "B1432").unwrap();
//! builder.triple_str("B1432", "subject", "\"Health Care\"").unwrap();
//! let data = builder.build();
//! assert_eq!(data.edge_count(), 3);
//!
//! let mut builder = QueryGraph::builder();
//! builder.triple_str("CarlaBunes", "sponsor", "?v1").unwrap();
//! builder.triple_str("?v1", "aTo", "?v2").unwrap();
//! let query = builder.build();
//! assert_eq!(query.variable_count(), 2);
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod data;
pub mod error;
pub mod graph;
pub mod hash;
pub mod interner;
pub mod ntriples;
pub mod query;
pub mod sparql;
pub mod term;
pub mod triple;
pub mod turtle;

pub use builder::{DataGraphBuilder, QueryGraphBuilder};
pub use data::DataGraph;
pub use error::{RdfError, Result};
pub use graph::{Edge, EdgeId, Graph, NodeId};
pub use hash::{FxHashMap, FxHashSet};
pub use interner::{LabelId, Vocabulary};
pub use ntriples::{parse_ntriples, to_ntriples};
pub use query::QueryGraph;
pub use sparql::{parse_sparql, SparqlQuery};
pub use term::{Term, TermDisplay, TermKind};
pub use triple::Triple;
pub use turtle::parse_turtle;
