//! # sama-core
//!
//! The core contribution of De Virgilio, Maccioni, Torlone, *"A
//! Similarity Measure for Approximate Querying over RDF data"* (EDBT
//! 2013): a path-alignment similarity measure between a query graph and
//! candidate answers, computable in linear time per path pair, and a
//! three-phase top-k approximate query-answering pipeline built on it.
//!
//! ## The measure
//!
//! `score(a, Q) = Λ(a, Q) + Ψ(a, Q)`, lower is better.
//!
//! * **Quality** `Λ = Σ_q λ(p_q, q)` where `λ` (Equation 1) prices the
//!   alignment of each query path onto its chosen data path:
//!   `λ = a·n⁻N + b·nʸN + c·n⁻E + d·nʸE` — see [`mod@align`].
//! * **Conformity** `Ψ` compares how paths *combine*, through the
//!   common-node function `χ` — see [`score`].
//!
//! ## The pipeline
//!
//! 1. **Preprocessing** ([`qpath`], [`igraph`]): decompose `Q` into
//!    source→sink paths `PQ`, build the intersection query graph.
//! 2. **Clustering** ([`cluster`]): retrieve candidate data paths per
//!    query path through the index (a [`path_index::MappedIndex`]), align
//!    and sort.
//! 3. **Search** ([`search`]): best-first combination of cluster
//!    entries, emitting answers in non-decreasing score order.
//!
//! [`engine::SamaEngine`] ties the three phases together:
//!
//! ```
//! use rdf_model::{DataGraph, QueryGraph};
//! use sama_core::SamaEngine;
//!
//! let mut b = DataGraph::builder();
//! b.triple_str("CarlaBunes", "sponsor", "A0056").unwrap();
//! b.triple_str("A0056", "aTo", "B1432").unwrap();
//! b.triple_str("B1432", "subject", "\"Health Care\"").unwrap();
//! let engine = SamaEngine::new(b.build());
//!
//! let mut q = QueryGraph::builder();
//! q.triple_str("CarlaBunes", "sponsor", "?v1").unwrap();
//! q.triple_str("?v1", "aTo", "?v2").unwrap();
//! q.triple_str("?v2", "subject", "\"Health Care\"").unwrap();
//! let result = engine.answer(&q.build(), 10);
//! assert_eq!(result.best().unwrap().score(), 0.0);
//! ```

#![warn(missing_docs)]

pub mod align;
pub mod answer;
pub mod batch;
pub mod cluster;
pub mod deadline;
pub mod engine;
pub mod error;
pub mod forest;
pub mod frontier;
pub mod igraph;
pub mod jsonout;
pub mod params;
pub mod qpath;
pub mod relevance;
pub mod score;
pub mod search;
pub mod trace;

#[cfg(test)]
#[path = "../tests/support/dag.rs"]
mod test_dag;

pub use align::{align, align_lambda, Alignment, AlignmentCounts, AlignmentMode};
pub use answer::{AlignedPath, Answer, ChosenPath};
pub use batch::{BatchConfig, BatchOutcome, BatchStats, PhaseLatency};
pub use cluster::{
    build_clusters, build_clusters_budgeted, memoised_lambdas, Cluster, ClusterConfig,
    ClusterEntry, ClusterTier, Retrieval, LSH_DEFAULT_BANDS, LSH_DEFAULT_ROWS, LSH_DEFAULT_TOP_M,
    LSH_MIN_CANDIDATES,
};
pub use deadline::{CancelToken, QueryBudget};
pub use engine::{next_query_id, EngineConfig, QueryResult, QueryTimings, SamaEngine};
pub use error::{QueryError, SamaError};
pub use forest::{ForestEdge, ForestNode, PathForest};
pub use igraph::{IgEdge, IntersectionGraph};
pub use jsonout::render_result_json;
pub use params::ScoreParams;
pub use qpath::{
    apply_ic_weights, decompose_query, decompose_query_checked, QueryLabel, QueryPath,
};
pub use relevance::{more_relevant, ops_of_counts, transformation_cost, EditOp};
pub use sama_obs::export::escape as json_escape;
pub use score::{
    chi, chi_count, chi_count_sorted, chi_sorted, conformity_penalty, conformity_ratio,
    deletion_lambda, PairConformity, ScoreBreakdown,
};
pub use search::{
    search_top_k, search_top_k_budgeted, ChiStats, SearchConfig, SearchOutcome, SearchStream,
    TruncationReason,
};
pub use trace::{ExplainTrace, TraceChi, TraceCluster, TraceConfig, TracePhases, TraceQueryPath};
