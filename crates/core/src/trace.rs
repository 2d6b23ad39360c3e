//! Per-query EXPLAIN traces: a structured record of *what the pipeline
//! did* for one query — paths decomposed, clusters probed, candidates
//! aligned, expansions, truncation reason, χ lookups, per-phase
//! durations — attached to [`crate::QueryResult`] behind a
//! [`TraceConfig`] and emitted as JSONL by the CLI (`sama query
//! --explain`, `sama batch --trace-out`).
//!
//! The trace answers "*why was this approximate answer returned, and
//! where did its latency go?*" per query, correlating the numbers the
//! aggregate metrics registry (see [`sama_obs`]) can only report as
//! process-wide distributions.

use crate::cluster::{Cluster, ClusterTier};
use crate::engine::QueryTimings;
use crate::qpath::QueryPath;
use crate::search::{SearchOutcome, TruncationReason};
use rdf_model::QueryGraph;
use std::fmt::Write;

/// Whether [`crate::SamaEngine::answer`] assembles an [`ExplainTrace`]
/// alongside the answers. Off by default (`TraceConfig::default()`).
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceConfig {
    /// Assemble a trace per query. The assembly cost is O(|PQ| +
    /// |clusters|) plus rendering the query paths.
    pub enabled: bool,
}

impl TraceConfig {
    /// Tracing on.
    pub fn enabled() -> Self {
        TraceConfig { enabled: true }
    }
}

/// One decomposed query path, as recorded in a trace.
#[derive(Debug, Clone)]
pub struct TraceQueryPath {
    /// Index in `PQ`.
    pub index: usize,
    /// Nodes on the path.
    pub len: usize,
    /// Human-readable rendering.
    pub rendered: String,
}

/// One probed cluster, as recorded in a trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceCluster {
    /// Index of the query path this cluster covers.
    pub qpath_index: usize,
    /// Candidates the index retrieved (before any cap).
    pub retrieved: usize,
    /// Candidates actually aligned (`retrieved` minus the
    /// `max_candidates` cap and any LSH pruning).
    pub aligned: usize,
    /// Candidates scored before the fill stopped (`Cluster::scanned`):
    /// `aligned`, unless `max_cluster_size` entries at or below the
    /// least λ a later candidate can take ended the scan early.
    pub scanned: usize,
    /// Of the `scanned` candidates, those scored from their labels
    /// (`Cluster::touched`); the other `scanned − touched` were priced
    /// by their shape.
    pub touched: usize,
    /// Alignments computed to score the `scanned` candidates: the
    /// streaming fill computes one per shape for its price table and one
    /// per distinguishable touched candidate
    /// (`Cluster::alignments_computed`), so this is the scoring the
    /// query actually did.
    pub alignments: usize,
    /// Entries kept after the `max_cluster_size` truncation.
    pub kept: usize,
    /// Candidates dropped by the `max_candidates` cap.
    pub dropped: usize,
    /// Best (lowest) λ in the cluster, or the deletion cost when empty.
    pub best_lambda: f64,
    /// The retrieval tier that produced the cluster's entries.
    pub tier: ClusterTier,
}

/// χ work of one query, as recorded in a trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceChi {
    /// Total `|χ|` evaluations of the combination search.
    pub lookups: u64,
}

/// Per-phase durations of one query, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct TracePhases {
    /// Query decomposition + intersection-graph construction.
    pub preprocessing_ns: u64,
    /// Cluster retrieval + alignment.
    pub clustering_ns: u64,
    /// Top-k combination search.
    pub search_ns: u64,
    /// `preprocessing + clustering + search`.
    pub total_ns: u64,
}

/// The per-query EXPLAIN record. Everything is plain data — render it
/// with [`ExplainTrace::to_json_line`] (one JSONL line) or consume the
/// fields directly.
#[derive(Debug, Clone)]
pub struct ExplainTrace {
    /// The engine's process-unique id of the traced query — shared with
    /// [`crate::QueryResult::query_id`] and any slow-query record.
    pub query_id: u64,
    /// Caller-supplied correlation label (e.g. the query file name);
    /// `None` unless set via [`ExplainTrace::with_label`].
    pub label: Option<String>,
    /// The decomposed query paths (`PQ`).
    pub query_paths: Vec<TraceQueryPath>,
    /// One record per probed cluster, in `PQ` order.
    pub clusters: Vec<TraceCluster>,
    /// Total candidates retrieved across clusters (the paper's `I`).
    pub retrieved_paths: usize,
    /// Total candidates aligned across clusters.
    pub candidates_aligned: usize,
    /// Search-state expansions performed.
    pub expansions: usize,
    /// Answers emitted.
    pub answers: usize,
    /// Score of the best answer, if any.
    pub best_score: Option<f64>,
    /// `true` if any limit truncated the run (search or clustering).
    pub truncated: bool,
    /// Why the combination search stopped early, if it did.
    pub truncation: Option<TruncationReason>,
    /// `true` if a cluster cap dropped candidates.
    pub clusters_truncated: bool,
    /// χ evaluations.
    pub chi: TraceChi,
    /// Per-phase durations.
    pub phases: TracePhases,
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl ExplainTrace {
    /// Assemble a trace from the pipeline artefacts of one query run.
    pub(crate) fn build(
        query_id: u64,
        query: &QueryGraph,
        query_paths: &[QueryPath],
        clusters: &[Cluster],
        outcome: &SearchOutcome,
        timings: &QueryTimings,
    ) -> Self {
        let trace_clusters: Vec<TraceCluster> = clusters
            .iter()
            .map(|c| TraceCluster {
                qpath_index: c.qpath_index,
                retrieved: c.candidates_retrieved,
                aligned: c.candidates_retrieved - c.candidates_dropped - c.lsh_pruned,
                scanned: c.scanned,
                touched: c.touched,
                alignments: c.alignments_computed,
                kept: c.entries.len(),
                dropped: c.candidates_dropped,
                best_lambda: c.best_lambda(),
                tier: c.tier,
            })
            .collect();
        let clusters_truncated = clusters.iter().any(|c| c.candidates_dropped > 0);
        ExplainTrace {
            query_id,
            label: None,
            query_paths: query_paths
                .iter()
                .map(|qp| TraceQueryPath {
                    index: qp.index,
                    len: qp.len(),
                    rendered: qp.path.display(query.as_graph()).to_string(),
                })
                .collect(),
            retrieved_paths: trace_clusters.iter().map(|c| c.retrieved).sum(),
            candidates_aligned: trace_clusters.iter().map(|c| c.aligned).sum(),
            clusters: trace_clusters,
            expansions: outcome.expansions,
            answers: outcome.answers.len(),
            best_score: outcome.answers.first().map(crate::Answer::score),
            truncated: outcome.truncated || clusters_truncated,
            truncation: outcome.truncation,
            clusters_truncated,
            chi: TraceChi {
                lookups: outcome.chi_stats.lookups(),
            },
            phases: TracePhases {
                preprocessing_ns: ns(timings.preprocessing),
                clustering_ns: ns(timings.clustering),
                search_ns: ns(timings.search),
                total_ns: ns(timings.total()),
            },
        }
    }

    /// Attach a correlation label (builder style).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Render the trace as one line of JSON (JSONL-ready: no interior
    /// newlines, one complete object per call).
    pub fn to_json_line(&self) -> String {
        let esc = sama_obs::export::escape;
        let mut out = String::with_capacity(512);
        let _ = write!(out, "{{\"query_id\":{},", self.query_id);
        if let Some(label) = &self.label {
            let _ = write!(out, "\"label\":\"{}\",", esc(label));
        }
        out.push_str("\"query_paths\":[");
        for (i, qp) in self.query_paths.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"index\":{},\"len\":{}", qp.index, qp.len);
            if !qp.rendered.is_empty() {
                let _ = write!(out, ",\"path\":\"{}\"", esc(&qp.rendered));
            }
            out.push('}');
        }
        out.push_str("],\"clusters\":[");
        for (i, c) in self.clusters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"qpath\":{},\"retrieved\":{},\"aligned\":{},\"scanned\":{},\
                 \"touched\":{},\"alignments\":{},\"kept\":{},\"dropped\":{},\
                 \"best_lambda\":{},\"tier\":\"{}\"}}",
                c.qpath_index,
                c.retrieved,
                c.aligned,
                c.scanned,
                c.touched,
                c.alignments,
                c.kept,
                c.dropped,
                c.best_lambda,
                c.tier.as_str()
            );
        }
        let _ = write!(
            out,
            "],\"retrieved_paths\":{},\"candidates_aligned\":{},\"expansions\":{},\
             \"answers\":{},\"best_score\":{},\"truncated\":{},\"truncation\":{},\
             \"clusters_truncated\":{}",
            self.retrieved_paths,
            self.candidates_aligned,
            self.expansions,
            self.answers,
            self.best_score
                .map(|s| s.to_string())
                .unwrap_or_else(|| "null".into()),
            self.truncated,
            self.truncation
                .map(|t| format!("\"{}\"", t.as_str()))
                .unwrap_or_else(|| "null".into()),
            self.clusters_truncated,
        );
        let _ = write!(out, ",\"chi\":{{\"lookups\":{}}}", self.chi.lookups);
        let _ = write!(
            out,
            ",\"phases\":{{\"preprocessing_ns\":{},\"clustering_ns\":{},\"search_ns\":{},\
             \"total_ns\":{}}}}}",
            self.phases.preprocessing_ns,
            self.phases.clustering_ns,
            self.phases.search_ns,
            self.phases.total_ns,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SamaEngine;
    use rdf_model::DataGraph;

    fn engine_with_trace() -> (SamaEngine, QueryGraph) {
        let mut b = DataGraph::builder();
        b.triple_str("CB", "sponsor", "A1").unwrap();
        b.triple_str("A1", "aTo", "B1").unwrap();
        b.triple_str("B1", "subject", "\"HC\"").unwrap();
        let config = crate::EngineConfig {
            trace: TraceConfig::enabled(),
            ..Default::default()
        };
        let engine = SamaEngine::with_config(b.build(), config);
        let mut q = QueryGraph::builder();
        q.triple_str("CB", "sponsor", "?v1").unwrap();
        q.triple_str("?v1", "aTo", "?v2").unwrap();
        q.triple_str("?v2", "subject", "\"HC\"").unwrap();
        (engine, q.build())
    }

    #[test]
    fn trace_is_attached_and_consistent() {
        let (engine, q) = engine_with_trace();
        let result = engine.answer(&q, 5);
        let trace = result.trace.as_ref().expect("trace enabled");
        assert_eq!(trace.query_paths.len(), result.query_paths.len());
        assert_eq!(trace.clusters.len(), result.clusters.len());
        assert_eq!(trace.retrieved_paths, result.retrieved_paths);
        assert_eq!(trace.answers, result.answers.len());
        assert_eq!(trace.best_score, result.best().map(crate::Answer::score));
        assert_eq!(trace.truncated, result.truncated);
        assert!(trace.query_paths.iter().all(|p| !p.rendered.is_empty()));
        assert!(trace.phases.total_ns >= trace.phases.search_ns);
        assert_eq!(trace.chi.lookups, result.chi_stats.lookups());
    }

    #[test]
    fn disabled_trace_is_absent() {
        let mut b = DataGraph::builder();
        b.triple_str("a", "p", "b").unwrap();
        let config = crate::EngineConfig {
            trace: TraceConfig::default(),
            ..Default::default()
        };
        let engine = SamaEngine::with_config(b.build(), config);
        let mut q = QueryGraph::builder();
        q.triple_str("?x", "p", "b").unwrap();
        let result = engine.answer(&q.build(), 1);
        assert!(result.trace.is_none());
    }

    #[test]
    fn json_line_is_single_line_and_balanced() {
        let (engine, q) = engine_with_trace();
        let result = engine.answer(&q, 5);
        let line = result
            .trace
            .as_ref()
            .unwrap()
            .clone()
            .with_label("unit-test")
            .to_json_line();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"query_id\":"));
        assert!(line.contains(",\"label\":\"unit-test\""));
        assert!(line.ends_with("}}"));
        // Balanced braces and brackets (the renderer is hand-rolled).
        let balance = |open: char, close: char| {
            line.chars().filter(|&c| c == open).count()
                == line.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}'));
        assert!(balance('[', ']'));
        assert!(line.contains("\"truncation\":null"));
        assert!(line.contains("\"phases\":{"));
        assert!(line.contains("\"chi\":{\"lookups\":"));
    }
}
