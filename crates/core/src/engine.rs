//! The end-to-end query engine: index off-line, answer on-the-fly
//! (paper, Section 5).

use crate::align::AlignmentMode;
use crate::answer::Answer;
use crate::cluster::{build_clusters_budgeted, Cluster, ClusterConfig};
use crate::deadline::QueryBudget;
use crate::error::{QueryError, SamaError};
use crate::igraph::IntersectionGraph;
use crate::params::ScoreParams;
use crate::qpath::{apply_ic_weights, decompose_query, decompose_query_checked, QueryPath};
use crate::search::{
    search_top_k_budgeted, ChiStats, SearchConfig, SearchStream, TruncationReason,
};
use crate::trace::{ExplainTrace, TraceConfig};
use path_index::{
    build_lsh_bytes, ExtractionConfig, IcTable, IndexLike, LshParams, LshSidecar, MappedIndex,
    NoSynonyms, SynonymProvider,
};
use rdf_model::{DataGraph, QueryGraph};
use sama_obs as obs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Monotonically increasing per-process query id, stamped into every
/// [`QueryResult`], EXPLAIN trace, and slow-query record so one query's
/// artefacts correlate across all three sinks. The serving layer also
/// stamps fresh ids into error responses, keeping failures correlatable
/// from the client side.
pub fn next_query_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed) + 1
}

/// Saturating nanosecond conversion (durations beyond ~584 years clamp).
fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The latency objective: queries slower than this count into
/// `query.slo_violations_total` — the burn-rate numerator alerting
/// divides by `query.queries_total`.
const SLO: Duration = Duration::from_millis(500);

/// Engine-wide configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineConfig {
    /// Path-extraction limits for the *data* graph (indexing).
    pub extraction: ExtractionConfig,
    /// Path-extraction limits for *query* graphs (preprocessing) —
    /// queries are tiny, so the defaults always suffice.
    pub query_extraction: ExtractionConfig,
    /// Clustering limits.
    pub cluster: ClusterConfig,
    /// Search limits.
    pub search: SearchConfig,
    /// Alignment algorithm (paper's greedy scan by default).
    pub alignment: AlignmentMode,
    /// Per-query EXPLAIN trace assembly (off by default).
    pub trace: TraceConfig,
    /// Per-query wall-clock budget. On expiry the engine returns the
    /// best-effort partial top-k flagged with
    /// [`TruncationReason::DeadlineExceeded`] instead of running to
    /// `max_expansions`. `None` (the default) disables the checkpoints
    /// entirely — no clock is read and results are bit-identical to an
    /// unbudgeted build.
    pub deadline: Option<Duration>,
    /// Weight alignment mismatch costs by corpus-derived information
    /// content (`-log₂ Pr(label)`, see [`path_index::IcTable`]): rare
    /// labels cost more to mismatch than generic ones. Off by default —
    /// and when off, query paths carry no weight vectors at all, so
    /// answers are bit-identical to the unweighted engine.
    pub ic_weights: bool,
}

/// Per-phase timings of one query run (the paper's Figure 6 measures
/// "any preprocessing, execution and traversal").
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryTimings {
    /// Query decomposition + IG construction.
    pub preprocessing: Duration,
    /// Cluster retrieval + alignment.
    pub clustering: Duration,
    /// Top-k combination search.
    pub search: Duration,
}

impl QueryTimings {
    /// Total wall-clock time.
    pub fn total(&self) -> Duration {
        self.preprocessing + self.clustering + self.search
    }
}

/// Everything a query run produces: ranked answers plus the
/// intermediate structures (useful for explanation and experiments).
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// This query's process-unique id — the correlation key shared with
    /// its EXPLAIN trace and any slow-query record.
    pub query_id: u64,
    /// Up to `k` answers in non-decreasing score order.
    pub answers: Vec<Answer>,
    /// The decomposed query paths (`PQ`).
    pub query_paths: Vec<QueryPath>,
    /// The intersection query graph.
    pub intersection_graph: IntersectionGraph,
    /// The clusters, in `PQ` order.
    pub clusters: Vec<Cluster>,
    /// Number of data paths retrieved across all clusters — the paper's
    /// `I` (Figure 7a's x-axis).
    pub retrieved_paths: usize,
    /// `true` if any limit (cluster caps, search expansions) truncated
    /// the run.
    pub truncated: bool,
    /// Which search limit stopped the combination search early, if one
    /// did (`None` for clustering-only truncation).
    pub truncation: Option<TruncationReason>,
    /// Phase timings.
    pub timings: QueryTimings,
    /// `|χ|` evaluations of the combination search.
    pub chi_stats: ChiStats,
    /// The EXPLAIN trace, when [`EngineConfig::trace`] is enabled.
    pub trace: Option<ExplainTrace>,
}

impl QueryResult {
    /// The best answer, if any.
    pub fn best(&self) -> Option<&Answer> {
        self.answers.first()
    }

    /// Render a human-readable explanation of the answer at `rank`:
    /// per-query-path alignment (chosen data path, λ, operation counts)
    /// and per-pair conformity. `None` if `rank` is out of range.
    pub fn explain_answer<I: IndexLike>(
        &self,
        rank: usize,
        index: &I,
        query: &QueryGraph,
    ) -> Option<String> {
        use std::fmt::Write;
        let answer = self.answers.get(rank)?;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "answer #{rank}: score {:.2} = Λ {:.2} + Ψ {:.2}",
            answer.score(),
            answer.lambda(),
            answer.psi()
        );
        for choice in &answer.choices {
            let qp = &self.query_paths[choice.qpath_index];
            let _ = write!(
                out,
                "  q{}: {}",
                qp.index,
                qp.path.display(query.as_graph())
            );
            match &choice.entry {
                None => {
                    let _ = writeln!(out, "\n      → uncovered (priced as full deletion)");
                }
                Some(entry) => {
                    let counts = entry.alignment.counts;
                    let _ = writeln!(
                        out,
                        "\n      → {} [λ={}{}]",
                        path_index::display_path(index, entry.path_id),
                        entry.lambda(),
                        if counts.is_exact() {
                            ", exact".to_string()
                        } else {
                            format!(
                                ", n⁻N={} nʸN={} n⁻E={} nʸE={} del={}",
                                counts.nodes_mismatched,
                                counts.nodes_inserted,
                                counts.edges_mismatched,
                                counts.edges_inserted,
                                counts.nodes_deleted + counts.edges_deleted
                            )
                        }
                    );
                }
            }
        }
        for pair in &answer.breakdown.pairs {
            let _ = writeln!(
                out,
                "  ψ(q{}, q{}): |χq|={} |χp|={} ratio={:.2} penalty={:.2}",
                pair.qi, pair.qj, pair.chi_q, pair.chi_p, pair.ratio, pair.penalty
            );
        }
        Some(out)
    }
}

/// The Sama engine: an index plus scoring configuration.
///
/// The index is a [`MappedIndex`] — a `SAMAIDX2` image, mapped from a
/// file ([`MappedIndex::open`]) or held in memory
/// ([`SamaEngine::new`] builds one). The type parameter is a seam for
/// tests that wrap the index to watch what a query reads.
pub struct SamaEngine<I: IndexLike = MappedIndex> {
    index: I,
    synonyms: Arc<dyn SynonymProvider>,
    params: ScoreParams,
    config: EngineConfig,
    /// Overrides the index-derived IC table when set (the testkit
    /// forces [`IcTable::uniform`] here to prove convergence).
    ic_override: Option<IcTable>,
}

impl SamaEngine<MappedIndex> {
    /// Index `data` with default configuration.
    ///
    /// # Panics
    /// See [`SamaEngine::with_config`].
    pub fn new(data: DataGraph) -> Self {
        Self::with_config(data, EngineConfig::default())
    }

    /// Index `data` with explicit configuration
    /// ([`MappedIndex::build_with_config`]: the `SAMAIDX2` image
    /// `sama index` would write, served from memory). A
    /// [`crate::Retrieval::Lsh`] cluster config also attaches the LSH
    /// signature tier here; if that fails (it cannot for a freshly
    /// built index) the engine serves exact retrieval per the tier's
    /// fallback semantics.
    ///
    /// # Panics
    /// If the index outgrows the format's `u32` counts
    /// ([`path_index::StorageError::TooLarge`]).
    pub fn with_config(data: DataGraph, config: EngineConfig) -> Self {
        let mut index = MappedIndex::build_with_config(data, &config.extraction)
            .expect("the index fits the SAMAIDX2 format");
        if let crate::Retrieval::Lsh { bands, rows, .. } = config.cluster.retrieval {
            if let Ok(sidecar) = build_lsh_bytes(&index, LshParams { bands, rows })
                .and_then(|bytes| LshSidecar::from_bytes(&bytes))
            {
                let _ = index.attach_lsh(sidecar);
            }
        }
        Self::from_index_with_config(index, config)
    }
}

impl<I: IndexLike> SamaEngine<I> {
    /// Wrap an existing (e.g. deserialized) index.
    pub fn from_index(index: I) -> Self {
        Self::from_index_with_config(index, EngineConfig::default())
    }

    /// Wrap an existing index with explicit configuration.
    pub fn from_index_with_config(index: I, config: EngineConfig) -> Self {
        SamaEngine {
            index,
            synonyms: Arc::new(NoSynonyms),
            params: ScoreParams::paper(),
            config,
            ic_override: None,
        }
    }

    /// Replace the scoring parameters (builder style).
    pub fn with_params(mut self, params: ScoreParams) -> Self {
        assert!(params.is_valid(), "score parameters must be non-negative");
        self.params = params;
        self
    }

    /// Install a synonym provider (builder style). Every query is
    /// widened once, at decomposition: each constant accepts its own
    /// data label and those of its synonyms, and a synonym match costs
    /// what an exact match costs (the paper's WordNet semantics,
    /// Section 6.1). An empty provider changes no answer.
    pub fn with_synonyms(mut self, synonyms: Arc<dyn SynonymProvider>) -> Self {
        self.synonyms = synonyms;
        self
    }

    /// Force a specific IC weight table (builder style) instead of the
    /// index-derived one, and turn [`EngineConfig::ic_weights`] on. The
    /// testkit passes [`IcTable::uniform`] here to prove the weighted
    /// cost model degenerates bit-for-bit to the paper's.
    pub fn with_ic_table(mut self, table: IcTable) -> Self {
        self.ic_override = Some(table);
        self.config.ic_weights = true;
        self
    }

    /// The underlying index.
    pub fn index(&self) -> &I {
        &self.index
    }

    /// The active scoring parameters.
    pub fn params(&self) -> &ScoreParams {
        &self.params
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Stream answers lazily in non-decreasing score order — top-k
    /// without fixing `k` up front — under the engine's default budget
    /// (see [`EngineConfig::deadline`]). The stream owns the
    /// decomposition artefacts and borrows the engine's index:
    ///
    /// ```
    /// # use rdf_model::{DataGraph, QueryGraph};
    /// # use sama_core::SamaEngine;
    /// # let mut b = DataGraph::builder();
    /// # b.triple_str("a", "p", "b").unwrap();
    /// # b.triple_str("c", "p", "b").unwrap();
    /// # let engine = SamaEngine::new(b.build());
    /// # let mut q = QueryGraph::builder();
    /// # q.triple_str("?x", "p", "b").unwrap();
    /// # let query = q.build();
    /// let best_two: Vec<_> = engine.answer_stream(&query).take(2).collect();
    /// assert_eq!(best_two.len(), 2);
    /// ```
    pub fn answer_stream(&self, query: &QueryGraph) -> SearchStream<'_> {
        let budget = self.default_budget();
        let prepared = self
            .prepare(query, false, &budget)
            .expect("only a checked decomposition can fail");
        SearchStream::new(
            prepared.query_paths,
            prepared.intersection_graph,
            prepared.clusters,
            &self.index,
            self.params,
            self.config.search,
        )
        .with_budget(budget)
    }

    /// The budget one query gets by default: the configured
    /// [`EngineConfig::deadline`], or unlimited.
    pub fn default_budget(&self) -> QueryBudget {
        match self.config.deadline {
            Some(limit) => QueryBudget::deadline(limit),
            None => QueryBudget::unlimited(),
        }
    }

    /// Check that `query` can be answered at all: it must decompose
    /// into at least one source→sink path. Malformed queries surface as
    /// [`SamaError::InvalidQuery`] here instead of a panic deeper in
    /// the pipeline.
    pub fn validate_query(&self, query: &QueryGraph) -> Result<(), SamaError> {
        decompose_query_checked(
            query,
            &self.index,
            self.synonyms.as_ref(),
            &self.config.query_extraction,
        )
        .map(|_| ())
    }

    /// [`SamaEngine::answer`] with validation: a query that cannot be
    /// decomposed returns [`QueryError::InvalidQuery`] instead of an
    /// empty result that looks like a miss.
    pub fn try_answer(&self, query: &QueryGraph, k: usize) -> Result<QueryResult, QueryError> {
        self.try_answer_with_budget(query, k, &self.default_budget())
    }

    /// [`SamaEngine::answer_with_budget`] with validation.
    pub fn try_answer_with_budget(
        &self,
        query: &QueryGraph,
        k: usize,
        budget: &QueryBudget,
    ) -> Result<QueryResult, QueryError> {
        Ok(self.run(query, k, budget, true)?)
    }

    /// Answer `query` with the `k` most relevant answers, under the
    /// engine's default budget (see [`EngineConfig::deadline`]).
    pub fn answer(&self, query: &QueryGraph, k: usize) -> QueryResult {
        self.answer_with_budget(query, k, &self.default_budget())
    }

    /// Answer `query` under an explicit deadline/cancellation budget.
    ///
    /// The budget is polled at cheap checkpoints — the engine's entry,
    /// every [`crate::cluster::ALIGN_CHECK_INTERVAL`]-th alignment,
    /// every [`crate::search::BUDGET_CHECK_INTERVAL`]-th expansion pop. On
    /// expiry the query *degrades* instead of failing: the answers
    /// found so far plus a greedy completion of the search frontier
    /// come back as a best-effort partial top-k, flagged via
    /// [`QueryResult::truncation`] with
    /// [`TruncationReason::DeadlineExceeded`] (or `Cancelled`) and
    /// counted in `query.deadline_exceeded_total` /
    /// `query.cancelled_total`. An unlimited budget reads no clock and
    /// returns bit-identical results to [`SamaEngine::answer`] without
    /// a deadline.
    pub fn answer_with_budget(
        &self,
        query: &QueryGraph,
        k: usize,
        budget: &QueryBudget,
    ) -> QueryResult {
        self.run(query, k, budget, false)
            .expect("only a checked decomposition can fail")
    }

    /// The one query path behind every `answer*` entry point: prepare,
    /// search, finish. `checked` selects the validating decomposition.
    fn run(
        &self,
        query: &QueryGraph,
        k: usize,
        budget: &QueryBudget,
        checked: bool,
    ) -> Result<QueryResult, SamaError> {
        obs::fault::point("engine.answer");
        // An already-expired budget (deadline 0, pre-cancelled token)
        // does no work: a valid, empty, flagged result.
        if let Some(reason) = budget.exceeded() {
            if checked {
                self.validate_query(query)?;
            }
            let outcome = crate::SearchOutcome {
                answers: Vec::new(),
                expansions: 0,
                truncated: true,
                truncation: Some(reason),
                chi_stats: ChiStats::default(),
            };
            return Ok(self.finish(query, Prepared::default(), outcome, Duration::ZERO));
        }
        let prepared = self.prepare(query, checked, budget)?;
        let search_span = obs::span!(obs::metrics::QUERY_SEARCH_NS);
        let outcome = search_top_k_budgeted(
            &prepared.query_paths,
            &prepared.intersection_graph,
            &prepared.clusters,
            &self.index,
            &self.params,
            k,
            &self.config.search,
            budget,
        );
        let search = search_span.finish();
        Ok(self.finish(query, prepared, outcome, search))
    }

    /// Everything before the combination search: decompose `query`
    /// (once; `checked` rejects a query with no usable `PQ`), stamp IC
    /// weights, build the intersection graph and fill the clusters under
    /// `budget`.
    fn prepare(
        &self,
        query: &QueryGraph,
        checked: bool,
        budget: &QueryBudget,
    ) -> Result<Prepared, SamaError> {
        let preprocess_span = obs::span!(obs::metrics::QUERY_PREPROCESS_NS);
        let mut query_paths = if checked {
            decompose_query_checked(
                query,
                &self.index,
                self.synonyms.as_ref(),
                &self.config.query_extraction,
            )?
        } else {
            decompose_query(
                query,
                &self.index,
                self.synonyms.as_ref(),
                &self.config.query_extraction,
            )
        };
        self.stamp_ic_weights(&mut query_paths);
        let intersection_graph = IntersectionGraph::build(&query_paths);
        let preprocessing = preprocess_span.finish();

        let cluster_span = obs::span!(obs::metrics::QUERY_CLUSTER_NS);
        let clusters = build_clusters_budgeted(
            &query_paths,
            &self.index,
            &self.params,
            self.config.alignment,
            &self.config.cluster,
            budget,
        );
        let clustering = cluster_span.finish();

        Ok(Prepared {
            query_paths,
            intersection_graph,
            clusters,
            preprocessing,
            clustering,
        })
    }

    /// Stamp IC weights onto the decomposed query paths when
    /// [`EngineConfig::ic_weights`] is on. No-op otherwise: absent
    /// weight vectors keep the alignment on the paper's unit-cost model
    /// byte-for-byte.
    fn stamp_ic_weights(&self, query_paths: &mut [QueryPath]) {
        if !self.config.ic_weights {
            return;
        }
        let _span = obs::span!(obs::metrics::SCORE_IC_NS);
        let table = match &self.ic_override {
            Some(table) => Some(table.clone()),
            None => self.index.ic_table(),
        };
        let Some(table) = table else {
            // An index without IC support serves unweighted costs — the
            // same exact-fallback stance as the retrieval tiers.
            return;
        };
        apply_ic_weights(query_paths, &table);
        obs::metrics::SCORE_IC_QUERIES_TOTAL.add(1);
        obs::metrics::SCORE_IC_LABELS.set(table.len() as i64);
    }

    /// Everything after the combination search, and all there is to an
    /// expired query: flush the query's local aggregates to the metric
    /// table (once per query, so the search hot loop never touches
    /// an atomic), capture the slow-query record and EXPLAIN trace, and
    /// assemble the [`QueryResult`].
    fn finish(
        &self,
        query: &QueryGraph,
        prepared: Prepared,
        outcome: crate::SearchOutcome,
        search: Duration,
    ) -> QueryResult {
        let query_id = next_query_id();
        let Prepared {
            query_paths,
            intersection_graph,
            clusters,
            preprocessing,
            clustering,
        } = prepared;
        let retrieved_paths = clusters.iter().map(|c| c.candidates_retrieved).sum();
        let truncated = outcome.truncated || clusters.iter().any(|c| c.candidates_dropped > 0);
        let timings = QueryTimings {
            preprocessing,
            clustering,
            search,
        };
        let total = timings.total();
        obs::metrics::QUERY_QUERIES_TOTAL.add(1);
        obs::metrics::QUERY_ANSWERS_TOTAL.add(outcome.answers.len() as u64);
        obs::metrics::SEARCH_EXPANSIONS_TOTAL.add(outcome.expansions as u64);
        obs::metrics::SEARCH_CHI_LOOKUPS_TOTAL.add(outcome.chi_stats.lookups());
        obs::metrics::CLUSTER_RETRIEVED_PATHS_TOTAL.add(retrieved_paths as u64);
        if let Some(reason) = outcome.truncation {
            match reason {
                TruncationReason::ExpansionLimit => {
                    &obs::metrics::SEARCH_TRUNCATED_EXPANSION_LIMIT_TOTAL
                }
                TruncationReason::FrontierOverflow => {
                    &obs::metrics::SEARCH_TRUNCATED_FRONTIER_OVERFLOW_TOTAL
                }
                TruncationReason::DeadlineExceeded => &obs::metrics::QUERY_DEADLINE_EXCEEDED_TOTAL,
                TruncationReason::Cancelled => &obs::metrics::QUERY_CANCELLED_TOTAL,
            }
            .add(1);
        }
        obs::metrics::QUERY_TOTAL_NS.record_duration(total);
        obs::metrics::QUERY_TOTAL_NS_ROLLING.record_duration(total);
        if total > SLO {
            obs::metrics::QUERY_SLO_VIOLATIONS_TOTAL.add(1);
        }
        // The slow-query log needs the EXPLAIN trace even when tracing
        // is otherwise off: build it on demand for captured queries,
        // but attach it to the result only when tracing is configured.
        let slow_threshold = obs::slowlog::global().threshold().filter(|&t| total >= t);
        let trace = (self.config.trace.enabled || slow_threshold.is_some()).then(|| {
            ExplainTrace::build(query_id, query, &query_paths, &clusters, &outcome, &timings)
        });
        if let (Some(threshold), Some(trace)) = (slow_threshold, trace.as_ref()) {
            obs::slowlog::capture(obs::SlowQueryRecord {
                query_id,
                label: None,
                total_ns: duration_ns(total),
                threshold_ns: duration_ns(threshold),
                truncation: outcome.truncation.map(|t| t.as_str().to_string()),
                trace_json: Some(trace.to_json_line()),
            });
        }
        let trace = trace.filter(|_| self.config.trace.enabled);
        QueryResult {
            query_id,
            answers: outcome.answers,
            query_paths,
            intersection_graph,
            clusters,
            retrieved_paths,
            truncated,
            truncation: outcome.truncation,
            timings,
            chi_stats: outcome.chi_stats,
            trace,
        }
    }
}

/// One query ready for the combination search — decomposed, priced,
/// clustered — with what the two phases took.
#[derive(Default)]
struct Prepared {
    query_paths: Vec<QueryPath>,
    intersection_graph: IntersectionGraph,
    clusters: Vec<Cluster>,
    preprocessing: Duration,
    clustering: Duration,
}

impl<I: IndexLike> std::fmt::Debug for SamaEngine<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SamaEngine")
            .field("paths", &self.index.total_paths())
            .field("params", &self.params)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use path_index::Thesaurus;

    fn figure1_data() -> DataGraph {
        let mut b = DataGraph::builder();
        for (person, amendment, bill) in [
            ("CarlaBunes", "A0056", "B1432"),
            ("JeffRyser", "A1589", "B0532"),
            ("KeithFarmer", "A1232", "B0045"),
            ("JohnMcRie", "A0772", "B0045"),
            ("PierceDickes", "A0467", "B0532"),
        ] {
            b.triple_str(person, "sponsor", amendment).unwrap();
            b.triple_str(amendment, "aTo", bill).unwrap();
        }
        for bill in ["B1432", "B0532", "B0045"] {
            b.triple_str(bill, "subject", "\"Health Care\"").unwrap();
        }
        for (person, bill) in [
            ("JeffRyser", "B0045"),
            ("PeterTraves", "B0532"),
            ("AliceNimber", "B1432"),
            ("PierceDickes", "B1432"),
        ] {
            b.triple_str(person, "sponsor", bill).unwrap();
        }
        for person in ["JeffRyser", "KeithFarmer", "JohnMcRie", "PierceDickes"] {
            b.triple_str(person, "gender", "\"Male\"").unwrap();
        }
        for person in ["CarlaBunes", "AliceNimber"] {
            b.triple_str(person, "gender", "\"Female\"").unwrap();
        }
        b.build()
    }

    fn q1() -> QueryGraph {
        let mut b = QueryGraph::builder();
        b.triple_str("CarlaBunes", "sponsor", "?v1").unwrap();
        b.triple_str("?v1", "aTo", "?v2").unwrap();
        b.triple_str("?v2", "subject", "\"Health Care\"").unwrap();
        b.triple_str("?v3", "sponsor", "?v2").unwrap();
        b.triple_str("?v3", "gender", "\"Male\"").unwrap();
        b.build()
    }

    #[test]
    fn end_to_end_top_1() {
        let engine = SamaEngine::new(figure1_data());
        let result = engine.answer(&q1(), 1);
        assert_eq!(result.answers.len(), 1);
        let best = result.best().unwrap();
        assert_eq!(best.score(), 0.0);
        assert!(best.is_exact());
        assert!(!result.truncated);
        assert_eq!(result.query_paths.len(), 3);
        assert!(result.retrieved_paths > 0);
    }

    #[test]
    fn best_answer_subgraph_contains_expected_triples() {
        let engine = SamaEngine::new(figure1_data());
        let result = engine.answer(&q1(), 1);
        let sub = result.best().unwrap().subgraph(engine.index());
        let lines = sub.to_sorted_lines();
        assert!(lines.contains(&"CarlaBunes sponsor A0056".to_string()));
        assert!(lines.contains(&"PierceDickes sponsor B1432".to_string()));
        assert!(lines.contains(&"PierceDickes gender \"Male\"".to_string()));
    }

    #[test]
    fn approximate_query_q2_returns_q1_answer() {
        // The paper's Q2 has no exact answer; relaxation must return the
        // same region as Q1's best answer.
        let engine = SamaEngine::new(figure1_data());
        let mut b = QueryGraph::builder();
        b.triple_str("CarlaBunes", "?e1", "?v2").unwrap();
        b.triple_str("?v2", "subject", "\"Health Care\"").unwrap();
        b.triple_str("?v3", "sponsor", "?v2").unwrap();
        b.triple_str("?v3", "gender", "\"Male\"").unwrap();
        let q2 = b.build();
        let result = engine.answer(&q2, 5);
        assert!(!result.answers.is_empty());
        // No exact answer exists.
        assert!(result.best().unwrap().score() > 0.0);
        // CarlaBunes reaches a bill only through an amendment, so the
        // Q1-region answer costs one inserted unit (λ = 1.5) and must
        // appear among the top answers.
        let q1_region = result.answers.iter().find(|a| {
            a.subgraph(engine.index())
                .to_sorted_lines()
                .contains(&"CarlaBunes sponsor A0056".to_string())
        });
        assert!(q1_region.is_some(), "Q1's answer region not in the top-5");
    }

    #[test]
    fn timings_are_recorded() {
        let engine = SamaEngine::new(figure1_data());
        let result = engine.answer(&q1(), 5);
        assert!(result.timings.total() >= result.timings.search);
    }

    #[test]
    fn engine_from_written_index_agrees() {
        let engine = SamaEngine::new(figure1_data());
        let bytes = path_index::encode_v2(&path_index::PathIndex::build(figure1_data())).unwrap();
        let cold = SamaEngine::from_index(MappedIndex::from_bytes(&bytes).unwrap());
        let warm_result = engine.answer(&q1(), 5);
        let cold_result = cold.answer(&q1(), 5);
        let scores = |r: &QueryResult| r.answers.iter().map(Answer::score).collect::<Vec<_>>();
        assert_eq!(scores(&warm_result), scores(&cold_result));
    }

    #[test]
    fn synonyms_change_results() {
        let engine = SamaEngine::new(figure1_data());
        let mut b = QueryGraph::builder();
        b.triple_str("?v3", "gender", "\"M\"").unwrap();
        let q = b.build();
        let no_syn = engine.answer(&q, 1);
        assert!(no_syn.best().map(|a| a.score()).unwrap_or(f64::MAX) > 0.0);

        let mut t = Thesaurus::new();
        t.group(["M", "Male"]);
        let t: Arc<dyn SynonymProvider> = Arc::new(t);
        let engine = SamaEngine::new(figure1_data()).with_synonyms(Arc::clone(&t));
        let with_syn = engine.answer(&q, 1);
        assert_eq!(with_syn.best().unwrap().score(), 0.0);

        // The sink is widened at decomposition, so the fill needs no
        // full scan, and the cluster it fills is an exact one.
        let config = EngineConfig {
            cluster: crate::ClusterConfig {
                allow_full_scan: false,
                ..Default::default()
            },
            trace: TraceConfig::enabled(),
            ..Default::default()
        };
        let engine = SamaEngine::with_config(figure1_data(), config).with_synonyms(t);
        let result = engine.answer(&q, 1);
        assert_eq!(result.best().expect("widened answer").score(), 0.0);
        let trace = result.trace.as_ref().expect("trace enabled");
        assert!(trace.to_json_line().contains("\"tier\":\"exact\""));
    }

    #[test]
    fn answer_stream_is_lazy_and_resumable() {
        let engine = SamaEngine::new(figure1_data());
        let q = q1();
        let mut stream = engine.answer_stream(&q);
        let first = stream.next_answer().expect("first answer");
        assert_eq!(first.score(), 0.0);
        let second = stream.next_answer().expect("second answer");
        assert!(second.score() >= first.score());
        assert!(!stream.is_truncated());
        assert!(stream.expansions() > 0);
        assert_eq!(stream.clusters().len(), stream.query_paths().len());
    }

    #[test]
    fn explain_answer_renders_breakdown() {
        let engine = SamaEngine::new(figure1_data());
        let q = q1();
        let result = engine.answer(&q, 2);
        let text = result
            .explain_answer(0, engine.index(), &q)
            .expect("rank 0 exists");
        assert!(text.contains("score 0.00"));
        assert!(text.contains("exact"));
        assert!(text.contains("ψ(q"));
        assert!(result.explain_answer(99, engine.index(), &q).is_none());
    }

    #[test]
    fn query_ids_are_unique_and_nonzero() {
        let engine = SamaEngine::new(figure1_data());
        let a = engine.answer(&q1(), 1);
        let b = engine.answer(&q1(), 1);
        assert!(a.query_id > 0);
        assert!(b.query_id > a.query_id);
    }

    #[test]
    fn slow_queries_are_captured_with_truncation_and_trace() {
        let engine = SamaEngine::new(figure1_data());
        let log = obs::slowlog::global();
        // Threshold 0 captures every query; other tests run concurrently
        // against the same global log, so assertions filter by query_id.
        log.set_threshold(Some(Duration::ZERO));
        let normal = engine.answer(&q1(), 1);
        let expired = engine.answer_with_budget(&q1(), 1, &QueryBudget::deadline(Duration::ZERO));
        log.set_threshold(None);

        let records = log.records();
        let normal_rec = records
            .iter()
            .find(|r| r.query_id == normal.query_id)
            .expect("fast query captured at threshold 0");
        assert_eq!(normal_rec.truncation, None);
        let trace = normal_rec
            .trace_json
            .as_deref()
            .expect("trace built on demand");
        assert!(trace.contains(&format!("\"query_id\":{}", normal.query_id)));
        assert!(trace.contains("\"phases\":{"));
        assert!(
            normal.trace.is_none(),
            "on-demand slowlog trace must not turn tracing on for the result"
        );

        let expired_rec = records
            .iter()
            .find(|r| r.query_id == expired.query_id)
            .expect("deadline-exceeded query captured");
        assert_eq!(expired_rec.truncation.as_deref(), Some("deadline_exceeded"));
        assert!(expired_rec
            .trace_json
            .as_deref()
            .expect("degraded queries keep their EXPLAIN trace")
            .contains("\"truncation\":\"deadline_exceeded\""));
    }

    #[test]
    fn slo_violations_and_rolling_window_are_recorded() {
        let engine = SamaEngine::new(figure1_data());
        let before = obs::metrics::QUERY_QUERIES_TOTAL.get();
        let _ = engine.answer(&q1(), 1);
        // The SLO series is exported whether or not a violation
        // happened, and the rolling window saw this query.
        assert!(obs::export::prometheus().contains("\nsama_query_slo_violations_total "));
        assert!(obs::metrics::QUERY_QUERIES_TOTAL.get() > before);
        assert!(
            obs::metrics::QUERY_TOTAL_NS_ROLLING.windowed().windows[2]
                .1
                .count()
                > 0
        );
    }

    #[test]
    fn uniform_ic_table_is_bit_identical() {
        let plain = SamaEngine::new(figure1_data());
        let vocab_len = plain.index().data().vocab().len();
        let ic =
            SamaEngine::new(figure1_data()).with_ic_table(path_index::IcTable::uniform(vocab_len));
        let q = q1();
        let a = plain.answer(&q, 10);
        let b = ic.answer(&q, 10);
        let bits = |r: &QueryResult| {
            r.answers
                .iter()
                .map(|a| (a.score().to_bits(), a.lambda().to_bits(), a.psi().to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn index_derived_ic_weights_produce_finite_scores() {
        let engine = SamaEngine::with_config(
            figure1_data(),
            EngineConfig {
                ic_weights: true,
                ..Default::default()
            },
        );
        let result = engine.answer(&q1(), 10);
        assert!(!result.answers.is_empty());
        assert!(result.answers.iter().all(|a| a.score().is_finite()));
        // The weighted engine still finds the exact answer at score 0.
        assert_eq!(result.best().unwrap().score(), 0.0);
    }

    #[test]
    fn empty_thesaurus_is_bit_identical() {
        let plain = SamaEngine::new(figure1_data());
        let widened = SamaEngine::new(figure1_data()).with_synonyms(Arc::new(Thesaurus::new()));
        let q = q1();
        let a = plain.answer(&q, 10);
        let b = widened.answer(&q, 10);
        let bits = |r: &QueryResult| {
            r.answers
                .iter()
                .map(|a| (a.score().to_bits(), a.lambda().to_bits(), a.psi().to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&a), bits(&b));
        let entries = |r: &QueryResult| {
            r.clusters
                .iter()
                .map(|c| c.entries.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(entries(&a), entries(&b));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn invalid_params_rejected() {
        let params = ScoreParams {
            a: -1.0,
            ..ScoreParams::paper()
        };
        let _ = SamaEngine::new(figure1_data()).with_params(params);
    }
}
