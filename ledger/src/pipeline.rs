//! The engine in-process, two ways: as one call (`try_answer` +
//! `render_result_json`, the untraced path and the reference for every
//! byte-identity check) and as the same pipeline taken apart into its
//! public layer functions with a span around each (the traced run).
//! Plus the per-result correctness rules shared by all workloads.

use crate::expected::Expected;
use crate::gen::QuerySpec;
use crate::trace::Tracer;
use path_index::{IndexLike, MappedIndex, NoSynonyms, PathId};
use rdf_model::{parse_sparql, QueryGraph};
use sama_core::{
    build_clusters, decompose_query_checked, next_query_id, render_result_json, search_top_k,
    EngineConfig, IntersectionGraph, QueryPath, QueryResult, QueryTimings, Retrieval, SamaEngine,
};

/// A query parsed once, with what its answer must look like.
pub struct Prepared {
    /// Name, text and exactness.
    pub spec: QuerySpec,
    /// The graph `parse_sparql` made of the text.
    pub graph: QueryGraph,
}

/// Parse every spec's text (the same parse the CLI and server do).
pub fn prepare(specs: Vec<QuerySpec>) -> Result<Vec<Prepared>, String> {
    specs
        .into_iter()
        .map(|spec| {
            let graph = parse_sparql(&spec.sparql)
                .map_err(|e| format!("{}: generated query does not parse: {e}", spec.name))?
                .graph;
            Ok(Prepared { spec, graph })
        })
        .collect()
}

/// Work counted while answering one query through the traced pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    /// Paths the anchor scans retrieved — the paper's `I`.
    pub candidates: u64,
    /// Candidates actually aligned (after LSH pruning and caps).
    pub aligned: u64,
    /// Cluster entries kept.
    pub kept: u64,
    /// Search expansions.
    pub expansions: u64,
    /// Answers returned.
    pub answers: u64,
    /// χ lookups.
    pub chi_lookups: u64,
    /// χ lookups served from a cache.
    pub chi_hits: u64,
    /// Bytes of the rendered document.
    pub json_bytes: u64,
}

impl std::ops::AddAssign for Work {
    fn add_assign(&mut self, o: Work) {
        self.candidates += o.candidates;
        self.aligned += o.aligned;
        self.kept += o.kept;
        self.expansions += o.expansions;
        self.answers += o.answers;
        self.chi_lookups += o.chi_lookups;
        self.chi_hits += o.chi_hits;
        self.json_bytes += o.json_bytes;
    }
}

/// The engine over the mapped fixture at a fixed `k`.
pub struct Pipeline {
    engine: SamaEngine<MappedIndex>,
    k: usize,
}

impl Pipeline {
    /// Default engine configuration except for the retrieval tier.
    pub fn new(index: MappedIndex, k: usize, retrieval: Retrieval) -> Pipeline {
        let mut config = EngineConfig::default();
        config.cluster.retrieval = retrieval;
        Pipeline {
            engine: SamaEngine::from_index_with_config(index, config),
            k,
        }
    }

    /// The engine (for `answer_batch`).
    pub fn engine(&self) -> &SamaEngine<MappedIndex> {
        &self.engine
    }

    /// Answers per query.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Answer and render in one go — what `sama query --json` and
    /// `POST /query` do after parsing.
    pub fn answer(&self, query: &QueryGraph) -> Result<(QueryResult, String), String> {
        let result = self
            .engine
            .try_answer(query, self.k)
            .map_err(|e| format!("query failed: {e}"))?;
        let json = render_result_json(self.engine.index(), query, &result);
        Ok((result, json))
    }

    /// The same answer assembled from the public layer functions, one
    /// span per layer. The caller opens the enclosing `request` span
    /// (it may put more under it: a socket round trip, a child
    /// process). `sparql` is parsed inside (its own span) when given;
    /// otherwise `query` is used as is.
    pub fn answer_traced(
        &self,
        t: &mut Tracer,
        sparql: Option<&str>,
        query: &QueryGraph,
    ) -> Result<(QueryResult, String, Work), String> {
        let index = self.engine.index();
        let config = self.engine.config();
        let params = self.engine.params();
        let parsed;
        let query = match sparql {
            Some(text) => {
                parsed = t
                    .span("rdf_model.parse_sparql", |_| parse_sparql(text))
                    .map_err(|e| format!("cannot parse query: {e}"))?;
                &parsed.graph
            }
            None => query,
        };
        let (query_paths, intersection_graph) = t
            .span("core.qpath.decompose", |_| {
                decompose_query_checked(
                    query,
                    index.data().vocab(),
                    &NoSynonyms,
                    &config.query_extraction,
                )
                .map(|qpaths| {
                    let ig = IntersectionGraph::build(&qpaths);
                    (qpaths, ig)
                })
            })
            .map_err(|e| format!("query failed: {e}"))?;
        // The anchor scan on its own, so clustering splits into index
        // read and alignment. `build_clusters` repeats the scan inside.
        let probed: usize = t.span("path_index.sink_lookup", |_| {
            query_paths
                .iter()
                .map(|q| anchor_scan(q, index).len())
                .sum()
        });
        let clusters = t.span("core.cluster.build", |_| {
            build_clusters(
                &query_paths,
                index,
                &NoSynonyms,
                params,
                config.alignment,
                &config.cluster,
            )
        });
        let outcome = t.span("core.search.topk", |_| {
            search_top_k(
                &query_paths,
                &intersection_graph,
                &clusters,
                index,
                params,
                self.k,
                &config.search,
            )
        });
        let retrieved_paths: usize = clusters.iter().map(|c| c.candidates_retrieved).sum();
        if probed != retrieved_paths {
            return Err(format!(
                "anchor probe retrieved {probed} paths, the clusters {retrieved_paths}"
            ));
        }
        let mut work = Work {
            candidates: retrieved_paths as u64,
            aligned: clusters
                .iter()
                .map(|c| (c.candidates_retrieved - c.lsh_pruned - c.candidates_dropped) as u64)
                .sum(),
            kept: clusters.iter().map(|c| c.entries.len() as u64).sum(),
            expansions: outcome.expansions as u64,
            answers: outcome.answers.len() as u64,
            chi_lookups: outcome.chi_stats.lookups(),
            chi_hits: outcome.chi_stats.hits + outcome.chi_stats.shared_hits,
            json_bytes: 0,
        };
        let result = QueryResult {
            query_id: next_query_id(),
            truncated: outcome.truncated || clusters.iter().any(|c| c.candidates_dropped > 0),
            truncation: outcome.truncation,
            answers: outcome.answers,
            query_paths,
            intersection_graph,
            clusters,
            retrieved_paths,
            timings: QueryTimings::default(),
            chi_stats: outcome.chi_stats,
            trace: None,
        };
        let json = t.span("core.jsonout.render", |_| {
            render_result_json(index, query, &result)
        });
        work.json_bytes = json.len() as u64;
        Ok((result, json, work))
    }
}

/// The sink-first anchor cascade of the clustering step, through the
/// index's public lookups: the sink's paths, else the first constant
/// (scanning back from the sink) that retrieves anything, else all.
fn anchor_scan(q: &QueryPath, index: &MappedIndex) -> Vec<PathId> {
    if let Some(lexical) = q.sink().lexical() {
        let by_sink = index.sink_matching(lexical, &NoSynonyms);
        if !by_sink.is_empty() {
            return by_sink;
        }
    }
    for anchor in q.constants_from_sink() {
        let lexical = anchor.lexical().expect("anchors are constants");
        let hits = index.label_matching(lexical, &NoSynonyms);
        if !hits.is_empty() {
            return hits;
        }
    }
    index.all_path_ids()
}

/// The rules every answered query must satisfy, whatever the workload:
/// at most `k` answers in non-decreasing score order; no answer to an
/// approximate-only query scores 0; under exact retrieval a complete
/// answer to an exactly-answerable query starts at score 0 (the LSH
/// tier may prune the one combination that scores 0, so `deep_topk`
/// passes `exact_retrieval: false`); complete results match the blessed
/// score multiset when one applies.
pub fn check_result(
    spec: &QuerySpec,
    k: usize,
    exact_retrieval: bool,
    result: &QueryResult,
    expected: Option<&Expected>,
) -> Result<(), String> {
    let name = &spec.name;
    if result.answers.len() > k {
        return Err(format!(
            "{name}: {} answers for k={k}",
            result.answers.len()
        ));
    }
    if let Some(w) = result
        .answers
        .windows(2)
        .find(|w| w[0].score() > w[1].score())
    {
        return Err(format!(
            "{name}: scores decrease ({} then {})",
            w[0].score(),
            w[1].score()
        ));
    }
    match (result.best().map(|a| a.score()), spec.approximate) {
        (Some(best), true) if best <= 0.0 => {
            return Err(format!("{name}: approximate-only query scored {best}"));
        }
        (Some(best), false) if exact_retrieval && !result.truncated && best != 0.0 => {
            return Err(format!("{name}: exact query's best score is {best}"));
        }
        (None, false) => return Err(format!("{name}: exact query has no answer")),
        _ => {}
    }
    match expected {
        Some(expected) => expected.check(name, result),
        None => Ok(()),
    }
}

/// Per-type verdict of a sweep workload: the first execution of a type
/// is checked by [`check_result`] (and by whatever the workload adds);
/// every later execution must reproduce the first one's bytes.
#[derive(Default)]
pub struct TypeGate {
    /// The first execution's output, once seen.
    pub reference: Option<Vec<u8>>,
    /// Why this type fails, if it does (every op of it then counts).
    pub error: Option<String>,
}

impl TypeGate {
    /// Judge one execution: `first` is evaluated only the first time.
    /// Returns whether the op passes.
    pub fn judge(&mut self, output: &[u8], first: impl FnOnce() -> Result<(), String>) -> bool {
        match &self.reference {
            None => {
                self.error = first().err();
                self.reference = Some(output.to_vec());
            }
            Some(reference) if reference != output && self.error.is_none() => {
                self.error = Some("output differs between executions of the same query".into());
            }
            Some(_) => {}
        }
        self.error.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{fixture_mapped, WorkDir};
    use crate::gen::lubm_queries;

    #[test]
    fn traced_pipeline_reproduces_the_engine_byte_for_byte() {
        let out = std::env::temp_dir().join(format!("ledger-pipeline-test-{}", std::process::id()));
        let dir = WorkDir::create(&out).unwrap();
        let fx = fixture_mapped(2_000, 42, &dir).unwrap();
        let queries = prepare(lubm_queries(&datasets::lubm_workload(&fx.dataset), None)).unwrap();
        let pipeline = Pipeline::new(fx.index, 10, Retrieval::Exact);
        let mut tracer = Tracer::new();
        for q in &queries {
            let (result, json) = pipeline.answer(&q.graph).unwrap();
            tracer.next_request();
            let (traced, traced_json, work) = tracer
                .span("request", |t| {
                    pipeline.answer_traced(t, Some(&q.spec.sparql), &q.graph)
                })
                .unwrap();
            assert_eq!(json, traced_json, "{}", q.spec.name);
            assert_eq!(work.candidates as usize, result.retrieved_paths);
            assert_eq!(work.json_bytes as usize, json.len());
            check_result(&q.spec, 10, true, &result, None).unwrap();
            check_result(&q.spec, 10, true, &traced, None).unwrap();
        }
        let times = crate::trace::self_times(tracer.spans());
        assert_eq!(times["request"].calls, 12);
        for layer in [
            "rdf_model.parse_sparql",
            "core.qpath.decompose",
            "path_index.sink_lookup",
            "core.cluster.build",
            "core.search.topk",
            "core.jsonout.render",
        ] {
            assert_eq!(times[layer].calls, 12, "{layer}");
        }
        // The rules reject what they should.
        let (result, _) = pipeline.answer(&queries[0].graph).unwrap();
        let mut wrong = queries[0].spec.clone();
        wrong.approximate = true;
        assert!(check_result(&wrong, 10, true, &result, None).is_err());
        assert!(check_result(&queries[0].spec, 3, true, &result, None).is_err());
        let mut blessed = Expected::default();
        assert!(check_result(&queries[0].spec, 10, true, &result, Some(&blessed)).is_err());
        blessed.record(&queries[0].spec.name, &result);
        check_result(&queries[0].spec, 10, true, &result, Some(&blessed)).unwrap();
        blessed
            .entries
            .insert(queries[0].spec.name.clone(), "9*9".into());
        assert!(check_result(&queries[0].spec, 10, true, &result, Some(&blessed)).is_err());
        drop(pipeline);
        drop(dir);
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn type_gate_pins_the_first_output() {
        let mut gate = TypeGate::default();
        assert!(gate.judge(b"a", || Ok(())));
        assert!(gate.judge(b"a", || panic!("only the first execution is checked")));
        assert!(!gate.judge(b"b", || Ok(())));
        assert!(!gate.judge(b"a", || Ok(())), "a failed type stays failed");
        let mut bad = TypeGate::default();
        assert!(!bad.judge(b"a", || Err("nope".into())));
        assert_eq!(bad.error.as_deref(), Some("nope"));
    }
}
