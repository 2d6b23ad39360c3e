//! A cluster entry is a path and its λ; the search aligns in full only
//! the paths an answer chooses. Every answer must therefore carry, for
//! each path it chose, exactly `align(q, index.labels(path), params,
//! mode)` against its query path — IC weights included — with λ bits
//! equal to those of the cluster entry it was chosen as
//! ([`answer_alignments_hold`]): on the twelve LUBM queries and on the
//! testkit's generated cases, under both alignment modes, with and
//! without IC weights, through the exact search and its anytime fill.

use datasets::lubm::{generate as lubm, LubmConfig};
use datasets::lubm_workload;
use rdf_model::{DataGraph, QueryGraph};
use sama_core::{AlignmentMode, EngineConfig, SamaEngine, SearchConfig};
use sama_testkit::gen::{generate, FAMILIES};
use sama_testkit::invariants::{answer_alignments_hold, base_config};

const MODES: [AlignmentMode; 2] = [AlignmentMode::Greedy, AlignmentMode::Optimal];

/// `base` under each mode × IC weights, and each of those with a search
/// limit low enough to end most searches in the greedy fill.
fn configs(base: EngineConfig) -> Vec<(String, EngineConfig)> {
    let mut out = Vec::new();
    for mode in MODES {
        for ic_weights in [false, true] {
            for max_expansions in [base.search.max_expansions, 8] {
                let config = EngineConfig {
                    alignment: mode,
                    ic_weights,
                    search: SearchConfig {
                        max_expansions,
                        ..base.search
                    },
                    ..base
                };
                let what = format!("{mode:?} ic={ic_weights} max_expansions={max_expansions}");
                out.push((what, config));
            }
        }
    }
    out
}

/// Check every answer of every query under every config of `base`;
/// returns how many chosen paths were checked.
fn check(
    what: &str,
    data: &DataGraph,
    queries: &[(String, QueryGraph)],
    base: EngineConfig,
    k: usize,
) -> usize {
    let mut chosen = 0;
    for (config_name, config) in configs(base) {
        let engine = SamaEngine::with_config(data.clone(), config);
        for (name, query) in queries {
            let result = engine.answer(query, k);
            answer_alignments_hold(&result, engine.index(), engine.params(), config.alignment)
                .unwrap_or_else(|e| panic!("{what} {name} {config_name}: {e}"));
            chosen += result
                .answers
                .iter()
                .flat_map(|a| &a.choices)
                .filter(|c| c.entry.is_some())
                .count();
        }
    }
    chosen
}

#[test]
fn lubm_answers_carry_their_paths_alignments() {
    let dataset = lubm(&LubmConfig::sized_for(20_000, 42));
    let queries: Vec<(String, QueryGraph)> = lubm_workload(&dataset)
        .into_iter()
        .map(|q| (q.name.to_string(), q.query))
        .collect();
    assert_eq!(queries.len(), 12);
    let chosen = check(
        "lubm",
        &dataset.graph,
        &queries,
        EngineConfig::default(),
        10,
    );
    // 8 configurations × 12 queries × 10 answers, each of several paths.
    assert!(chosen > 8 * 12 * 10, "{chosen} chosen paths checked");
}

#[test]
fn generated_cases_answers_carry_their_paths_alignments() {
    for family in FAMILIES {
        let mut chosen = 0;
        for seed in 0..8 {
            let case = generate(family, seed);
            let queries = [(format!("seed {seed}"), case.query_graph())];
            let data = case.data_graph();
            // The engine's defaults (capped, streamed clusters) and the
            // testkit's exhaustive reference configuration.
            chosen += check(family, &data, &queries, EngineConfig::default(), case.k);
            chosen += check(family, &data, &queries, base_config(), case.k);
        }
        assert!(chosen > 0, "{family}: no chosen path checked");
    }
}
