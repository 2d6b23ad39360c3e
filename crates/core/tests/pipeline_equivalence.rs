//! One query path behind every entry point.
//!
//! `answer`, `try_answer`, `answer_with_budget`, `answer_stream` and
//! `answer_batch` are thin callers of one prepare → search → finish
//! pipeline, so for any tier configuration, traced or not, they must
//! return the same answers bit for bit; they differ
//! only in how an invalid query is reported, and none of them decomposes
//! a query more than once.

mod support;

use path_index::{IndexLike, MappedIndex, Thesaurus};
use rdf_model::{DataGraph, QueryGraph};
use sama_core::{
    Answer, BatchConfig, EngineConfig, QueryBudget, QueryError, QueryResult, Retrieval, SamaEngine,
    TruncationReason,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use support::Probe;

const K: usize = 12;

/// Forty amendment chains onto five bills, twenty direct sponsorships,
/// a gender per person: clusters of a few dozen candidates, so a small
/// LSH `top_m` really prunes.
fn data() -> DataGraph {
    let mut b = DataGraph::builder();
    for i in 0..40 {
        b.triple_str(&format!("P{i}"), "sponsor", &format!("A{i}"))
            .unwrap();
        b.triple_str(&format!("A{i}"), "aTo", &format!("B{}", i % 5))
            .unwrap();
        let gender = if i % 3 == 0 { "\"Female\"" } else { "\"Male\"" };
        b.triple_str(&format!("P{i}"), "gender", gender).unwrap();
    }
    for j in 0..5 {
        b.triple_str(&format!("B{j}"), "subject", "\"Health Care\"")
            .unwrap();
    }
    for i in 0..20 {
        b.triple_str(&format!("P{}", 2 * i), "sponsor", &format!("B{}", i % 5))
            .unwrap();
    }
    b.build()
}

fn query(triples: &[(&str, &str, &str)]) -> QueryGraph {
    let mut b = QueryGraph::builder();
    for (s, p, o) in triples {
        b.triple_str(s, p, o).unwrap();
    }
    b.build()
}

/// Exact, approximate, multi-path, synonym-only and no-hit queries.
fn workload() -> Vec<QueryGraph> {
    vec![
        query(&[
            ("P7", "sponsor", "?v1"),
            ("?v1", "aTo", "?v2"),
            ("?v2", "subject", "\"Health Care\""),
            ("?v3", "sponsor", "?v2"),
            ("?v3", "gender", "\"Male\""),
        ]),
        query(&[("P4", "?e", "?v2"), ("?v2", "subject", "\"Health Care\"")]),
        query(&[("?p", "gender", "\"Male\"")]),
        query(&[("?p", "?e", "\"M\"")]),
        query(&[("Nobody", "sponsor", "?v1"), ("?v1", "aTo", "B9")]),
    ]
}

/// The four tier configurations, by name, and whether the synonym
/// table goes with them.
fn configs() -> Vec<(&'static str, EngineConfig, bool)> {
    let exact = EngineConfig::default();
    let (mut lsh, mut ic, mut synonyms) = (exact, exact, exact);
    lsh.cluster.retrieval = Retrieval::Lsh {
        bands: 32,
        rows: 2,
        top_m: 8,
    };
    ic.ic_weights = true;
    synonyms.cluster.allow_full_scan = false;
    vec![
        ("exact", exact, false),
        ("lsh", lsh, false),
        ("ic", ic, false),
        ("synonyms", synonyms, true),
    ]
}

fn thesaurus() -> Arc<Thesaurus> {
    let mut t = Thesaurus::new();
    t.group(["M", "Male"]);
    Arc::new(t)
}

/// The testkit's bit-exact fingerprint of a ranked answer list.
fn answer_lines(answers: &[Answer]) -> Vec<String> {
    answers
        .iter()
        .map(|a| {
            format!(
                "s={:016x} l={:016x} p={:016x} exact={} paths={:?}",
                a.score().to_bits(),
                a.lambda().to_bits(),
                a.psi().to_bits(),
                a.is_exact(),
                a.path_ids(),
            )
        })
        .collect()
}

/// … plus the truncation flags a whole result carries.
fn fingerprint(result: &QueryResult) -> Vec<String> {
    let mut lines = answer_lines(&result.answers);
    lines.push(format!(
        "truncated={} reason={:?}",
        result.truncated, result.truncation
    ));
    lines
}

fn assert_entry_points_agree<I: IndexLike + Sync>(engine: &SamaEngine<I>, label: &str) {
    let queries = workload();
    let reference: Vec<_> = queries
        .iter()
        .map(|q| fingerprint(&engine.answer(q, K)))
        .collect();
    assert!(
        reference.iter().any(|f| f.len() > 1),
        "{label}: the workload must find answers"
    );
    for (i, q) in queries.iter().enumerate() {
        let want = &reference[i];
        let tried = engine.try_answer(q, K).expect("valid query");
        assert_eq!(&fingerprint(&tried), want, "{label} q{i}: try_answer");
        let budgeted = engine.answer_with_budget(q, K, &QueryBudget::unlimited());
        assert_eq!(&fingerprint(&budgeted), want, "{label} q{i}: budgeted");
        let streamed: Vec<Answer> = engine.answer_stream(q).take(K).collect();
        assert_eq!(
            answer_lines(&streamed),
            want[..want.len() - 1],
            "{label} q{i}: answer_stream"
        );
    }
    for threads in [1, 2] {
        let outcome = engine.answer_batch(
            &queries,
            &BatchConfig {
                k: K,
                threads,
                ..Default::default()
            },
        );
        let got: Vec<_> = outcome
            .results
            .iter()
            .map(|r| fingerprint(r.as_ref().expect("valid query")))
            .collect();
        assert_eq!(got, reference, "{label}: answer_batch, {threads} threads");
    }
}

/// An engine under one configuration, the synonym table installed when
/// `synonyms` (`with_config` attaches the LSH tier an LSH configuration
/// needs).
fn engine(config: EngineConfig, synonyms: bool) -> SamaEngine {
    let engine = SamaEngine::with_config(data(), config);
    if synonyms {
        engine.with_synonyms(thesaurus())
    } else {
        engine
    }
}

#[test]
fn every_entry_point_gives_the_same_answers() {
    for (name, mut config, synonyms) in configs() {
        let [untraced, traced] = [false, true].map(|trace| {
            let name = format!("{name}{}", if trace { "+trace" } else { "" });
            config.trace.enabled = trace;
            let engine = engine(config, synonyms);
            assert_entry_points_agree(&engine, &name);
            // A result carries a trace exactly when one was asked for.
            let mut answers = Vec::new();
            for q in workload() {
                let result = engine.answer(&q, K);
                assert_eq!(result.trace.is_some(), trace, "{name}");
                answers.push(fingerprint(&result));
            }
            answers
        });
        assert_eq!(untraced, traced, "{name}: tracing changes no answer");
    }
}

/// The tiers the configurations name are really taken: LSH prunes, the
/// synonym table turns a miss into an exact answer.
#[test]
fn the_tier_configurations_are_not_vacuous() {
    let all = configs();
    let lsh = SamaEngine::with_config(data(), all[1].1);
    let result = lsh.answer(&workload()[2], K);
    assert!(result.clusters.iter().any(|c| c.lsh_pruned > 0));
    let widened = engine(all[3].1, all[3].2);
    let result = widened.answer(&workload()[3], K);
    assert_eq!(result.best().expect("widened answer").score(), 0.0);
}

/// A query with no triple patterns: an error from the checked entry
/// points — expired budget or not — and an empty, unflagged result from
/// the unchecked ones.
#[test]
fn an_invalid_query_is_an_error_only_from_the_checked_entry_points() {
    let engine = SamaEngine::new(data());
    let empty = QueryGraph::builder().build();
    let invalid = |r: Result<QueryResult, QueryError>| matches!(r, Err(QueryError::InvalidQuery(m)) if m.contains("no triple patterns"));
    assert!(invalid(engine.try_answer(&empty, K)));
    assert!(invalid(engine.try_answer_with_budget(
        &empty,
        K,
        &QueryBudget::unlimited()
    )));
    assert!(invalid(engine.try_answer_with_budget(
        &empty,
        K,
        &QueryBudget::deadline(Duration::ZERO)
    )));
    let batch = engine.answer_batch(std::slice::from_ref(&empty), &BatchConfig::default());
    assert!(invalid(batch.results[0].clone()));

    for result in [
        engine.answer(&empty, K),
        engine.answer_with_budget(&empty, K, &QueryBudget::unlimited()),
    ] {
        assert!(result.answers.is_empty());
        assert!(result.query_paths.is_empty());
        assert!(result.clusters.is_empty());
        assert_eq!(result.retrieved_paths, 0);
        assert!(!result.truncated);
        assert_eq!(result.truncation, None);
    }
    let mut stream = engine.answer_stream(&empty);
    assert!(stream.next().is_none());
    assert!(!stream.is_truncated());

    // A valid query under an expired budget is a flagged empty result
    // from both kinds of entry point.
    let q = &workload()[0];
    let expired = QueryBudget::deadline(Duration::ZERO);
    let checked = engine.try_answer_with_budget(q, K, &expired).unwrap();
    let unchecked = engine.answer_with_budget(q, K, &expired);
    for result in [checked, unchecked] {
        assert!(result.answers.is_empty());
        assert_eq!(result.truncation, Some(TruncationReason::DeadlineExceeded));
    }
}

/// `try_answer` decomposes — and so resolves each constant of — a query
/// once: validation is the decomposition the pipeline then runs on.
#[test]
fn try_answer_resolves_each_query_constant_once() {
    let engine = SamaEngine::from_index(Probe::new(MappedIndex::build(data()).unwrap()));
    // One path, every constant at one position.
    let q = query(&[
        ("P7", "sponsor", "?v1"),
        ("?v1", "aTo", "?v2"),
        ("?v2", "subject", "\"Health Care\""),
    ]);
    let result = engine.try_answer(&q, K).expect("valid query");
    assert_eq!(result.best().expect("exact answer").score(), 0.0);
    let resolved = engine.index().resolved.lock().unwrap().clone();
    let once = |lexical: &str| (lexical.to_string(), 1);
    assert_eq!(
        resolved,
        BTreeMap::from([
            once("P7"),
            once("sponsor"),
            once("aTo"),
            once("subject"),
            once("Health Care"),
        ])
    );
}
