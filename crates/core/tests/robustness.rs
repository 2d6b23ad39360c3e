//! Fault-tolerance and deadline-degradation contracts.
//!
//! A serving deployment cares about three promises beyond correctness:
//!
//! 1. **Panic isolation** — one poisoned query (a pipeline bug, an
//!    injected fault) fills exactly its own slot with
//!    [`QueryError::Panicked`]; its batch neighbors stay bit-identical
//!    to a fault-free run and the process never aborts.
//! 2. **Deadline degradation** — an expired budget yields a *valid*
//!    flagged partial result (never a panic, never a hang), within the
//!    deadline plus one checkpoint interval.
//! 3. **Typed rejection** — malformed queries and shed overload come
//!    back as typed errors, not crashes.
//!
//! The fault plan is process-global, so every test that arms (or must
//! be shielded from) a plan serializes behind [`FAULT_LOCK`] and
//! installs an explicit plan — [`FaultPlan::none`] for clean baselines
//! — making the suite immune to whatever `SAMA_FAULTS` the environment
//! carries (the CI chaos leg sets it on purpose).

mod support;

use path_index::{MappedIndex, Thesaurus};
use proptest::prelude::*;
use rdf_model::{DataGraph, QueryGraph};
use sama_core::{
    BatchConfig, CancelToken, ClusterConfig, EngineConfig, QueryBudget, QueryError, QueryLabel,
    QueryResult, SamaEngine, TraceConfig, TruncationReason,
};
use sama_obs::fault::{self, FaultAction, FaultPlan};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use support::{arb_dag_triples, Probe};

/// The fault plan is process-global: arm/shield under this lock.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

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
    for person in ["JeffRyser", "KeithFarmer", "JohnMcRie", "PierceDickes"] {
        b.triple_str(person, "gender", "\"Male\"").unwrap();
    }
    b.build()
}

/// A mixed workload: exact, approximate, and no-hit queries.
fn workload() -> Vec<QueryGraph> {
    let mut qs = Vec::new();
    for person in ["CarlaBunes", "JeffRyser", "KeithFarmer", "Nobody"] {
        let mut b = QueryGraph::builder();
        b.triple_str(person, "sponsor", "?v1").unwrap();
        b.triple_str("?v1", "aTo", "?v2").unwrap();
        b.triple_str("?v2", "subject", "\"Health Care\"").unwrap();
        qs.push(b.build());
    }
    let mut b = QueryGraph::builder();
    b.triple_str("?p", "gender", "\"Male\"").unwrap();
    qs.push(b.build());
    qs
}

/// Everything that must not move under faults next door.
type Fingerprint = (Vec<(Vec<Option<path_index::PathId>>, f64)>, usize, bool);

fn fingerprint(r: &QueryResult) -> Fingerprint {
    (
        r.answers
            .iter()
            .map(|a| (a.path_ids(), a.score()))
            .collect(),
        r.retrieved_paths,
        r.truncated,
    )
}

/// Clean per-query baselines (no faults, no deadline).
fn baselines(engine: &SamaEngine, qs: &[QueryGraph], k: usize) -> Vec<Fingerprint> {
    qs.iter()
        .map(|q| fingerprint(&engine.answer(q, k)))
        .collect()
}

// ---------------------------------------------------------------------
// Panic isolation
// ---------------------------------------------------------------------

/// One injected worker panic ⇒ exactly one `Err(Panicked)` slot, the
/// other N−1 bit-identical to the fault-free run, at every pool width.
#[test]
fn one_panicked_query_leaves_neighbors_bit_identical() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let engine = SamaEngine::new(figure1_data());
    let qs = workload();
    fault::install(FaultPlan::none());
    let clean = baselines(&engine, &qs, 5);

    for threads in [1usize, 2, 4] {
        // `batch.worker` is hit exactly once per admitted query, so
        // `every = N` fires on exactly one of the N queries (which one
        // depends on scheduling; the *count* does not).
        fault::install(FaultPlan::single(
            "batch.worker",
            FaultAction::Panic,
            qs.len() as u64,
        ));
        let outcome = engine.answer_batch(
            &qs,
            &BatchConfig {
                k: 5,
                threads,
                ..Default::default()
            },
        );
        assert_eq!(outcome.results.len(), qs.len());
        let panicked: Vec<usize> = outcome
            .results
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, Err(QueryError::Panicked(_))))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(panicked.len(), 1, "threads = {threads}: {panicked:?}");
        assert_eq!(outcome.stats.failed, 1);
        for (i, result) in outcome.results.iter().enumerate() {
            if i == panicked[0] {
                let Err(QueryError::Panicked(msg)) = result else {
                    unreachable!()
                };
                assert!(msg.contains("injected fault: batch.worker"), "{msg}");
            } else {
                let result = result.as_ref().expect("neighbor unaffected");
                assert_eq!(fingerprint(result), clean[i], "slot {i}, threads {threads}");
            }
        }
    }
    fault::install(FaultPlan::none());
    fault::reset_to_env();
}

/// A panic at *any* pipeline fault site is contained per slot, and the
/// engine recovers completely once the plan is disarmed.
#[test]
fn every_fault_site_is_isolated_and_recoverable() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let engine = SamaEngine::new(figure1_data());
    let qs = workload();
    fault::install(FaultPlan::none());
    let clean = baselines(&engine, &qs, 5);

    for site in ["engine.answer", "cluster.align", "search.expand"] {
        // every = 1: the site fires on every hit — the strongest
        // containment test (the pool absorbs a panic per task). A
        // query that never reaches the site (e.g. nothing to expand)
        // legitimately succeeds, and must then match the clean run.
        fault::install(FaultPlan::single(site, FaultAction::Panic, 1));
        let outcome = engine.answer_batch(
            &qs,
            &BatchConfig {
                k: 5,
                threads: 2,
                ..Default::default()
            },
        );
        assert_eq!(outcome.results.len(), qs.len());
        let mut panicked = 0usize;
        for (i, r) in outcome.results.iter().enumerate() {
            match r {
                Err(QueryError::Panicked(msg)) => {
                    assert!(msg.contains(site), "site {site}: payload {msg}");
                    panicked += 1;
                }
                Ok(result) => {
                    assert_eq!(fingerprint(result), clean[i], "site {site}, slot {i}")
                }
                other => panic!("site {site}: unexpected {other:?}"),
            }
        }
        assert!(panicked > 0, "site {site} never fired");
        assert_eq!(outcome.stats.failed, panicked);

        // Disarm ⇒ full recovery, bit-identical answers.
        fault::install(FaultPlan::none());
        let outcome = engine.answer_batch(
            &qs,
            &BatchConfig {
                k: 5,
                threads: 2,
                ..Default::default()
            },
        );
        let got: Vec<_> = outcome
            .results
            .iter()
            .map(|r| fingerprint(r.as_ref().expect("recovered")))
            .collect();
        assert_eq!(got, clean, "after {site} chaos");
    }
    fault::reset_to_env();
}

// ---------------------------------------------------------------------
// Deadline degradation
// ---------------------------------------------------------------------

/// An injected stall plus a short deadline ⇒ a flagged, *valid* partial
/// result — quickly, not after the stall's full duration would sum up.
#[test]
fn injected_delay_trips_the_deadline() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let engine = SamaEngine::new(figure1_data());
    let query = &workload()[0];
    // Stall the engine entry by 4× the deadline: the entry checkpoint
    // must catch the expiry right after the stall.
    fault::install(FaultPlan::single(
        "engine.answer",
        FaultAction::Delay(Duration::from_millis(80)),
        1,
    ));
    let budget = QueryBudget::deadline(Duration::from_millis(20));
    let started = Instant::now();
    let result = engine.answer_with_budget(query, 5, &budget);
    let elapsed = started.elapsed();
    fault::install(FaultPlan::none());
    fault::reset_to_env();

    assert!(result.truncated);
    assert_eq!(result.truncation, Some(TruncationReason::DeadlineExceeded));
    // Generous bound: the stall (80ms) plus scheduling noise, but far
    // below what an unchecked pipeline stall could accumulate.
    assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
}

/// `deadline = 0` expires before the pipeline starts: immediately back,
/// empty, flagged — and the EXPLAIN trace says why.
#[test]
fn zero_deadline_returns_flagged_empty_result_with_trace() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::install(FaultPlan::none());
    let engine = SamaEngine::with_config(
        figure1_data(),
        EngineConfig {
            deadline: Some(Duration::ZERO),
            trace: TraceConfig::enabled(),
            ..Default::default()
        },
    );
    let result = engine.answer(&workload()[0], 5);
    assert!(result.answers.is_empty());
    assert!(result.truncated);
    assert_eq!(result.truncation, Some(TruncationReason::DeadlineExceeded));
    let line = result.trace.as_ref().expect("trace enabled").to_json_line();
    assert!(line.contains("deadline_exceeded"), "{line}");
    fault::reset_to_env();
}

/// A cancelled token degrades an in-flight query the same way, flagged
/// `cancelled`.
#[test]
fn pre_cancelled_budget_is_flagged_cancelled() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::install(FaultPlan::none());
    let engine = SamaEngine::new(figure1_data());
    let token = CancelToken::new();
    token.cancel();
    let budget = QueryBudget::unlimited().cancelled_by(token);
    let result = engine.answer_with_budget(&workload()[0], 5, &budget);
    assert!(result.truncated);
    assert_eq!(result.truncation, Some(TruncationReason::Cancelled));
    fault::reset_to_env();
}

/// Unlimited-budget answers are bit-identical to plain `answer` — the
/// checkpoints read no clock when no deadline is set.
#[test]
fn no_deadline_is_bit_identical_to_plain_answer() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::install(FaultPlan::none());
    let engine = SamaEngine::new(figure1_data());
    for q in workload() {
        let plain = engine.answer(&q, 5);
        let budgeted = engine.answer_with_budget(&q, 5, &QueryBudget::unlimited());
        assert_eq!(fingerprint(&plain), fingerprint(&budgeted));
        // A comfortable real deadline never fires on this tiny fixture
        // either, so the flagged path stays untaken.
        let roomy =
            engine.answer_with_budget(&q, 5, &QueryBudget::deadline(Duration::from_secs(3600)));
        assert_eq!(fingerprint(&plain), fingerprint(&roomy));
    }
    fault::reset_to_env();
}

/// `answer_stream` runs under the engine's deadline like every other
/// entry point: deadline 0 is an empty stream that says why.
#[test]
fn zero_deadline_stream_is_empty_and_flagged() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::install(FaultPlan::none());
    let engine = SamaEngine::with_config(
        figure1_data(),
        EngineConfig {
            deadline: Some(Duration::ZERO),
            ..Default::default()
        },
    );
    let mut stream = engine.answer_stream(&workload()[0]);
    assert!(stream.next().is_none());
    assert_eq!(
        stream.truncation_reason(),
        Some(TruncationReason::DeadlineExceeded)
    );
    fault::reset_to_env();
}

const MALES: usize = 600;

/// `query` over [`MALES`] `P<i> gender "Male"` paths (more than two
/// budget-poll intervals of candidates), the last of them led in by `Z
/// likes P<MALES-1>` — the last path in content order — with `M` ≡
/// `Male` as the synonym table and the token cancelled at the first
/// `labels` call. Returns the result, the `labels` calls and the sink
/// lookups (one per fill).
fn fill_under_tripwire(
    query: &[(&str, &str, &str)],
    max_cluster_size: usize,
) -> (QueryResult, usize, usize) {
    let mut b = DataGraph::builder();
    for i in 0..MALES {
        b.triple_str(&format!("P{i}"), "gender", "\"Male\"")
            .unwrap();
    }
    b.triple_str("Z", "likes", &format!("P{}", MALES - 1))
        .unwrap();
    let mut index = Probe::new(MappedIndex::build(b.build()).expect("builds"));
    index.trip_at = 1;
    let budget = QueryBudget::unlimited().cancelled_by(Arc::clone(&index.token));
    let mut table = Thesaurus::new();
    table.group(["M", "Male"]);
    let engine = SamaEngine::from_index_with_config(
        index,
        EngineConfig {
            cluster: ClusterConfig {
                max_cluster_size,
                allow_full_scan: false,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .with_synonyms(Arc::new(table));
    let mut q = QueryGraph::builder();
    for (s, p, o) in query {
        q.triple_str(s, p, o).unwrap();
    }
    let result = engine.answer_with_budget(&q.build(), 5, &budget);
    let index = engine.index();
    (
        result,
        index.labels_calls.load(Ordering::SeqCst),
        index.sink_lookups.load(Ordering::SeqCst),
    )
}

/// A token cancelled during the fill of a thesaurus-widened query: the
/// one fill stops at its next poll, no second fill runs, and the
/// partial result is flagged.
#[test]
fn cancel_during_the_fill_stops_the_one_fill() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::install(FaultPlan::none());
    // "M" is not in the data; the table widens the sink to "Male" at
    // decomposition. `Z`'s path, the one the query's inner constant
    // touches, is read first (the token trips), and the scan runs on to
    // the poll that notices the cancel, four entries kept.
    let query = [("Z", "likes", "?p"), ("?p", "gender", "\"M\"")];
    let (result, labels_calls, fills) = fill_under_tripwire(&query, 4);
    assert_eq!(result.truncation, Some(TruncationReason::Cancelled));
    assert!(result.truncated);
    assert!(!result.answers.is_empty(), "partial, not empty");
    assert!(matches!(
        result.query_paths[0].sink(),
        QueryLabel::Const { accepted, .. } if accepted.len() == 1
    ));
    assert_eq!(result.clusters[0].entries.len(), 4);
    assert!(result.clusters[0].candidates_dropped > 0);
    assert_eq!(fills, 1, "a second fill ran");
    assert!(labels_calls < MALES, "{labels_calls} candidates read");
    fault::reset_to_env();
}

// ---------------------------------------------------------------------
// Typed rejection
// ---------------------------------------------------------------------

/// A malformed query (no triple patterns) fails *its* slot with a typed
/// error; valid neighbors answer normally.
#[test]
fn invalid_query_fails_typed_while_neighbors_answer() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::install(FaultPlan::none());
    let engine = SamaEngine::new(figure1_data());
    let mut qs = workload();
    let clean = baselines(&engine, &qs, 5);
    qs.insert(1, QueryGraph::builder().build()); // no triple patterns
    let outcome = engine.answer_batch(
        &qs,
        &BatchConfig {
            k: 5,
            threads: 2,
            ..Default::default()
        },
    );
    assert!(matches!(
        &outcome.results[1],
        Err(QueryError::InvalidQuery(msg)) if msg.contains("no triple patterns")
    ));
    assert_eq!(outcome.stats.failed, 1);
    let ok: Vec<_> = outcome
        .results
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != 1)
        .map(|(_, r)| fingerprint(r.as_ref().expect("valid neighbor")))
        .collect();
    assert_eq!(ok, clean);
    fault::reset_to_env();
}

/// The single-query front door rejects the same malformed query with
/// the same typed error (what the CLI turns into a one-line diagnostic
/// and a nonzero exit).
#[test]
fn try_answer_rejects_malformed_query() {
    let engine = SamaEngine::new(figure1_data());
    let err = engine
        .try_answer(&QueryGraph::builder().build(), 5)
        .expect_err("empty query must be rejected");
    assert!(matches!(err, QueryError::InvalidQuery(_)), "{err:?}");
    // And the error renders as one line.
    assert!(!err.to_string().contains('\n'));
}

// ---------------------------------------------------------------------
// Property: deadlines never panic, always flag
// ---------------------------------------------------------------------

// Random acyclic data, deadline 0: the engine must always return a
// valid, empty, flagged result — never panic, never hang.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn zero_deadline_never_panics(triples in arb_dag_triples(8, 14)) {
        let data = DataGraph::from_triples(&triples).expect("ground");
        let engine = SamaEngine::with_config(data, EngineConfig {
            deadline: Some(Duration::ZERO),
            ..Default::default()
        });
        let mut b = QueryGraph::builder();
        b.triple_str("n0", "p0", "?x").unwrap();
        b.triple_str("?x", "p1", "?y").unwrap();
        let result = engine.answer(&b.build(), 6);
        prop_assert!(result.truncated);
        prop_assert_eq!(result.truncation, Some(TruncationReason::DeadlineExceeded));
        prop_assert!(result.answers.is_empty());
    }
}
