//! Cluster-fill scaling: exact anchor retrieval vs the LSH candidate
//! tier, on clusters whose candidate count `I` is swept over orders of
//! magnitude.
//!
//! The claim under test is PR 7's headline: alignment cost per cluster
//! is `O(I)` and dominates query time on low-selectivity anchors (the
//! paper's Figure 7a wall), so pruning `I` down to a fixed `top_m`
//! before alignment turns cluster fill from linear in the graph into
//! constant — *if* the MinHash ranking keeps the entries that exact
//! alignment would have ranked on top. Both arms run the same
//! `build_clusters` code path; only `ClusterConfig::retrieval`
//! differs, and recall of the exact top-k is measured before any
//! speedup is reported.
//!
//! Writes `results/BENCH_cluster.json` (override with
//! `BENCH_CLUSTER_OUT`). Scale down with `SAMA_BENCH_CLUSTER_CHAINS`
//! (the largest swept `I`) for smoke runs.

use path_index::{
    build_lsh_bytes, ExtractionConfig, LshParams, LshSidecar, MappedIndex, NoSynonyms,
};
use rdf_model::{DataGraph, QueryGraph};
use sama_core::{
    build_clusters, decompose_query, AlignmentMode, Cluster, ClusterConfig, QueryPath, Retrieval,
    ScoreParams, LSH_DEFAULT_TOP_M,
};
use std::hint::black_box;
use std::time::Instant;

/// Top-k depth for the recall measurement — the top of the cluster is
/// what combination search actually consumes.
const RECALL_K: usize = 10;
const TOP_M_SWEEP: [usize; 3] = [32, LSH_DEFAULT_TOP_M, 512];

/// Median wall time of `runs` executions of `f`.
fn time_ns<R>(runs: usize, mut f: impl FnMut() -> R) -> u128 {
    let mut times: Vec<u128> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[runs / 2]
}

/// `chains` three-edge chains all terminating in the same `"HC"` sink
/// literal, so the sink anchor retrieves every one of them — one
/// cluster with `I = chains`. The first [`RECALL_K`] chains reuse the
/// query's edge vocabulary (`sponsor`/`aTo`/`subject`) and align at
/// λ = 0; the rest carry noise edge labels and share only the sink.
/// The exact top-k is therefore precisely the matching tier, and
/// recall of that top-k is a real test of the MinHash ordering.
fn fixture(chains: usize) -> (MappedIndex, Vec<QueryPath>) {
    let mut b = DataGraph::builder();
    for i in 0..chains {
        let (e0, e1, e2) = if i < RECALL_K {
            (
                "sponsor".to_string(),
                "aTo".to_string(),
                "subject".to_string(),
            )
        } else {
            (
                format!("x{}", i % 40),
                format!("y{}", i % 40),
                format!("z{}", i % 40),
            )
        };
        b.triple_str(&format!("P{i}"), &e0, &format!("A{i}"))
            .unwrap();
        b.triple_str(&format!("A{i}"), &e1, &format!("B{i}"))
            .unwrap();
        b.triple_str(&format!("B{i}"), &e2, "\"HC\"").unwrap();
    }
    let index = MappedIndex::build(b.build()).expect("index fits format");

    // Variable endpoints, constant predicates: the matching tier is a
    // perfect (λ = 0) answer for each of its chains, and the query's
    // shingles overlap the tier's far more than the noise chains'.
    let mut qb = QueryGraph::builder();
    qb.triple_str("?p", "sponsor", "?v1").unwrap();
    qb.triple_str("?v1", "aTo", "?v2").unwrap();
    qb.triple_str("?v2", "subject", "\"HC\"").unwrap();
    let q = qb.build();
    let qpaths = decompose_query(&q, &index, &NoSynonyms, &ExtractionConfig::default());
    (index, qpaths)
}

fn config(retrieval: Retrieval) -> ClusterConfig {
    ClusterConfig {
        retrieval,
        // Lift the entry cap so the exact arm's top-k is the true
        // alignment ranking.
        max_cluster_size: usize::MAX,
        ..Default::default()
    }
}

fn fill(index: &MappedIndex, qpaths: &[QueryPath], retrieval: Retrieval) -> Vec<Cluster> {
    build_clusters(
        qpaths,
        index,
        &NoSynonyms,
        &ScoreParams::paper(),
        AlignmentMode::Greedy,
        &config(retrieval),
    )
}

/// Fraction of the exact cluster's top-k entries the LSH cluster kept,
/// averaged over clusters (here: the one low-selectivity cluster).
fn recall(exact: &[Cluster], lsh: &[Cluster]) -> f64 {
    let mut total = 0.0;
    let mut weight = 0usize;
    for (e, l) in exact.iter().zip(lsh) {
        assert_eq!(e.qpath_index, l.qpath_index);
        let k = RECALL_K.min(e.entries.len());
        if k == 0 {
            continue;
        }
        let top: Vec<_> = e.entries[..k].iter().map(|en| en.path_id).collect();
        let kept = l
            .entries
            .iter()
            .filter(|en| top.contains(&en.path_id))
            .count();
        total += kept as f64 / k as f64;
        weight += 1;
    }
    if weight == 0 {
        0.0
    } else {
        total / weight as f64
    }
}

fn main() {
    // `cargo test --benches` runs this target with `--test`; skip the
    // sweep there — the full fixture takes a while to align.
    if std::env::args().any(|a| a == "--test") {
        println!(
            "cluster_scaling: skipped in test mode (run via `cargo bench` to emit the baseline)"
        );
        return;
    }

    let max_chains: usize = std::env::var("SAMA_BENCH_CLUSTER_CHAINS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32_000);
    let sweep: Vec<usize> = [max_chains / 16, max_chains / 4, max_chains]
        .into_iter()
        .filter(|&i| i >= 64)
        .collect();

    let mut rows = Vec::new();
    let mut last_default_speedup = 0.0;
    let mut last_default_recall = 0.0;

    eprintln!(
        "{:>8} {:>8} {:>12} {:>12} {:>9} {:>7}",
        "I", "top_m", "exact_ns", "lsh_ns", "speedup", "recall"
    );
    for &chains in &sweep {
        let (mut index, qpaths) = fixture(chains);
        let sidecar = build_lsh_bytes(&index, LshParams::default()).expect("sidecar builds");
        index
            .attach_lsh(LshSidecar::from_bytes(&sidecar).expect("sidecar opens"))
            .expect("same paths");

        let exact_clusters = fill(&index, &qpaths, Retrieval::Exact);
        let retrieved: usize = exact_clusters.iter().map(|c| c.candidates_retrieved).sum();
        assert!(
            retrieved >= chains,
            "sink anchor must retrieve every chain (got {retrieved} of {chains})"
        );
        let runs = if chains >= 8_192 { 5 } else { 9 };
        let exact_ns = time_ns(runs, || fill(&index, &qpaths, Retrieval::Exact));

        for top_m in TOP_M_SWEEP {
            let retrieval = Retrieval::Lsh {
                bands: LshParams::default().bands,
                rows: LshParams::default().rows,
                top_m,
            };
            let lsh_clusters = fill(&index, &qpaths, retrieval);
            let r = recall(&exact_clusters, &lsh_clusters);
            let lsh_ns = time_ns(runs, || fill(&index, &qpaths, retrieval));
            let speedup = exact_ns as f64 / lsh_ns.max(1) as f64;
            eprintln!(
                "{chains:>8} {top_m:>8} {exact_ns:>12} {lsh_ns:>12} {speedup:>8.1}x {r:>7.3}"
            );
            if chains == *sweep.last().unwrap() && top_m == LSH_DEFAULT_TOP_M {
                last_default_speedup = speedup;
                last_default_recall = r;
            }
            rows.push(format!(
                "    {{\"candidates\": {chains}, \"top_m\": {top_m}, \
                 \"exact_ns\": {exact_ns}, \"lsh_ns\": {lsh_ns}, \
                 \"speedup_x\": {speedup:.2}, \"recall_at_{RECALL_K}\": {r:.4}}}"
            ));
        }
    }

    assert!(
        last_default_speedup >= 5.0,
        "LSH cluster fill must be >=5x faster at I={max_chains}, top_m={LSH_DEFAULT_TOP_M} \
         (got {last_default_speedup:.1}x)"
    );
    assert!(
        last_default_recall >= 0.9,
        "LSH top-{RECALL_K} recall must be >=0.9 at default top_m (got {last_default_recall:.3})"
    );

    let json = format!(
        "{{\n  \"fixture\": {{\"max_candidates\": {max_chains}, \"recall_k\": {RECALL_K}, \
         \"lsh\": {{\"bands\": {}, \"rows\": {}}}}},\n  \
         \"hardware_threads\": {},\n  \"sweep\": [\n{}\n  ],\n  \
         \"default_top_m\": {LSH_DEFAULT_TOP_M},\n  \
         \"speedup_at_default_x\": {last_default_speedup:.1},\n  \
         \"recall_at_default\": {last_default_recall:.4}\n}}\n",
        LshParams::default().bands,
        LshParams::default().rows,
        sama_obs::hardware_threads(),
        rows.join(",\n"),
    );
    let out = std::env::var("BENCH_CLUSTER_OUT").unwrap_or_else(|_| {
        format!(
            "{}/../../results/BENCH_cluster.json",
            env!("CARGO_MANIFEST_DIR")
        )
    });
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(err) => eprintln!("could not write {out}: {err}"),
    }
    print!("{json}");
}
