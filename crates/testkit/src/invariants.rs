//! The invariant catalog: every cross-check the harness knows how to
//! run against a [`Case`].
//!
//! Two kinds. **Differential** invariants run the same query through
//! two implementations or configurations that must agree (single-shot
//! vs. the batch pool, engine vs. the VF2/GED oracles).
//! **Metamorphic** invariants transform the input in a way with a known
//! effect on the output (permutation ⇒ unchanged, query generalization
//! ⇒ score can only drop) and check the relation.
//!
//! Soundness notes, learned the hard way:
//! * Configuration differentials on one engine build compare
//!   *bit-identical* fingerprints (`f64::to_bits`) — the engine
//!   documents these paths as exact.
//! * Metamorphic checks that *rebuild* the graph (triple reordering,
//!   label renaming) compare score multisets within `1e-9`: rebuild
//!   changes interning order, which changes floating-point summation
//!   order.
//! * "Delete a data edge ⇒ scores rise" is NOT an invariant under the
//!   paper's path semantics: deleting an edge truncates maximal
//!   source→sink paths at its endpoints, and a shorter data path can
//!   align *cheaper* (fewer insertions). The sound monotonicity checks
//!   here transform the *query* (Theorem 1's direction): a relabel or
//!   a de-generalization can never improve the best score under
//!   exhaustive retrieval.
//! * VF2 agreement is one-directional: an exact (score-0) answer's
//!   subgraph must embed the query, but an embedding inside a *longer*
//!   data path does not yield a score-0 answer (the alignment pays
//!   insertions for the unmatched prefix/suffix).

use crate::case::Case;
use crate::reference_image::{reference_image, without_build_time};
use datasets::Rng;
use eval::oracle::ged_relevance;
use graph_match::{Matcher, Vf2Matcher};
use path_index::{
    decode_v2, display_parts, display_path, encode_v2, IcTable, IndexLike, LabelsRef, MappedIndex,
    PathIndex, Thesaurus,
};
use rdf_model::{DataGraph, Graph, Term, Triple};
use sama_core::{
    align, AlignmentMode, BatchConfig, ClusterConfig, ClusterEntry, EngineConfig, QueryBudget,
    QueryResult, Retrieval, SamaEngine, ScoreParams, SearchConfig, TraceCluster, TraceConfig,
};
use std::time::Duration;

/// Differential (two implementations agree) or metamorphic (a
/// transformed input relates predictably to the original).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Two configurations/oracles must agree on one input.
    Differential,
    /// A transformed input must relate predictably to the original.
    Metamorphic,
}

/// One named, documented cross-check.
pub struct Invariant {
    /// Stable name, used in case files and `testkit run --invariant`.
    pub name: &'static str,
    /// Differential or metamorphic.
    pub kind: Kind,
    /// One-line description for `testkit list` and failure messages.
    pub summary: &'static str,
    /// The check. `Err` carries a human-readable violation report.
    pub check: fn(&Case) -> Result<(), String>,
}

/// Every public invariant, swept by the runner for every generated case.
pub const CATALOG: &[Invariant] = &[
    Invariant {
        name: "batch_identity",
        kind: Kind::Differential,
        summary: "the batch worker pool matches single-shot answers bit-for-bit",
        check: batch_identity,
    },
    Invariant {
        name: "exact_answers_embed",
        kind: Kind::Differential,
        summary: "every exact (score-0) answer's subgraph embeds the query (VF2 homomorphism)",
        check: exact_answers_embed,
    },
    Invariant {
        name: "ged_oracle_agreement",
        kind: Kind::Differential,
        summary: "size-preserving exact answers cost 0 under the exact GED oracle",
        check: ged_oracle_agreement,
    },
    Invariant {
        name: "triple_order_invariance",
        kind: Kind::Metamorphic,
        summary: "shuffling data/query triples (hence node ids) preserves scores",
        check: triple_order_invariance,
    },
    Invariant {
        name: "label_renaming_invariance",
        kind: Kind::Metamorphic,
        summary: "a consistent bijective renaming of constant labels preserves scores",
        check: label_renaming_invariance,
    },
    Invariant {
        name: "query_relabel_monotone",
        kind: Kind::Metamorphic,
        summary: "relabeling a query edge to a fresh predicate never improves the best score",
        check: query_relabel_monotone,
    },
    Invariant {
        name: "generalization_monotone",
        kind: Kind::Metamorphic,
        summary: "replacing a query constant with a variable never worsens the best score",
        check: generalization_monotone,
    },
    Invariant {
        name: "topk_prefix_stability",
        kind: Kind::Metamorphic,
        summary: "the top-k list is a bit-identical prefix of the top-(k+3) list",
        check: topk_prefix_stability,
    },
    Invariant {
        name: "deadline_unlimited_identity",
        kind: Kind::Metamorphic,
        summary: "an unlimited or distant deadline is bit-identical to no deadline",
        check: deadline_unlimited_identity,
    },
    Invariant {
        name: "image_round_trip_identity",
        kind: Kind::Differential,
        summary: "the mapped image reads back every path, posting list, label, the \
                  content order and the IC table the builder holds, prints every path \
                  from its labels as the rebuilt graph prints it, and re-encodes to \
                  the same bytes",
        check: image_round_trip_identity,
    },
    Invariant {
        name: "lsh_converges_to_exact",
        kind: Kind::Differential,
        summary: "LSH retrieval is bit-identical to the exact scan at large top_m, \
                  and a subset with monotonically non-decreasing scores at small top_m",
        check: lsh_converges_to_exact,
    },
    Invariant {
        name: "ic_weights_preserve_theorem1",
        kind: Kind::Metamorphic,
        summary: "Theorem 1 monotonicity (query relabel / generalization) holds \
                  under corpus-IC-weighted mismatch costs",
        check: ic_weights_preserve_theorem1,
    },
    Invariant {
        name: "synonyms_converge_to_exact",
        kind: Kind::Differential,
        summary: "an empty synonym table plus a uniform IC table is bit-identical \
                  to the legacy engine, and a real table never worsens the best score",
        check: synonyms_converge_to_exact,
    },
    Invariant {
        name: "cluster_cap_is_prefix_of_uncapped",
        kind: Kind::Metamorphic,
        summary: "at max_cluster_size 1, 2 and 8 every cluster is a bit-identical prefix \
                  of the uncapped cluster, with the same EXPLAIN retrieval counts",
        check: cluster_cap_is_prefix_of_uncapped,
    },
];

/// Resolve an invariant by name — catalog entries plus hidden
/// deliberately-failing demos used to exercise the shrink/replay
/// machinery itself.
pub fn find(name: &str) -> Option<&'static Invariant> {
    CATALOG
        .iter()
        .chain(DEMOS.iter())
        .find(|inv| inv.name == name)
}

/// Hidden invariants that FAIL on purpose. Not part of [`CATALOG`] (the
/// runner never sweeps them); `find` resolves them so the shrinker and
/// `testkit replay` tests have a deterministic failure to chew on.
pub const DEMOS: &[Invariant] = &[Invariant {
    name: "demo_no_hub_label",
    kind: Kind::Metamorphic,
    summary: "demo invariant that rejects any data triple naming \"hub\"",
    check: |case| {
        if case.data.iter().any(|t| {
            [&t.subject, &t.predicate, &t.object]
                .iter()
                .any(|x| x.lexical() == "hub")
        }) {
            Err("data contains the forbidden label \"hub\"".to_string())
        } else {
            Ok(())
        }
    },
}];

// ---------------------------------------------------------------------------
// Engine plumbing shared by the checks.

/// The reference configuration: exhaustive retrieval, optimal
/// alignment, budgets far beyond any generated case.
pub fn base_config() -> EngineConfig {
    EngineConfig {
        alignment: AlignmentMode::Optimal,
        cluster: ClusterConfig {
            exhaustive: true,
            max_cluster_size: 1 << 20,
            max_candidates: 1 << 20,
            ..Default::default()
        },
        search: SearchConfig {
            max_expansions: 2_000_000,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn engine(case: &Case, config: EngineConfig) -> SamaEngine {
    SamaEngine::with_config(case.data_graph(), config)
}

/// A bit-exact fingerprint of a result: per-answer score components as
/// raw `f64` bits, the chosen data paths, exactness, and the truncation
/// flags. Two results with equal fingerprints are the same answers.
pub fn fingerprint(result: &QueryResult) -> Vec<String> {
    let mut lines: Vec<String> = result
        .answers
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
        .collect();
    lines.push(format!(
        "truncated={} reason={:?}",
        result.truncated, result.truncation
    ));
    lines
}

/// Rebuild-tolerant summary: the sorted score multiset plus the
/// truncation flag (see the module notes on summation order).
fn score_multiset(result: &QueryResult) -> Vec<f64> {
    let mut scores: Vec<f64> = result.answers.iter().map(|a| a.score()).collect();
    scores.sort_by(f64::total_cmp);
    scores
}

fn scores_approx_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= 1e-9)
}

fn diff(label: &str, left: &[String], right: &[String]) -> String {
    format!("{label}:\n  left : {left:?}\n  right: {right:?}")
}

/// Turn an answer subgraph back into a standalone data graph for the
/// oracles (nodes with equal labels merge, which is faithful: the
/// engine's graphs are label-keyed too).
fn graph_as_data(g: &Graph) -> Option<DataGraph> {
    let triples: Vec<Triple> = g
        .edges()
        .map(|(_, e)| {
            Triple::new(
                g.node_term(e.from),
                g.vocab().term(e.label),
                g.node_term(e.to),
            )
        })
        .collect();
    if triples.is_empty() {
        return None;
    }
    DataGraph::from_triples(&triples).ok()
}

// ---------------------------------------------------------------------------
// Differential checks.

fn batch_identity(case: &Case) -> Result<(), String> {
    let query = case.query_graph();
    let eng = engine(case, base_config());
    let single = eng.answer(&query, case.k);
    let queries = vec![query.clone(), query.clone(), query];
    let outcome = eng.answer_batch(
        &queries,
        &BatchConfig {
            k: case.k,
            threads: 2,
            ..Default::default()
        },
    );
    for (i, slot) in outcome.results.iter().enumerate() {
        match slot {
            Err(e) => return Err(format!("batch slot {i} failed: {e}")),
            Ok(result) => {
                if fingerprint(result) != fingerprint(&single) {
                    return Err(diff(
                        &format!("batch slot {i} diverged from single-shot"),
                        &fingerprint(&single),
                        &fingerprint(result),
                    ));
                }
            }
        }
    }
    Ok(())
}

fn exact_answers_embed(case: &Case) -> Result<(), String> {
    let query = case.query_graph();
    let eng = engine(case, base_config());
    let result = eng.answer(&query, case.k);
    for (rank, answer) in result.answers.iter().enumerate() {
        if !answer.is_exact() {
            continue;
        }
        let sub = answer.subgraph(eng.index());
        let Some(data) = graph_as_data(&sub) else {
            return Err(format!("exact answer #{rank} has an empty subgraph"));
        };
        // Homomorphism, not isomorphism: SPARQL (and the engine) let two
        // query variables bind the same data node, so an exact answer's
        // subgraph can be *smaller* than the query. (Found by this very
        // harness: data {n5 -p1-> n0}, query {?a -p1-> ?b, ?c -p1-> ?d}
        // collapses both patterns onto the one edge, score 0.)
        let matcher = Vf2Matcher {
            allow_shared_images: true,
            ..Default::default()
        };
        let found = matcher.find_matches(&data, &query, 1);
        if found.is_empty() {
            return Err(format!(
                "exact answer #{rank} (score 0) has no homomorphic VF2 embedding \
                 of the query in its own subgraph:\n{}",
                sub.to_sorted_lines().join("\n")
            ));
        }
    }
    Ok(())
}

fn ged_oracle_agreement(case: &Case) -> Result<(), String> {
    let query = case.query_graph();
    let eng = engine(case, base_config());
    let result = eng.answer(&query, case.k);
    for (rank, answer) in result.answers.iter().enumerate() {
        if !answer.is_exact() {
            continue;
        }
        let sub = answer.subgraph(eng.index());
        // The exact GED oracle is exponential; generated cases are tiny
        // but a hand-written replay file might not be.
        if sub.node_count() > 10 {
            continue;
        }
        // GED edits graphs node-for-node, so it prices a homomorphic
        // collapse (several query variables on one data node) as a real
        // edit even though the engine rightly scores it 0. Only when the
        // subgraph has the query's exact node and edge counts is the
        // engine's path-union map a bijection, and only then must the
        // two oracles agree on "exact ⇔ cost 0".
        if sub.node_count() != query.node_count() || sub.edge_count() != query.edge_count() {
            continue;
        }
        let cost = ged_relevance(&query, &sub);
        if cost.abs() > 1e-9 {
            return Err(format!(
                "answer #{rank} is engine-exact but the GED oracle prices its \
                 subgraph at {cost} (expected 0)"
            ));
        }
    }
    Ok(())
}

/// The timing-free structure of an EXPLAIN trace: which query paths
/// were decomposed, what every cluster retrieved/aligned/kept, and how
/// the search ended. Two runs over equal indexes must match exactly;
/// only durations and cache ratios may differ.
fn trace_structure(result: &QueryResult) -> Vec<String> {
    let Some(trace) = &result.trace else {
        return vec!["<no trace>".into()];
    };
    let mut lines: Vec<String> = trace
        .query_paths
        .iter()
        .map(|qp| format!("qpath {} len={}", qp.index, qp.len))
        .collect();
    lines.extend(trace.clusters.iter().map(|c| cluster_line(c, c.kept)));
    lines.push(format!(
        "search retrieved={} aligned={} expansions={} answers={} best={:?} \
         truncated={} reason={:?} clusters_truncated={}",
        trace.retrieved_paths,
        trace.candidates_aligned,
        trace.expansions,
        trace.answers,
        trace.best_score.map(f64::to_bits),
        trace.truncated,
        trace.truncation,
        trace.clusters_truncated,
    ));
    lines
}

/// One cluster's line of [`trace_structure`], reporting `kept` entries.
fn cluster_line(c: &TraceCluster, kept: usize) -> String {
    format!(
        "cluster q{} tier={} retrieved={} aligned={} kept={kept} dropped={} bestλ={:016x}",
        c.qpath_index,
        c.tier.as_str(),
        c.retrieved,
        c.aligned,
        c.dropped,
        c.best_lambda.to_bits(),
    )
}

/// The one index a query reads is the index the builder built: its
/// `SAMAIDX2` image is, but for the build-time word, the image of
/// [`reference_image`] (a builder that shares no code with the
/// library's); served from that image, every accessor returns exactly
/// what the builder's own pools hold — per path its nodes, edges,
/// labels and shape; per data label its lexical form,
/// kind, sink postings and label postings; per edge its three labels;
/// the content order and the IC table, bit for bit — and decoding the
/// image and encoding it again gives the same bytes.
fn image_round_trip_identity(case: &Case) -> Result<(), String> {
    let built = PathIndex::build(case.data_graph());
    let image = encode_v2(&built).map_err(|e| format!("encode failed: {e}"))?;
    let (got, want) = (
        without_build_time(&image),
        without_build_time(&reference_image(&case.data_graph())),
    );
    if got != want {
        let at = got.iter().zip(&want).position(|(a, b)| a != b);
        return Err(format!(
            "the image differs from the reference builder's: {} bytes against {}, \
             first difference at {at:?}",
            got.len(),
            want.len()
        ));
    }
    let mapped = MappedIndex::from_bytes(&image).map_err(|e| format!("open failed: {e}"))?;
    let mismatch = |what: String| Err(format!("the image disagrees with the builder: {what}"));

    let counts = |index: usize, shapes: usize| format!("{index} paths, {shapes} shapes");
    let (want, got) = (
        counts(built.path_count(), built.shape_count()),
        counts(mapped.total_paths(), mapped.shape_count()),
    );
    if got != want {
        return mismatch(format!("{got}, built {want}"));
    }
    // Explain, forest display and `sama paths` print a path from its
    // labels: as the graph rebuilt from the image prints it.
    let rebuilt = mapped.data().as_graph();
    for (id, ip) in built.paths() {
        let want: (&[_], &[_], LabelsRef<'_>, u32, String) = (
            ip.nodes,
            ip.edges,
            ip.labels,
            built.path_shape(id),
            display_parts(rebuilt, ip.nodes, ip.edges).to_string(),
        );
        let got = (
            mapped.path_nodes(id),
            mapped.path_edges(id),
            mapped.labels(id),
            mapped.path_shape(id),
            display_path(&mapped, id).to_string(),
        );
        if got != want {
            return mismatch(format!("path {id}: {got:?}, built {want:?}"));
        }
    }
    let graph = built.graph().as_graph();
    let view = mapped.view();
    for (label, kind, lexical) in graph.vocab().iter() {
        let want = (
            lexical,
            kind,
            built.paths_with_sink(label),
            built.paths_with_label(label),
        );
        let got = (
            mapped.label_lexical(label),
            mapped.label_kind(label),
            view.paths_with_sink(label),
            view.paths_with_label(label),
        );
        if got != want {
            return mismatch(format!("label {label}: {got:?}, built {want:?}"));
        }
    }
    for (id, edge) in graph.edges() {
        let want = (
            graph.node_label(edge.from),
            edge.label,
            graph.node_label(edge.to),
        );
        if mapped.edge_labels(id) != want {
            return mismatch(format!(
                "edge {id:?}: {:?}, built {want:?}",
                mapped.edge_labels(id)
            ));
        }
    }
    if mapped.all_path_ids() != built.content_order() {
        return mismatch(format!(
            "content order {:?}, built {:?}",
            mapped.all_path_ids(),
            built.content_order()
        ));
    }
    let want = IcTable::from_counts(&built.ic_counts());
    let got = mapped.ic_table().ok_or("no IC table")?;
    let weights = |table: &IcTable| {
        (0..table.len() as u32)
            .map(|l| table.weight(rdf_model::LabelId(l)).to_bits())
            .collect::<Vec<u64>>()
    };
    if weights(&got) != weights(&want) {
        return mismatch(format!(
            "IC table {:?}, built {:?}",
            weights(&got),
            weights(&want)
        ));
    }

    let decoded = decode_v2(&image).map_err(|e| format!("decode failed: {e}"))?;
    let again = encode_v2(&decoded).map_err(|e| format!("re-encode failed: {e}"))?;
    if again != image {
        let at = again.iter().zip(&image).position(|(a, b)| a != b);
        return Err(format!(
            "decode → encode changed the image: {} bytes against {}, first difference at {at:?}",
            again.len(),
            image.len()
        ));
    }
    Ok(())
}

/// The LSH candidate tier's contract (see `sama_core::Retrieval::Lsh`):
/// it is a *filter over the exact anchor scan*, so at a `top_m` that
/// covers every retrieved candidate the answers and EXPLAIN cluster
/// shapes are bit-identical to exact retrieval, and at a small `top_m`
/// every answer is one exact retrieval could produce, with per-rank
/// scores that never improve on the exact run's.
fn lsh_converges_to_exact(case: &Case) -> Result<(), String> {
    let query = case.query_graph();
    // Anchored (non-exhaustive) retrieval — the exhaustive reference
    // config deliberately bypasses the tier.
    let configure = |retrieval| {
        let mut config = base_config();
        config.cluster.exhaustive = false;
        config.cluster.retrieval = retrieval;
        config.trace = TraceConfig::enabled();
        config
    };

    let exact = engine(case, configure(Retrieval::Exact)).answer(&query, case.k);
    let covering = engine(
        case,
        configure(Retrieval::Lsh {
            bands: 8,
            rows: 2,
            top_m: 1 << 20,
        }),
    )
    .answer(&query, case.k);
    if fingerprint(&exact) != fingerprint(&covering) {
        return Err(diff(
            "LSH at covering top_m diverged from the exact scan",
            &fingerprint(&exact),
            &fingerprint(&covering),
        ));
    }
    if trace_structure(&exact) != trace_structure(&covering) {
        return Err(diff(
            "LSH at covering top_m changed the EXPLAIN structure",
            &trace_structure(&exact),
            &trace_structure(&covering),
        ));
    }

    let pruned = engine(
        case,
        configure(Retrieval::Lsh {
            bands: 8,
            rows: 2,
            top_m: 4,
        }),
    )
    .answer(&query, case.k);
    // Pruned clusters hold a subset of the exact entries, so the search
    // explores a subset of the combinations: it cannot find more
    // answers, and its rank-i answer cannot beat the exact rank-i.
    if pruned.answers.len() > exact.answers.len() {
        return Err(format!(
            "LSH at top_m=4 found MORE answers than the exact scan: {} > {}",
            pruned.answers.len(),
            exact.answers.len()
        ));
    }
    for (rank, (p, e)) in pruned.answers.iter().zip(&exact.answers).enumerate() {
        if p.score() + 1e-9 < e.score() {
            return Err(format!(
                "LSH at top_m=4 IMPROVED the rank-{rank} score: exact {} vs lsh {} \
                 (pruning cannot create better combinations)",
                e.score(),
                p.score()
            ));
        }
    }
    // Every pruned answer must be one the exact configuration can
    // produce: identical score bits and chosen data paths somewhere in
    // the exact run's (larger-k, untruncated) answer list.
    let exact_all = engine(case, configure(Retrieval::Exact)).answer(&query, 1 << 10);
    if !exact_all.truncated {
        let exact_lines: std::collections::BTreeSet<String> =
            fingerprint(&exact_all).into_iter().collect();
        for (rank, line) in fingerprint(&pruned)
            .iter()
            .take(pruned.answers.len())
            .enumerate()
        {
            if !exact_lines.contains(line) {
                return Err(format!(
                    "LSH at top_m=4 produced answer #{rank} that exact retrieval \
                     cannot: {line}"
                ));
            }
        }
    }
    Ok(())
}

/// The semantic tier's exact-fallback contract: with an *empty* synonym
/// table and a *uniform* IC table both features are armed but inert, so
/// answers and the EXPLAIN structure (including every cluster's tier
/// tag) must be bit-identical to the legacy engine. With a real synonym
/// group over data labels, widening every query path at decomposition
/// only ever *adds* accepted labels and candidate entries, so the best
/// score can never get worse.
fn synonyms_converge_to_exact(case: &Case) -> Result<(), String> {
    let query = case.query_graph();
    let configure = || {
        let mut config = base_config();
        config.trace = TraceConfig::enabled();
        config
    };
    let plain = engine(case, configure()).answer(&query, case.k);

    let neutral_engine = engine(case, configure());
    let vocab_len = neutral_engine.index().data().vocab().len();
    let neutral_engine = neutral_engine
        .with_synonyms(std::sync::Arc::new(Thesaurus::new()))
        .with_ic_table(IcTable::uniform(vocab_len));
    let neutral = neutral_engine.answer(&query, case.k);
    if fingerprint(&plain) != fingerprint(&neutral) {
        return Err(diff(
            "empty thesaurus + uniform IC diverged from the legacy engine",
            &fingerprint(&plain),
            &fingerprint(&neutral),
        ));
    }
    if trace_structure(&plain) != trace_structure(&neutral) {
        return Err(diff(
            "empty thesaurus + uniform IC changed the EXPLAIN structure",
            &trace_structure(&plain),
            &trace_structure(&neutral),
        ));
    }

    // A genuine synonym group over the first two distinct data node
    // labels: every original cluster entry survives (widening only adds
    // accepted labels), so the search minimum cannot rise.
    let mut labels: Vec<String> = Vec::new();
    for t in &case.data {
        for term in [&t.subject, &t.object] {
            let lex = term.lexical().to_string();
            if !labels.contains(&lex) {
                labels.push(lex);
            }
        }
        if labels.len() >= 2 {
            break;
        }
    }
    if labels.len() >= 2 {
        let mut thesaurus = Thesaurus::new();
        thesaurus.group([labels[0].as_str(), labels[1].as_str()]);
        let widened = engine(case, configure())
            .with_synonyms(std::sync::Arc::new(thesaurus))
            .answer(&query, case.k);
        if let (Some(p), Some(w)) = (plain.best(), widened.best()) {
            if w.score() > p.score() + 1e-9 {
                return Err(format!(
                    "synonym widening WORSENED the best score: {} -> {} \
                     (widening can only add candidates)",
                    p.score(),
                    w.score()
                ));
            }
        }
        for (rank, a) in widened.answers.iter().enumerate() {
            if !a.score().is_finite() || a.score() < -1e-9 {
                return Err(format!(
                    "synonym widening produced a non-finite/negative score at \
                     rank {rank}: {}",
                    a.score()
                ));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Metamorphic checks.

/// Theorem 1 under the IC-weighted cost model. Weights only scale the
/// per-mismatch price (never below zero, and a fresh label prices at
/// the table's absent-label maximum), so the paper's monotonicity
/// survives: relabeling a query edge to a fresh predicate can never
/// improve the best score, and generalizing a constant to a variable
/// can never worsen it.
fn ic_weights_preserve_theorem1(case: &Case) -> Result<(), String> {
    let mut config = base_config();
    config.ic_weights = true;
    let eng = engine(case, config);
    let query = case.query_graph();
    let result = eng.answer(&query, case.k);
    for (rank, a) in result.answers.iter().enumerate() {
        if !a.score().is_finite() || a.score() < -1e-9 {
            return Err(format!(
                "IC-weighted score at rank {rank} is not a finite non-negative \
                 number: {}",
                a.score()
            ));
        }
    }
    let Some(best) = result.best().map(|a| a.score()) else {
        return Ok(());
    };

    // Relabel direction: a fresh predicate is absent from the corpus, so
    // its mismatch weight is the table's maximum — never cheaper.
    let mut rng = Rng::new(case.seed ^ 0x1c5e_ed51);
    let candidates: Vec<usize> = (0..case.query.len())
        .filter(|&i| !case.query[i].predicate.is_variable())
        .collect();
    if !candidates.is_empty() {
        let mut worse = case.clone();
        let at = *rng.pick(&candidates);
        worse.query[at].predicate = Term::Iri("zzz_fresh_predicate".to_string());
        if worse.well_formed() {
            let worse_result = eng.answer(&worse.query_graph(), case.k);
            if let Some(worse_best) = worse_result.best().map(|a| a.score()) {
                if worse_best + 1e-9 < best {
                    return Err(format!(
                        "relabeling query edge {at} to a fresh predicate IMPROVED \
                         the IC-weighted best score: {best} -> {worse_best} \
                         (Theorem 1 violated under weighted costs)"
                    ));
                }
            }
        }
    }

    // Generalization direction: a variable admits every label at cost 0,
    // which can only undercut a weighted constant mismatch.
    let mut constants: Vec<Term> = Vec::new();
    for t in &case.query {
        for term in [&t.subject, &t.object] {
            if !term.is_variable() && !constants.contains(term) {
                constants.push(term.clone());
            }
        }
    }
    if constants.is_empty() {
        return Ok(());
    }
    let target = rng.pick(&constants).clone();
    let fresh = Term::Variable("gen_fresh".to_string());
    let mut general = case.clone();
    for t in &mut general.query {
        if t.subject == target {
            t.subject = fresh.clone();
        }
        if t.object == target {
            t.object = fresh.clone();
        }
    }
    if !general.well_formed() {
        return Ok(());
    }
    let general_result = eng.answer(&general.query_graph(), case.k);
    let Some(general_best) = general_result.best().map(|a| a.score()) else {
        return Err(format!(
            "generalizing {target} to a variable lost all answers under IC \
             weights (original best score {best})"
        ));
    };
    if general_best > best + 1e-9 {
        return Err(format!(
            "generalizing {target} to a variable WORSENED the IC-weighted best \
             score: {best} -> {general_best} (Theorem 1 violated under weighted \
             costs)"
        ));
    }
    Ok(())
}

fn triple_order_invariance(case: &Case) -> Result<(), String> {
    let baseline = engine(case, base_config()).answer(&case.query_graph(), case.k);
    let base_scores = score_multiset(&baseline);
    let mut rng = Rng::new(case.seed ^ 0x5075_7a7a);
    for trial in 0..3 {
        let mut permuted = case.clone();
        rng.shuffle(&mut permuted.data);
        rng.shuffle(&mut permuted.query);
        let result = engine(&permuted, base_config()).answer(&permuted.query_graph(), case.k);
        let scores = score_multiset(&result);
        if !scores_approx_equal(&base_scores, &scores) || baseline.truncated != result.truncated {
            return Err(format!(
                "triple permutation #{trial} changed the answers:\n  \
                 original scores: {base_scores:?} (truncated={})\n  \
                 permuted scores: {scores:?} (truncated={})",
                baseline.truncated, result.truncated
            ));
        }
    }
    Ok(())
}

fn label_renaming_invariance(case: &Case) -> Result<(), String> {
    let baseline = engine(case, base_config()).answer(&case.query_graph(), case.k);
    let base_scores = score_multiset(&baseline);

    // A bijection over constant labels, keyed by kind+lexical so two
    // same-spelled labels of different kinds stay distinct.
    let mut mapping: std::collections::BTreeMap<(u8, String), String> =
        std::collections::BTreeMap::new();
    let mut rename = |term: &Term| -> Term {
        let tag = match term {
            Term::Variable(_) => return term.clone(),
            Term::Iri(_) => 0u8,
            Term::Literal(_) => 1,
            Term::Blank(_) => 2,
        };
        let next = mapping.len();
        let fresh = mapping
            .entry((tag, term.lexical().to_string()))
            .or_insert_with(|| format!("renamed_{next}"))
            .clone();
        match term {
            Term::Iri(_) => Term::Iri(fresh),
            Term::Literal(_) => Term::Literal(fresh),
            Term::Blank(_) => Term::Blank(fresh),
            Term::Variable(_) => unreachable!(),
        }
    };
    let mut renamed = case.clone();
    for t in renamed.data.iter_mut().chain(renamed.query.iter_mut()) {
        t.subject = rename(&t.subject);
        t.predicate = rename(&t.predicate);
        t.object = rename(&t.object);
    }

    let result = engine(&renamed, base_config()).answer(&renamed.query_graph(), case.k);
    let scores = score_multiset(&result);
    if !scores_approx_equal(&base_scores, &scores) || baseline.truncated != result.truncated {
        return Err(format!(
            "bijective label renaming changed the answers:\n  \
             original scores: {base_scores:?}\n  renamed scores: {scores:?}"
        ));
    }
    Ok(())
}

fn query_relabel_monotone(case: &Case) -> Result<(), String> {
    let eng = engine(case, base_config());
    let result = eng.answer(&case.query_graph(), case.k);
    let Some(best) = result.best().map(|a| a.score()) else {
        return Ok(()); // no answers to compare against
    };
    let mut rng = Rng::new(case.seed ^ 0x07e1_abe1);
    let candidates: Vec<usize> = (0..case.query.len())
        .filter(|&i| !case.query[i].predicate.is_variable())
        .collect();
    if candidates.is_empty() {
        return Ok(());
    }
    let mut worse = case.clone();
    let at = *rng.pick(&candidates);
    worse.query[at].predicate = Term::Iri("zzz_fresh_predicate".to_string());
    if !worse.well_formed() {
        return Ok(());
    }
    let worse_result = eng.answer(&worse.query_graph(), case.k);
    let Some(worse_best) = worse_result.best().map(|a| a.score()) else {
        return Ok(()); // relabeled query retrieves nothing — vacuously worse
    };
    if worse_best + 1e-9 < best {
        return Err(format!(
            "relabeling query edge {at} to a fresh predicate IMPROVED the best \
             score: {best} -> {worse_best} (Theorem 1 violated)"
        ));
    }
    Ok(())
}

fn generalization_monotone(case: &Case) -> Result<(), String> {
    let eng = engine(case, base_config());
    let result = eng.answer(&case.query_graph(), case.k);
    let Some(best) = result.best().map(|a| a.score()) else {
        return Ok(());
    };
    // Collect the constant node labels of the query (subjects/objects).
    let mut constants: Vec<Term> = Vec::new();
    for t in &case.query {
        for term in [&t.subject, &t.object] {
            if !term.is_variable() && !constants.contains(term) {
                constants.push(term.clone());
            }
        }
    }
    if constants.is_empty() {
        return Ok(());
    }
    let mut rng = Rng::new(case.seed ^ 0x6e6e_7a11);
    let target = rng.pick(&constants).clone();
    let fresh = Term::Variable("gen_fresh".to_string());
    let mut general = case.clone();
    for t in &mut general.query {
        if t.subject == target {
            t.subject = fresh.clone();
        }
        if t.object == target {
            t.object = fresh.clone();
        }
    }
    if !general.well_formed() {
        return Ok(());
    }
    let general_result = eng.answer(&general.query_graph(), case.k);
    let Some(general_best) = general_result.best().map(|a| a.score()) else {
        return Err(format!(
            "generalizing {target} to a variable lost all answers \
             (original best score {best})"
        ));
    };
    if general_best > best + 1e-9 {
        return Err(format!(
            "generalizing {target} to a variable WORSENED the best score: \
             {best} -> {general_best} (Theorem 1 violated)"
        ));
    }
    Ok(())
}

fn topk_prefix_stability(case: &Case) -> Result<(), String> {
    let query = case.query_graph();
    let eng = engine(case, base_config());
    let small = eng.answer(&query, case.k);
    let large = eng.answer(&query, case.k + 3);
    let small_fp: Vec<String> = fingerprint(&small)
        .into_iter()
        .take(small.answers.len())
        .collect();
    let large_fp: Vec<String> = fingerprint(&large)
        .into_iter()
        .take(small.answers.len())
        .collect();
    if small_fp != large_fp {
        return Err(diff(
            &format!("top-{} is not a prefix of top-{}", case.k, case.k + 3),
            &small_fp,
            &large_fp,
        ));
    }
    Ok(())
}

/// Every answer of `result` carries the full alignment of each path it
/// chose: `align(q, index.labels(path), params, mode)` against its query
/// path (IC weights included), and λ bits equal to those of the cluster
/// entry the search chose it as. `mode` and `params` are what the engine
/// was configured with, not read back from the result.
pub fn answer_alignments_hold(
    result: &QueryResult,
    index: &impl IndexLike,
    params: &ScoreParams,
    mode: AlignmentMode,
) -> Result<(), String> {
    for (rank, answer) in result.answers.iter().enumerate() {
        for choice in &answer.choices {
            let Some(chosen) = &choice.entry else {
                continue;
            };
            let q = &result.query_paths[choice.qpath_index];
            let want = align(q, index.labels(chosen.path_id), params, mode);
            if chosen.alignment != want {
                return Err(format!(
                    "answer {rank}, q{}: path {} carries {:?}, align gives {want:?}",
                    choice.qpath_index, chosen.path_id, chosen.alignment
                ));
            }
            let cluster = &result.clusters[choice.qpath_index];
            let entry = cluster.entries.iter().find(|e| e.path_id == chosen.path_id);
            if entry.map(|e| e.lambda.to_bits()) != Some(want.lambda.to_bits()) {
                return Err(format!(
                    "answer {rank}, q{}: path {} has λ {} but its cluster entry {entry:?}",
                    choice.qpath_index, chosen.path_id, want.lambda
                ));
            }
        }
    }
    Ok(())
}

/// [`base_config`] never truncates a cluster (`max_cluster_size` 2^20),
/// so this is the one check that reaches the bounded selection of the
/// cluster fill: capping a cluster must keep exactly the first `cap`
/// entries of the uncapped one — same paths and λ bits, in the same
/// order — must not change what EXPLAIN says was retrieved, aligned and
/// dropped, and the capped run's answers must carry the full alignment
/// of each path they chose ([`answer_alignments_hold`]).
fn cluster_cap_is_prefix_of_uncapped(case: &Case) -> Result<(), String> {
    let query = case.query_graph();
    let eng = |cap: usize| {
        let mut config = base_config();
        config.cluster.max_cluster_size = cap;
        config.trace = TraceConfig::enabled();
        engine(case, config)
    };
    let entry_lines = |entries: &[ClusterEntry]| -> Vec<String> {
        entries
            .iter()
            .map(|e| format!("{:?} λ={:016x}", e.path_id, e.lambda.to_bits()))
            .collect()
    };
    // What EXPLAIN says of every cluster, `kept` clamped to the cap.
    let cluster_lines = |result: &QueryResult, cap: usize| -> Vec<String> {
        let clusters = result.trace.iter().flat_map(|t| &t.clusters);
        clusters.map(|c| cluster_line(c, c.kept.min(cap))).collect()
    };
    let uncapped = eng(1 << 20).answer(&query, case.k);
    for cap in [1, 2, 8] {
        let eng = eng(cap);
        let capped = eng.answer(&query, case.k);
        answer_alignments_hold(&capped, eng.index(), eng.params(), base_config().alignment)
            .map_err(|e| format!("cap {cap}: {e}"))?;
        for (c, u) in capped.clusters.iter().zip(&uncapped.clusters) {
            let want = &u.entries[..cap.min(u.entries.len())];
            if entry_lines(&c.entries) != entry_lines(want) {
                return Err(diff(
                    &format!(
                        "cluster {} at cap {cap} is not a prefix of the uncapped cluster",
                        c.qpath_index
                    ),
                    &entry_lines(&c.entries),
                    &entry_lines(want),
                ));
            }
        }
        if cluster_lines(&capped, cap) != cluster_lines(&uncapped, cap) {
            return Err(diff(
                &format!("cap {cap} changed the EXPLAIN cluster structure"),
                &cluster_lines(&capped, cap),
                &cluster_lines(&uncapped, cap),
            ));
        }
    }
    Ok(())
}

fn deadline_unlimited_identity(case: &Case) -> Result<(), String> {
    let query = case.query_graph();
    let none = engine(case, base_config()).answer(&query, case.k);
    let eng = engine(case, base_config());
    let unlimited = eng.answer_with_budget(&query, case.k, &QueryBudget::unlimited());
    let mut distant_config = base_config();
    distant_config.deadline = Some(Duration::from_secs(3600));
    let distant = engine(case, distant_config).answer(&query, case.k);
    if fingerprint(&none) != fingerprint(&unlimited) {
        return Err(diff(
            "unlimited budget diverged from no-deadline",
            &fingerprint(&none),
            &fingerprint(&unlimited),
        ));
    }
    if fingerprint(&none) != fingerprint(&distant) {
        return Err(diff(
            "distant deadline diverged from no-deadline",
            &fingerprint(&none),
            &fingerprint(&distant),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_findable() {
        let mut names: Vec<&str> = CATALOG.iter().map(|i| i.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate invariant names");
        for inv in CATALOG {
            assert!(find(inv.name).is_some());
        }
        assert!(find("demo_no_hub_label").is_some(), "demos resolvable");
        assert!(find("nope").is_none());
    }

    #[test]
    fn catalog_covers_both_kinds() {
        let differential = CATALOG
            .iter()
            .filter(|i| i.kind == Kind::Differential)
            .count();
        let metamorphic = CATALOG
            .iter()
            .filter(|i| i.kind == Kind::Metamorphic)
            .count();
        assert!(
            differential >= 4,
            "only {differential} differential invariants"
        );
        assert!(
            metamorphic >= 4,
            "only {metamorphic} metamorphic invariants"
        );
    }
}
