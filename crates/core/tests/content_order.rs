//! The content-order contract of `IndexLike`: every candidate list an
//! index hands out — the sink and label postings of one label or a union
//! of several, `all_path_ids`, and what the LSH tier leaves of a list — is strictly
//! increasing in `(path_nodes, path_edges)`, for the mapped index and a
//! wrapper forwarding to it. The cluster fill
//! breaks λ ties by candidate position and stops once its heap is full
//! at λ = 0; both are right only in this order.

mod support;

use path_index::{
    build_lsh_bytes, IndexLike, LshParams, LshSidecar, MappedIndex, NoSynonyms, PathId,
    SynonymProvider, Thesaurus,
};
use proptest::prelude::*;
use rdf_model::{DataGraph, LabelId, QueryGraph, Term, Triple};
use sama_core::{
    build_clusters, decompose_query, AlignmentMode, ClusterConfig, Retrieval, ScoreParams,
};
use std::collections::BTreeSet;
use support::{arb_dag_triples, reference_lookup, Probe};

const LSH: LshParams = LshParams { bands: 8, rows: 2 };

fn assert_content_order<I: IndexLike + ?Sized>(what: &str, index: &I, ids: &[PathId]) {
    for pair in ids.windows(2) {
        let [a, b] = [pair[0], pair[1]].map(|p| (index.path_nodes(p), index.path_edges(p)));
        assert!(a < b, "{what}: {} before {}", pair[0], pair[1]);
    }
}

/// `n0`/`n1`/`n2` and `p0`/`p1` stand for one another, so a lookup
/// through them unions several posting lists.
fn thesaurus() -> Thesaurus {
    let mut t = Thesaurus::new();
    t.group(["n0", "n1", "n2"]);
    t.group(["p0", "p1"]);
    t
}

/// `all_path_ids` lists every path once, and each lookup — of one label,
/// of a label twice, and of a label with its synonyms' — is in content
/// order; a union holds exactly the paths of the lists it merges, and is
/// what the lexical reference rule retrieves through the thesaurus.
fn check_lookups<I: IndexLike>(kind: &str, index: &I) {
    let all = index.all_path_ids();
    assert_eq!(all.len(), index.total_paths(), "{kind}");
    assert_content_order(&format!("{kind} all_path_ids"), index, &all);
    let thesaurus = thesaurus();
    let lookup = |sink: bool, labels: &[LabelId]| match sink {
        true => index.paths_ending_in(labels),
        false => index.paths_containing(labels),
    };
    let labels: BTreeSet<LabelId> = all
        .iter()
        .flat_map(|&p| {
            let labels = index.labels(p);
            labels
                .node_labels()
                .chain(labels.edge_labels.iter().copied())
                .collect::<Vec<_>>()
        })
        .collect();
    for &label in &labels {
        let lexical = index.label_lexical(label);
        let widened: Vec<LabelId> = std::iter::once(label)
            .chain(
                thesaurus
                    .synonyms(lexical)
                    .iter()
                    .filter_map(|name| index.constant_label(name)),
            )
            .collect();
        for (name, sink) in [("sink", true), ("label", false)] {
            let what = format!("{kind} {name} {lexical}");
            let alone = lookup(sink, &[label]);
            assert_content_order(&what, index, &alone);
            assert_eq!(lookup(sink, &[label, label]), alone, "{what} twice");
            let union = lookup(sink, &widened);
            assert_content_order(&format!("{what} + synonyms"), index, &union);
            assert_eq!(
                union,
                reference_lookup(index, sink, lexical, &thesaurus),
                "{what}"
            );
            let mut merged: BTreeSet<PathId> = BTreeSet::new();
            for &l in &widened {
                merged.extend(lookup(sink, &[l]).iter());
            }
            assert_eq!(
                union.iter().copied().collect::<BTreeSet<_>>(),
                merged,
                "{what}"
            );
        }
    }
}

/// For the one-pattern query `?v p o` of each `(p, o)` of `data`, the
/// list the LSH tier leaves to the fill, read back through the probe's
/// `labels` log (a cluster that fits its cap reads each candidate once,
/// in order). Returns how many of the lists were pruned.
fn check_lsh_lists<I: IndexLike>(kind: &str, probe: &Probe<I>, data: &[Triple]) -> usize {
    let config = ClusterConfig {
        retrieval: Retrieval::Lsh {
            bands: LSH.bands,
            rows: LSH.rows,
            top_m: 2,
        },
        // Every list fits: none is streamed.
        max_cluster_size: 1 << 20,
        ..Default::default()
    };
    let mut pruned = 0;
    for triple in data {
        let pattern = Triple {
            subject: Term::var("v"),
            ..triple.clone()
        };
        let query = QueryGraph::from_triples(&[pattern]).expect("one pattern");
        let qpaths = decompose_query(&query, &probe.inner, &NoSynonyms, &Default::default());
        probe.labels_read.lock().expect("unpoisoned").clear();
        let clusters = build_clusters(
            &qpaths,
            probe,
            &NoSynonyms,
            &ScoreParams::paper(),
            AlignmentMode::Greedy,
            &config,
        );
        let read = std::mem::take(&mut *probe.labels_read.lock().expect("unpoisoned"));
        let cluster = &clusters[0];
        assert_eq!(read.len(), cluster.scanned, "{kind} {triple}");
        assert_content_order(&format!("{kind} lsh {triple}"), probe, &read);
        pruned += usize::from(cluster.lsh_pruned > 0);
    }
    pruned
}

/// The index of `data` with an LSH tier.
fn with_lsh(data: DataGraph) -> MappedIndex {
    let mut index = MappedIndex::build(data).expect("builds");
    let sidecar = LshSidecar::from_bytes(&build_lsh_bytes(&index, LSH).expect("signs"));
    index
        .attach_lsh(sidecar.expect("opens"))
        .expect("same paths");
    index
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_candidate_list_is_in_content_order(data in arb_dag_triples(8, 14)) {
        let index = with_lsh(DataGraph::from_triples(&data).expect("ground"));
        check_lookups("MappedIndex", &index);
        let probe = Probe::new(index);
        check_lookups("Probe", &probe);
        check_lsh_lists("Probe", &probe, &data);
    }
}

/// 64 chains from one hub sponsor, its sponsor edges inserted towards
/// descending amendment ids: extraction walks them in that order, so
/// path ids run against content order, and the query's sink retrieves
/// all 64 — enough for the LSH tier to prune.
#[test]
fn the_lsh_tier_keeps_content_order_when_it_prunes() {
    let mut b = DataGraph::builder();
    for i in 0..64 {
        b.triple_str(&format!("A{i}"), "aTo", &format!("B{}", i % 8))
            .unwrap();
    }
    for j in 0..8 {
        b.triple_str(&format!("B{j}"), "subject", "\"HC\"").unwrap();
    }
    for i in (0..64).rev() {
        b.triple_str("H", "sponsor", &format!("A{i}")).unwrap();
    }
    let data = [
        Triple::parse("B0", "subject", "\"HC\""),
        Triple::parse("A3", "aTo", "B3"),
    ];
    let index = with_lsh(b.build());
    let ids = index.all_path_ids();
    assert!(
        ids.windows(2).all(|w| w[0] > w[1]),
        "path ids run against content order"
    );
    assert!(check_lsh_lists("Probe", &Probe::new(index), &data) > 0);
}
