//! Retrieval by label id against the rule it replaced.
//!
//! A cluster retrieves its candidates by the label ids decomposition
//! chose for each constant (`QueryLabel::Const::accepted`: its own label
//! and its synonyms'). Before, the index resolved the constant's lexical
//! form and its synonyms a second time; that rule is kept in `support`
//! (`reference_lookup`, `reference_candidates`). Over random graphs and
//! thesauri — names the data has and names it lacks, one name in two
//! groups, groups that unite several labels — every lookup a constant
//! can make retrieves the same list by both rules, and every cluster
//! holds the same entries.
//!
//! The old fill could not always tell what the sink lookup fixed about
//! its candidates: where a name it looked up resolved to nothing, it
//! read every candidate's sink label. An `exhaustive` fill of the
//! reference list (`Probe::all_paths`) replays that. Its counts —
//! `scanned`, `touched`, `alignments_computed` — are never below the
//! new fill's; where every name resolves, the old rule fixed the bit the
//! new one fixes, so the counts are the same.

mod support;

use path_index::{ExtractionConfig, IndexLike, MappedIndex, NoSynonyms, Thesaurus};
use proptest::prelude::*;
use rdf_model::{DataGraph, QueryGraph};
use sama_core::{
    build_clusters, decompose_query, AlignmentMode, Cluster, ClusterConfig, QueryLabel, QueryPath,
    ScoreParams,
};
use support::{
    arb_constant_mix_query, arb_dag_triples, reference_candidates, reference_lookup, Probe,
};

/// Thesaurus names: labels `arb_dag_triples` data may have (`p3` it
/// never has), and names no data has (`x0` is also an absent query
/// constant).
const NAMES: [&str; 12] = [
    "n0", "n1", "n2", "n3", "n4", "n5", "p0", "p1", "p3", "x0", "y", "z",
];

/// What the deleted sink-bit rule fixed for a list the sink lookup did
/// (`found`) or did not retrieve: `Some(bit)`, or `None` where it read
/// each candidate's sink label. It compared the names looked up (the
/// sink's lexical form and its synonyms) with the names of the labels
/// the sink accepts.
fn old_sink_bit<I: IndexLike>(
    q: &QueryPath,
    index: &I,
    thesaurus: &Thesaurus,
    found: bool,
) -> Option<bool> {
    use path_index::SynonymProvider;
    let QueryLabel::Const {
        accepted, lexical, ..
    } = q.sink()
    else {
        return Some(false);
    };
    if accepted.is_empty() {
        return Some(false);
    }
    let looked_up: Vec<String> = std::iter::once(lexical.to_string())
        .chain(thesaurus.synonyms(lexical))
        .collect();
    let named: Vec<&str> = accepted.iter().map(|&l| index.label_lexical(l)).collect();
    let fixed = match found {
        true => looked_up.iter().all(|name| named.contains(&name.as_str())),
        false => named.iter().all(|name| looked_up.iter().any(|n| n == name)),
    };
    fixed.then_some(found)
}

fn counts(c: &Cluster) -> [usize; 3] {
    [c.scanned, c.touched, c.alignments_computed]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn label_id_retrieval_is_the_lexical_rule(
        data in arb_dag_triples(8, 14),
        query in arb_constant_mix_query(),
        groups in proptest::collection::vec(
            proptest::collection::vec(0..NAMES.len(), 2..=4),
            0..=4,
        ),
    ) {
        let index = MappedIndex::build(DataGraph::from_triples(&data).expect("ground")).expect("builds");
        let Ok(query) = QueryGraph::from_triples(&query) else { return Ok(()) };
        let mut thesaurus = Thesaurus::new();
        for group in &groups {
            thesaurus.group(group.iter().map(|&i| NAMES[i]));
        }
        let all_resolve = groups
            .iter()
            .flatten()
            .all(|&i| index.constant_label(NAMES[i]).is_some());
        let qpaths = decompose_query(&query, &index, &thesaurus, &ExtractionConfig::default());

        // Every lookup of every constant position.
        for q in &qpaths {
            for label in q.nodes.iter().chain(q.edges.iter()) {
                let QueryLabel::Const { accepted, lexical, .. } = label else { continue };
                prop_assert_eq!(
                    index.paths_ending_in(accepted),
                    reference_lookup(&index, true, lexical, &thesaurus),
                    "sink {}", lexical
                );
                prop_assert_eq!(
                    index.paths_containing(accepted),
                    reference_lookup(&index, false, lexical, &thesaurus),
                    "label {}", lexical
                );
            }
        }

        // Every cluster, against the old fill replayed.
        let mut replay = Probe::new(index);
        let configs = [
            ClusterConfig::default(),
            ClusterConfig { max_candidates: 3, ..Default::default() },
            ClusterConfig { allow_full_scan: false, ..Default::default() },
        ];
        for config in &configs {
            for cap in [1, 2, 8] {
                for mode in [AlignmentMode::Greedy, AlignmentMode::Optimal] {
                    let config = ClusterConfig { max_cluster_size: cap, ..*config };
                    let params = ScoreParams::paper();
                    let clusters =
                        build_clusters(&qpaths, &replay.inner, &NoSynonyms, &params, mode, &config);
                    for (q, new) in qpaths.iter().zip(&clusters) {
                        let what = format!("{q:?} {config:?} {mode:?}");
                        let list = reference_candidates(q, &replay.inner, &thesaurus, &config);
                        prop_assert_eq!(new.candidates_retrieved, list.len(), "{}", &what);
                        let found = q.sink().lexical().is_some_and(|sink| {
                            !reference_lookup(&replay.inner, true, sink, &thesaurus).is_empty()
                        });
                        let old_bit = old_sink_bit(q, &replay.inner, &thesaurus, found);
                        if all_resolve {
                            prop_assert_eq!(old_bit, Some(found), "{}", &what);
                        }
                        replay.all_paths = Some(list);
                        let exhaustive = ClusterConfig { exhaustive: true, ..config };
                        let read_per_candidate = build_clusters(
                            std::slice::from_ref(q), &replay, &NoSynonyms, &params, mode, &exhaustive,
                        )
                        .pop()
                        .expect("one cluster");
                        replay.all_paths = None;
                        prop_assert_eq!(&new.entries, &read_per_candidate.entries, "{}", &what);
                        prop_assert_eq!(new.candidates_dropped, read_per_candidate.candidates_dropped);
                        // Reading the sink bit never saves work; where the old
                        // rule read it (`old_bit` is `None`), this is the old fill.
                        let (new, old) = (counts(new), counts(&read_per_candidate));
                        prop_assert!(new.iter().zip(&old).all(|(n, o)| n <= o), "{}: {:?} {:?}", &what, new, old);
                    }
                }
            }
        }
    }
}
