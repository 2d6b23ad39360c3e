//! Shared by the integration tests: a random-data strategy; an index the
//! tests can watch — it delegates every read to the wrapped index,
//! counts the reads the pipeline's contracts are stated in, and can
//! cancel a budget at a known point of a cluster fill; and the
//! retrieval rule as it read before query decomposition chose the
//! labels, as a reference.

#![allow(dead_code)] // each test target uses its own subset

use path_index::{
    IndexLike, LabelsRef, LshCandidate, LshParams, PathId, PathNodes, SynonymProvider,
};
use proptest::prelude::*;
use rdf_model::{DataGraph, EdgeId, LabelId, TermKind, Triple};
use sama_core::{CancelToken, ClusterConfig, QueryPath};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

mod dag;
#[allow(unused_imports)] // as `dead_code` above
pub use dag::arb_dag_triples;

/// The paper's Figure 1 bills, amendments and sponsors, names shortened.
pub fn figure1_data() -> DataGraph {
    let mut b = DataGraph::builder();
    for (person, amendment, bill) in [
        ("CB", "A0056", "B1432"),
        ("JR", "A1589", "B0532"),
        ("KF", "A1232", "B0045"),
        ("JM", "A0772", "B0045"),
        ("PD", "A0467", "B0532"),
    ] {
        b.triple_str(person, "sponsor", amendment).unwrap();
        b.triple_str(amendment, "aTo", bill).unwrap();
        b.triple_str(bill, "subject", "\"HC\"").unwrap();
    }
    for (person, bill) in [
        ("JR", "B0045"),
        ("PT", "B0532"),
        ("AN", "B1432"),
        ("PD", "B1432"),
    ] {
        b.triple_str(person, "sponsor", bill).unwrap();
    }
    for person in ["JR", "KF", "JM", "PD"] {
        b.triple_str(person, "gender", "\"Male\"").unwrap();
    }
    b.build()
}

/// A chain query of up to 14 nodes. Each node is a variable, one of the
/// data's `n*` constants, or a constant the data does not have (`x<i>`,
/// one per position, so `accepted` is empty); every predicate one of
/// `p0..p3` (`p3` never occurs in the data). Constants therefore land
/// at the sink only, the source only, the interior only, everywhere or
/// nowhere, and a long chain of them against a seven-node data path
/// overflows the memo's packed key.
pub fn arb_constant_mix_query() -> impl Strategy<Value = Vec<Triple>> {
    proptest::collection::vec((0usize..14, 0usize..4), 2..=14).prop_map(|spec| {
        let node = |i: usize, pick: usize| match pick {
            0..=5 => format!("n{pick}"),
            6..=9 => format!("x{i}"),
            _ => format!("?v{i}"),
        };
        spec.windows(2)
            .enumerate()
            .map(|(i, w)| {
                Triple::parse(
                    &node(i, w[0].0),
                    &format!("p{}", w[0].1),
                    &node(i + 1, w[1].0),
                )
            })
            .collect()
    })
}

pub struct Probe<I> {
    pub inner: I,
    /// `labels` calls so far: a fill reads a candidate's labels exactly
    /// once to score it, in candidate order.
    pub labels_calls: AtomicUsize,
    /// The path of every `labels` call, in call order: what a fill that
    /// fits its cap read, which is its candidate list.
    pub labels_read: Mutex<Vec<PathId>>,
    /// `token` is cancelled during this `labels` call (1-based), so a
    /// budget trips mid-cluster at a known candidate.
    pub trip_at: usize,
    pub token: Arc<CancelToken>,
    /// `path_nodes` calls so far: the combination search reads each
    /// node set it intersects once, when it starts.
    pub path_nodes_calls: AtomicUsize,
    /// Sink lookups so far: one per fill of a query path with a
    /// constant sink.
    pub sink_lookups: AtomicUsize,
    /// How often each query constant was resolved into the data
    /// vocabulary, by lexical form.
    pub resolved: Mutex<BTreeMap<String, usize>>,
    /// When set, what `all_path_ids` answers instead of every path: an
    /// `exhaustive` fill then fills this list with the sink bit read per
    /// candidate.
    pub all_paths: Option<Vec<PathId>>,
}

impl<I> Probe<I> {
    /// A probe that never cancels.
    pub fn new(inner: I) -> Self {
        Probe {
            inner,
            labels_calls: AtomicUsize::new(0),
            labels_read: Mutex::new(Vec::new()),
            trip_at: usize::MAX,
            token: CancelToken::new(),
            path_nodes_calls: AtomicUsize::new(0),
            sink_lookups: AtomicUsize::new(0),
            resolved: Mutex::new(BTreeMap::new()),
            all_paths: None,
        }
    }
}

impl<I: IndexLike> IndexLike for Probe<I> {
    fn constant_label(&self, lexical: &str) -> Option<LabelId> {
        let mut resolved = self.resolved.lock().expect("no panic under the lock");
        *resolved.entry(lexical.to_string()).or_default() += 1;
        self.inner.constant_label(lexical)
    }
    fn label_lexical(&self, label: LabelId) -> &str {
        self.inner.label_lexical(label)
    }
    fn label_kind(&self, label: LabelId) -> TermKind {
        self.inner.label_kind(label)
    }
    fn edge_labels(&self, edge: EdgeId) -> (LabelId, LabelId, LabelId) {
        self.inner.edge_labels(edge)
    }
    fn total_paths(&self) -> usize {
        self.inner.total_paths()
    }
    fn path_nodes(&self, id: PathId) -> PathNodes<'_> {
        self.path_nodes_calls.fetch_add(1, Ordering::SeqCst);
        self.inner.path_nodes(id)
    }
    fn path_edges(&self, id: PathId) -> &[EdgeId] {
        self.inner.path_edges(id)
    }
    fn labels(&self, id: PathId) -> LabelsRef<'_> {
        if self.labels_calls.fetch_add(1, Ordering::SeqCst) + 1 == self.trip_at {
            self.token.cancel();
        }
        self.labels_read
            .lock()
            .expect("no panic under the lock")
            .push(id);
        self.inner.labels(id)
    }
    fn path_shape(&self, id: PathId) -> u32 {
        self.inner.path_shape(id)
    }
    fn shape_count(&self) -> usize {
        self.inner.shape_count()
    }
    fn shape_edge_labels(&self, shape: u32) -> &[LabelId] {
        self.inner.shape_edge_labels(shape)
    }
    fn paths_ending_in(&self, labels: &[LabelId]) -> Cow<'_, [PathId]> {
        self.sink_lookups.fetch_add(1, Ordering::SeqCst);
        self.inner.paths_ending_in(labels)
    }
    fn paths_containing(&self, labels: &[LabelId]) -> Cow<'_, [PathId]> {
        self.inner.paths_containing(labels)
    }
    fn all_path_ids(&self) -> Vec<PathId> {
        match &self.all_paths {
            Some(paths) => paths.clone(),
            None => self.inner.all_path_ids(),
        }
    }
    fn lsh_params(&self) -> Option<LshParams> {
        self.inner.lsh_params()
    }
    fn lsh_probe(&self, signature: &[u32]) -> Vec<LshCandidate> {
        self.inner.lsh_probe(signature)
    }
}

/// The retrieval rule as it read while the index resolved query
/// constants itself: resolve `lexical` and each of its synonyms, then
/// union the postings of the labels found — each read on its own — in
/// path-content order. `sink` picks the sink postings, else the label
/// postings.
pub fn reference_lookup<I: IndexLike>(
    index: &I,
    sink: bool,
    lexical: &str,
    synonyms: &dyn SynonymProvider,
) -> Vec<PathId> {
    let widened = synonyms.synonyms(lexical);
    let mut union: Vec<PathId> = std::iter::once(lexical)
        .chain(widened.iter().map(String::as_str))
        .filter_map(|name| index.constant_label(name))
        .flat_map(|label| match sink {
            true => index.paths_ending_in(&[label]).into_owned(),
            false => index.paths_containing(&[label]).into_owned(),
        })
        .collect();
    union.sort_by(|&a, &b| {
        (index.path_nodes(a), index.path_edges(a)).cmp(&(index.path_nodes(b), index.path_edges(b)))
    });
    union.dedup();
    union
}

/// The list `build_clusters` fills `q`'s cluster from, by the retrieval
/// cascade of `ClusterConfig` (LSH aside) over [`reference_lookup`]:
/// every path when exhaustive, else the sink lookup, else the first
/// constant from the sink that retrieves anything, else every path when
/// a full scan is allowed — before `max_candidates` cuts it.
pub fn reference_candidates<I: IndexLike>(
    q: &QueryPath,
    index: &I,
    synonyms: &dyn SynonymProvider,
    config: &ClusterConfig,
) -> Vec<PathId> {
    if config.exhaustive {
        return index.all_path_ids();
    }
    q.sink()
        .lexical()
        .map(|sink| reference_lookup(index, true, sink, synonyms))
        .into_iter()
        .chain(q.constants_from_sink().map(|anchor| {
            reference_lookup(
                index,
                false,
                anchor.lexical().expect("a constant"),
                synonyms,
            )
        }))
        .find(|hits| !hits.is_empty())
        .unwrap_or_else(|| match config.allow_full_scan {
            true => index.all_path_ids(),
            false => Vec::new(),
        })
}
